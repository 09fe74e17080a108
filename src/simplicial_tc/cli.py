"""Command-line front end: batch computation and certificate verification.

Exit codes: 0 for a decisive outcome (exact value, yes/no verdict, verified
certificate, not-coverable), 2 when a state budget left the answer open
(budget exhausted / unknown), 1 for errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .certificates import (
    dumps,
    emit_core,
    emit_membership,
    emit_plan,
    emit_scat,
    emit_tc,
    verify_certificate,
)
from .collapse import core
from .complexes import parse_complex, serialize_complex
from .errors import InvalidInput, SimplicialTCError
from .invariants import InvariantResult, Status, admissibility, motion_plan, scat, tc
from .maps import DEFAULT_BUDGET, Verdict
from .product import categorical_square

_STATUS_EXIT = {
    Status.EXACT: 0,
    Status.NOT_COVERABLE: 0,
    Status.BUDGET_EXHAUSTED: 2,
}
_VERDICT_EXIT = {Verdict.YES: 0, Verdict.NO: 0, Verdict.UNKNOWN: 2}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SimplicialTCError, OSError, UnicodeDecodeError) as exc:
        # unreadable input (a directory, a missing or non-UTF-8 file) is an input error
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stc",
        description="Discrete topological complexity and simplicial LS-category "
        "of finite simplicial complexes, with machine-checkable certificates.",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def add_common(sp, budget=True):
        sp.add_argument("--json", action="store_true", help="print the certificate JSON")
        sp.add_argument("-o", "--output", metavar="FILE", help="write the certificate JSON to FILE")
        if budget:
            sp.add_argument(
                "--budget",
                type=int,
                default=DEFAULT_BUDGET,
                help="max distinct maps per class search (default %(default)s)",
            )

    sp = sub.add_parser("tc", help="discrete topological complexity of a complex")
    sp.add_argument("file")
    add_common(sp)
    sp.set_defaults(func=_cmd_cover, name="TC", invariant=tc, emit=emit_tc)

    sp = sub.add_parser("scat", help="simplicial LS-category of a complex")
    sp.add_argument("file")
    add_common(sp)
    sp.set_defaults(func=_cmd_cover, name="scat", invariant=scat, emit=emit_scat)

    sp = sub.add_parser("core", help="strong-collapse core and collapse sequence")
    sp.add_argument("file")
    add_common(sp, budget=False)
    sp.set_defaults(func=_cmd_core)

    sp = sub.add_parser("product", help="categorical square of a complex")
    sp.add_argument("file")
    add_common(sp, budget=False)
    sp.set_defaults(func=_cmd_product)

    sp = sub.add_parser("is-farber", help="is a subcomplex of K^2 a Farber subcomplex?")
    sp.add_argument("file")
    sp.add_argument(
        "--omega",
        dest="facets",
        metavar="OMEGA",
        required=True,
        help="facets of the subcomplex, ';'-separated, vertices as pair labels like a|b",
    )
    add_common(sp)
    sp.set_defaults(func=_cmd_membership, kind="farber")

    sp = sub.add_parser("is-categorical", help="is a subcomplex of K categorical?")
    sp.add_argument("file")
    sp.add_argument(
        "--sub",
        dest="facets",
        metavar="SUB",
        required=True,
        help="facets of the subcomplex, ';'-separated, vertices whitespace-separated",
    )
    add_common(sp)
    sp.set_defaults(func=_cmd_membership, kind="categorical")

    sp = sub.add_parser("plan", help="motion plan between two vertices")
    sp.add_argument("file")
    sp.add_argument("--from", dest="src", required=True, metavar="X")
    sp.add_argument("--to", dest="dst", required=True, metavar="Y")
    add_common(sp)
    sp.set_defaults(func=_cmd_plan)

    sp = sub.add_parser("verify", help="re-check a certificate from scratch")
    sp.add_argument("cert")
    sp.add_argument("--recompute", action="store_true", help="also re-run the full computation")
    sp.set_defaults(func=_cmd_verify)

    return p


def _load(path: str):
    return parse_complex(Path(path).read_text())


def _deliver(args, cert: dict | None, human_lines: list[str]) -> None:
    if cert is not None and args.output:
        Path(args.output).write_text(dumps(cert) + "\n")
    if cert is not None and args.json:
        print(dumps(cert))
    else:
        for line in human_lines:
            print(line)


def _facet_str(facet) -> str:
    return " ".join(facet)


def _describe_result(name: str, res: InvariantResult) -> list[str]:
    if res.status is Status.EXACT:
        lines = [f"{name} = {res.value} (exact)"]
        lines.append(f"cover ({len(res.cover)} admissible subcomplexes):")
        for i, adm in enumerate(res.cover, start=1):
            facets = " ; ".join(_facet_str(f) for f in adm.omega.facet_label_sets())
            lines.append(f"  {i}: {facets}")
        return lines
    if res.status is Status.NOT_COVERABLE:
        return [f"{name} = not coverable (some facet lies in no admissible subcomplex)"]
    return [
        f"{name} in [{res.lower_bound}, {res.upper_bound}] ({res.status.value}; "
        f"{len(res.unknown_sets)} subsets undecided)"
    ]


def _cmd_cover(args) -> int:
    K = _load(args.file)
    res = args.invariant(K, budget=args.budget)
    _deliver(args, args.emit(K, res, args.budget), _describe_result(args.name, res))
    return _STATUS_EXIT[res.status]


def _cmd_core(args) -> int:
    K = _load(args.file)
    c, seq = core(K)
    lines = [f"core: {c.n_vertices} vertex(es), {len(c.facets)} facet(s)"]
    lines.extend("  " + " ".join(f) for f in c.facet_label_sets())
    if seq.steps:
        lines.append(f"collapse sequence ({len(seq.steps)} deletions):")
        lines.extend(f"  delete {v} (dominated by {u})" for v, u in seq.step_labels())
    else:
        lines.append("no dominated vertices: the complex is its own core")
    _deliver(args, emit_core(K, c, seq), lines)
    return 0


def _cmd_product(args) -> int:
    K = _load(args.file)
    P = categorical_square(K)
    text = serialize_complex(P.product, form="json" if args.json else "text")
    if args.output:
        Path(args.output).write_text(text if text.endswith("\n") else text + "\n")
    print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _parse_facet_arg(spec: str) -> list[list[str]]:
    facets = []
    for chunk in spec.split(";"):
        toks = chunk.split()
        if toks:
            facets.append(toks)
    if not facets:
        raise InvalidInput("no facets given")
    return facets


def _cmd_membership(args) -> int:
    K = _load(args.file)
    A = admissibility(args.kind, K)
    sub = A.from_labels(_parse_facet_arg(args.facets))
    verdict, adm = A.decide(sub, budget=args.budget)
    cert = emit_membership(args.kind, K, sub, verdict, adm, args.budget)
    detail = f" (witness length {len(adm.witness)})" if adm is not None else ""
    _deliver(args, cert, [f"{args.kind}: {verdict.value}{detail}"])
    return _VERDICT_EXIT[verdict]


def _cmd_plan(args) -> int:
    K = _load(args.file)
    x, y = K.id(args.src), K.id(args.dst)
    res = tc(K, budget=args.budget)
    if res.cover is None:  # not coverable: every other result carries a cover
        print("error: no Farber cover exists (complex is not edge-path connected?)", file=sys.stderr)
        return 1
    # the cover covers every facet of K^2, so every vertex (x, y)
    label = f"{args.src}|{args.dst}"
    adm = next(a for a in res.cover if label in a.omega.labels)
    plan = motion_plan(adm, x, y)
    cert = emit_plan(K, adm, plan, args.budget)
    # collapse consecutive repeats for display; the certificate keeps the
    # full unfolded sequence
    hops = [plan.path[0]]
    for v in plan.path[1:]:
        if v != hops[-1]:
            hops.append(v)
    path = " ".join(K.labels[v] for v in hops)
    _deliver(args, cert, [f"path: {path}"])
    return _STATUS_EXIT[res.status]


def _cmd_verify(args) -> int:
    try:
        cert = json.loads(Path(args.cert).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:
        print(f"certificate REJECTED: malformed JSON: {exc}", file=sys.stderr)
        return 1
    ok, messages = verify_certificate(cert, recompute=args.recompute)
    for msg in messages:
        print(msg if ok else f"certificate REJECTED: {msg}", file=None if ok else sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
