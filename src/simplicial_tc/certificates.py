"""Certificate serialization and from-scratch re-validation.

Every computation the CLI exposes can emit a JSON certificate that is
self-contained: it carries the input complex, the verdict, and the witnesses
(assignment arrays written as label lists).  verify_certificate() rebuilds
everything from the stored complex and re-checks the defining conditions --
witness steps are simplicial, consecutive steps contiguous, endpoints equal
the maps being certified, covers actually cover.  It never trusts stored
flags.  Negative verdicts (exact "no" / lower bounds) rest on exhaustive
search, so they are re-checked only under recompute=True.
"""

from __future__ import annotations

import json
from typing import Any

from .collapse import CollapseSequence, core, dominated_vertices
from .complexes import Complex, _assemble_complex, _label_lists, _labels, embedding_ids, subcomplex
from .errors import SimplicialTCError
from .invariants import (
    Admissibility,
    AdmissibleSet,
    InvariantResult,
    MotionPlan,
    Status,
    admissibility,
    motion_plan,
    scat,
    tc,
)
from .maps import (
    DEFAULT_BUDGET,
    ContiguityWitness,
    SimplicialMap,
    Verdict,
    _unchecked_map,
    check_budget,
)

# Unused here since invariants.admissibility builds the square; e2ebench/tracing.py patches it.
from .product import categorical_square  # noqa: F401

FORMAT = "simplicial-tc/1"

# certificate kind of each invariant -> (admissible kind of its cover, the invariant)
_COVER_KINDS = {"tc": ("farber", tc), "scat": ("categorical", scat)}


def dumps(cert: dict) -> str:
    """cert as JSON text, byte for byte json.dumps(cert, indent=2, sort_keys=True).

    Certificate bytes are pinned, so this contract is exact.  With an indent,
    json.dumps takes CPython's pure-Python encoder, which yields one small
    piece per token; this writer encodes strings with the same C function
    (ensure_ascii) and joins each container's pieces, a list of strings
    such as a witness row in one call.  It writes dicts, lists, tuples,
    strings, ints, bools and None; on anything else (a float, a non-str
    key, a subclass of dict, list or int, an int too long for str, a cycle)
    it raises TypeError, ValueError or RecursionError, and then the whole
    certificate goes through json.dumps.
    """
    try:
        return _encode(cert, "\n")
    except (TypeError, ValueError, RecursionError):  # json.dumps answers, or raises its own error
        return json.dumps(cert, indent=2, sort_keys=True)


_encode_str = json.encoder.encode_basestring_ascii  # raises TypeError on a non-str


def _encode(x: Any, newline: str) -> str:
    """x as json.dumps(indent=2, sort_keys=True) writes it; newline breaks a line and indents to x."""
    t = type(x)
    if t is str:
        return _encode_str(x)
    if t is dict:
        if not x:
            return "{}"
        inner = newline + "  "
        # str keys sort as json.dumps sorts them; a non-str key raises in _encode_str
        items = [_encode_str(k) + ": " + _encode(x[k], inner) for k in sorted(x)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if t is list or t is tuple:
        if not x:
            return "[]"
        inner = newline + "  "
        if type(x[0]) is str:
            try:
                return "[" + inner + ("," + inner).join(map(_encode_str, x)) + newline + "]"
            except TypeError:  # not all strings
                pass
        items = [_encode(item, inner) for item in x]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if t is int:
        return int.__repr__(x)
    raise TypeError(f"{t.__name__} is left to json.dumps")


def _facet_lists(K: Complex) -> list[list[str]]:
    return sorted([list(f) for f in K.facet_label_sets()])


def _admissible_payload(adm: AdmissibleSet) -> dict[str, Any]:
    codomain = adm.witness.first.codomain
    return {
        "kind": adm.kind,
        "facets": _facet_lists(adm.omega),
        "vertices": list(adm.omega.labels),
        "section": (
            [adm.section.codomain.labels[c] for c in adm.section.assignment]
            if adm.section is not None
            else None
        ),
        "witness": [
            [codomain.labels[c] for c in step.assignment] for step in adm.witness.steps
        ],
    }


def _emit_cover(kind: str, K: Complex, result: InvariantResult, budget: int) -> dict[str, Any]:
    return {
        "format": FORMAT,
        "kind": kind,
        "complex": {"facets": _facet_lists(K)},
        "budget": budget,
        "status": result.status.value,
        "value": result.value,
        "lower": result.lower_bound,
        "upper": result.upper_bound,
        "cover": (
            [_admissible_payload(a) for a in result.cover] if result.cover is not None else None
        ),
        "unknown_subsets": len(result.unknown_sets),
        "checks": result.checks,
    }


def emit_tc(K: Complex, result: InvariantResult, budget: int) -> dict[str, Any]:
    return _emit_cover("tc", K, result, budget)


def emit_scat(K: Complex, result: InvariantResult, budget: int) -> dict[str, Any]:
    return _emit_cover("scat", K, result, budget)


def emit_core(K: Complex, core_complex: Complex, seq: CollapseSequence) -> dict[str, Any]:
    return {
        "format": FORMAT,
        "kind": "core",
        "complex": {"facets": _facet_lists(K)},
        "core": {"facets": _facet_lists(core_complex)},
        "steps": [list(pair) for pair in seq.step_labels()],
    }


def emit_membership(
    kind: str,
    K: Complex,
    omega: Complex,
    verdict: Verdict,
    adm: AdmissibleSet | None,
    budget: int,
) -> dict[str, Any]:
    return {
        "format": FORMAT,
        "kind": kind,
        "complex": {"facets": _facet_lists(K)},
        "omega": _facet_lists(omega),
        "verdict": verdict.value,
        "admissible": _admissible_payload(adm) if adm is not None else None,
        "budget": budget,
    }


def emit_plan(K: Complex, adm: AdmissibleSet, plan: MotionPlan, budget: int) -> dict[str, Any]:
    labels = K.labels
    return {
        "format": FORMAT,
        "kind": "plan",
        "complex": {"facets": _facet_lists(K)},
        "budget": budget,
        "admissible": _admissible_payload(adm),
        "from": labels[plan.x],
        "to": labels[plan.y],
        "section_point": labels[plan.section_point],
        "pairs": [[labels[a], labels[b]] for a, b in plan.pairs],
        "path": [labels[v] for v in plan.path],
    }


# -- verification -------------------------------------------------------------


class _Reject(SimplicialTCError):
    pass


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise _Reject(message)


def _rebuild_complex(payload: Any) -> Complex:
    _need(isinstance(payload, dict) and "facets" in payload, "missing complex facets")
    # products carry pair labels with '|', so skip the input-label reservations
    return _assemble_complex(_label_lists(payload["facets"], "facets"), check_labels=False)


def _rebuild_admissible(entry: Any, A: Admissibility) -> AdmissibleSet:
    """Reconstruct and fully re-validate one admissible-set payload of A's kind.

    A Farber entry's witness lands in A.ambient = K^2 and its section in
    A.base = K; a categorical entry's witness lands in A.ambient = K.
    """
    _need(isinstance(entry, dict), "admissible set must be a JSON object")
    _need(entry["kind"] == A.kind, f"expected a {A.kind} admissible set, got {entry['kind']!r}")
    ambient, base = A.ambient, A.base
    facets = _label_lists(entry["facets"], "admissible set facets")
    omega = subcomplex(ambient, [ambient.simplex_mask(f) for f in facets])
    vertices = _labels(entry["vertices"], "vertices")
    _need(list(omega.labels) == vertices, "vertex table mismatch in admissible set")
    steps = []
    for row in _label_lists(entry["witness"], "witness"):
        _need(len(row) == omega.n_vertices, "witness step has wrong length")
        # ContiguityWitness checks each step, so the step skips its own check
        steps.append(_unchecked_map(omega, ambient, tuple(ambient.id(lab) for lab in row)))
    witness = ContiguityWitness(tuple(steps))
    emb = embedding_ids(omega, ambient)
    if base is not None:
        section_labels = _labels(entry["section"], "a farber entry's section")
        section = SimplicialMap(omega, base, tuple(base.id(lab) for lab in section_labels))
        diag = tuple(A.square.pair_id(c, c) for c in section.assignment)
        _need(witness.first.assignment == diag, "witness does not start at diagonal∘section")
        _need(witness.last.assignment == emb, "witness does not end at the inclusion")
        return AdmissibleSet("farber", omega, witness, section=section)
    _need(entry["section"] is None, "a categorical entry carries a section")
    _need(witness.first.assignment == emb, "witness does not start at the inclusion")
    _need(witness.last.is_constant, "witness does not end at a constant map")
    return AdmissibleSet("categorical", omega, witness)


def _is_count(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_cover(cert: dict[str, Any], A: Admissibility) -> None:
    """Status, value, bounds, counts and cover size must agree, and the cover must cover.

    A not-coverable result may count undecided subsets: a full set can be
    undecided before a singleton is a "no".
    """
    status = cert["status"]
    cover = cert["cover"]
    value, lower, upper = cert["value"], cert["lower"], cert["upper"]
    unknown = cert["unknown_subsets"]
    _need(status in {s.value for s in Status}, f"unknown status {status!r}")
    _need(cover is None or isinstance(cover, list), "cover must be a list or null")
    for x in (value, lower, upper):
        _need(
            x is None or _is_count(x) and x >= 0,
            "value and bounds must be non-negative integers or null",
        )
    for x in (cert["checks"], unknown):
        _need(_is_count(x) and x >= 0, "checks and unknown_subsets must be non-negative integers")
    _need(unknown <= cert["checks"], "more undecided subsets than checks")  # each one was checked
    if status == Status.EXACT.value:
        _need(unknown == 0, "exact result has undecided subsets")
        _need(cover is not None, "exact result must carry a cover")
        _need(
            value == lower == upper == len(cover) - 1,
            "exact result value inconsistent with cover size",
        )
    elif status == Status.NOT_COVERABLE.value:
        _need(cover is None, "not-coverable result carries a cover")
        _need(
            value is None and lower is None and upper is None,
            "not-coverable result carries a value or bounds",
        )
    else:
        _need(value is None, "budget-exhausted result carries a value")
        _need(unknown >= 1, "budget-exhausted result has no undecided subsets")
        _need(lower is not None, "budget-exhausted result needs a lower bound")
        if cover is None:
            _need(upper is None, "upper bound without a cover")
        else:
            _need(upper == len(cover) - 1, "upper bound inconsistent with cover size")
            _need(lower <= upper, "lower bound exceeds upper bound")
    if cover is None:
        return
    entries = [_rebuild_admissible(e, A) for e in cover]
    covered = set()
    for adm in entries:
        covered.update(adm.omega.facet_label_sets())
    for facet in A.ambient.facet_label_sets():
        _need(facet in covered, f"facet {facet} is not covered")


def verify_certificate(cert: dict[str, Any], recompute: bool = False) -> tuple[bool, list[str]]:
    """Re-check a certificate from scratch; returns (accepted, messages)."""
    try:
        _need(isinstance(cert, dict), "certificate must be a JSON object")
        _need(cert.get("format") == FORMAT, f"unknown certificate format {cert.get('format')!r}")
        kind = cert.get("kind")
        K = _rebuild_complex(cert.get("complex"))
        budget = cert.get("budget", DEFAULT_BUDGET)
        check_budget(budget)
        _need(isinstance(kind, str), f"unknown certificate kind {kind!r}")
        if kind in _COVER_KINDS:
            adm_kind, invariant = _COVER_KINDS[kind]
            _check_cover(cert, admissibility(adm_kind, K))
            if recompute:
                res = invariant(K, budget)
                _need(res.status.value == cert["status"], "recompute: status changed")
                _need(res.value == cert["value"], "recompute: value changed")
                _need(res.lower_bound == cert["lower"], "recompute: lower bound changed")
                _need(res.upper_bound == cert["upper"], "recompute: upper bound changed")
        elif kind == "core":
            end = _rebuild_complex(cert["core"])
            steps = tuple(
                (K.id(v_lab), K.id(u_lab)) for v_lab, u_lab in _label_lists(cert["steps"], "steps")
            )
            seq = CollapseSequence(K, end, steps)  # replays and checks domination
            _need(not dominated_vertices(seq.end), "claimed core still has dominated vertices")
            if recompute:
                fresh, _ = core(K)
                _need(fresh == seq.end, "recompute: core changed")
        elif kind in ("farber", "categorical"):
            A = admissibility(kind, K)
            facets = _label_lists(cert["omega"], "omega")
            omega = subcomplex(A.ambient, [A.ambient.simplex_mask(f) for f in facets])
            verdict, entry = cert["verdict"], cert["admissible"]
            _need(verdict in [v.value for v in Verdict], f"unknown verdict {verdict!r}")
            if verdict == Verdict.YES.value:
                adm = _rebuild_admissible(entry, A)
                _need(
                    sorted(adm.omega.facet_label_sets()) == sorted(omega.facet_label_sets()),
                    "admissible set does not match the queried subcomplex",
                )
            else:
                _need(entry is None, f"{verdict!r} verdict carries an admissible set")
            if recompute:
                got, _ = A.decide(omega, budget)
                _need(got.value == verdict, "recompute: verdict changed")
        elif kind == "plan":
            adm = _rebuild_admissible(cert["admissible"], admissibility("farber", K))
            x, y = K.id(cert["from"]), K.id(cert["to"])
            plan = motion_plan(adm, x, y)
            _need(
                [K.labels[v] for v in plan.path] == cert["path"], "stored path does not match witness"
            )
            _need(
                [[K.labels[a], K.labels[b]] for a, b in plan.pairs] == cert["pairs"],
                "stored pairs do not match witness",
            )
            _need(K.labels[plan.section_point] == cert["section_point"], "section point mismatch")
        else:
            raise _Reject(f"unknown certificate kind {kind!r}")
    except SimplicialTCError as exc:
        return False, [str(exc)]
    except (KeyError, TypeError, ValueError) as exc:
        return False, [f"malformed certificate: {exc!r}"]
    return True, ["certificate OK"]
