"""Certificate serialization and from-scratch re-validation.

Every computation the CLI exposes can emit a JSON certificate that is
self-contained: it carries the input complex, the verdict, and the witnesses
(assignment arrays written as label lists).  Every witness is a chain of
maps into the input complex K, so every witness row holds labels of K: a
Farber entry's chain runs from the first projection restricted to omega to
the second, a categorical entry's from the inclusion to a constant map.
verify_certificate() rebuilds everything from the stored complex and
re-checks the defining conditions -- witness steps are simplicial,
consecutive steps contiguous, endpoints equal the maps being certified
(the kind's Admissibility.endpoints, which its class query joins too),
covers actually cover.  It never trusts stored flags.  Negative verdicts
(exact "no" / lower bounds) rest on exhaustive search, so they are
re-checked only under recompute=True.  It reads only the current FORMAT.
Label rows become subcomplexes through the kind's from_labels, as in the
membership commands.
It takes the dict json.loads returns, so the layout of the text does not
matter: dumps() writes one line, and certificates written indented verify.
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
from .maps import DEFAULT_BUDGET, ContiguityWitness, Verdict, _unchecked_map, check_budget

# categorical_square, and subcomplex above, are unused here since invariants builds the square
# and label-row subcomplexes; e2ebench/tracing.py patches both names.
from .product import categorical_square  # noqa: F401

FORMAT = "simplicial-tc/2"

# certificate kind of each invariant -> (admissible kind of its cover, the invariant)
_COVER_KINDS = {"tc": ("farber", tc), "scat": ("categorical", scat)}


def dumps(cert: dict) -> str:
    """cert as JSON text: json.dumps(cert, sort_keys=True), on one line.

    Keys are sorted and non-ASCII is escaped, so the bytes are deterministic;
    whitespace carries no meaning (pipe through `python -m json.tool` to read).
    """
    return json.dumps(cert, sort_keys=True)


def _facet_lists(K: Complex) -> list[list[str]]:
    return sorted([list(f) for f in K.facet_label_sets()])


def _header(kind: str, K: Complex) -> dict[str, Any]:
    """The keys every certificate carries: its format, its kind and the input complex."""
    return {"format": FORMAT, "kind": kind, "complex": {"facets": _facet_lists(K)}}


def _admissible_payload(adm: AdmissibleSet) -> dict[str, Any]:
    codomain = adm.witness.first.codomain
    return {
        "kind": adm.kind,
        "facets": _facet_lists(adm.omega),
        "vertices": list(adm.omega.labels),
        "witness": [
            [codomain.labels[c] for c in step.assignment] for step in adm.witness.steps
        ],
    }


def _emit_cover(kind: str, K: Complex, result: InvariantResult, budget: int) -> dict[str, Any]:
    return {
        **_header(kind, K),
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
        **_header("core", K),
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
        **_header(kind, K),
        "omega": _facet_lists(omega),
        "verdict": verdict.value,
        "admissible": _admissible_payload(adm) if adm is not None else None,
        "budget": budget,
    }


def emit_plan(K: Complex, adm: AdmissibleSet, plan: MotionPlan, budget: int) -> dict[str, Any]:
    labels = K.labels
    return {
        **_header("plan", K),
        "budget": budget,
        "admissible": _admissible_payload(adm),
        "from": labels[plan.x],
        "to": labels[plan.y],
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

    omega is a subcomplex of A.ambient, and every witness row holds labels
    of A.base = K.  The witness must run between A.endpoints on omega's
    vertices: a Farber entry's from pi1|omega to pi2|omega, a categorical
    entry's from the inclusion to a constant map.
    """
    _need(isinstance(entry, dict), "admissible set must be a JSON object")
    _need(entry["kind"] == A.kind, f"expected a {A.kind} admissible set, got {entry['kind']!r}")
    K = A.base
    omega = A.from_labels(_label_lists(entry["facets"], "admissible set facets"))
    vertices = _labels(entry["vertices"], "vertices")
    _need(list(omega.labels) == vertices, "vertex table mismatch in admissible set")
    index = K._label_index
    steps = []
    for row in _label_lists(entry["witness"], "witness"):
        _need(len(row) == omega.n_vertices, "witness step has wrong length")
        try:
            ids = tuple(map(index.__getitem__, row))
        except KeyError:
            ids = tuple(map(K.id, row))  # raises on the unknown label
        # ContiguityWitness checks each step, so the step skips its own check
        steps.append(_unchecked_map(omega, K, ids))
    witness = ContiguityWitness(tuple(steps))
    start, end = A.endpoints(embedding_ids(omega, A.ambient))
    _need(witness.first.assignment == start, f"witness does not start at {A.start_name}")
    ends = witness.last.is_constant if end is None else witness.last.assignment == end
    _need(ends, f"witness does not end at {A.end_name}")
    return AdmissibleSet(A.kind, omega, witness)


def _shape(c: Complex) -> tuple[int, list[int]]:
    """Vertex count and sorted facet sizes: isomorphic complexes (two cores of K) agree."""
    return c.n_vertices, sorted(m.bit_count() for m in c.facets)


def _is_count(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_cover(cert: dict[str, Any], A: Admissibility) -> None:
    """Status, value, bounds, counts and cover size must agree, and the cover must cover.

    A not-coverable result counts undecided subsets only in certificates
    written before the "no" rules alone decided coverability (0 checks now).
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
                # the replay proved seq.end a core, which is unique only up to isomorphism
                fresh, _ = core(K)
                _need(_shape(fresh) == _shape(seq.end), "recompute: core changed")
        elif kind in ("farber", "categorical"):
            A = admissibility(kind, K)
            omega = A.from_labels(_label_lists(cert["omega"], "omega"))
            verdict, entry = cert["verdict"], cert["admissible"]
            _need(verdict in [v.value for v in Verdict], f"unknown verdict {verdict!r}")
            if verdict == Verdict.YES.value:
                adm = _rebuild_admissible(entry, A)
                # both are subcomplex(A.ambient, ...): equal exactly when their facets are
                _need(adm.omega == omega, "admissible set does not match the queried subcomplex")
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
        else:
            raise _Reject(f"unknown certificate kind {kind!r}")
    except SimplicialTCError as exc:
        return False, [str(exc)]
    except (KeyError, TypeError, ValueError) as exc:
        return False, [f"malformed certificate: {exc!r}"]
    return True, ["certificate OK"]
