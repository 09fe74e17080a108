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

from .collapse import CollapseSequence, core
from .complexes import Complex, _assemble_complex, embedding_ids, ids_from_mask, subcomplex
from .errors import SimplicialTCError
from .invariants import (
    AdmissibleSet,
    InvariantResult,
    MotionPlan,
    Status,
    is_categorical,
    is_farber,
    motion_plan,
    scat,
    tc,
    validate_motion_plan,
)
from .maps import DEFAULT_BUDGET, ContiguityWitness, SimplicialMap, Verdict
from .product import categorical_square

FORMAT = "simplicial-tc/1"


def dumps(cert: dict) -> str:
    return json.dumps(cert, indent=2, sort_keys=True)


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


def _result_payload(result: InvariantResult, ambient: Complex) -> dict[str, Any]:
    return {
        "status": result.status.value,
        "value": result.value,
        "lower": result.lower_bound,
        "upper": result.upper_bound,
        "cover": (
            [_admissible_payload(a) for a in result.cover] if result.cover is not None else None
        ),
        "maximal_admissible": [
            sorted(sorted(ambient.labels[v] for v in ids_from_mask(ambient.facets[i])) for i in S)
            for S in result.maximal
        ],
        "unknown_subsets": len(result.unknown_sets),
        "checks": result.checks,
    }


def emit_tc(K: Complex, result: InvariantResult, budget: int) -> dict[str, Any]:
    P = categorical_square(K)
    cert = {
        "format": FORMAT,
        "kind": "tc",
        "complex": {"facets": _facet_lists(K)},
        "budget": budget,
    }
    cert.update(_result_payload(result, P.product))
    return cert


def emit_scat(K: Complex, result: InvariantResult, budget: int) -> dict[str, Any]:
    cert = {
        "format": FORMAT,
        "kind": "scat",
        "complex": {"facets": _facet_lists(K)},
        "budget": budget,
    }
    cert.update(_result_payload(result, K))
    return cert


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
    return _assemble_complex(payload["facets"], check_labels=False)


def _rebuild_admissible(
    entry: dict[str, Any], ambient: Complex, base: Complex | None
) -> AdmissibleSet:
    """Reconstruct and fully re-validate one admissible-set payload.

    ambient is the complex the subcomplex lives in (K^2 for Farber, K for
    categorical); base is K for Farber entries (the witness codomain is the
    ambient there, but the section lands in base).
    """
    omega = subcomplex(ambient, [ambient.simplex_mask(f) for f in entry["facets"]])
    _need(list(omega.labels) == list(entry["vertices"]), "vertex table mismatch in admissible set")
    kind = entry["kind"]
    codomain = ambient
    steps = []
    for row in entry["witness"]:
        _need(len(row) == omega.n_vertices, "witness step has wrong length")
        steps.append(SimplicialMap(omega, codomain, tuple(codomain.id(lab) for lab in row)))
    witness = ContiguityWitness(tuple(steps))
    emb = embedding_ids(omega, ambient)
    if kind == "farber":
        _need(base is not None, "farber entry outside a product context")
        _need(entry["section"] is not None, "farber entry needs a section")
        section = SimplicialMap(
            omega, base, tuple(base.id(lab) for lab in entry["section"])
        )
        n = base.n_vertices
        diag = tuple(c * n + c for c in section.assignment)
        _need(witness.first.assignment == diag, "witness does not start at diagonal∘section")
        _need(witness.last.assignment == emb, "witness does not end at the inclusion")
        return AdmissibleSet("farber", omega, witness, section=section)
    if kind == "categorical":
        _need(witness.first.assignment == emb, "witness does not start at the inclusion")
        _need(witness.last.is_constant, "witness does not end at a constant map")
        return AdmissibleSet("categorical", omega, witness)
    raise _Reject(f"unknown admissible kind {kind!r}")


def _check_cover(cert: dict[str, Any], ambient: Complex, base: Complex | None) -> None:
    status = cert["status"]
    cover = cert["cover"]
    if status == Status.EXACT.value:
        _need(cover is not None, "exact result must carry a cover")
        _need(
            cert["value"] == cert["lower"] == cert["upper"] == len(cover) - 1,
            "exact result value inconsistent with cover size",
        )
    if cover is None:
        return
    entries = [_rebuild_admissible(e, ambient, base) for e in cover]
    covered = set()
    for adm in entries:
        covered.update(adm.omega.facet_label_sets())
    for facet in ambient.facet_label_sets():
        _need(facet in covered, f"facet {facet} is not covered")


def verify_certificate(cert: dict[str, Any], recompute: bool = False) -> tuple[bool, list[str]]:
    """Re-check a certificate from scratch; returns (accepted, messages)."""
    try:
        _need(isinstance(cert, dict), "certificate must be a JSON object")
        _need(cert.get("format") == FORMAT, f"unknown certificate format {cert.get('format')!r}")
        kind = cert.get("kind")
        K = _rebuild_complex(cert.get("complex"))
        budget = int(cert.get("budget", DEFAULT_BUDGET))
        if kind == "tc":
            P = categorical_square(K)
            _check_cover(cert, P.product, K)
            if recompute:
                res = tc(K, budget)
                _need(res.status.value == cert["status"], "recompute: status changed")
                _need(res.value == cert["value"], "recompute: value changed")
        elif kind == "scat":
            _check_cover(cert, K, None)
            if recompute:
                res = scat(K, budget)
                _need(res.status.value == cert["status"], "recompute: status changed")
                _need(res.value == cert["value"], "recompute: value changed")
        elif kind == "core":
            end = _assemble_complex(cert["core"]["facets"], check_labels=False)
            steps = tuple(
                (K.id(v_lab), K.id(u_lab)) for v_lab, u_lab in cert["steps"]
            )
            seq = CollapseSequence(K, end, steps)  # replays and checks domination
            from .collapse import dominated_vertices

            _need(not dominated_vertices(seq.end), "claimed core still has dominated vertices")
            if recompute:
                fresh, _ = core(K)
                _need(fresh == seq.end, "recompute: core changed")
        elif kind in ("farber", "categorical"):
            if kind == "farber":
                P = categorical_square(K)
                ambient, base = P.product, K
            else:
                ambient, base = K, None
            omega = subcomplex(ambient, [ambient.simplex_mask(f) for f in cert["omega"]])
            verdict = cert["verdict"]
            if verdict == Verdict.YES.value:
                adm = _rebuild_admissible(cert["admissible"], ambient, base)
                _need(
                    sorted(adm.omega.facet_label_sets()) == sorted(omega.facet_label_sets()),
                    "admissible set does not match the queried subcomplex",
                )
            if recompute:
                if kind == "farber":
                    got, _ = is_farber(omega, P, budget)
                else:
                    got, _ = is_categorical(omega, K, budget)
                _need(got.value == verdict, "recompute: verdict changed")
        elif kind == "plan":
            P = categorical_square(K)
            adm = _rebuild_admissible(cert["admissible"], P.product, K)
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
            validate_motion_plan(K, plan)
        else:
            raise _Reject(f"unknown certificate kind {kind!r}")
    except SimplicialTCError as exc:
        return False, [str(exc)]
    except (KeyError, TypeError, ValueError) as exc:
        return False, [f"malformed certificate: {exc!r}"]
    return True, ["certificate OK"]
