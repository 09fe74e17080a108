"""The enumerate-then-cover pipeline, kept as a reference for tc and scat.

It lists every inclusion-maximal admissible facet set with
maximal_admissible_sets and solves a minimum set cover over them with
min_cover.  The admissibility checks are built here from the same
is_farber / is_categorical calls (verdict only) that tc and scat make, so a
disagreement points at the cover search, not at the checks.
"""

from __future__ import annotations

from simplicial_tc import (
    Status,
    Verdict,
    categorical_square,
    is_categorical,
    is_farber,
    maximal_admissible_sets,
    min_cover,
    subcomplex,
)
from simplicial_tc.maps import DEFAULT_BUDGET


def checker(kind: str, K, budget: int = DEFAULT_BUDGET):
    """(facet count, verdict-only check, certifier) of tc ("farber") or scat ("categorical")."""
    if kind == "farber":
        P = categorical_square(K)
        ambient = P.product

        def decide(sub, want_witness):
            return is_farber(sub, P, budget, want_witness=want_witness)

    else:
        ambient = K

        def decide(sub, want_witness):
            return is_categorical(sub, K, budget, want_witness=want_witness)

    def generated(S):
        return subcomplex(ambient, [ambient.facets[i] for i in sorted(S)])

    def check(S):
        return decide(generated(S), False)

    def certify(S):
        verdict, adm = decide(generated(S), True)
        assert verdict is Verdict.YES
        return adm

    return len(ambient.facets), check, certify


def maximal_sets(kind: str, K) -> tuple[frozenset[int], ...]:
    """Every inclusion-maximal admissible facet set, in the enumeration's order."""
    n, check, certify = checker(kind, K)
    sets, unknown, _ = maximal_admissible_sets(n, check, certify=certify)
    assert not unknown
    return tuple(adm.facet_indices for adm in sets)


def reference_invariant(kind: str, K) -> tuple[Status, int | None]:
    """(status, value) from the maximal sets and a minimum set cover over them."""
    n = len(categorical_square(K).product.facets) if kind == "farber" else len(K.facets)
    chosen = min_cover(n, maximal_sets(kind, K))
    if chosen is None:
        return Status.NOT_COVERABLE, None
    return Status.EXACT, len(chosen) - 1
