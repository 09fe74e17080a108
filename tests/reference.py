"""The enumerate-then-cover pipeline, kept as a reference for tc and scat.

It lists every inclusion-maximal admissible facet set with
maximal_admissible_sets and solves a minimum set cover over them with
min_cover.  Its one check is admissibility(kind, K).decide on a facet mask,
verdict only: the same call tc and scat make, so a disagreement points at
the cover search, not at the checks.
"""

from __future__ import annotations

from simplicial_tc import Status, maximal_admissible_sets, min_cover
from simplicial_tc.invariants import admissibility
from simplicial_tc.maps import DEFAULT_BUDGET


def checker(kind: str, K):
    """(facet count, verdict-only facet-mask check) of tc ("farber") or scat ("categorical")."""
    A = admissibility(kind, K)

    def check(mask):
        return A.decide(mask, DEFAULT_BUDGET, want_witness=False)[0]

    return len(A.ambient.facets), check


def maximal_sets(kind: str, K) -> tuple[frozenset[int], ...]:
    """Every inclusion-maximal admissible facet set, in sorted order."""
    sets, unknown, _ = maximal_admissible_sets(*checker(kind, K))
    assert not unknown
    return tuple(sets)


def reference_invariant(kind: str, K) -> tuple[Status, int | None]:
    """(status, value) from the maximal sets and a minimum set cover over them."""
    n = len(admissibility(kind, K).ambient.facets)
    chosen = min_cover(n, maximal_sets(kind, K))
    if chosen is None:
        return Status.NOT_COVERABLE, None
    return Status.EXACT, len(chosen) - 1
