"""Reference searches and witnesses for tc and scat, kept as oracles for the library.

Four references live here.

The enumerate-then-cover pipeline lists every inclusion-maximal admissible
facet set with maximal_admissible_sets and solves a minimum set cover over
them with min_cover.

index_order_cover is the partition search as it was before the library's
search placed facets by distance from the diagonal and asked heredity
before the checker: facets in index order, every verdict from the checker.
Its status, value and bounds are what the library's search must reproduce.

The first two take admissibility(kind, K).decide on a facet mask, verdict
only: the same call tc and scat make, so a disagreement points at the
search, not at the checks.

class_query is the witness route every "yes" took before cone classes were
certified through their apex's constants: A.query on the class, the two
maps joined by the class query's own lifted chain.  A cone's witness and
this one must both verify, with the same verdict.

unpruned_cover is the library's search as it was before it visited only
lex-leaders under the symmetries of the square: the same placement order
and heredity, every partial partition visited, in both the optimistic and
the strict pass.  It is the oracle for both passes.  At the default budget
the library's cover (classes, witnesses and all) must be the one it
returns; under a small budget the strict pass may end at another cover,
and the tests compare the bounds.
"""

from __future__ import annotations

from typing import Callable, Sequence
from unittest import mock

from simplicial_tc import (
    AdmissibleSet,
    InvariantResult,
    Status,
    Verdict,
    maximal_admissible_sets,
    min_cover,
    scat,
    tc,
)
from simplicial_tc import invariants
from simplicial_tc.complexes import Complex, _complex_on, ids_from_mask, union_mask
from simplicial_tc.invariants import Admissibility, _Heredity, admissibility
from simplicial_tc.maps import DEFAULT_BUDGET, ContiguityResult


def checker(kind: str, K, budget: int = DEFAULT_BUDGET):
    """(facet count, verdict-only facet-mask check) of tc ("farber") or scat ("categorical")."""
    A = admissibility(kind, K)

    def check(mask):
        return A.decide(mask, budget, want_witness=False)[0]

    return len(A.ambient.facets), check


def class_query(
    A: Admissibility, mask: int, budget: int = DEFAULT_BUDGET
) -> tuple[Complex, ContiguityResult]:
    """The class with facet mask `mask` of A.ambient, and A's class query on it."""
    facets = [A.ambient.facets[i] for i in ids_from_mask(mask)]
    sub = _complex_on(A.ambient, facets)
    return sub, A.query(sub, ids_from_mask(union_mask(facets)), budget)


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


def index_order_invariant(kind: str, K, budget: int = DEFAULT_BUDGET) -> InvariantResult:
    """tc ("farber") or scat ("categorical") of K by index_order_cover, at this budget."""
    return index_order_cover(*checker(kind, K, budget))


def index_order_cover(n_facets: int, check) -> InvariantResult:
    """The index-order partition search; cover holds the classes as facet-index sets.

    For k = 1, 2, ... a depth-first search assigns the facets in index order
    to an open class or opens one new class while fewer than k are open, and
    backs off as soon as a class fails.  Verdicts are memoised by facet mask;
    `checks` counts the masks checked.  A "no" singleton makes the facets
    not coverable.  One optimistic pass (undecided classes pass) finds the
    smallest k, exact when no verdict met was undecided; otherwise a strict
    pass (undecided classes fail) runs from that k up for the upper bound.
    """
    memo: dict[int, Verdict] = {}
    unknown: list[int] = []
    full = (1 << n_facets) - 1

    def verdict(mask: int) -> Verdict:
        v = memo.get(mask)
        if v is None:
            v = check(mask)
            memo[mask] = v
            if v is Verdict.UNKNOWN:
                unknown.append(mask)
        return v

    def partition(k: int, passing: tuple[Verdict, ...]) -> list[int] | None:
        if k == 1:
            return [full] if verdict(full) in passing else None
        classes: list[int] = []
        chosen: list[int] = []
        j = 0
        while len(chosen) < n_facets:
            i = len(chosen)
            bit = 1 << i
            while j < len(classes) and verdict(classes[j] | bit) not in passing:
                j += 1
            if j < len(classes):
                classes[j] |= bit
            elif j == len(classes) < k:
                classes.append(bit)
            else:
                if not chosen:
                    return None
                j = chosen.pop()
                prev = bit >> 1
                if classes[j] == prev:
                    classes.pop()
                else:
                    classes[j] ^= prev
                j += 1
                continue
            chosen.append(j)
            j = 0
        return classes

    def result(status: Status, lower=None, upper=None, classes=None) -> InvariantResult:
        cover = None if classes is None else tuple(frozenset(ids_from_mask(m)) for m in classes)
        value = lower if status is Status.EXACT else None
        unknown_sets = tuple(frozenset(ids_from_mask(m)) for m in unknown)
        return InvariantResult(value, lower, upper, status, cover, (), unknown_sets, len(memo))

    if verdict(full) is not Verdict.YES and any(
        verdict(1 << i) is Verdict.NO for i in range(n_facets)
    ):
        return result(Status.NOT_COVERABLE)
    lower_k = 1
    while (classes := partition(lower_k, (Verdict.YES, Verdict.UNKNOWN))) is None:
        lower_k += 1
    if not unknown:
        return result(Status.EXACT, lower_k - 1, lower_k - 1, classes)
    for k in range(lower_k, n_facets + 1):
        classes = partition(k, (Verdict.YES,))
        if classes is not None:
            return result(Status.BUDGET_EXHAUSTED, lower_k - 1, k - 1, classes)
    return result(Status.BUDGET_EXHAUSTED, lower_k - 1)


def unpruned_invariant(kind: str, K, budget: int = DEFAULT_BUDGET) -> InvariantResult:
    """tc ("farber") or scat ("categorical") of K with unpruned_cover as the cover search.

    Everything else is the library's own: the checks, the placement order
    and the certification of the cover.
    """

    def search(n_facets, check, certify, plan):
        return unpruned_cover(n_facets, check, certify, lambda: plan()[0])

    with mock.patch.object(invariants, "_cover_invariant", search):
        return (tc if kind == "farber" else scat)(K, budget)


def unpruned_cover(
    n_facets: int,
    check: Callable[[int], Verdict],
    certify: Callable[[int, int], AdmissibleSet],
    order: Callable[[], Sequence[int]],
) -> InvariantResult:
    """The cover search without symmetry pruning, in the order order() gives.

    For k = 1, 2, ... a depth-first search places the facets into an open
    class or one new class while fewer than k are open, and backs off as
    soon as a class fails.  A "no" singleton makes the facets not
    coverable.  One optimistic pass, in which undecided classes pass and
    heredity decides what it can without a checker call, finds the smallest
    k, exact when no verdict met was undecided; otherwise a strict pass
    (checker "yes" classes only) runs from that k up for the upper bound.
    certify gets each cover class and a checked "yes" mask holding it.
    """
    memo: dict[int, Verdict] = {}
    known = _Heredity()
    unknown: list[int] = []
    full = (1 << n_facets) - 1

    def checked(mask: int) -> Verdict:
        v = memo.get(mask)
        if v is None:
            v = check(mask)
            memo[mask] = v
            if v is Verdict.UNKNOWN:
                unknown.append(mask)
        return v

    def optimistic(mask: int) -> bool:
        v = memo.get(mask)
        if v is None and (v := known.implied(mask)) is None:
            v = checked(mask)
            known.record(mask, v)
        return v is not Verdict.NO

    def strict(mask: int) -> bool:
        return checked(mask) is Verdict.YES

    placement: list[int] = []

    def partition(k: int, passes: Callable[[int], bool]) -> list[int] | None:
        if k == 1:
            return [full] if passes(full) else None
        if not placement:
            placement.extend(1 << i for i in order())
        classes: list[int] = []
        chosen: list[int] = []
        j = 0
        while len(chosen) < n_facets:
            bit = placement[len(chosen)]
            while j < len(classes) and not passes(classes[j] | bit):
                j += 1
            if j < len(classes):
                classes[j] |= bit
            elif j == len(classes) < k:
                classes.append(bit)
            else:
                if not chosen:
                    return None
                j = chosen.pop()
                prev = placement[len(chosen)]
                if classes[j] == prev:
                    classes.pop()
                else:
                    classes[j] ^= prev
                j += 1
                continue
            chosen.append(j)
            j = 0
        return classes

    def result(status: Status, lower=None, upper=None, classes=None) -> InvariantResult:
        cover = None
        if classes is not None:
            cover = tuple(
                certify(m, m if memo.get(m) is Verdict.YES else known.container(m)) for m in classes
            )
        value = lower if status is Status.EXACT else None
        unknown_sets = tuple(frozenset(ids_from_mask(m)) for m in unknown)
        return InvariantResult(value, lower, upper, status, cover, (), unknown_sets, len(memo))

    if checked(full) is not Verdict.YES and any(
        checked(1 << i) is Verdict.NO for i in range(n_facets)
    ):
        return result(Status.NOT_COVERABLE)
    lower_k = 1
    while (classes := partition(lower_k, optimistic)) is None:
        lower_k += 1
    if not unknown:
        return result(Status.EXACT, lower_k - 1, lower_k - 1, classes)
    for k in range(lower_k, n_facets + 1):
        classes = partition(k, strict)
        if classes is not None:
            return result(Status.BUDGET_EXHAUSTED, lower_k - 1, k - 1, classes)
    return result(Status.BUDGET_EXHAUSTED, lower_k - 1)
