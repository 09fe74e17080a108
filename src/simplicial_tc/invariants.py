"""Farber/categorical subcomplex recognition, minimum covers, TC, scat, plans.

The two invariants share one code path and differ only in their
Admissibility, the one place that pairs each kind with its ambient complex,
checker and base: Farber subcomplexes of K^2 (is_farber, base K) for TC,
categorical subcomplexes of K (is_categorical, no base) for scat.  The
certificate verifier and the membership commands use the same pairing.

Both invariants look for the smallest k for which the facets of the ambient
complex split into k classes, each generating an admissible subcomplex.
One wiring (_admissible_cover) hands the checker each class as a facet mask
(bit i is ambient facet i), asks for a verdict only, and builds and
re-certifies just the classes it returns.
Admissibility is hereditary under facet-subset inclusion (restricting the
stored witness certifies every subset), so such a partition exists exactly
when k admissible sets cover the facets.  For k = 1, 2, ... a depth-first
search assigns the facets to an open class or to one new class, backing
off as soon as a class fails.  The Admissibility gives the order: for TC
the facets F x G of K^2 nearest the diagonal come first (least 1-skeleton
distance d(u, v) over the vertices of F x G, then the sum of those
distances, then F and G in a depth-first walk over K's facets), for scat
index order.  Undecided classes pass in this one search, which also lets
heredity decide a class with no checker call: inside a checked "yes" it is
a "yes", holding a checked "no" it is a "no" (_Heredity keeps both
inclusion antichains).  The first k that succeeds is a lower bound, proved
by the exhausted searches for every smaller k, and the value when no
verdict was undecided; otherwise a strict pass (undecided classes fail,
heredity unused) runs from that k up.  `checks` counts checker calls.
maximal_admissible_sets and min_cover (enumerate every maximal admissible
set, then set-cover them) remain as standalone tools: the first takes the
same verdict-only facet-mask check and the same _Heredity and returns
facet-index sets, the second the indices of a smallest covering subfamily.

A Farber subcomplex of K^2 is one whose two projection restrictions lie in
a single contiguity class; the class witness is converted into the defining
certificate (a chain from diagonal-after-section to the inclusion) so every
"yes" is machine-checkable.  Two sound "no" detectors run first (a vertex
pair split across components of K, or a full row/column slice when K itself
is not strongly collapsible) and prune the search without exploring map
space.

The checkers take a subcomplex or a facet mask and turn either into facet
bitmasks in the ambient complex's vertex ids (for K^2, q = u*n + v), so one
code path decides both.  The component rule is one AND of the facets'
union with a mask of the pairs that split components; the slice rule is one
OR of the facets' coverage words (ProductComplex.coverage_word: which
placed copies {a} x F and F x {b} of K's facets each simplex holds) and one
test for an all-ones block.  For a verdict only, a class whose facets share
a vertex is a cone and so a "yes" at once; otherwise a greedy strong
collapse of the masks answers "yes" when one vertex survives, and else the
class query runs on the core it leaves (collapses preserve contiguity
classes; Barmak & Minian 2012), the only place a Complex is built.  The
search passes a memo that lives for one tc/scat call and maps each core's
facet set to its class-query verdict, so checks with one core share one
query.  Witnesses are built only for the classes of the cover that is
returned, for certificates, and for the membership and plan commands, and
all by one route: the class query in maps lifts its answer on the cores
(for a strongly collapsible subcomplex, an edge path or the constant it
reduces to) back through the strong-collapse retraction chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import add
from typing import Callable, Sequence

# contraction_witness and witness_between_constants are unused here; e2ebench/tracing.py patches them.
from .collapse import _greedy_collapse, contraction_witness, is_strongly_collapsible
from .complexes import (
    Complex,
    _complex_on,
    embedding_ids,
    ids_from_mask,
    is_subcomplex,
    mask_from_ids,
    subcomplex,  # unused here; e2ebench/tracing.py patches it
    union_mask,
)
from .errors import InvalidInput
from .maps import (
    DEFAULT_BUDGET,
    ContiguityResult,
    ContiguityWitness,
    SimplicialMap,
    Verdict,
    _unchecked_map,
    check_budget,
    class_constant_witness,
    restrict,
    restrict_witness,
    same_contiguity_class,
    witness_between_constants,
)
from .product import ProductComplex, categorical_square


class Status(Enum):
    EXACT = "exact"
    BUDGET_EXHAUSTED = "budget-exhausted"
    NOT_COVERABLE = "not-coverable"


@dataclass(frozen=True)
class AdmissibleSet:
    """A certified admissible subcomplex.

    For kind "farber" the witness chains diagonal-after-section to the
    inclusion (maps omega -> K^2) and section is the first projection
    restricted to omega; for kind "categorical" the witness chains the
    inclusion (maps L -> K) to a constant map and section is None.
    """

    kind: str
    omega: Complex
    witness: ContiguityWitness
    section: SimplicialMap | None = None


@dataclass(frozen=True)
class InvariantResult:
    """Outcome of tc/scat.

    cover holds the certified classes of the smallest partition found, in
    the order the search opened them.  maximal is always empty from tc/scat,
    because the partition search never enumerates maximal admissible sets
    (maximal_admissible_sets lists them as facet-index sets, uncertified);
    the field stays because the benchmark (e2ebench/sweep.py) still reads it.
    """

    value: int | None
    lower_bound: int | None
    upper_bound: int | None
    status: Status
    cover: tuple[AdmissibleSet, ...] | None
    maximal: tuple[frozenset[int], ...]
    unknown_sets: tuple[frozenset[int], ...]
    checks: int


# -- Farber recognition ------------------------------------------------------


def _ambient_facets(
    sub: Complex | int, ambient: Complex, not_sub: str
) -> tuple[list[int], tuple[int, ...] | None]:
    """sub's facets as masks in ambient vertex ids, and sub's embedding if it is a Complex.

    sub is a subcomplex of ambient, or a facet mask: a positive int whose
    bit i selects ambient facet i.
    """
    if isinstance(sub, Complex):
        if not is_subcomplex(sub, ambient):
            raise InvalidInput(not_sub)
        emb = embedding_ids(sub, ambient)
        return [mask_from_ids(emb[v] for v in ids) for ids in sub.facet_vertex_ids], emb
    if isinstance(sub, bool) or not isinstance(sub, int) or sub <= 0 or sub >> len(ambient.facets):
        raise InvalidInput("a facet mask must be a positive int over the ambient complex's facets")
    facets = ambient.facets
    out = []
    while sub:
        low = sub & -sub
        out.append(facets[low.bit_length() - 1])
        sub ^= low
    return out, None


def _core_verdict(
    facets: list[int],
    ambient: Complex,
    memo: dict[frozenset[int], Verdict] | None,
    query: Callable[[Complex, tuple[int, ...]], ContiguityResult],
) -> Verdict:
    """The class query's verdict, asked on the greedy core of facets (ambient ids).

    Facets with a common vertex span a cone, which strongly collapses to its
    apex, so that is a "yes" before any collapse runs.  Otherwise the core is
    a strong deformation retract, so restricting the maps to it keeps their
    contiguity class, and the class query would reduce the subcomplex to
    this same core anyway.  A one-vertex core is a "yes"; any
    other core is built as a Complex and handed to query with the ambient id
    of each of its vertices.  memo, when given, maps a core's facet set to
    the verdict found for it, so checks that reduce to one core share one
    class query.
    """
    common = -1
    for m in facets:
        common &= m
    if common:
        return Verdict.YES
    core = _greedy_collapse(facets)[1]
    if len(core) == 1 and core[0].bit_count() == 1:
        return Verdict.YES
    key = frozenset(core)
    verdict = memo.get(key) if memo is not None else None
    if verdict is None:
        verdict = query(_complex_on(ambient, core), ids_from_mask(union_mask(core))).verdict
        if memo is not None:
            memo[key] = verdict
    return verdict


def _diagonal_witness(
    omega: Complex, P: ProductComplex, emb: Sequence[int], proj_witness: ContiguityWitness
) -> AdmissibleSet:
    """Turn a witness pi1|omega ~ pi2|omega into the defining certificate.

    Pairing each step h with the fixed first projection gives simplicial maps
    w -> (pi1(w), h(w)) from omega into K^2; the chain starts at the diagonal
    composed with the section sigma = pi1|omega and ends at the inclusion emb.
    """
    section = proj_witness.first
    n = P.n
    rows = [u * n for u in section.assignment]  # P.pair_id(u, v) is u * n + v
    witness = ContiguityWitness(
        tuple(
            _unchecked_map(omega, P.product, tuple(map(add, rows, h.assignment)))
            for h in proj_witness.steps
        )
    )
    if witness.last.assignment != tuple(emb):
        raise InvalidInput("derived witness does not end at the inclusion")
    return AdmissibleSet("farber", omega, witness, section=section)


def is_farber(
    omega: Complex | int,
    P: ProductComplex,
    budget: int = DEFAULT_BUDGET,
    want_witness: bool = True,
    *,
    memo: dict[frozenset[int], Verdict] | None = None,
) -> tuple[Verdict, AdmissibleSet | None]:
    """Decide whether omega is a Farber subcomplex of P.product.

    omega is a subcomplex of K^2, or a facet mask of K^2 (bit i is facet i
    of P.product).  Two sound "no" rules run first: a vertex pair of omega
    split across components of K, and a full row or column slice (read off
    the coverage words of omega's facets) when K is not strongly
    collapsible.  Then the decision is projection contiguity:
    the two restricted projections lie in one contiguity class (the class
    query, exact without search when omega strongly collapses to a point).
    Its witness becomes the defining certificate, with the first projection
    as the section.  With want_witness=False only the verdict is computed,
    on the greedy core of omega, and memo (see _core_verdict) may carry the
    class-query verdicts of earlier checks; search layers use this and
    re-certify the sets they keep.
    """
    check_budget(budget)
    facets, emb = _ambient_facets(omega, P.product, "omega is not a subcomplex of the product")
    K = P.base
    union = union_mask(facets)

    if union & P.split_pairs:
        # A Farber witness would unfold to an edge path between the pair.
        return Verdict.NO, None

    if not is_strongly_collapsible(K) and P.has_full_slice(facets):
        # Slices of Farber subcomplexes are categorical; all of K is
        # categorical in itself only when K is strongly collapsible.
        return Verdict.NO, None

    def query(dom: Complex, ids: tuple[int, ...]) -> ContiguityResult:
        # the two projections restricted to dom, whose vertex w is ids[w] in K^2
        pairs = [P.unpair(q) for q in ids]
        p1 = SimplicialMap(dom, K, tuple(u for u, _ in pairs))
        p2 = SimplicialMap(dom, K, tuple(v for _, v in pairs))
        return same_contiguity_class(p1, p2, budget)

    if not want_witness:
        return _core_verdict(facets, P.product, memo, query), None
    if emb is None:
        omega, emb = _complex_on(P.product, facets), ids_from_mask(union)
    result = query(omega, emb)
    if result.verdict is Verdict.YES:
        return Verdict.YES, _diagonal_witness(omega, P, emb, result.witness)
    return result.verdict, None


# -- categorical recognition -------------------------------------------------


def is_categorical(
    sub: Complex | int,
    K: Complex,
    budget: int = DEFAULT_BUDGET,
    want_witness: bool = True,
    *,
    memo: dict[frozenset[int], Verdict] | None = None,
) -> tuple[Verdict, AdmissibleSet | None]:
    """Decide whether the inclusion of sub into K is in a constant's class.

    sub is a subcomplex of K, or a facet mask of K (bit i is facet i).
    After the component rule, the class query searches the inclusion's class
    for a constant map; when sub strongly collapses to a point the reduced
    inclusion is already constant, and the witness is the lifted retraction
    chain.  With want_witness=False only the verdict is computed, on the
    greedy core of sub, with memo as in is_farber.
    """
    check_budget(budget)
    facets, emb = _ambient_facets(sub, K, "not a subcomplex of the ambient complex")
    union = union_mask(facets)

    if union & ~K.component_masks[(union & -union).bit_length() - 1]:
        # The witness would unfold to edge paths joining all of sub's
        # vertices to one constant vertex.
        return Verdict.NO, None

    def query(dom: Complex, ids: tuple[int, ...]) -> ContiguityResult:
        return class_constant_witness(SimplicialMap(dom, K, ids), budget)

    if not want_witness:
        return _core_verdict(facets, K, memo, query), None
    if emb is None:
        sub, emb = _complex_on(K, facets), ids_from_mask(union)
    result = query(sub, emb)
    if result.verdict is Verdict.YES:
        return Verdict.YES, AdmissibleSet("categorical", sub, result.witness)
    return result.verdict, None


# -- maximal admissible sets over the facet-subset lattice --------------------


class _Heredity:
    """What earlier verdicts of a hereditary check imply about later masks.

    Admissibility is hereditary, so a mask inside a passing mask passes and a
    mask containing a failing mask fails.  passing keeps the inclusion-maximal
    masks recorded as "yes", failing the inclusion-minimal ones recorded as
    "no"; both stay antichains.
    """

    def __init__(self) -> None:
        self.passing: list[int] = []
        self.failing: list[int] = []

    def implied(self, m: int) -> Verdict | None:
        """The verdict heredity gives m, or None when no recorded mask decides it."""
        for p in self.passing:
            if m & ~p == 0:
                return Verdict.YES
        for f in self.failing:
            if f & ~m == 0:
                return Verdict.NO
        return None

    def record(self, m: int, verdict: Verdict) -> None:
        """Add a checked verdict for m, which implied(m) left undecided."""
        if verdict is Verdict.YES:
            self.passing[:] = [p for p in self.passing if p & ~m != 0]
            self.passing.append(m)
        elif verdict is Verdict.NO:
            self.failing[:] = [f for f in self.failing if m & ~f != 0]
            self.failing.append(m)

    def container(self, m: int) -> int:
        """A recorded passing mask holding m; implied(m) must be YES."""
        return next(p for p in self.passing if m & ~p == 0)


def maximal_admissible_sets(
    n_facets: int, check: Callable[[int], Verdict]
) -> tuple[list[frozenset[int]], list[frozenset[int]], int]:
    """All inclusion-maximal facet subsets passing a monotone admissibility check.

    check takes a facet mask (bit i is facet i), as in _cover_invariant.
    Top-down lattice walk: the full set is tried first; every failing (or
    undecided) set expands to its one-smaller subsets.  Monotonicity decides
    a set without a check when it lies inside a passing set or contains a
    failing one (_Heredity).

    Returns (the maximal passing sets in sorted order, the subsets whose
    verdict was "unknown", the number of masks checked).
    """
    full = (1 << n_facets) - 1
    known = _Heredity()
    unknown: list[int] = []
    checks = 0

    stack: list[int] = [full]
    seen: set[int] = {full}
    while stack:
        m = stack.pop()
        verdict = known.implied(m)
        if verdict is None:
            verdict = check(m)
            checks += 1
            known.record(m, verdict)
            if verdict is Verdict.UNKNOWN:
                unknown.append(m)
        if verdict is Verdict.YES or m.bit_count() <= 1:
            continue
        rest = m
        while rest:
            bit = rest & -rest
            rest ^= bit
            child = m ^ bit
            if child not in seen:
                seen.add(child)
                stack.append(child)

    maximal = sorted((frozenset(ids_from_mask(m)) for m in known.passing), key=sorted)
    return maximal, [frozenset(ids_from_mask(m)) for m in unknown], checks


# -- minimum set cover --------------------------------------------------------


def min_cover(n_elements: int, sets: Sequence[frozenset[int]]) -> list[int] | None:
    """Smallest subfamily covering range(n_elements); None if not coverable.

    Iterative deepening over k = 0, 1, 2, ...: a cover of size k picks, for
    the lowest uncovered element, one of the sets holding it (in index
    order), then covers the rest with k - 1 sets.  The first k that succeeds
    is the minimum; its sets are returned as sorted indices.  Elements
    outside range(n_elements) are ignored.
    """
    universe = (1 << n_elements) - 1
    masks = [sum(1 << e for e in s if 0 <= e < n_elements) for s in sets]
    if union_mask(masks) != universe:
        return None

    def cover(uncovered: int, k: int, chosen: list[int]) -> bool:
        if not uncovered:
            return True
        if k == 0:
            return False
        low = uncovered & -uncovered
        for i, m in enumerate(masks):
            if m & low:
                chosen.append(i)
                if cover(uncovered & ~m, k - 1, chosen):
                    return True
                chosen.pop()
        return False

    k = 0
    chosen: list[int] = []
    while not cover(universe, k, chosen):
        k += 1
    return sorted(chosen)


# -- the two invariants --------------------------------------------------------


def _cover_invariant(
    n_facets: int,
    check: Callable[[int], Verdict],
    certify: Callable[[int, int], AdmissibleSet],
    order: Callable[[], Sequence[int]],
) -> InvariantResult:
    """Smallest k for which the facets split into k admissible classes, minus one.

    Admissibility is hereditary, so a cover by k admissible sets exists
    exactly when some partition of the facets into k classes has every class
    admissible.  For k = 1 that is one check of the full set.  For k = 2, 3,
    ... a depth-first search places the facets one at a time, in the order
    order() gives (a permutation of the facet indices, asked for only once
    the search reaches k = 2), into one of the open classes, or opens one new
    class while fewer than k are open (so classes are numbered by their first
    placed facet and no relabelled copy of a partition is visited twice), and
    backs off as soon as a class fails; it keeps the class chosen for each
    placed facet on an explicit stack, so thousands of facets need no deep
    recursion.  check takes a facet mask (bit i is facet i); certify takes a
    class's mask and a mask the checker answered "yes" that contains it (the
    class itself when it was checked), and certifies the class.  Checker
    verdicts are memoised by facet mask for this one call, and `checks`
    counts checker calls.  Only the k returned classes are certified.

    A facet whose singleton class is "no" lies in no admissible set, so the
    complex is not coverable.  Otherwise one optimistic pass, where undecided
    ("unknown") classes pass, finds the smallest k that succeeds: every
    smaller k was searched exhaustively, the lower-bound proof.  This pass
    first asks heredity (_Heredity): a class inside a checked "yes" is a
    "yes" and a class holding a checked "no" is a "no", with no checker call.
    With no verdict undecided its classes are all "yes" and k gives the
    value.  Else the result is budget-exhausted, and a strict pass (only
    checker "yes" classes pass, heredity unused, so undecided verdicts keep
    cutting partial partitions) runs from that k up for the upper bound and
    cover (None if none).
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

    placement: list[int] = []  # 1 << facet, in placement order; filled at the first k >= 2

    def partition(k: int, passes: Callable[[int], bool]) -> list[int] | None:
        if k == 1:  # one candidate, the full set: one check decides it
            return [full] if passes(full) else None
        if not placement:
            placement.extend(1 << i for i in order())
        classes: list[int] = []
        chosen: list[int] = []  # the class each placed facet joined, in placement order
        j = 0  # the next class to try for the next facet; len(classes) opens one
        while len(chosen) < n_facets:
            bit = placement[len(chosen)]
            while j < len(classes) and not passes(classes[j] | bit):
                j += 1
            if j < len(classes):
                classes[j] |= bit
            elif j == len(classes) < k:
                classes.append(bit)
            else:  # no class left for this facet: move the previous one on to its next class
                if not chosen:
                    return None
                j = chosen.pop()
                prev = placement[len(chosen)]
                if classes[j] == prev:  # the previous facet opened that class
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

    # These checks bypass heredity: no later mask lies inside a singleton or
    # holds the full set, and "yes" singletons would only lengthen the
    # antichain every later verdict scans.
    if checked(full) is not Verdict.YES and any(  # a "yes" full set has "yes" singletons
        checked(1 << i) is Verdict.NO for i in range(n_facets)
    ):
        return result(Status.NOT_COVERABLE)
    # Every singleton passes optimistically, so k = n_facets succeeds; an
    # optimistic k that fails also fails strictly.
    lower_k = 1
    while (classes := partition(lower_k, optimistic)) is None:
        lower_k += 1
    if not unknown:  # every verdict met was decided, so every class is a "yes"
        return result(Status.EXACT, lower_k - 1, lower_k - 1, classes)
    for k in range(lower_k, n_facets + 1):
        classes = partition(k, strict)
        if classes is not None:
            return result(Status.BUDGET_EXHAUSTED, lower_k - 1, k - 1, classes)
    return result(Status.BUDGET_EXHAUSTED, lower_k - 1)


def _walk_ranks(facets: Sequence[int]) -> list[int]:
    """Each facet's place in a depth-first walk over the facets that share a vertex.

    The walk starts at facet 0, or at the lowest unvisited facet for each
    further component, and steps to neighbours in index order, so facets
    that are close in the complex get close ranks (along a cycle, the ranks
    go once around it).
    """
    rank = [-1] * len(facets)
    walked = 0
    for root in range(len(facets)):
        stack = [root]
        while stack:
            j = stack.pop()
            if rank[j] >= 0:
                continue
            rank[j] = walked
            walked += 1
            near = [k for k, m in enumerate(facets) if rank[k] < 0 and m & facets[j]]
            stack.extend(reversed(near))
    return rank


@dataclass(frozen=True)
class Admissibility:
    """Which subcomplexes one invariant's covers are made of.

    "farber" (TC): Farber subcomplexes of ambient = K^2, decided by is_farber
    against the square, with base K (witnesses land in K^2, sections in K).
    "categorical" (scat): categorical subcomplexes of ambient = K, decided by
    is_categorical, with no base.
    """

    kind: str
    ambient: Complex
    base: Complex | None
    square: ProductComplex | None

    def decide(
        self,
        sub: Complex | int,
        budget: int,
        want_witness: bool = True,
        memo: dict[frozenset[int], Verdict] | None = None,
    ) -> tuple[Verdict, AdmissibleSet | None]:
        # The checkers are looked up in this module on every call (not stored
        # as fields), so a wrapper set on is_farber / is_categorical sees each check.
        if self.square is not None:
            return is_farber(sub, self.square, budget, want_witness=want_witness, memo=memo)
        return is_categorical(sub, self.ambient, budget, want_witness=want_witness, memo=memo)

    def search_order(self) -> list[int]:
        """The order the cover search places the ambient facets in, as facet indices.

        For "farber", the facets F x G of K^2 nearest the diagonal come first:
        the key is the least 1-skeleton distance d(u, v) over the vertices
        (u, v) of the facet, then the sum of those distances, then the walk
        ranks of F and G (_walk_ranks).  Nearby pairs tend to share a class,
        so the classes of a cover are filled one after another.  The walk
        ranks put ties in an order set by the shape of K, not by its labels:
        with the facet index in their place, the labels decided which far
        facets a class collected, and on some relabellings of a 10-cycle
        those classes had cycles for cores whose class queries ran out of
        budget.  "categorical" has no diagonal and keeps index order.
        """
        facets = self.ambient.facets
        if self.square is None:
            return list(range(len(facets)))
        distance = self.square.pair_distances
        r = len(self.base.facets)
        rank = _walk_ranks(self.base.facets)

        def key(i: int) -> tuple[int, int, int, int]:
            d = [distance[q] for q in ids_from_mask(facets[i])]
            return min(d), sum(d), rank[i // r], rank[i % r]

        return sorted(range(len(facets)), key=key)


def admissibility(kind: str, K: Complex) -> Admissibility:
    """The admissible subcomplexes of kind "farber" or "categorical" for K."""
    if kind == "farber":
        P = categorical_square(K)
        return Admissibility(kind, P.product, K, P)
    if kind == "categorical":
        return Admissibility(kind, K, None, None)
    raise InvalidInput(f"unknown admissible kind {kind!r}")


def _admissible_cover(A: Admissibility, budget: int) -> InvariantResult:
    """The cover search over the facets of A.ambient with A's admissibility check.

    Checks hand A their facet mask and share one class-query memo, which
    lives as long as this call; the search places facets in A.search_order().
    Only the classes of the returned cover are built as complexes and
    certified, from their masks too.  A class whose "yes" came from heredity
    never met the checker, and under a small budget its own class query
    could stop undecided, so it is certified by restricting the witness of
    the checked "yes" class that holds it.
    """
    memo: dict[frozenset[int], Verdict] = {}

    def check(mask: int) -> Verdict:
        return A.decide(mask, budget, want_witness=False, memo=memo)[0]

    def certify(mask: int, within: int) -> AdmissibleSet:
        verdict, adm = A.decide(within, budget)
        if verdict is not Verdict.YES or adm is None:
            raise InvalidInput("certification pass disagrees with the search verdict")
        if within == mask:
            return adm
        sub = _complex_on(A.ambient, [A.ambient.facets[i] for i in ids_from_mask(mask)])
        section = None if adm.section is None else restrict(adm.section, sub)
        return AdmissibleSet(adm.kind, sub, restrict_witness(adm.witness, sub), section)

    return _cover_invariant(len(A.ambient.facets), check, certify, A.search_order)


def scat(K: Complex, budget: int = DEFAULT_BUDGET) -> InvariantResult:
    """Simplicial LS-category: minimum categorical cover size minus one."""
    check_budget(budget)
    return _admissible_cover(admissibility("categorical", K), budget)


def tc(K: Complex, budget: int = DEFAULT_BUDGET) -> InvariantResult:
    """Discrete topological complexity: minimum Farber cover of K^2, minus one."""
    check_budget(budget)
    return _admissible_cover(admissibility("farber", K), budget)


# -- motion planning -----------------------------------------------------------


@dataclass(frozen=True)
class MotionPlan:
    """Unfolded edge path between two vertices, read off a Farber witness."""

    x: int
    y: int
    section_point: int
    pairs: tuple[tuple[int, int], ...]  # h_j(x, y) for j = m .. 0
    path: tuple[int, ...]  # x = x_m .. x_0 = sigma(x,y) = y_0 .. y_m = y


def motion_plan(adm: AdmissibleSet, x: int, y: int) -> MotionPlan:
    """Evaluate the stored witness at the vertex (x, y) of omega.

    The witness steps run from diagonal-after-section to the inclusion; each
    step applied to (x, y) gives a pair (x_j, y_j), and contiguity of
    consecutive steps makes consecutive pairs span simplices coordinatewise,
    so the unfolded sequence is an edge path from x to y through sigma(x, y).
    """
    if adm.kind != "farber" or adm.section is None:
        raise InvalidInput("motion plans require a Farber admissible set")
    K = adm.section.codomain
    n = K.n_vertices
    label = f"{K.labels[x]}|{K.labels[y]}"
    try:
        w = adm.omega.id(label)
    except InvalidInput:
        raise InvalidInput(f"({K.labels[x]}, {K.labels[y]}) is not a vertex of omega") from None
    pairs_desc = [divmod(step.assignment[w], n) for step in reversed(adm.witness.steps)]
    xs = [p[0] for p in pairs_desc]
    ys = [p[1] for p in pairs_desc]
    path = xs + ys[::-1][1:]
    plan = MotionPlan(
        x=x,
        y=y,
        section_point=adm.section.assignment[w],
        pairs=tuple(pairs_desc),
        path=tuple(path),
    )
    validate_motion_plan(K, plan)
    return plan


def validate_motion_plan(K: Complex, plan: MotionPlan) -> None:
    """Independent checks: endpoints, midpoint, consecutive simplex spans."""
    m = len(plan.pairs) - 1
    if plan.path[0] != plan.x or plan.path[-1] != plan.y:
        raise InvalidInput("motion plan endpoints do not match the query")
    if plan.path[m] != plan.section_point:
        raise InvalidInput("motion plan midpoint is not the section value")
    if plan.pairs[0] != (plan.x, plan.y):
        raise InvalidInput("motion plan does not start at the queried pair")
    if plan.pairs[-1] != (plan.section_point, plan.section_point):
        raise InvalidInput("motion plan does not reach the diagonal")
    for a, b in zip(plan.path, plan.path[1:]):
        if a != b and not K.is_simplex((1 << a) | (1 << b)):
            raise InvalidInput("consecutive motion plan points do not span a simplex")
