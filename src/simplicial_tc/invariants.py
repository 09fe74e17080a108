"""Farber/categorical subcomplex recognition, minimum covers, TC, scat, plans.

The two invariants share one code path and differ only in their
Admissibility, the one place that pairs each kind with its ambient complex,
checker and base: Farber subcomplexes of K^2 (is_farber, base K) for TC,
categorical subcomplexes of K (is_categorical, no base) for scat.  The
certificate verifier and the membership commands use the same pairing.

Both invariants look for the smallest k for which the facets of the ambient
complex split into k classes, each generating an admissible subcomplex.
One wiring (_admissible_cover) builds the subcomplex of a facet mask, asks
the checker for a verdict only, and re-certifies the classes it returns.
Admissibility is hereditary under facet-subset inclusion (restricting the
stored witness certifies every subset), so such a partition exists exactly
when k admissible sets cover the facets.  For k = 1, 2, ... a depth-first
search assigns the facets in index order to an open class or to one new
class, backing off as soon as a class fails; the first k that succeeds
gives the value, and the exhausted searches for every smaller k are the
lower-bound proof.  maximal_admissible_sets and min_cover (enumerate every
maximal admissible set, then set-cover them) remain as standalone tools.

A Farber subcomplex of K^2 is one whose two projection restrictions lie in
a single contiguity class; the class witness is converted into the defining
certificate (a chain from diagonal-after-section to the inclusion) so every
"yes" is machine-checkable.  Two sound "no" detectors run first (a vertex
pair split across components of K, or a full row/column slice when K itself
is not strongly collapsible) and prune the search without exploring map
space.

The search asks for verdicts only, and those are decided on facet masks: a
greedy strong collapse of the subcomplex's facet bitmasks answers "yes" when
one vertex survives, and otherwise the class query runs on the core it
leaves (collapses preserve contiguity classes; Barmak & Minian 2012).
Witnesses are built only for the classes of the cover that is returned, for
certificates, and for the membership and plan commands, and all by one
route: the class query in maps lifts its answer on the cores (for a
strongly collapsible subcomplex, an edge path or the constant it reduces
to) back through the strong-collapse retraction chains.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import ceil
from typing import Callable, Sequence

# contraction_witness and witness_between_constants are unused here; e2ebench/tracing.py patches them.
from .collapse import contraction_witness, core_complex, is_strongly_collapsible
from .complexes import (
    Complex,
    embedding_ids,
    is_subcomplex,
    subcomplex,
)
from .errors import InvalidInput
from .maps import (
    DEFAULT_BUDGET,
    ContiguityWitness,
    SimplicialMap,
    Verdict,
    check_budget,
    class_constant_witness,
    inclusion_map,
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
    facet_indices: frozenset[int] | None = None


@dataclass(frozen=True)
class InvariantResult:
    """Outcome of tc/scat.

    cover holds the certified classes of the smallest partition found, with
    facet_indices set.  maximal is always empty from tc/scat, because the
    partition search never enumerates maximal admissible sets (call
    maximal_admissible_sets for them); the field stays because the benchmark
    (e2ebench/sweep.py) still reads it.
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


def _omega_pairs(omega: Complex, P: ProductComplex) -> list[tuple[int, int]]:
    emb = embedding_ids(omega, P.product)
    return [P.unpair(q) for q in emb]


def _projection_restriction(omega: Complex, P: ProductComplex, i: int) -> SimplicialMap:
    pairs = _omega_pairs(omega, P)
    assignment = tuple(p[0] if i == 1 else p[1] for p in pairs)
    return SimplicialMap(omega, P.base, assignment)


def _diagonal_witness(
    omega: Complex, P: ProductComplex, proj_witness: ContiguityWitness
) -> AdmissibleSet:
    """Turn a witness pi1|omega ~ pi2|omega into the defining certificate.

    Pairing each step h with the fixed first projection gives simplicial maps
    w -> (pi1(w), h(w)) from omega into K^2; the chain starts at the diagonal
    composed with the section sigma = pi1|omega and ends at the inclusion.
    """
    n = P.n
    pairs = _omega_pairs(omega, P)
    first = [p[0] for p in pairs]
    emb = embedding_ids(omega, P.product)
    steps = []
    for h in proj_witness.steps:
        steps.append(
            SimplicialMap(
                omega, P.product, tuple(first[w] * n + h.assignment[w] for w in range(len(first)))
            )
        )
    witness = ContiguityWitness(tuple(steps))
    section = SimplicialMap(omega, P.base, tuple(first))
    if witness.last.assignment != emb:
        raise InvalidInput("derived witness does not end at the inclusion")
    return AdmissibleSet("farber", omega, witness, section=section)


def _slice_covers_base(slices: Sequence[int], K: Complex) -> bool:
    """Does one row or column slice of omega (a K-mask per omega facet) contain all of K?"""
    return all(any(f & ~s == 0 for s in slices) for f in K.facets)


def is_farber(
    omega: Complex, P: ProductComplex, budget: int = DEFAULT_BUDGET, want_witness: bool = True
) -> tuple[Verdict, AdmissibleSet | None]:
    """Decide whether omega is a Farber subcomplex of P.product.

    Two sound "no" rules run first: a vertex pair of omega split across
    components of K, and a full row or column slice when K is not strongly
    collapsible.  Then the decision is projection contiguity: the two
    restricted projections lie in one contiguity class (the class query,
    exact without search when omega strongly collapses to a point).  Its
    witness becomes the defining certificate, with the first projection as
    the section.  With want_witness=False only the verdict is computed, on
    the greedy core of omega (search layers use this and re-certify the sets
    they keep).
    """
    if not is_subcomplex(omega, P.product):
        raise InvalidInput("omega is not a subcomplex of the product")
    K = P.base

    comp = K.vertex_components
    pairs = _omega_pairs(omega, P)
    if any(comp[u] != comp[v] for u, v in pairs):
        # A Farber witness would unfold to an edge path between the pair.
        return Verdict.NO, None

    if not is_strongly_collapsible(K):
        # rows[a][j] / cols[a][j]: the K-vertices v with (a, v) / (v, a) in facet j
        rows = [[0] * len(omega.facets) for _ in range(K.n_vertices)]
        cols = [[0] * len(omega.facets) for _ in range(K.n_vertices)]
        for j, ids in enumerate(omega.facet_vertex_ids):
            for w in ids:
                u, v = pairs[w]
                rows[u][j] |= 1 << v
                cols[v][j] |= 1 << u
        if any(_slice_covers_base(s, K) for s in rows + cols):
            # Slices of Farber subcomplexes are categorical; all of K is
            # categorical in itself only when K is strongly collapsible.
            return Verdict.NO, None

    if not want_witness:
        # The core is a strong deformation retract of omega, so restricting
        # both projections to it keeps their contiguity class; the class
        # query reduces omega to this same core, so it walks the same states.
        c = core_complex(omega)
        if c.n_vertices == 1:
            return Verdict.YES, None
        p1 = _projection_restriction(c, P, 1)
        p2 = _projection_restriction(c, P, 2)
        return same_contiguity_class(p1, p2, budget).verdict, None

    p1 = _projection_restriction(omega, P, 1)
    p2 = _projection_restriction(omega, P, 2)
    result = same_contiguity_class(p1, p2, budget)
    if result.verdict is Verdict.YES:
        return Verdict.YES, _diagonal_witness(omega, P, result.witness)
    return result.verdict, None


# -- categorical recognition -------------------------------------------------


def is_categorical(
    sub: Complex, K: Complex, budget: int = DEFAULT_BUDGET, want_witness: bool = True
) -> tuple[Verdict, AdmissibleSet | None]:
    """Decide whether the inclusion of sub into K is in a constant's class.

    After the component rule, the class query searches the inclusion's class
    for a constant map; when sub strongly collapses to a point the reduced
    inclusion is already constant, and the witness is the lifted retraction
    chain.  With want_witness=False only the verdict is computed, on the
    greedy core of sub.
    """
    if not is_subcomplex(sub, K):
        raise InvalidInput("not a subcomplex of the ambient complex")
    emb = embedding_ids(sub, K)

    comp = K.vertex_components
    if len({comp[p] for p in emb}) > 1:
        # The witness would unfold to edge paths joining all of sub's
        # vertices to one constant vertex.
        return Verdict.NO, None

    if not want_witness:
        c = core_complex(sub)
        if c.n_vertices == 1:
            return Verdict.YES, None
        return class_constant_witness(inclusion_map(c, K), budget).verdict, None

    result = class_constant_witness(inclusion_map(sub, K), budget)
    if result.verdict is Verdict.YES:
        return Verdict.YES, AdmissibleSet("categorical", sub, result.witness)
    return result.verdict, None


# -- maximal admissible sets over the facet-subset lattice --------------------


def maximal_admissible_sets(
    n_facets: int,
    check: Callable[[frozenset[int]], tuple[Verdict, AdmissibleSet | None]],
    certify: Callable[[frozenset[int]], AdmissibleSet] | None = None,
) -> tuple[list[AdmissibleSet], list[frozenset[int]], int]:
    """All inclusion-maximal facet subsets passing a monotone admissibility check.

    Top-down lattice walk: the full set is tried first; every failing (or
    undecided) set expands to its one-smaller subsets.  Monotonicity gives two
    memo shortcuts, kept as inclusion antichains of int masks: a subset of a
    passing set passes, a superset of a failing set fails.  Unknown verdicts
    are collected so callers can degrade their result instead of trusting an
    unproved bound.

    check may skip witness construction (returning a None payload); the
    maximal sets are then re-certified through `certify`, so only the kept
    sets pay for witness building.

    Returns (maximal admissible sets with certificates, unknown subsets,
    number of direct checks run).
    """

    def to_set(mask: int) -> frozenset[int]:
        return frozenset(i for i in range(n_facets) if mask & (1 << i))

    full = (1 << n_facets) - 1
    max_passing: list[int] = []  # antichain of maximal known-passing masks
    min_failing: list[int] = []  # antichain of minimal known-failing masks
    payloads: dict[int, AdmissibleSet] = {}
    unknown: list[int] = []
    checks = 0

    def dominance(m: int) -> Verdict | None:
        for p in max_passing:
            if m & ~p == 0:
                return Verdict.YES
        for f in min_failing:
            if f & ~m == 0:
                return Verdict.NO
        return None

    def record(m: int, verdict: Verdict, payload: AdmissibleSet | None) -> None:
        if verdict is Verdict.YES:
            max_passing[:] = [p for p in max_passing if p & ~m != 0]
            max_passing.append(m)
            payloads[m] = payload
        elif verdict is Verdict.NO:
            min_failing[:] = [f for f in min_failing if m & ~f != 0]
            min_failing.append(m)
        else:
            unknown.append(m)

    stack: list[int] = [full]
    seen: set[int] = {full}
    while stack:
        m = stack.pop()
        verdict = dominance(m)
        if verdict is None:
            verdict, payload = check(to_set(m))
            checks += 1
            record(m, verdict, payload)
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

    max_passing.sort(key=lambda m: tuple(sorted(to_set(m))))
    out = []
    for m in max_passing:
        S = to_set(m)
        payload = payloads.get(m)
        if payload is None:
            if certify is None:
                raise InvalidInput("check returned no certificate and no certifier was given")
            payload = certify(S)
        out.append(replace(payload, facet_indices=S))
    return out, [to_set(m) for m in unknown], checks


# -- minimum set cover --------------------------------------------------------


def min_cover(n_elements: int, sets: Sequence[frozenset[int]]) -> list[int] | None:
    """Smallest subfamily covering range(n_elements); None if not coverable.

    Exact branch and bound: greedy incumbent, branch on the uncovered element
    with the fewest candidate sets, prune with a ceil(remaining/max-size)
    bound.  Deterministic tie-breaking keeps certificates stable.
    """
    universe = frozenset(range(n_elements))
    reach: set[int] = set()
    for s in sets:
        reach |= s
    if not universe <= reach:
        return None

    # Greedy incumbent.
    uncovered = set(universe)
    greedy: list[int] = []
    while uncovered:
        best = max(range(len(sets)), key=lambda i: (len(sets[i] & uncovered), -i))
        greedy.append(best)
        uncovered -= sets[best]
    incumbent: list[int] | None = greedy
    max_size = max(len(s) for s in sets)

    covers_of = {e: [i for i in range(len(sets)) if e in sets[i]] for e in universe}

    def dfs(uncovered: frozenset[int], chosen: list[int]) -> None:
        nonlocal incumbent
        if not uncovered:
            if incumbent is None or len(chosen) < len(incumbent):
                incumbent = list(chosen)
            return
        if len(chosen) + ceil(len(uncovered) / max_size) >= len(incumbent):
            return
        e = min(uncovered, key=lambda x: (len(covers_of[x]), x))
        candidates = sorted(covers_of[e], key=lambda i: (-len(sets[i] & uncovered), i))
        for i in candidates:
            chosen.append(i)
            dfs(uncovered - sets[i], chosen)
            chosen.pop()

    dfs(universe, [])
    return sorted(incumbent)


# -- the two invariants --------------------------------------------------------


def _cover_invariant(
    n_facets: int,
    check: Callable[[int], Verdict],
    certify: Callable[[int], AdmissibleSet],
) -> InvariantResult:
    """Smallest k for which the facets split into k admissible classes, minus one.

    Admissibility is hereditary, so a cover by k admissible sets exists
    exactly when some partition of the facets into k classes has every class
    admissible.  For k = 1, 2, ... a depth-first search assigns the facets in
    index order to one of the open classes, or opens one new class while
    fewer than k are open (so classes are numbered by their lowest facet and
    no relabelled copy of a partition is visited twice), and backs off as
    soon as a class fails.  The first k that succeeds gives the value; every
    smaller k was searched exhaustively, which is the lower-bound proof.
    check and certify take a facet mask (bit i is facet i).  Verdicts are
    memoised by facet mask for this one call; `checks` counts the masks
    actually checked.  Only the k returned classes are certified.

    A facet whose singleton class is "no" lies in no admissible set, so the
    complex is not coverable.  Undecided ("unknown") verdicts never pass in
    the search that builds the cover: when any occurs, the result is
    budget-exhausted, its lower bound comes from the smallest k that succeeds
    when unknown classes are allowed to pass, and its upper bound and cover
    from the smallest k whose classes are all "yes" (None if there is none).
    """
    memo: dict[int, Verdict] = {}
    unknown: list[int] = []
    full = (1 << n_facets) - 1

    def to_set(mask: int) -> frozenset[int]:
        return frozenset(i for i in range(n_facets) if mask >> i & 1)

    def verdict(mask: int) -> Verdict:
        v = memo.get(mask)
        if v is None:
            v = check(mask)
            memo[mask] = v
            if v is Verdict.UNKNOWN:
                unknown.append(mask)
        return v

    def partition(k: int, passing: tuple[Verdict, ...]) -> list[int] | None:
        if k == 1:  # one candidate, the full set: one check decides it
            return [full] if verdict(full) in passing else None
        classes: list[int] = []

        def place(i: int) -> bool:
            if i == n_facets:
                return True
            bit = 1 << i
            for j, m in enumerate(classes):
                if verdict(m | bit) in passing:
                    classes[j] = m | bit
                    if place(i + 1):
                        return True
                    classes[j] = m
            if len(classes) < k:
                classes.append(bit)
                if place(i + 1):
                    return True
                classes.pop()
            return False

        return classes if place(0) else None

    def result(status: Status, lower=None, upper=None, classes=None) -> InvariantResult:
        cover = None
        if classes is not None:
            cover = tuple(replace(certify(m), facet_indices=to_set(m)) for m in classes)
        value = lower if status is Status.EXACT else None
        unknown_sets = tuple(map(to_set, unknown))
        return InvariantResult(value, lower, upper, status, cover, (), unknown_sets, len(memo))

    yes = (Verdict.YES,)
    if partition(1, yes) is not None:
        return result(Status.EXACT, 0, 0, [full])
    if any(verdict(1 << i) is Verdict.NO for i in range(n_facets)):
        return result(Status.NOT_COVERABLE)
    k = 2
    while not unknown:  # exact as long as every verdict met is decided
        classes = partition(k, yes)
        if classes is not None and not unknown:
            return result(Status.EXACT, k - 1, k - 1, classes)
        k += 1

    # Some verdict is undecided.  Every singleton passes optimistically, so
    # k = n_facets succeeds; an optimistic k that fails also fails strictly.
    optimistic = (Verdict.YES, Verdict.UNKNOWN)
    lower_k = 1
    while partition(lower_k, optimistic) is None:
        lower_k += 1
    for k in range(lower_k, n_facets + 1):
        classes = partition(k, yes)
        if classes is not None:
            return result(Status.BUDGET_EXHAUSTED, lower_k - 1, k - 1, classes)
    return result(Status.BUDGET_EXHAUSTED, lower_k - 1)


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
        self, sub: Complex, budget: int, want_witness: bool = True
    ) -> tuple[Verdict, AdmissibleSet | None]:
        # The checkers are looked up in this module on every call (not stored
        # as fields), so a wrapper set on is_farber / is_categorical sees each check.
        if self.square is not None:
            return is_farber(sub, self.square, budget, want_witness=want_witness)
        return is_categorical(sub, self.ambient, budget, want_witness=want_witness)


def admissibility(kind: str, K: Complex) -> Admissibility:
    """The admissible subcomplexes of kind "farber" or "categorical" for K."""
    if kind == "farber":
        P = categorical_square(K)
        return Admissibility(kind, P.product, K, P)
    if kind == "categorical":
        return Admissibility(kind, K, None, None)
    raise InvalidInput(f"unknown admissible kind {kind!r}")


def _admissible_cover(A: Admissibility, budget: int) -> InvariantResult:
    """The cover search over the facets of A.ambient with A's admissibility check."""
    facets = A.ambient.facets

    def sub(mask: int) -> Complex:
        return subcomplex(A.ambient, [f for i, f in enumerate(facets) if mask >> i & 1])

    def check(mask: int) -> Verdict:
        return A.decide(sub(mask), budget, want_witness=False)[0]

    def certify(mask: int) -> AdmissibleSet:
        verdict, adm = A.decide(sub(mask), budget)
        if verdict is not Verdict.YES or adm is None:
            raise InvalidInput("certification pass disagrees with the search verdict")
        return adm

    return _cover_invariant(len(facets), check, certify)


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
