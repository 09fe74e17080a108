"""Farber/categorical subcomplex recognition, minimum covers, TC, scat, plans.

The two invariants share one pipeline: enumerate the inclusion-maximal facet
subsets of the ambient complex whose generated subcomplex passes the
admissibility check (Farber for TC over K^2, categorical for scat over K),
then solve a minimum set cover over those maximal sets.  Admissibility is
monotone decreasing under facet-subset inclusion (restricting the stored
witness certifies every subset), which is what makes the maximal-set search
and the cover restriction sound.

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
Witnesses -- the contraction chain of a strongly collapsible subcomplex or
the lifted BFS path -- are built only for the maximal sets that are kept,
for certificates, and for the membership and plan commands.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import ceil
from typing import Callable, Sequence

from .collapse import contraction_witness, core_complex, is_strongly_collapsible
from .complexes import (
    Complex,
    embedding_ids,
    ids_from_mask,
    is_subcomplex,
    mask_from_ids,
    subcomplex,
)
from .errors import InvalidInput
from .maps import (
    DEFAULT_BUDGET,
    ContiguityWitness,
    SimplicialMap,
    Verdict,
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


def _slice_covers_base(omega_masks: Sequence[int], K: Complex, a: int, row: bool) -> bool:
    """Does the row (or column) slice of omega at vertex a contain all of K?"""
    n = K.n_vertices
    slices = []
    for m in omega_masks:
        if row:
            s = (m >> (a * n)) & ((1 << n) - 1)
        else:
            s = 0
            for u in range(n):
                if m & (1 << (u * n + a)):
                    s |= 1 << u
        if s:
            slices.append(s)
    return all(any(f & ~s == 0 for s in slices) for f in K.facets)


def is_farber(
    omega: Complex, P: ProductComplex, budget: int = DEFAULT_BUDGET, want_witness: bool = True
) -> tuple[Verdict, AdmissibleSet | None]:
    """Decide whether omega is a Farber subcomplex of P.product.

    Decision route: projection contiguity (the two restricted projections lie
    in one contiguity class), which also yields the section for free.  With
    want_witness=False only the verdict is computed, on the greedy core of
    omega (search layers use this and re-certify the sets they keep).
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
        emb = embedding_ids(omega, P.product)
        n = K.n_vertices
        omega_masks = [
            mask_from_ids(emb[w] for w in ids_from_mask(m)) for m in omega.facets
        ]
        for a in range(n):
            if _slice_covers_base(omega_masks, K, a, row=True) or _slice_covers_base(
                omega_masks, K, a, row=False
            ):
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

    contraction = contraction_witness(omega)
    if contraction is not None:
        # The component rule has put the core point's pair in one component.
        pu, pv = pairs[contraction.last.assignment[0]]
        join = witness_between_constants(omega, K, pu, pv)
        chain_a = [
            SimplicialMap(omega, K, tuple(pairs[r.assignment[w]][0] for w in range(omega.n_vertices)))
            for r in contraction.steps
        ]
        chain_b = [
            SimplicialMap(omega, K, tuple(pairs[r.assignment[w]][1] for w in range(omega.n_vertices)))
            for r in contraction.steps
        ]
        proj_w = ContiguityWitness(tuple(chain_a))
        proj_w = proj_w.concat(join)
        proj_w = proj_w.concat(ContiguityWitness(tuple(reversed(chain_b))))
        return Verdict.YES, _diagonal_witness(omega, P, proj_w)

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

    With want_witness=False only the verdict is computed, on the greedy core
    of sub.
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

    contraction = contraction_witness(sub)
    if contraction is not None:
        steps = tuple(
            SimplicialMap(sub, K, tuple(emb[r.assignment[w]] for w in range(sub.n_vertices)))
            for r in contraction.steps
        )
        return Verdict.YES, AdmissibleSet("categorical", sub, ContiguityWitness(steps))

    result = class_constant_witness(inclusion_map(sub, K), budget)
    if result.verdict is Verdict.YES:
        return Verdict.YES, AdmissibleSet("categorical", sub, result.witness)
    return result.verdict, None


# -- maximal admissible sets over the facet-subset lattice --------------------


def maximal_admissible_sets(
    n_facets: int,
    check: Callable[[frozenset[int]], tuple[Verdict, AdmissibleSet | None]],
    known_failing: Sequence[frozenset[int]] = (),
    certify: Callable[[frozenset[int]], AdmissibleSet] | None = None,
) -> tuple[list[AdmissibleSet], list[frozenset[int]], int]:
    """All inclusion-maximal facet subsets passing a monotone admissibility check.

    Top-down lattice walk: the full set is tried first; every failing (or
    undecided) set expands to its one-smaller subsets.  Monotonicity gives two
    memo shortcuts, kept as inclusion antichains of int masks: a subset of a
    passing set passes, a superset of a failing set fails.  known_failing
    pre-seeds the failing antichain with sets the caller has already proved
    inadmissible (e.g. slice patterns), so their entire upset is pruned
    without running the check.  Unknown verdicts are collected so callers can
    degrade their result instead of trusting an unproved bound.

    check may skip witness construction (returning a None payload); the
    maximal sets are then re-certified through `certify`, so only the kept
    sets pay for witness building.

    Returns (maximal admissible sets with certificates, unknown subsets,
    number of direct checks run).
    """

    def to_mask(S) -> int:
        m = 0
        for i in S:
            m |= 1 << i
        return m

    def to_set(mask: int) -> frozenset[int]:
        return frozenset(i for i in range(n_facets) if mask & (1 << i))

    full = (1 << n_facets) - 1
    max_passing: list[int] = []  # antichain of maximal known-passing masks
    min_failing: list[int] = []  # antichain of minimal known-failing masks
    payloads: dict[int, AdmissibleSet] = {}
    unknown: list[int] = []
    checks = 0

    for S in known_failing:
        m = to_mask(S)
        if not any(f & ~m == 0 for f in min_failing):
            min_failing[:] = [f for f in min_failing if m & ~f != 0]
            min_failing.append(m)

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


def _inclusion_maximal(families: list[frozenset[int]]) -> list[frozenset[int]]:
    return [S for S in families if not any(S < other for other in families)]


def _cover_invariant(
    n_facets: int,
    check: Callable[[frozenset[int]], tuple[Verdict, AdmissibleSet | None]],
    known_failing: Sequence[frozenset[int]] = (),
    certify: Callable[[frozenset[int]], AdmissibleSet] | None = None,
) -> InvariantResult:
    maximal, unknown, checks = maximal_admissible_sets(
        n_facets, check, known_failing=known_failing, certify=certify
    )
    yes_families = [a.facet_indices for a in maximal]
    cover_idx = min_cover(n_facets, yes_families)
    cover = (
        tuple(maximal[i] for i in cover_idx) if cover_idx is not None else None
    )
    maximal_sets = tuple(yes_families)
    if unknown:
        optimistic = _inclusion_maximal(yes_families + unknown)
        opt_cover = min_cover(n_facets, optimistic)
        if opt_cover is None:
            return InvariantResult(
                None, None, None, Status.NOT_COVERABLE, None, maximal_sets, tuple(unknown), checks
            )
        lower = len(opt_cover) - 1
        upper = len(cover_idx) - 1 if cover_idx is not None else None
        return InvariantResult(
            None, lower, upper, Status.BUDGET_EXHAUSTED, cover, maximal_sets, tuple(unknown), checks
        )
    if cover_idx is None:
        return InvariantResult(
            None, None, None, Status.NOT_COVERABLE, None, maximal_sets, (), checks
        )
    value = len(cover_idx) - 1
    return InvariantResult(value, value, value, Status.EXACT, cover, maximal_sets, (), checks)


def scat(K: Complex, budget: int = DEFAULT_BUDGET) -> InvariantResult:
    """Simplicial LS-category: minimum categorical cover size minus one."""

    def check(S: frozenset[int]) -> tuple[Verdict, AdmissibleSet | None]:
        sub = subcomplex(K, [K.facets[i] for i in sorted(S)])
        return is_categorical(sub, K, budget, want_witness=False)

    def certify(S: frozenset[int]) -> AdmissibleSet:
        sub = subcomplex(K, [K.facets[i] for i in sorted(S)])
        verdict, adm = is_categorical(sub, K, budget)
        if verdict is not Verdict.YES or adm is None:
            raise InvalidInput("certification pass disagrees with the search verdict")
        return adm

    return _cover_invariant(len(K.facets), check, certify=certify)


def _slice_failure_patterns(K: Complex) -> list[frozenset[int]]:
    """Minimal product-facet subsets forcing some slice of omega to be all of K.

    Product facet F_i x F_j has index i*|facets| + j.  A row slice at vertex a
    covers K as soon as, for every facet G of K, some product facet F_i x G
    with a in F_i is present; the minimal such subsets are one choice of i per
    G.  Columns are symmetric.  Only sound when K is not strongly collapsible
    (then a full slice contradicts admissibility), so callers guard on that.
    """
    from itertools import product as iproduct

    nf = len(K.facets)
    total = sum(2 * len(K.vertex_facets[a]) ** nf for a in range(K.n_vertices))
    if total > 4000:  # seeding cost would outweigh the pruning
        return []
    patterns: set[frozenset[int]] = set()
    for a in range(K.n_vertices):
        rows = K.vertex_facets[a]
        for choice in iproduct(rows, repeat=nf):
            patterns.add(frozenset(choice[j] * nf + j for j in range(nf)))
            patterns.add(frozenset(j * nf + choice[j] for j in range(nf)))
    return sorted(patterns, key=lambda S: tuple(sorted(S)))


def tc(K: Complex, budget: int = DEFAULT_BUDGET) -> InvariantResult:
    """Discrete topological complexity: minimum Farber cover of K^2, minus one."""
    P = categorical_square(K)

    def check(S: frozenset[int]) -> tuple[Verdict, AdmissibleSet | None]:
        omega = subcomplex(P.product, [P.product.facets[i] for i in sorted(S)])
        return is_farber(omega, P, budget, want_witness=False)

    def certify(S: frozenset[int]) -> AdmissibleSet:
        omega = subcomplex(P.product, [P.product.facets[i] for i in sorted(S)])
        verdict, adm = is_farber(omega, P, budget)
        if verdict is not Verdict.YES or adm is None:
            raise InvalidInput("certification pass disagrees with the search verdict")
        return adm

    known_failing = () if is_strongly_collapsible(K) else _slice_failure_patterns(K)
    return _cover_invariant(len(P.product.facets), check, known_failing, certify)


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
