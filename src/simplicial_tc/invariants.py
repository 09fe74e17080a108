"""Farber/categorical subcomplex recognition, minimum covers, TC, scat, plans.

The two invariants share one code path and differ only in their
Admissibility, one frozen class per kind that holds every fact of that
kind: FarberAdmissibility (Farber subcomplexes of K^2, checked by
is_farber) for TC, CategoricalAdmissibility (categorical subcomplexes of K,
checked by is_categorical) for scat.  Each gives its ambient complex and
base K (where witnesses land), its sound "no" rules, its two vertex maps
into K, the two ends its witnesses must join, its search order and its
symmetries; no code picks its behaviour by testing the kind.  Both
checkers run one decision body (_decide) for their kind.  The certificate
verifier reads the same endpoints, and it and the membership commands turn
label rows into subcomplexes with the kind's from_labels.

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
index order.  The search visits only lex-leaders (_LexLeader): the
Admissibility gives facet permutations that keep admissibility (for TC
sigma x sigma for the automorphisms sigma of K, complexes.automorphisms,
each also composed with the swap (u, v) -> (v, u); for scat none), and a
partial partition that one of them maps to a smaller one, in the order the
search visits partitions, is cut before its class is checked.  Undecided
classes pass in a first, optimistic pass, where heredity also decides a
class with no checker call: inside a checked "yes" it is a "yes", holding
a checked "no" it is a "no" (_Heredity keeps both inclusion antichains).
The first k that succeeds is a lower bound, proved by the searches for
every smaller k, exhausted up to symmetry: a partition into k admissible
classes has a least image, which is one too and is never cut.  It is the
value when no verdict was undecided; otherwise a strict pass (only checker
"yes" classes pass) runs from that k up for the upper bound and a cover of
checked "yes" classes.  A facet alone is a cone, which the kind's "no"
rules alone decide; one they rule out makes the complex not coverable.
`checks` counts the search's checker calls.
maximal_admissible_sets and min_cover (enumerate every maximal admissible
set, then set-cover them) remain as standalone tools: the first takes the
same verdict-only facet-mask check and the same _Heredity and returns
facet-index sets, the second the indices of a smallest covering subfamily.

A Farber subcomplex of K^2 is one whose two projection restrictions lie in
a single contiguity class, and a chain pi1|omega = h_0 ~ ... ~ h_m =
pi2|omega of maps omega -> K is its certificate, as a categorical set's is
a chain from its inclusion to a constant map: every witness is a chain of
maps into K, so every "yes" is machine-checkable in K.  Pairing each h_j
with sigma = pi1|omega gives the defining chain from the diagonal after
the section sigma to the inclusion in K^2 (README, "Invariants"); the
library never builds it.  Sound "no" rules run first (a vertex pair split
across components of K, a full row/column slice when K itself is not
strongly collapsible, and the homology rule below) and prune the search
without exploring map space.

The checkers take a subcomplex or a facet mask and turn either into facet
bitmasks in the ambient complex's vertex ids (for K^2, q = u*n + v), and
decide both by one sequence (_decide), for a verdict or for a witness.  The
component rule is one AND of the facets' union with a mask of the pairs
that split components; the slice rule (ProductComplex.has_full_slice) looks
for a row or column of K^2 whose placed copies {a} x F or F x {b} of K's
facets each lie in one of the facets, skipping the slices with a vertex
outside their union.  A class whose facets share a vertex is a cone and so
a "yes" at once.  Otherwise one strong collapse of the masks in rounds
(collapse._strong_collapse) answers "yes" when one vertex survives, and
else the core it leaves (collapses preserve contiguity classes; Barmak &
Minian 2012) meets a third sound "no" rule, the homology rule: contiguous
maps induce one map on H^1(-; F2), so a cycle of the core whose images
under the two maps pair differently with a cocycle of K (Complex.cocycles)
rules the class out with a few bitmask operations (_differs_on_homology).
The cores that rule leaves go to the class query on masks
(maps._class_decision).  The search passes a memo that lives for one
tc/scat call and maps each core's facet set to its verdict, so checks with
one core share one verdict.

Witnesses are built only for the classes of the cover that is returned,
for certificates, and for the membership and plan commands, by the same
sequence on the same masks.  A cone, a class whose facets share a vertex
w, is certified directly (_cone_rows): every map f on it is contiguous to
the constant at f(w), so the chain runs from the kind's start map through
the constants at the images of w, along an edge path of K between them,
to its end map, with no class query.  The cover search certifies a cone
from its own apex even when its "yes" came from heredity.  For any other
class the class query lifts its answer on the cores (for a strongly
collapsible class, an edge path or the constant it reduces to) back
through the class's reduction (maps._reduction) and K's into witness rows;
the homology rule has already run, and never fires on a "yes".  Only then
is the class built as a Complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, ClassVar, Sequence

# contraction_witness, witness_between_constants, same_contiguity_class and class_constant_witness
# are unused here; e2ebench/tracing.py patches them.
from .collapse import _strong_collapse, contraction_witness, is_strongly_collapsible
from .complexes import (
    Complex,
    _complex_on,
    automorphisms,
    edge_path,
    embedding_ids,
    ids_from_mask,
    is_subcomplex,
    mask_from_ids,
    subcomplex,
    union_mask,
)
from .errors import InvalidInput
from .maps import (
    DEFAULT_BUDGET,
    ContiguityWitness,
    Verdict,
    _class_decision,
    _CoreSpace,
    _reduction,
    _retraction_chain,
    _unchecked_map,
    check_budget,
    class_constant_witness,
    restrict_witness,
    same_contiguity_class,
    witness_between_constants,
)
from .product import ProductComplex, categorical_square

# Automorphisms of K the tc search prunes by, at most; any subset of the group keeps it exact.
_AUTOMORPHISM_LIMIT = 128

# A core's facet masks -> its verdict, shared by the checks of one tc/scat call.
_Memo = dict[frozenset[int], Verdict]


class Status(Enum):
    EXACT = "exact"
    BUDGET_EXHAUSTED = "budget-exhausted"
    NOT_COVERABLE = "not-coverable"


@dataclass(frozen=True)
class AdmissibleSet:
    """A certified admissible subcomplex; its witness is a chain of maps omega -> K.

    For kind "farber" (omega in K^2) the witness chains the first projection
    restricted to omega to the second; for kind "categorical" (omega in K)
    it chains the inclusion to a constant map.
    """

    kind: str
    omega: Complex
    witness: ContiguityWitness


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


# -- recognition: one decision body for both kinds ---------------------------


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


def _differs_on_homology(
    core: list[int], cocycles: Sequence[frozenset[int]], images: Callable[[int], tuple[int, int]]
) -> bool:
    """Whether some cycle z of core has <c, f(z)> != <c, g(z)> for a cocycle c of K.

    core holds facet masks; images(v) is (f(v), g(v)) for each of its
    vertices v, in K's ids.  The pullback d = c o f - c o g, with c read as
    0 on a collapsed edge, is a cocycle of the core, and a coboundary there
    when f and g lie in one contiguity class: their realisations are then
    homotopic and induce one map on H^1(-; F2).  So each vertex gets a
    potential, one bit per cocycle, from the edges joining the first vertex
    of each facet to the others; every cycle of the core is a sum of those
    edges' cycles and triangle boundaries, where d is 0.  An edge whose two
    ends already have potentials that d contradicts closes such a cycle z.
    """
    if not cocycles:  # H^1(K; F2) = 0: d is a coboundary whatever f and g are
        return False
    up: dict[int, tuple[int, int]] = {}  # vertex -> (a vertex nearer its root, d from there)

    def find(v: int) -> tuple[int, int]:
        bits = 0
        while v in up:
            v, b = up[v]
            bits ^= b
        return v, bits

    for m in core:
        x, *rest = ids_from_mask(m)
        fx, gx = images(x)
        rx, px = find(x)
        for y in rest:
            fy, gy = images(y)
            image_f, image_g = 1 << fx | 1 << fy, 1 << gx | 1 << gy
            d = 0
            for i, c in enumerate(cocycles):
                if (image_f in c) != (image_g in c):
                    d |= 1 << i
            ry, py = find(y)
            if ry != rx:
                up[ry] = (rx, px ^ py ^ d)
            elif px ^ py != d:
                return True
    return False


def _apex(facets: list[int]) -> int:
    """The lowest vertex every facet holds, or -1 when the facets span no cone."""
    common = -1
    for m in facets:
        common &= m
    return (common & -common).bit_length() - 1


def _cone_rows(
    A: Admissibility, start: tuple[int, ...], end: tuple[int, ...] | None, apex: int
) -> list[tuple[int, ...]]:
    """The witness rows of a cone from start to end (A.endpoints on its vertices) through its apex.

    Every facet holds the apex w (an ambient id), so any map f on the class
    is contiguous to the constant at f(w): f(F) | {f(w)} = f(F) for each
    facet F.  So the chain runs from start to the constant at fa, where
    (fa, ga) = A.images(w), and, when A has an end map, on through the
    constants along an edge path of K from fa to ga (the component rule has
    put them in one component) to end, whose value at w is ga.  Consecutive
    repeats are dropped.
    """
    fa, ga = A.images(apex)
    n = len(start)
    rows = [start, *((c,) * n for c in ([fa] if end is None else edge_path(A.base, fa, ga)))]
    if end is not None:
        rows.append(end)
    return [rows[0]] + [b for a, b in zip(rows, rows[1:]) if a != b]


def _admissible(
    A: Admissibility, sub: Complex | int, facets: list[int], rows: list[tuple[int, ...]]
) -> AdmissibleSet:
    """The certified set of a "yes", with rows (maps on sub's vertices) as its witness.

    Only here does a facet mask become its class as a Complex.
    """
    if not isinstance(sub, Complex):
        sub = _complex_on(A.ambient, facets)
    return AdmissibleSet(
        A.kind, sub, ContiguityWitness(tuple(_unchecked_map(sub, A.base, r) for r in rows))
    )


def _decide(
    A: Admissibility, sub: Complex | int, budget: int, want_witness: bool, memo: _Memo | None
) -> tuple[Verdict, AdmissibleSet | None]:
    """Whether sub is admissible of A's kind: the one body of is_farber and is_categorical.

    sub is a subcomplex of A.ambient or a facet mask of it (bit i is facet
    i); both modes run one sequence on its facet masks in ambient ids.  A's
    sound "no" rules (A.rules_out) come first.  Facets with a common vertex
    span a cone, a "yes" (witness: _cone_rows).  Otherwise one strong
    collapse in rounds leaves a core, a strong deformation retract, so
    restricting the maps to it keeps their contiguity class; a one-vertex
    core is a "yes".  memo, used for a verdict only, maps a core's facet set
    to its verdict, so checks with one core share one verdict.  Then the
    homology rule: a cycle of the core on which the two maps (A.images)
    differ against a cocycle of K is a sound "no" (_differs_on_homology).
    Last, the class query on the core decides (maps._class_decision).  For
    a witness it gets the ends A.endpoints gives on all of sub's vertices
    and sub's reduction (maps._reduction), and lifts its path into rows; a
    one-vertex core gets its rows there too.  A sound rule never fires on a
    "yes", so both modes give one verdict.  Only a "yes" with a witness
    builds a mask's class as a Complex (_admissible).
    """
    check_budget(budget)
    facets, emb = _ambient_facets(sub, A.ambient, A.not_sub)
    if A.rules_out(facets, union := union_mask(facets)):
        return Verdict.NO, None
    if want_witness:
        memo = None
        ids = ids_from_mask(union) if emb is None else emb
        start, end = A.endpoints(ids)
    if (apex := _apex(facets)) >= 0:
        if not want_witness:
            return Verdict.YES, None
        return Verdict.YES, _admissible(A, sub, facets, _cone_rows(A, start, end, apex))
    rounds, core = _strong_collapse(facets)
    if not want_witness and len(core) == 1 and core[0].bit_count() == 1:
        return Verdict.YES, None
    key = frozenset(core)
    if memo is not None and (verdict := memo.get(key)) is not None:
        return verdict, None
    rows = None
    if _differs_on_homology(core, A.base.cocycles, A.images):
        verdict = Verdict.NO
    else:
        space = _CoreSpace(core, _retraction_chain(A.base))
        if want_witness:
            dom = _reduction(ids, rounds, core)
            verdict, rows, _ = _class_decision(space, start, end, budget, dom)
        else:
            on_core = A.endpoints(ids_from_mask(union_mask(core)))
            verdict = _class_decision(space, *on_core, budget)[0]
    if memo is not None:
        memo[key] = verdict
    if rows is None:
        return verdict, None
    return verdict, _admissible(A, sub, facets, rows)


def is_farber(
    omega: Complex | int,
    P: ProductComplex,
    budget: int = DEFAULT_BUDGET,
    want_witness: bool = True,
    *,
    memo: _Memo | None = None,
) -> tuple[Verdict, AdmissibleSet | None]:
    """Decide whether omega is a Farber subcomplex of P.product.

    omega is a subcomplex of K^2, or a facet mask of K^2 (bit i is facet i
    of P.product).  Two sound "no" rules run first: a vertex pair of omega
    split across components of K, and a full row or column slice (every
    placed facet {a} x F or F x {a} of the slice lies in a facet of omega)
    when K is not strongly collapsible.  Then the decision is projection
    contiguity: the two restricted projections lie in one contiguity class
    (for a cone, through the constants at its apex's two coordinates;
    otherwise the class query, exact without search when omega strongly
    collapses to a point).  Its witness, pi1|omega ~ pi2|omega in K, is the
    certificate.
    With want_witness=False only the verdict is computed, by the same
    sequence (_decide), and memo may carry the verdicts of earlier checks;
    search layers use this and re-certify the sets they keep.
    """
    return _decide(FarberAdmissibility(P.product, P.base, P), omega, budget, want_witness, memo)


def is_categorical(
    sub: Complex | int,
    K: Complex,
    budget: int = DEFAULT_BUDGET,
    want_witness: bool = True,
    *,
    memo: _Memo | None = None,
) -> tuple[Verdict, AdmissibleSet | None]:
    """Decide whether the inclusion of sub into K is in a constant's class.

    sub is a subcomplex of K, or a facet mask of K (bit i is facet i).
    After the component rule, a cone (facets sharing a vertex w) has the
    witness inclusion ~ constant at w; otherwise the class query searches
    the inclusion's class for a constant map, and when sub strongly
    collapses to a point the reduced inclusion is already constant, and the
    witness is the lifted retraction chain.  With want_witness=False only
    the verdict is computed, by the same sequence, with memo as in
    is_farber.
    """
    return _decide(CategoricalAdmissibility(K, K), sub, budget, want_witness, memo)


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


class _LexLeader:
    """The lex-leader test of the cover search's partial partitions.

    The search writes a partition as a word, the class of each facet in
    placement order with classes numbered by first appearance, and visits
    the words in lexicographic order.  A permutation g of the facets that
    keeps admissibility maps a partition to one with the same verdicts.  At
    position t the word of that image holds the class of g^-1 of the facet
    placed at t, renumbered by first appearance; that facet is placed at
    sources[g][t].  A partition whose image under some g has a smaller word
    is not the least of its symmetry class (its lex-leader), and neither is
    any partition that shares the prefix deciding it, so the search prunes
    it (Crawford, Ginsberg, Luks and Roy, KR 1996).

    The test is incremental.  For each g it keeps how long a prefix of the
    two words is known to agree (compared), the renumbering that prefix
    fixes, and the one position it waits on, the later of the two it must
    read next.  Placing position d advances only the permutations waiting on
    d: each goes on to wait on a later position, drops out for this subtree
    (its word is larger there, or equal throughout), or shows that no
    completion leads.  A log per position undoes a placement when the
    search backs off.
    """

    def __init__(self, order: Sequence[int], symmetries: Sequence[Sequence[int]]) -> None:
        self.n = n = len(order)
        position = [0] * n
        for t, i in enumerate(order):
            position[i] = t
        identity = list(range(n))
        self.sources: list[list[int]] = []
        for g in symmetries:
            src = [0] * n
            for i, gi in enumerate(g):  # g^-1 of the facet gi is i
                src[position[gi]] = position[i]
            if src != identity:
                self.sources.append(src)

    def reset(self, k: int) -> _LexLeader:
        """Start a search for partitions into at most k classes, nothing placed."""
        n = self.n
        self.compared = [0] * len(self.sources)
        self.renumber = [[-1] * k for _ in self.sources]
        self.renumbered: list[list[int]] = [[] for _ in self.sources]  # classes, in new numbering
        self.waiting: list[list[int]] = [[] for _ in range(n)]
        for g, src in enumerate(self.sources):
            self.waiting[src[0]].append(g)
        self.logs: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
        return self

    def place(self, d: int, j: int, word: list[int]) -> bool:
        """Put the facet at position d in class j, word holding the classes of positions < d.

        Returns False, with every change undone, when some permutation maps
        every partition with this prefix to a smaller word.
        """
        n = self.n
        log = self.logs[d] = []
        compared, waiting = self.compared, self.waiting
        for g in waiting[d]:
            src, to, renumbered = self.sources[g], self.renumber[g], self.renumbered[g]
            t, before, wait, smaller = compared[g], len(renumbered), -1, False
            while t < n:
                s = src[t]
                if t > d or s > d:
                    wait = t if t > s else s
                    waiting[wait].append(g)
                    break
                c = j if s == d else word[s]
                b = to[c]
                if b < 0:
                    b = to[c] = len(renumbered)
                    renumbered.append(c)
                a = j if t == d else word[t]
                if b != a:
                    smaller = b < a
                    break
                t += 1
            log.append((g, compared[g], before, wait))
            compared[g] = t
            if smaller:
                self.undo(d)
                return False
        return True

    def undo(self, d: int) -> None:
        """Take back the last place(d, ...), which returned True."""
        for g, t, before, wait in reversed(self.logs[d]):
            if wait >= 0:
                self.waiting[wait].pop()  # the last one added there: the search backs off in order
            self.compared[g] = t
            to, renumbered = self.renumber[g], self.renumbered[g]
            for c in renumbered[before:]:
                to[c] = -1
            del renumbered[before:]


def _cover_invariant(
    n_facets: int,
    check: Callable[[int], Verdict],
    certify: Callable[[int, int], AdmissibleSet],
    plan: Callable[[], tuple[Sequence[int], Sequence[Sequence[int]]]],
) -> InvariantResult:
    """Smallest k for which the facets split into k admissible classes, minus one.

    Admissibility is hereditary, so a cover by k admissible sets exists
    exactly when some partition of the facets into k classes has every class
    admissible.  For k = 1 that is one check of the full set.  For k = 2, 3,
    ... a depth-first search places the facets one at a time into one of
    the open classes, or opens one new class while fewer than k are open (so
    classes are numbered by their first placed facet and no relabelled copy
    of a partition is visited twice), and backs off as soon as a class
    fails; it keeps the class chosen for each placed facet on an explicit
    stack, so thousands of facets need no deep recursion.  plan() gives the
    placement order (a permutation of the facet indices) and a set of facet
    permutations that keep every class's admissibility (entry i is the image
    of facet i); it is asked for only once the search reaches k = 2.  check
    takes a facet mask (bit i is facet i); certify takes a class's mask and
    a mask the checker answered "yes" that contains it (the class itself
    when it was checked or holds one facet), and certifies the class.
    Checker verdicts are memoised by facet mask for this one call, and
    `checks` counts checker calls.  Only the k returned classes are
    certified.

    The search visits only lex-leaders (_LexLeader): before a class is
    checked, a partial partition that a permutation from plan() maps to a
    smaller one in the search's own order is cut.  Any subset of the
    symmetries would do.

    Every facet alone must be admissible (the caller rules out the rest
    first), and a class of one facet is never checked.  One optimistic
    pass, where undecided ("unknown") classes pass and heredity (_Heredity)
    decides a class inside a checked "yes" or holding a checked "no" with no
    checker call, finds the smallest k that succeeds.  Every smaller k was
    searched exhaustively up to symmetry, the lower-bound proof: if the facets split into k truly
    admissible classes, the least image of that partition is such a split
    too and is never cut, neither as a leader nor by a "no" (sound, checked
    or by heredity).  With no verdict undecided, k gives the value, and since
    verdicts then agree on symmetric classes, the cover is the one the
    unpruned search returns.  Else the result is budget-exhausted, and a
    strict pass (only checker "yes" classes pass) runs from that k up for
    the upper bound and cover.  Its verdicts need not agree on symmetric
    classes, so its cut may skip a cover the unpruned search finds; the
    result stays sound, as every class it keeps is a checked "yes" or a
    single facet.  The all-singleton partition (the word 0, 1, ..., n - 1)
    needs no check and is its own image under every permutation, so both
    passes end with a cover by k = n_facets.
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
    leader: _LexLeader | None = None  # made with placement

    def partition(k: int, passes: Callable[[int], bool]) -> list[int] | None:
        nonlocal leader
        if k == 1:  # one candidate, the full set: one check decides it
            return [full] if passes(full) else None
        if leader is None:
            order, symmetries = plan()
            placement.extend(1 << i for i in order)
            leader = _LexLeader(order, symmetries)
        lead = leader.reset(k)
        classes: list[int] = []
        chosen: list[int] = []  # the class each placed facet joined, in placement order
        j = 0  # the next class to try for the next facet; len(classes) opens one
        while len(chosen) < n_facets:
            d = len(chosen)
            bit = placement[d]
            while j < len(classes):
                if lead.place(d, j, chosen):
                    if passes(classes[j] | bit):
                        break
                    lead.undo(d)
                j += 1
            if j < len(classes):
                classes[j] |= bit
            elif j == len(classes) < k and lead.place(d, j, chosen):
                classes.append(bit)
            else:  # no class left for this facet: move the previous one on to its next class
                if not chosen:
                    return None
                j = chosen.pop()
                lead.undo(d - 1)
                prev = placement[d - 1]
                if classes[j] == prev:  # the previous facet opened that class
                    classes.pop()
                else:
                    classes[j] ^= prev
                j += 1
                continue
            chosen.append(j)
            j = 0
        return classes

    def result(status: Status, lower: int, upper: int, classes: list[int]) -> InvariantResult:
        cover = tuple(  # a class of one facet was never checked, and vouches for itself
            certify(m, m if m & (m - 1) == 0 or memo.get(m) is Verdict.YES else known.container(m))
            for m in classes
        )
        value = lower if status is Status.EXACT else None
        unknown_sets = tuple(frozenset(ids_from_mask(m)) for m in unknown)
        return InvariantResult(value, lower, upper, status, cover, (), unknown_sets, len(memo))

    # Both passes end by k = n_facets; an optimistic k that fails also fails strictly.
    lower_k = 1
    while (classes := partition(lower_k, optimistic)) is None:
        lower_k += 1
    if not unknown:  # every verdict met was decided, so every class is a "yes"
        return result(Status.EXACT, lower_k - 1, lower_k - 1, classes)
    k = lower_k
    while (classes := partition(k, strict)) is None:
        k += 1
    return result(Status.BUDGET_EXHAUSTED, lower_k - 1, k - 1, classes)


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
    """Which subcomplexes one invariant's covers are made of, with every fact of that kind.

    Each kind is one frozen subclass, FarberAdmissibility (TC) or
    CategoricalAdmissibility (scat), returned by admissibility(kind, K).
    It holds the ambient complex the subcomplexes live in and the base K
    every witness lands in, and gives:
      decide         its checker, is_farber or is_categorical;
      rules_out      its sound "no" rules on a class's facet masks;
      images         its two vertex maps f, g from ambient ids into K, which
                     the homology rule compares;
      endpoints      the two ends (start, end) a witness must join on given
                     ambient vertices, end None for "a constant map", which
                     the class query joins and the verifier checks (named
                     start_name, end_name);
      search_order   the order the cover search places the ambient facets in
                     (index order unless the kind sorts them);
      symmetries     facet permutations that keep admissibility (none unless
                     the kind has them).
    not_sub is the checkers' error for a Complex outside the ambient complex.
    """

    kind: ClassVar[str]
    not_sub: ClassVar[str]
    start_name: ClassVar[str]
    end_name: ClassVar[str]
    ambient: Complex
    base: Complex

    def from_labels(self, rows: Sequence[Sequence[str]]) -> Complex:
        """The subcomplex of the ambient complex whose facets are the label rows."""
        return subcomplex(self.ambient, [self.ambient.simplex_mask(row) for row in rows])

    def search_order(self) -> list[int]:
        """Index order."""
        return list(range(len(self.ambient.facets)))

    def symmetries(self) -> list[tuple[int, ...]]:
        """None, so every partition is a lex-leader."""
        return []


@dataclass(frozen=True)
class FarberAdmissibility(Admissibility):
    """Farber subcomplexes omega of ambient = K^2: pi1|omega ~ pi2|omega in base = K."""

    square: ProductComplex
    kind = "farber"
    not_sub = "omega is not a subcomplex of the product"
    start_name, end_name = "the first projection", "the second projection"

    def decide(
        self, sub: Complex | int, budget: int, want_witness: bool = True, memo: _Memo | None = None
    ) -> tuple[Verdict, AdmissibleSet | None]:
        # Looked up in this module on every call, so a wrapper set on is_farber sees each check.
        return is_farber(sub, self.square, budget, want_witness=want_witness, memo=memo)

    def rules_out(self, facets: list[int], union: int) -> bool:
        """A vertex pair split across components of K, or a full slice (K not strongly collapsible).

        A Farber witness would unfold to an edge path between a split pair.
        Slices of Farber subcomplexes are categorical; all of K is
        categorical in itself only when K is strongly collapsible.
        """
        if union & self.square.split_pairs:
            return True
        return not is_strongly_collapsible(self.base) and self.square.has_full_slice(facets)

    def images(self, q: int) -> tuple[int, int]:
        """The two projections at the vertex q of K^2."""
        return self.square.unpair(q)

    def endpoints(self, ids: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        start, end = zip(*map(self.images, ids))
        return start, end

    def search_order(self) -> list[int]:
        """The order the cover search places the facets of K^2 in, as facet indices.

        The facets F x G nearest the diagonal come first: the key is the
        least 1-skeleton distance d(u, v) over the vertices (u, v) of the
        facet, then the sum of those distances, then the walk ranks of F and
        G (_walk_ranks).  Nearby pairs tend to share a class, so the classes
        of a cover are filled one after another.  The walk ranks put ties in
        an order set by the shape of K, not by its labels: with the facet
        index in their place, the labels decided which far facets a class
        collected, and on some relabellings of a 10-cycle those classes had
        cycles for cores whose class queries ran out of budget.
        """
        facets = self.ambient.facets
        distance = self.square.pair_distances
        r = len(self.base.facets)
        rank = _walk_ranks(self.base.facets)

        def key(i: int) -> tuple[int, int, int, int]:
            d = [distance[q] for q in ids_from_mask(facets[i])]
            return min(d), sum(d), rank[i // r], rank[i % r]

        return sorted(range(len(facets)), key=key)

    def symmetries(self) -> list[tuple[int, ...]]:
        """Permutations of the facets of K^2 that keep Farber-ness; entry i is the image of facet i.

        sigma x sigma for each automorphism sigma of K (the first
        _AUTOMORPHISM_LIMIT that complexes.automorphisms finds), each also
        composed with the swap (u, v) -> (v, u), so the identity and the
        swap are always there.  The two projections restricted to the image
        are sigma after the two restricted to the class, or the same two in
        the other order, and contiguity classes are kept by composing with
        an isomorphism.  Facet a * r + b of K^2 is F_a x F_b
        (categorical_square).
        """
        K = self.base
        r = len(K.facets)
        index = {m: a for a, m in enumerate(K.facets)}
        out = []
        for sigma in automorphisms(K, _AUTOMORPHISM_LIMIT):
            s = [index[mask_from_ids(sigma[v] for v in ids)] for ids in K.facet_vertex_ids]
            out.append(tuple(s[a] * r + s[b] for a in range(r) for b in range(r)))
            out.append(tuple(s[b] * r + s[a] for a in range(r) for b in range(r)))
        return out


@dataclass(frozen=True)
class CategoricalAdmissibility(Admissibility):
    """Categorical subcomplexes of ambient = base = K: the inclusion ~ a constant map."""

    kind = "categorical"
    not_sub = "not a subcomplex of the ambient complex"
    start_name, end_name = "the inclusion", "a constant map"

    def decide(
        self, sub: Complex | int, budget: int, want_witness: bool = True, memo: _Memo | None = None
    ) -> tuple[Verdict, AdmissibleSet | None]:
        # Looked up in this module on every call, as in FarberAdmissibility.decide.
        return is_categorical(sub, self.base, budget, want_witness=want_witness, memo=memo)

    def rules_out(self, facets: list[int], union: int) -> bool:
        """The component rule: the class meets two components of K.

        The witness would unfold to edge paths joining all of the class's
        vertices to one constant vertex.
        """
        return bool(union & ~self.base.component_masks[(union & -union).bit_length() - 1])

    def images(self, v: int) -> tuple[int, int]:
        """The inclusion and a constant at v; a constant induces 0 on H^1, whichever it is."""
        return v, 0

    def endpoints(self, ids: tuple[int, ...]) -> tuple[tuple[int, ...], None]:
        return ids, None


def admissibility(kind: str, K: Complex) -> Admissibility:
    """The admissible subcomplexes of kind "farber" or "categorical" for K."""
    if kind == "farber":
        P = categorical_square(K)
        return FarberAdmissibility(P.product, K, P)
    if kind == "categorical":
        return CategoricalAdmissibility(K, K)
    raise InvalidInput(f"unknown admissible kind {kind!r}")


def _admissible_cover(A: Admissibility, budget: int) -> InvariantResult:
    """The cover search over the facets of A.ambient with A's admissibility check.

    A facet alone is a cone, admissible unless A.rules_out rules it out:
    then the complex is not coverable, with no checker call.  Checks hand A their facet mask and share one class-query memo, which
    lives as long as this call; the search places facets in A.search_order().
    Only the classes of the returned cover are built as complexes and
    certified, from their masks too.  A class whose "yes" came from heredity
    never met the checker.  A cone among them is certified from its own apex
    like any cone; under a small budget the class query of any other could
    stop undecided, so it is certified by restricting the witness of the
    checked "yes" class that holds it.
    """
    if any(A.rules_out([f], f) for f in A.ambient.facets):  # a facet in no admissible set
        return InvariantResult(None, None, None, Status.NOT_COVERABLE, None, (), (), 0)
    memo: dict[frozenset[int], Verdict] = {}

    def check(mask: int) -> Verdict:
        return A.decide(mask, budget, want_witness=False, memo=memo)[0]

    def certify(mask: int, within: int) -> AdmissibleSet:
        if _apex([A.ambient.facets[i] for i in ids_from_mask(mask)]) >= 0:
            within = mask  # a cone is certified from its own apex, with no class query
        verdict, adm = A.decide(within, budget)
        if verdict is not Verdict.YES or adm is None:
            raise InvalidInput("certification pass disagrees with the search verdict")
        if within == mask:
            return adm
        sub = _complex_on(A.ambient, [A.ambient.facets[i] for i in ids_from_mask(mask)])
        return AdmissibleSet(adm.kind, sub, restrict_witness(adm.witness, sub))

    def plan() -> tuple[list[int], list[tuple[int, ...]]]:
        return A.search_order(), A.symmetries()

    return _cover_invariant(len(A.ambient.facets), check, certify, plan)


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
    """Edge path from x to y, read off a Farber witness."""

    x: int
    y: int
    path: tuple[int, ...]  # h_0(x, y) = x, h_1(x, y), ..., h_m(x, y) = y


def motion_plan(adm: AdmissibleSet, x: int, y: int) -> MotionPlan:
    """Evaluate the stored witness at the vertex (x, y) of omega.

    The witness steps h_0 = pi1|omega, ..., h_m = pi2|omega are maps
    omega -> K, so h_j(x, y) runs from x to y, and consecutive steps are
    contiguous, so consecutive points span a simplex of K: the sequence is
    an edge path from x to y, with repeats.
    """
    if adm.kind != "farber":
        raise InvalidInput("motion plans require a Farber admissible set")
    K = adm.witness.first.codomain
    if min(x, y) < 0 or max(x, y) >= K.n_vertices:
        raise InvalidInput(f"motion plan endpoints must be vertex ids in range({K.n_vertices})")
    label = f"{K.labels[x]}|{K.labels[y]}"
    try:
        w = adm.omega.id(label)
    except InvalidInput:
        raise InvalidInput(f"({K.labels[x]}, {K.labels[y]}) is not a vertex of omega") from None
    plan = MotionPlan(x, y, tuple(step.assignment[w] for step in adm.witness.steps))
    validate_motion_plan(K, plan)
    return plan


def validate_motion_plan(K: Complex, plan: MotionPlan) -> None:
    """Independent checks: endpoints and consecutive simplex spans."""
    if plan.path[0] != plan.x or plan.path[-1] != plan.y:
        raise InvalidInput("motion plan endpoints do not match the query")
    for a, b in zip(plan.path, plan.path[1:]):
        if a != b and not K.is_simplex((1 << a) | (1 << b)):
            raise InvalidInput("consecutive motion plan points do not span a simplex")
