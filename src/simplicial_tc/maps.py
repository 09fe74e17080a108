"""Simplicial maps, contiguity, and contiguity-class decision with witnesses.

Two maps f, g are contiguous when every facet F of the shared domain has
f(F) | g(F) a simplex of the codomain (faces follow by monotonicity, so
facet-level checking is exact).  The contiguity *class* is the transitive
closure; membership is decided by breadth-first search over the implicit
graph whose nodes are the simplicial maps domain -> codomain and whose edges
join contiguous maps that differ at one vertex.  Those edges have the same
connected components as contiguity itself (see _kernels/pure.py), so witness
chains can be longer but every class is the same.  The search is exact: "no"
is reported only after a full connected component has been exhausted, and a
state budget turns an oversized search into an honest "unknown", which
same_contiguity_class reports only when the searches from both maps ran out.
A class query whose domain strongly collapses to a point needs no search: it
is exact and spends no budget (maps from a point are joined exactly when
their images are joined by an edge path).

Every class query is one call of _class_decision, which runs the search
(_class_search) on the maps between the strong-collapse cores (_CoreSpace)
and, when a witness is wanted, lifts the path it finds into witness rows
(_lift).  invariants asks it on a class's facet masks, in the ids of the
ambient complex, and for a verdict builds no Complex, map or witness;
same_contiguity_class and class_constant_witness are thin wrappers that ask
it on their domain's facets and turn the rows into a ContiguityWitness.
A class given as masks and the same class as a Complex give one search and
one witness, as the collapse in rounds follows only the relative order of
the vertex ids.

A path among the maps between the cores is lifted back through the
retraction chains of domain and codomain and validated once.  (A cone,
whose facets share a vertex, needs no query: invariants chains its maps
through the constants at the apex's images.)  A chain holds one retraction
per round of the collapse, each contiguous to the identity, so it is as
long as the rounds, not the deletions.  One function (_reduction) turns a
collapse into a Reduction: its steps, chain, core vertices and retraction,
on the positions of the domain's vertices.  A complex's reduction is one
cached record (_retraction_chain), which collapse.core,
is_strongly_collapsible and contraction_witness read too.  When the
codomain's core is one vertex, every map into it lies in one class, and
the domain's chain, composed with the constant retraction, adds only
constant steps, which the witness drops as repeats.  Such a query, like
any whose two maps reduce to one core-space map, ends where a search would
start, so the kernel context is built only when a search has to take a
step.

A witness is checked once, by the ContiguityWitness constructor, in one
pass: one domain and codomain for all steps, each step's length and value
range, contiguity of each consecutive pair, and simpliciality of a lone
step.  Contiguity gives simpliciality for free (f(F) lies inside the simplex
f(F) | g(F)), so the steps that class queries, restrictions and the
certificate verifier build only to go into a witness skip their own check
(_unchecked_map); a public SimplicialMap(...) still checks itself.

BFS states are bytes (one codomain id per domain vertex), which caps the
codomain at 255 vertices; orders of magnitude beyond the intended desk scale.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Sequence

from ._kernels import pure
from .complexes import (
    Complex,
    _complex_on,
    edge_path,
    embedding_ids,
    ids_from_mask,
    is_subcomplex,
    union_mask,
)
from .errors import DomainMismatch, InvalidInput, NotSimplicial

DEFAULT_BUDGET = 10**6


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


def _check_assignment(domain: Complex, codomain: Complex, assignment: tuple[int, ...]) -> None:
    """One codomain id per domain vertex, each inside the codomain's vertex table."""
    if len(assignment) != domain.n_vertices:
        raise InvalidInput("assignment must cover every domain vertex")
    n_cod = codomain.n_vertices
    for c in assignment:  # a plain loop: any() over a generator costs more on a few vertices
        if not 0 <= c < n_cod:
            raise InvalidInput("assignment image outside the codomain vertex table")


def _check_simplicial(domain: Complex, codomain: Complex, assignment: tuple[int, ...]) -> None:
    """Every facet image is a simplex of the codomain."""
    for verts in domain.facet_vertex_ids:
        img = 0
        for v in verts:
            img |= 1 << assignment[v]
        if not codomain.is_simplex(img):
            labs = tuple(sorted(domain.labels[v] for v in verts))
            raise NotSimplicial(f"facet {labs} maps outside the codomain", labs)


def _contiguous(domain: Complex, codomain: Complex, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """f(F) | g(F) is a simplex for every facet F; so f and g are simplicial too."""
    is_simplex = codomain.is_simplex
    for verts in domain.facet_vertex_ids:
        joint = 0
        for v in verts:
            joint |= (1 << a[v]) | (1 << b[v])
        if not is_simplex(joint):
            return False
    return True


@dataclass(frozen=True)
class SimplicialMap:
    """Vertex assignment between two complexes; facet images must be simplices."""

    domain: Complex
    codomain: Complex
    assignment: tuple[int, ...]

    def __post_init__(self):
        _check_assignment(self.domain, self.codomain, self.assignment)
        _check_simplicial(self.domain, self.codomain, self.assignment)

    def image_mask(self, mask: int) -> int:
        out = 0
        for v in ids_from_mask(mask):
            out |= 1 << self.assignment[v]
        return out

    def __call__(self, vertex: int) -> int:
        return self.assignment[vertex]

    @property
    def is_constant(self) -> bool:
        first = self.assignment[0]
        return all(c == first for c in self.assignment)


def validate_map(assignment, K: Complex, L: Complex) -> SimplicialMap:
    """Validate a raw vertex assignment as a simplicial map K -> L."""
    return SimplicialMap(K, L, tuple(assignment))


def identity_map(K: Complex) -> SimplicialMap:
    return SimplicialMap(K, K, tuple(range(K.n_vertices)))


def constant_map(K: Complex, L: Complex, v: int) -> SimplicialMap:
    return SimplicialMap(K, L, (v,) * K.n_vertices)


def inclusion_map(sub: Complex, K: Complex) -> SimplicialMap:
    if not is_subcomplex(sub, K):
        raise DomainMismatch("not a subcomplex of the ambient complex")
    return SimplicialMap(sub, K, embedding_ids(sub, K))


def compose(outer: SimplicialMap, inner: SimplicialMap) -> SimplicialMap:
    if inner.codomain != outer.domain:
        raise DomainMismatch("compose: codomain of inner must equal domain of outer")
    return SimplicialMap(
        inner.domain, outer.codomain, tuple(outer.assignment[c] for c in inner.assignment)
    )


def restrict(f: SimplicialMap, sub: Complex) -> SimplicialMap:
    """Restrict f to a subcomplex of its domain (matched by vertex labels)."""
    if not is_subcomplex(sub, f.domain):
        raise DomainMismatch("restrict: not a subcomplex of the domain")
    emb = embedding_ids(sub, f.domain)
    return SimplicialMap(sub, f.codomain, tuple(f.assignment[p] for p in emb))


def _require_parallel(f: SimplicialMap, g: SimplicialMap) -> None:
    if f.domain != g.domain or f.codomain != g.codomain:
        raise DomainMismatch("maps must share domain and codomain")


def are_contiguous(f: SimplicialMap, g: SimplicialMap) -> bool:
    """Facet-level contiguity test: f(F) | g(F) a simplex for every facet F."""
    _require_parallel(f, g)
    return _contiguous(f.domain, f.codomain, f.assignment, g.assignment)


def _unchecked_map(domain: Complex, codomain: Complex, assignment: tuple[int, ...]) -> SimplicialMap:
    """A SimplicialMap built without its own check, as a step for a ContiguityWitness.

    The witness checks every step it is given, so such a step is checked once
    there and not twice.  Anything else builds maps through SimplicialMap(...).
    """
    f = object.__new__(SimplicialMap)
    object.__setattr__(f, "domain", domain)
    object.__setattr__(f, "codomain", codomain)
    object.__setattr__(f, "assignment", assignment)
    return f


@dataclass(frozen=True)
class ContiguityWitness:
    """A chain of simplicial maps with every consecutive pair contiguous.

    The constructor checks the whole chain in one pass and trusts nothing
    its steps were built with: the steps share one domain and one codomain,
    each assignment has one codomain id per domain vertex, each consecutive
    pair is contiguous, and a lone step is simplicial.  Contiguity proves
    both maps of the pair simplicial (f(F) lies inside the simplex
    f(F) | g(F)), so a step is not checked again on its own, and steps built
    only to go into a witness skip their own check (_unchecked_map).
    """

    steps: tuple[SimplicialMap, ...]

    def __post_init__(self):
        steps = self.steps
        if not steps:
            raise InvalidInput("a witness needs at least one step")
        dom, cod = steps[0].domain, steps[0].codomain
        for s in steps:
            if (s.domain is not dom and s.domain != dom) or (
                s.codomain is not cod and s.codomain != cod
            ):
                raise DomainMismatch("witness steps must share domain and codomain")
            _check_assignment(dom, cod, s.assignment)
        if len(steps) == 1:
            _check_simplicial(dom, cod, steps[0].assignment)
        for a, b in zip(steps, steps[1:]):
            if not _contiguous(dom, cod, a.assignment, b.assignment):
                raise InvalidInput("consecutive witness steps are not contiguous")

    @property
    def first(self) -> SimplicialMap:
        return self.steps[0]

    @property
    def last(self) -> SimplicialMap:
        return self.steps[-1]

    def __len__(self) -> int:
        return len(self.steps)

    def concat(self, other: "ContiguityWitness") -> "ContiguityWitness":
        if self.last.assignment != other.first.assignment:
            raise InvalidInput("witness endpoints do not meet")
        return ContiguityWitness(self.steps + other.steps[1:])


def restrict_witness(w: ContiguityWitness, sub: Complex) -> ContiguityWitness:
    """Step-by-step restriction; contiguity is preserved under restriction."""
    domain, codomain = w.first.domain, w.first.codomain
    if not is_subcomplex(sub, domain):
        raise DomainMismatch("restrict: not a subcomplex of the domain")
    emb = embedding_ids(sub, domain)
    return ContiguityWitness(
        tuple(_unchecked_map(sub, codomain, tuple(s.assignment[p] for p in emb)) for s in w.steps)
    )


@dataclass(frozen=True)
class ContiguityResult:
    verdict: Verdict
    witness: ContiguityWitness | None
    explored: int


# -- implicit-graph search --------------------------------------------------
#
# Class queries run in a reduced space: replacing domain and codomain by
# their strong-collapse cores preserves contiguity classes in both
# directions (f ~ g  iff  r∘f∘j ~ r∘g∘j over the cores), and the reduction
# is constructive -- witnesses found in the core space are lifted back
# through the retraction chains and re-validated.  The BFS itself is exact
# either way; the reduction only shrinks the graph it walks.


def _check_codomain(codomain: Complex) -> None:
    """States are bytes, so a searched codomain may have at most 255 vertices."""
    if codomain.n_vertices > 255:
        raise InvalidInput("class search supports codomains with at most 255 vertices")


def _context(domain: Complex, codomain: Complex) -> pure.Context:
    """Kernel context for maps domain -> codomain (see _check_codomain)."""
    _check_codomain(codomain)
    return pure.Context(domain.facet_vertex_ids, domain.vertex_facets, codomain.facets)


def check_budget(budget) -> None:
    """A budget is a positive int (not a bool): the number of maps a search may visit."""
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise InvalidInput("budget must be a positive integer")


def _bfs(
    ctx: pure.Context,
    start: bytes,
    match: Callable[[bytes], bool],
    budget: int,
) -> tuple[bytes | None, dict[bytes, bytes | None], bool]:
    """BFS over the contiguity graph from start until match() or exhaustion.

    Returns (hit, parents, complete); incomplete means the budget (count of
    distinct visited maps) was reached with frontier left unexplored.
    pure.neighbors is looked up at each step, so the benchmark's tracer, which
    patches that name, sees every step.
    """
    check_budget(budget)
    parents: dict[bytes, bytes | None] = {start: None}
    if match(start):
        return start, parents, True
    queue = deque([start])
    while queue:
        a = queue.popleft()
        for b in pure.neighbors(ctx, a):
            if b in parents:
                continue
            if len(parents) >= budget:
                return None, parents, False
            parents[b] = a
            if match(b):
                return b, parents, True
            queue.append(b)
    return None, parents, True


def _path_from_parents(parents: dict[bytes, bytes | None], hit: bytes) -> list[bytes]:
    chain = [hit]
    while parents[chain[-1]] is not None:
        chain.append(parents[chain[-1]])
    return chain[::-1]


@dataclass(frozen=True)
class Reduction:
    """A strong-collapse reduction (see _reduction), in the positions of its vertices."""

    steps: tuple[tuple[int, int], ...]  # (deleted v, dominator u), one deletion at a time
    chain: tuple[tuple[int, ...], ...]  # identity -> full retraction, one self-map per round
    core_ids: tuple[int, ...]  # position of each core vertex
    retraction: tuple[int, ...]  # chain[-1] in core positions
    core: Complex | None = None  # the core, for the reduction of a Complex (_retraction_chain)


def _reduction(
    ids: Sequence[int],
    rounds: Sequence[Sequence[tuple[int, int]]],
    core: Sequence[int],
    core_complex: Complex | None = None,
) -> Reduction:
    """The reduction that rounds, core = collapse._strong_collapse(facets) gives, on positions.

    ids[i] is the vertex of facets at position i (for a Complex, i itself),
    so a class given in the ids of an ambient complex and the same class
    built as a Complex get one reduction.  Core vertices are counted in
    increasing id, as _CoreSpace numbers them.  chain[i + 1] is chain[i]
    followed by the retraction of round i, which sends each deleted vertex
    to its dominator; no dominator of a round is deleted in it, so that map
    is contiguous to the identity and consecutive maps of the chain are
    contiguous.
    """
    position = {v: i for i, v in enumerate(ids)}
    rho = list(range(len(ids)))
    chain = [tuple(rho)]
    for steps in rounds:
        to = {position[v]: position[u] for v, u in steps}
        rho = [to.get(x, x) for x in rho]
        chain.append(tuple(rho))
    core_ids = tuple(position[v] for v in ids_from_mask(union_mask(core)))
    core_index = {x: i for i, x in enumerate(core_ids)}
    retraction = tuple(core_index[x] for x in rho)
    steps = tuple((position[v], position[u]) for steps in rounds for v, u in steps)
    return Reduction(steps, tuple(chain), core_ids, retraction, core_complex)


@lru_cache(maxsize=64)
def _retraction_chain(K: Complex) -> Reduction:
    """The one record of K's strong-collapse reduction, from one collapse in rounds, with its core.

    The function keeps the name of the chain it once returned, and its
    cache, because the benchmark (e2ebench/sweep.py) clears it by name.  A
    record is reused while its complex is worked on (the class queries of
    one tc or scat call keep asking for K's), so a few recent ones suffice;
    a larger cache gains no hits on the benchmark workloads.
    """
    from .collapse import _strong_collapse

    rounds, facets = _strong_collapse(K.facets)
    return _reduction(range(K.n_vertices), rounds, facets, _complex_on(K, facets) if rounds else K)


class _CoreSpace:
    """The maps from a domain's core into a codomain's core: the graph every class query walks.

    facets are the domain core's facet masks, in any vertex ids; its
    vertices are numbered densely in increasing id, as _complex_on numbers
    them, so a core given in the ids of an ambient complex and the same core
    built as a Complex give one graph.  cod is the codomain's reduction
    (_retraction_chain).
    """

    def __init__(self, facets: Sequence[int], cod: Reduction):
        _check_codomain(cod.core)
        self.facets = facets
        self.cod = cod

    @cached_property
    def ctx(self) -> pure.Context:
        """The kernel context, built by the first search that leaves its start."""
        ids = ids_from_mask(union_mask(self.facets))
        dense = {v: i for i, v in enumerate(ids)}
        facet_vertices = [[dense[v] for v in ids_from_mask(m)] for m in self.facets]
        vertex_facets: list[list[int]] = [[] for _ in ids]
        for j, verts in enumerate(facet_vertices):
            for v in verts:
                vertex_facets[v].append(j)
        return pure.Context(facet_vertices, vertex_facets, self.cod.core.facets)


@lru_cache(maxsize=32)
def _class_query(domain: Complex, codomain: Complex) -> tuple[Reduction, _CoreSpace]:
    """The domain's reduction and the query space of the public class queries on maps domain -> codomain.

    Repeats rarely reach this cache (the library asks its class queries on
    facet masks, with a per-call verdict memo in invariants), so it keeps
    only a few spaces, and with them their complexes, alive.  It stays an lru
    cache because the benchmark (e2ebench/sweep.py) clears it by name.
    """
    dom = _retraction_chain(domain)
    return dom, _CoreSpace(dom.core.facets, _retraction_chain(codomain))


def _class_search(
    space: _CoreSpace, start: bytes, goal: bytes | None, budget: int
) -> tuple[Verdict, list[bytes] | None, int]:
    """The search of class queries, on core-space maps: (verdict, path, explored).

    goal is the core-space map to reach, or None for any constant map; path
    runs from start to the map reached, for a "yes".  A start that is its
    own goal needs no search, as every query into a point is.  To a goal
    from a one-vertex domain core the answer is exact and spends no budget:
    maps from a point are its images, two of them are contiguous when they
    span an edge, so the class is an edge-path component of the codomain's
    core.  Otherwise "no" is certified by exhausting the connected component
    of start, or of goal when start's side blows the budget first; "unknown"
    means the searches from both sides ran out of budget.  A constant map
    is searched for from start alone.
    """
    if goal is None:
        n = len(start)

        def is_const(a: bytes) -> bool:
            return a.count(a[0]) == n

        if is_const(start):
            return Verdict.YES, [start], 1
        hit, parents, complete = _bfs(space.ctx, start, is_const, budget)
        if hit is not None:
            return Verdict.YES, _path_from_parents(parents, hit), len(parents)
        return Verdict.NO if complete else Verdict.UNKNOWN, None, len(parents)
    if start == goal:
        return Verdict.YES, [start], 1
    if len(start) == 1:
        path = edge_path(space.cod.core, start[0], goal[0])
        if path is None:
            return Verdict.NO, None, 1
        return Verdict.YES, [bytes((c,)) for c in path], len(path)
    explored = 0
    for a, b, order in ((start, goal, 1), (goal, start, -1)):
        hit, parents, complete = _bfs(space.ctx, a, b.__eq__, budget)
        explored += len(parents)
        if hit is not None:
            return Verdict.YES, _path_from_parents(parents, hit)[::order], explored
        if complete:
            return Verdict.NO, None, explored
    return Verdict.UNKNOWN, None, explored


def _lift(
    dom: Reduction, cod: Reduction, front: Sequence[int], path: list[bytes], back: Sequence[int] | None
) -> list[tuple[int, ...]]:
    """The rows of a chain front ~ ... ~ back (a constant map when back is None) through path.

    Each end f is joined to i∘(reduced f)∘r by the codomain's chain and then
    the domain's, and each core-space map h on the path becomes i∘h∘r.
    Consecutive repeats are dropped.
    """

    def bridge(assignment: Sequence[int]) -> list[tuple[int, ...]]:
        chain = [tuple(rho[a] for a in assignment) for rho in cod.chain]
        retracted = chain[-1]
        chain.extend(tuple(retracted[x] for x in c) for c in dom.chain[1:])
        return chain

    rows = bridge(front)
    rows.extend(tuple(cod.core_ids[h[r]] for r in dom.retraction) for h in path)
    if back is not None:
        rows.extend(reversed(bridge(back)))
    return [rows[0]] + [b for a, b in zip(rows, rows[1:]) if a != b]


def _class_decision(
    space: _CoreSpace,
    start: Sequence[int],
    end: Sequence[int] | None,
    budget: int,
    dom: Reduction | None = None,
) -> tuple[Verdict, list[tuple[int, ...]] | None, int]:
    """The one class query: whether start and end lie in one class, (verdict, rows, explored).

    start and end are maps into the codomain of space, end None for "a
    constant map".  Without dom they give the images of the domain core's
    vertices, in increasing id, and the answer is a verdict alone.  With
    dom, the domain's reduction, they give the images of all its vertices,
    by position, and a "yes" comes with the rows of a witness, lifted from
    the path through both retraction chains (_lift).  Either way the search
    is _class_search on the reduced maps.
    """
    r = space.cod.retraction
    keep = range(len(start)) if dom is None else dom.core_ids
    fa = bytes([r[start[e]] for e in keep])
    ga = None if end is None else bytes([r[end[e]] for e in keep])
    verdict, path, explored = _class_search(space, fa, ga, budget)
    if dom is None or path is None:
        return verdict, None, explored
    return verdict, _lift(dom, space.cod, start, path, end), explored


def _answer(f: SimplicialMap, end: Sequence[int] | None, budget: int) -> ContiguityResult:
    """_class_decision on the maps f.domain -> f.codomain, with its rows as a witness."""
    dom, space = _class_query(f.domain, f.codomain)
    verdict, rows, explored = _class_decision(space, f.assignment, end, budget, dom)
    if rows is None:
        return ContiguityResult(verdict, None, explored)
    steps = tuple(_unchecked_map(f.domain, f.codomain, a) for a in rows)
    return ContiguityResult(verdict, ContiguityWitness(steps), explored)


def same_contiguity_class(
    f: SimplicialMap, g: SimplicialMap, budget: int = DEFAULT_BUDGET
) -> ContiguityResult:
    """Decide whether f and g lie in one contiguity class.

    Yes comes with a validated witness.  The decision is the class query
    (_class_decision) on the reductions of f and g to the cores of domain
    and codomain: exact and free of budget when the domain's core is one
    vertex, otherwise no is an exhausted connected component and unknown
    means the searches from both maps ran out of budget.
    """
    check_budget(budget)
    _require_parallel(f, g)
    if f.assignment == g.assignment:
        return ContiguityResult(Verdict.YES, ContiguityWitness((f,)), 1)
    return _answer(f, g.assignment, budget)


def class_constant_witness(f: SimplicialMap, budget: int = DEFAULT_BUDGET) -> ContiguityResult:
    """Search the contiguity class of f for any constant map."""
    check_budget(budget)
    result = _answer(f, None, budget)
    if result.witness is not None and not result.witness.last.is_constant:
        raise InvalidInput("internal: lifted witness does not end at a constant")
    return result


def contiguity_component(
    f: SimplicialMap, budget: int = DEFAULT_BUDGET
) -> tuple[frozenset[tuple[int, ...]], bool]:
    """All assignments in the contiguity class of f, and whether it is complete."""
    ctx = _context(f.domain, f.codomain)
    _, parents, complete = _bfs(ctx, bytes(f.assignment), lambda a: False, budget)
    return frozenset(tuple(a) for a in parents), complete


def neighbors(f: SimplicialMap) -> Iterator[SimplicialMap]:
    """All maps g != f contiguous to f, in lexicographic order of assignment.

    They are the closure of f under kernel steps that stay contiguous to f:
    changing f(v) to g(v) one vertex at a time keeps every facet image
    inside the simplex f(F) | g(F), so each map on the way is contiguous to
    f and one step from the last.
    """
    ctx = _context(f.domain, f.codomain)
    start = bytes(f.assignment)
    seen = {start}
    queue = deque([start])
    while queue:
        for b in pure.neighbors(ctx, queue.popleft()):
            if b not in seen and _contiguous(f.domain, f.codomain, start, b):
                seen.add(b)
                queue.append(b)
    seen.remove(start)
    for a in sorted(seen):
        yield SimplicialMap(f.domain, f.codomain, tuple(a))


def witness_between_constants(
    domain: Complex, codomain: Complex, u: int, v: int
) -> ContiguityWitness | None:
    """Chain of constant maps along an edge path u .. v in the codomain.

    Exists iff u and v lie in one edge-path component; this is the
    constructive side of `constants agree on connected complexes`.
    """
    path = edge_path(codomain, u, v)
    if path is None:
        return None
    n = domain.n_vertices
    return ContiguityWitness(tuple(_unchecked_map(domain, codomain, (w,) * n) for w in path))
