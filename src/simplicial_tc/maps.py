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

Class-query witnesses, and so the witnesses of every admissible set that
is not a cone, come from one route: a path found among the maps between
the strong-collapse cores is lifted back through the retraction chains of
domain and codomain (_ClassQuery.build_witness) and validated once.  (A
cone, whose facets share a vertex, needs no query: invariants chains its
maps through the constants at the apex's images.)  Both chains, the cores and
their vertex ids come from one record per complex (_retraction_chain), which
collapse.core, is_strongly_collapsible and contraction_witness read too.
When the codomain's core is one vertex, every map into it lies in one
class, so the domain is not reduced at all: its chain, composed with the
constant retraction, would add only constant steps, which the witness drops
as repeats anyway.  Such a query, like any whose two maps reduce to one
core-space map, ends where a search would start, so the kernel context is
built only when a search has to take a step.

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
from typing import Callable, Iterator

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
    """K's greedy strong-collapse reduction (see _retraction_chain)."""

    core: Complex
    steps: tuple[tuple[int, int], ...]  # (deleted v, dominator u), ids of K
    chain: tuple[tuple[int, ...], ...]  # identity -> full retraction, self-maps of K
    core_ids: tuple[int, ...]  # id in K of each core vertex
    retraction: tuple[int, ...]  # chain[-1] in core ids


@lru_cache(maxsize=64)
def _retraction_chain(K: Complex) -> Reduction:
    """The one record of K's strong-collapse reduction, from one greedy collapse.

    chain[i + 1] is chain[i] followed by the retraction of step i (the
    deleted vertex to its dominator), so consecutive maps are contiguous.
    The function keeps the name of the chain it once returned, and its
    cache, because the benchmark (e2ebench/sweep.py) clears it by name.
    A record is reused while its complex is worked on (the class queries of
    one tc or scat call keep asking for K's), so a few recent ones suffice;
    a larger cache gains no hits on the benchmark workloads.
    """
    from .collapse import _greedy_collapse

    steps, facets = _greedy_collapse(K.facets)
    c = _complex_on(K, facets) if steps else K
    rho = list(range(K.n_vertices))
    chain = [tuple(rho)]
    for v, u in steps:
        rho = [u if x == v else x for x in rho]
        chain.append(tuple(rho))
    union = union_mask(facets)
    # core ids keep the order of K's ids, so a survivor's core id counts the survivors below it
    retraction = tuple((union & ((1 << x) - 1)).bit_count() for x in rho)
    return Reduction(c, steps, tuple(chain), ids_from_mask(union), retraction)


def _unreduced(K: Complex) -> Reduction:
    """K as its own core: no steps, and the identity as chain and retraction."""
    ids = tuple(range(K.n_vertices))
    return Reduction(K, (), (ids,), ids, ids)


@lru_cache(maxsize=32)
def _class_query(domain: Complex, codomain: Complex) -> "_ClassQuery":
    """The query space for maps domain -> codomain.

    Repeats rarely reach this cache (the per-call verdict memo in invariants
    takes them first; under 0.1% hits on each benchmark workload), so it keeps
    only a few spaces, and with them their complexes, alive.  It stays an lru
    cache because the benchmark (e2ebench/sweep.py) clears it by name.
    """
    return _ClassQuery(domain, codomain)


class _ClassQuery:
    """Core-reduced search space for contiguity-class queries L -> K."""

    def __init__(self, domain: Complex, codomain: Complex):
        self.domain = domain
        self.codomain = codomain
        self.cod = _retraction_chain(codomain)
        # Into a point every map lies in one class, so the domain is not reduced:
        # its retraction chain would add only constant steps to a witness.
        point = self.cod.core.n_vertices == 1
        self.dom = _unreduced(domain) if point else _retraction_chain(domain)
        _check_codomain(self.cod.core)

    @cached_property
    def ctx(self) -> pure.Context:
        """The kernel context, built by the first search that leaves its start."""
        return _context(self.dom.core, self.cod.core)

    def reduce(self, assignment: tuple[int, ...]) -> bytes:
        return bytes(self.cod.retraction[assignment[e]] for e in self.dom.core_ids)

    def lift(self, reduced: bytes) -> tuple[int, ...]:
        """The map i∘h∘r : domain -> codomain for a core-space assignment h."""
        return tuple(self.cod.core_ids[reduced[r]] for r in self.dom.retraction)

    def bridge(self, assignment: tuple[int, ...]) -> list[tuple[int, ...]]:
        """Chain f ~ ... ~ i∘(reduce f)∘r inside maps domain -> codomain."""
        chain = [tuple(rho[a] for a in assignment) for rho in self.cod.chain]
        retracted = chain[-1]
        chain.extend(tuple(retracted[x] for x in c) for c in self.dom.chain[1:])
        return chain

    def build_witness(self, front: tuple[int, ...], path: list[bytes], back: tuple[int, ...] | None) -> ContiguityWitness:
        assigns = self.bridge(front)
        assigns.extend(self.lift(a) for a in path)
        if back is not None:
            assigns.extend(reversed(self.bridge(back)))
        deduped = [assigns[0]]
        for a in assigns[1:]:
            if a != deduped[-1]:
                deduped.append(a)
        return ContiguityWitness(
            tuple(_unchecked_map(self.domain, self.codomain, a) for a in deduped)
        )


def same_contiguity_class(
    f: SimplicialMap, g: SimplicialMap, budget: int = DEFAULT_BUDGET
) -> ContiguityResult:
    """Decide whether f and g lie in one contiguity class.

    Yes comes with a validated witness.  When the domain's core is one
    vertex the answer is exact and spends no budget: maps from a point are
    its images, two of them are contiguous when they span an edge, so the
    class is an edge-path component of the codomain's core.  Otherwise no is
    certified by exhausting the connected component of (the reduction of) f,
    or of g when f's side blows the budget first; unknown means the searches
    from both sides ran out of budget.
    """
    check_budget(budget)
    _require_parallel(f, g)
    if f.assignment == g.assignment:
        return ContiguityResult(Verdict.YES, ContiguityWitness((f,)), 1)
    rq = _class_query(f.domain, f.codomain)
    fa, ga = rq.reduce(f.assignment), rq.reduce(g.assignment)
    if fa == ga:  # a search would stop at its start, as every query into a point does
        return ContiguityResult(Verdict.YES, rq.build_witness(f.assignment, [fa], g.assignment), 1)
    if rq.dom.core.n_vertices == 1:
        path = edge_path(rq.cod.core, fa[0], ga[0])
        if path is None:
            return ContiguityResult(Verdict.NO, None, 1)
        w = rq.build_witness(f.assignment, [bytes((c,)) for c in path], g.assignment)
        return ContiguityResult(Verdict.YES, w, len(path))
    explored = 0
    for start, goal, order in ((fa, ga, 1), (ga, fa, -1)):
        hit, parents, complete = _bfs(rq.ctx, start, goal.__eq__, budget)
        explored += len(parents)
        if hit is not None:
            path = _path_from_parents(parents, hit)[::order]
            w = rq.build_witness(f.assignment, path, g.assignment)
            return ContiguityResult(Verdict.YES, w, explored)
        if complete:
            return ContiguityResult(Verdict.NO, None, explored)
    return ContiguityResult(Verdict.UNKNOWN, None, explored)


def class_constant_witness(f: SimplicialMap, budget: int = DEFAULT_BUDGET) -> ContiguityResult:
    """Search the contiguity class of f for any constant map."""
    check_budget(budget)
    rq = _class_query(f.domain, f.codomain)
    n = rq.dom.core.n_vertices
    fa = rq.reduce(f.assignment)

    def is_const(a: bytes) -> bool:
        return a.count(a[0]) == n

    if is_const(fa):  # a search would stop at its start, as every query into a point does
        hit, parents, complete = fa, {fa: None}, True
    else:
        hit, parents, complete = _bfs(rq.ctx, fa, is_const, budget)
    if hit is not None:
        w = rq.build_witness(f.assignment, _path_from_parents(parents, hit), None)
        if not w.last.is_constant:
            raise InvalidInput("internal: lifted witness does not end at a constant")
        return ContiguityResult(Verdict.YES, w, len(parents))
    return ContiguityResult(Verdict.NO if complete else Verdict.UNKNOWN, None, len(parents))


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
