"""Dominated vertices, strong collapses, cores, and contraction witnesses.

A vertex v is dominated by v' when every facet containing v also contains v';
deleting a dominated vertex is an elementary strong collapse and preserves
both invariants computed downstream (Barmak & Minian, "Strong homotopy
types, nerves and collapses", 2012).  The core is the fixed point of greedy
deletion; it is unique up to isomorphism whatever the deletion order, and
collapsing to it preserves contiguity classes.

The greedy loop runs on facet bitmasks: delete the lowest dominated vertex
in favour of its lowest dominator, truncate the facets that held it, and
build one `Complex` at the end.  Verdict-only callers (the admissibility
checks of the cover search) take just that complex through `core_complex`.
`core` adds the replayable `CollapseSequence`, which class queries and
certificates use; `contraction_witness` validates the retraction chain that
the class queries of `maps` lift their witnesses through.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .complexes import Complex, _complex_on, ids_from_mask
from .errors import InvalidInput
from .maps import ContiguityWitness, SimplicialMap, _retraction_chain


def dominated_vertices(K: Complex) -> list[tuple[int, int]]:
    """All pairs (v, v') with v != v' and every facet containing v containing v'."""
    return [(v, u) for v in range(K.n_vertices) for u in ids_from_mask(_dominators(K.facets, v))]


def _dominators(facets: Sequence[int], v: int) -> int:
    """Mask of the vertices other than v lying in every facet that holds v.

    v must lie in at least one of the facets.
    """
    vbit = 1 << v
    inter = -1
    for m in facets:
        if m & vbit:
            inter &= m
    return inter & ~vbit


def _drop_vertex(facets: list[int], v: int) -> list[int]:
    """Facet antichain after deleting v.

    Facets that held v lose it and survive unless they now lie inside a
    facet that did not hold v; two of them cannot nest, as the facets that
    held v were an antichain.
    """
    vbit = 1 << v
    untouched = [m for m in facets if not m & vbit]
    out = list(untouched)
    for m in facets:
        if m & vbit:
            t = m ^ vbit
            if t and not any(t & ~k == 0 for k in untouched):
                out.append(t)
    return out


def _greedy_collapse(K: Complex) -> tuple[tuple[tuple[int, int], ...], Complex]:
    """Delete the lowest-id dominated vertex (lowest dominator) until none remains.

    Returns the steps (ids of K) and the core; K itself when nothing is
    dominated.  Only the stars of the deleted vertex's neighbours change, so
    only their dominator masks are recomputed.
    """
    facets = list(K.facets)
    doms = [_dominators(facets, v) for v in range(K.n_vertices)]
    steps: list[tuple[int, int]] = []
    while True:
        v = next((w for w, d in enumerate(doms) if d), None)
        if v is None:
            break
        d = doms[v]
        steps.append((v, (d & -d).bit_length() - 1))
        vbit = 1 << v
        star = 0
        for m in facets:
            if m & vbit:
                star |= m
        facets = _drop_vertex(facets, v)
        doms[v] = 0
        for w in ids_from_mask(star & ~vbit):
            doms[w] = _dominators(facets, w)
    if not steps:
        return (), K
    return tuple(steps), _complex_on(K, facets)


def core_complex(K: Complex) -> Complex:
    """The core `core(K)` returns, without the collapse sequence or its replay."""
    return _greedy_collapse(K)[1]


@dataclass(frozen=True)
class CollapseSequence:
    """Replayable elementary strong collapses; steps use ids of `start`."""

    start: Complex
    end: Complex
    steps: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if replay(self) != self.end:
            raise InvalidInput("collapse steps do not replay from start to end")

    def step_labels(self) -> tuple[tuple[str, str], ...]:
        return tuple((self.start.labels[v], self.start.labels[u]) for v, u in self.steps)


def replay(seq: CollapseSequence) -> Complex:
    """Re-run the deletions, checking vertex presence and domination at every step."""
    K = seq.start
    facets = list(K.facets)
    alive = (1 << K.n_vertices) - 1
    for step in seq.steps:
        for w in step:
            if not (isinstance(w, int) and 0 <= w < K.n_vertices):
                raise InvalidInput(f"collapse step names unknown vertex id {w!r}")
            if not alive >> w & 1:
                raise InvalidInput(f"collapse step uses deleted vertex {K.labels[w]!r}")
        v, u = step
        if v == u or not _dominators(facets, v) >> u & 1:
            raise InvalidInput(
                f"step deletes {K.labels[v]!r} but it is not dominated by {K.labels[u]!r}"
            )
        facets = _drop_vertex(facets, v)
        alive &= ~(1 << v)
    return _complex_on(K, facets) if seq.steps else K


@lru_cache(maxsize=8192)
def core(K: Complex) -> tuple[Complex, CollapseSequence]:
    """The greedy core of K and its collapse sequence (replayed on construction)."""
    steps, c = _greedy_collapse(K)
    return c, CollapseSequence(K, c, steps)


@lru_cache(maxsize=4096)
def is_strongly_collapsible(K: Complex) -> bool:
    """True iff the core of K is a single vertex."""
    return core(K)[0].n_vertices == 1


def add_cone_facet(K: Complex, base_mask: int, new_label: str) -> Complex:
    """Elementary strong expansion fixture: one new vertex over a simplex of K.

    The new vertex is dominated by every vertex of base_mask, and deleting it
    gives back K, so the result has the strong homotopy type of K.
    """
    from .complexes import _assemble_complex, _check_label

    if not K.is_simplex(base_mask):
        raise InvalidInput("expansion base must be a simplex of K")
    _check_label(new_label)
    if new_label in K.labels:
        raise InvalidInput(f"label {new_label!r} already present")
    facets = [
        tuple(K.labels[v] for v in ids_from_mask(m)) for m in K.facets
    ]
    facets.append(tuple(K.labels[v] for v in ids_from_mask(base_mask)) + (new_label,))
    # existing labels may be pair labels from a product, so skip the
    # input-label reservations for them
    return _assemble_complex(facets, check_labels=False)


@lru_cache(maxsize=2048)
def contraction_witness(K: Complex) -> ContiguityWitness | None:
    """Witness 1_K ~ constant when K is strongly collapsible, else None.

    Each collapse step (delete v, dominated by u) induces the retraction
    sending v to u and fixing everything else; the retraction is contiguous
    to the identity, and composing the chain (maps._retraction_chain)
    contracts the identity to the constant map at the core vertex.
    """
    c, chain = _retraction_chain(K)
    if c.n_vertices != 1:
        return None
    return ContiguityWitness(tuple(SimplicialMap(K, K, rho) for rho in chain))
