"""Dominated vertices, strong collapses, cores, and contraction witnesses.

A vertex v is dominated by v' when every facet containing v also contains v';
deleting a dominated vertex is an elementary strong collapse and preserves
both invariants computed downstream (Barmak & Minian, "Strong homotopy
types, nerves and collapses", 2012).  The core is the fixed point of greedy
deletion; it is unique up to isomorphism whatever the deletion order, and
collapsing to it preserves contiguity classes.

One greedy loop (_greedy_collapse) runs on facet bitmasks: delete the
lowest dominated vertex in favour of its lowest dominator and truncate the
facets that held it.  Dominators come from one pass over the facets that
ANDs each facet into the star intersection of every vertex it holds: for
all vertices at the start, and after a deletion for the link of the deleted
vertex only; `dominated_vertices` and `replay` use the same pass.  It takes
bare masks, so the verdict-only checks of the cover search collapse a class
in the ambient complex's vertex ids and build no `Complex` unless the core
keeps several vertices (a class whose facets share a vertex is a cone and
never reaches the loop).  On a complex the loop runs once, in
maps._retraction_chain, whose record the class queries of `maps`, `core`,
`is_strongly_collapsible` and `contraction_witness` read; only `core` builds
the replayable `CollapseSequence`, which core certificates carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .complexes import Complex, _assemble_complex, _check_label, _complex_on, ids_from_mask
from .errors import InvalidInput
from .maps import ContiguityWitness, _retraction_chain, _unchecked_map


def dominated_vertices(K: Complex) -> list[tuple[int, int]]:
    """All pairs (v, v') with v != v' and every facet containing v containing v'."""
    doms = _star_intersections(K.facets, -1)
    return [(v, u) for v in range(K.n_vertices) for u in ids_from_mask(doms[v] & ~(1 << v))]


def _drop_vertex(facets: list[int], v: int) -> tuple[list[int], int]:
    """Facet antichain after deleting v, and the mask of v's link vertices.

    The link vertices are all that shared a facet with v.  Facets that held
    v lose it and survive unless they now lie inside a facet that did not
    hold v; two of them cannot nest, as the facets that held v were an
    antichain.
    """
    vbit = 1 << v
    untouched = [m for m in facets if not m & vbit]
    out = list(untouched)
    link = 0
    for m in facets:
        if m & vbit:
            t = m ^ vbit
            link |= t
            if t:
                for k in untouched:
                    if t & ~k == 0:
                        break
                else:
                    out.append(t)
    return out, link


def _star_intersections(facets: Sequence[int], verts: int) -> dict[int, int]:
    """For each vertex w in verts that some facet holds: the AND of the facets holding w.

    One pass over the facets, walking the bits each shares with verts.
    """
    out: dict[int, int] = {}
    for m in facets:
        x = m & verts
        while x:
            low = x & -x
            w = low.bit_length() - 1
            out[w] = out.get(w, m) & m
            x ^= low
    return out


def _greedy_collapse(facets: Sequence[int]) -> tuple[tuple[tuple[int, int], ...], list[int]]:
    """Delete the lowest-id dominated vertex (lowest dominator) until none remains.

    facets is a facet antichain whose vertex ids are the bits of its masks,
    so it may live in any ambient numbering; deletions follow the relative
    order of the ids, so a complex and its image under an order-preserving
    renumbering collapse step for step.  Returns the steps and the core's
    facets.  doms[v] is the AND of the facets holding v, v itself included,
    so v is dominated when it has a second bit.  One pass over the facets
    fills it at the start; a deletion changes only the stars of the deleted
    vertex's link, and one more pass refills just theirs.
    """
    facets = list(facets)
    doms = _star_intersections(facets, -1)
    dominated = 0  # the vertices whose doms entry has a bit besides their own
    for v, d in doms.items():
        if d & (d - 1):
            dominated |= 1 << v
    steps: list[tuple[int, int]] = []
    while dominated:
        vbit = dominated & -dominated
        v = vbit.bit_length() - 1
        d = doms.pop(v) ^ vbit
        steps.append((v, (d & -d).bit_length() - 1))
        facets, link = _drop_vertex(facets, v)
        dominated ^= vbit
        fresh = _star_intersections(facets, link)
        doms.update(fresh)
        for w, d in fresh.items():
            dominated = dominated | 1 << w if d & (d - 1) else dominated & ~(1 << w)
    return tuple(steps), facets


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
        if v == u or not _star_intersections(facets, 1 << v)[v] >> u & 1:
            raise InvalidInput(
                f"step deletes {K.labels[v]!r} but it is not dominated by {K.labels[u]!r}"
            )
        facets = _drop_vertex(facets, v)[0]
        alive &= ~(1 << v)
    return _complex_on(K, facets) if seq.steps else K


@lru_cache(maxsize=8192)
def core(K: Complex) -> tuple[Complex, CollapseSequence]:
    """The greedy core of K and its collapse sequence (replayed on construction)."""
    r = _retraction_chain(K)
    return r.core, CollapseSequence(K, r.core, r.steps)


@lru_cache(maxsize=64)
def is_strongly_collapsible(K: Complex) -> bool:
    """True iff the core of K is a single vertex.

    Asked of K by every Farber check, so recent answers are the ones reused.
    """
    return _retraction_chain(K).core.n_vertices == 1


def add_cone_facet(K: Complex, base_mask: int, new_label: str) -> Complex:
    """Elementary strong expansion fixture: one new vertex over a simplex of K.

    The new vertex is dominated by every vertex of base_mask, and deleting it
    gives back K, so the result has the strong homotopy type of K.
    """
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
    r = _retraction_chain(K)
    if r.core.n_vertices != 1:
        return None
    return ContiguityWitness(tuple(_unchecked_map(K, K, rho) for rho in r.chain))
