"""Dominated vertices, strong collapses, cores, and contraction witnesses.

A vertex v is dominated by v' when every facet containing v also contains v';
deleting a dominated vertex is an elementary strong collapse and preserves
both invariants computed downstream (Barmak & Minian, "Strong homotopy
types, nerves and collapses", 2012).  The core is the fixed point of greedy
deletion; it is unique up to isomorphism whatever the deletion order, and
collapsing to it preserves contiguity classes.

One routine (_strong_collapse) runs on facet bitmasks and deletes in rounds.
It keeps each vertex's star (a mask of facet indices) and star intersection
(the AND of the facets in its star).  A round walks the dominated vertices
in id order and takes v, with the lowest dominator u that the round has not
taken, unless v is already a chosen dominator; so no vertex of a round is
the dominator of another, and its steps replay one at a time.  Deleting the
round truncates only the facets in its stars; a truncated facet inside
another is dropped (the AND of its vertices' stars finds those), and star
intersections are refreshed for the link alone.  The steps depend only on
the relative order of the ids, so the checks of invariants, for a
verdict or a witness, collapse a class in the ambient complex's vertex ids
and get the steps and core that the same class gets as a Complex.  On a complex it runs
once, in maps._retraction_chain, whose record the class queries of `maps`,
`core`, `is_strongly_collapsible` and `contraction_witness` read; only `core`
builds the replayable `CollapseSequence`, which core certificates carry and
`replay` checks one deletion at a time.
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


def _drop_vertex(facets: list[int], v: int) -> list[int]:
    """Facet antichain after deleting v, for replay's one deletion at a time.

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
            if t:
                for k in untouched:
                    if t & ~k == 0:
                        break
                else:
                    out.append(t)
    return out


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


def _strong_collapse(facets: Sequence[int]) -> tuple[list[list[tuple[int, int]]], list[int]]:
    """Delete dominated vertices in rounds until none remains: (each round's steps, core facets).

    facets is a facet antichain whose vertex ids are the bits of its masks,
    so it may live in any ambient numbering; the steps follow the relative
    order of the ids, so a complex and its image under an order-preserving
    renumbering collapse step for step.  doms[v] is the AND of the facets in
    star[v], v itself included, so v is dominated when it has a second bit.
    A round takes each dominated v in id order, unless v is the dominator of
    a vertex it took, with the lowest dominator u it has not taken; each
    step is (v, u).  Every facet holding v holds u, which the round keeps,
    so its steps replay one at a time, and sending each v to its u is one
    map contiguous to the identity.  Deleting the round leaves the maximal
    truncations of the facets it touched: a truncation t is dropped when a
    facet other than its own holds t (the AND of the stars of t's vertices)
    and either comes first or is not truncated to t itself.  The entries of
    deleted vertices go stale; no later round reads them.
    """
    facets = list(facets)  # facet index -> mask, 0 once dropped
    union = 0
    for m in facets:
        union |= m
    star = [0] * union.bit_length()  # vertex -> mask of the indices of the facets holding it
    doms = [-1] * union.bit_length()
    bit = 1
    for m in facets:
        for w in ids_from_mask(m):
            star[w] |= bit
            doms[w] &= m
        bit <<= 1
    dominated = 0  # the vertices whose doms entry has a bit besides their own
    for w in ids_from_mask(union):
        d = doms[w]
        if d & (d - 1):
            dominated |= 1 << w
    rounds: list[list[tuple[int, int]]] = []
    while dominated:
        batch = chosen = 0
        steps = []
        for v in ids_from_mask(dominated):
            vbit = 1 << v
            if chosen & vbit:
                continue
            d = doms[v] & ~batch & ~vbit
            if d:
                u = d & -d
                steps.append((v, u.bit_length() - 1))
                batch |= vbit
                chosen |= u
        rounds.append(steps)
        touched = 0
        for v, _ in steps:
            touched |= star[v]
        keep = ~batch
        link = 0
        dropped = []
        for i in ids_from_mask(touched):
            t = facets[i] & keep
            link |= t
            holders = -1
            for w in ids_from_mask(t):
                holders &= star[w]
            holders ^= 1 << i
            if holders & ((1 << i) - 1):
                dropped.append((i, t))
                continue
            for j in ids_from_mask(holders):
                if facets[j] & keep != t:
                    dropped.append((i, t))
                    break
        for i in ids_from_mask(touched):
            facets[i] &= keep
        for i, t in dropped:
            facets[i] = 0
            gone = ~(1 << i)
            for w in ids_from_mask(t):
                star[w] &= gone
        dominated &= keep
        for w in ids_from_mask(link):
            d = -1
            for j in ids_from_mask(star[w]):
                d &= facets[j]
            doms[w] = d
            if d & (d - 1):
                dominated |= 1 << w
            else:
                dominated &= ~(1 << w)
    return rounds, [m for m in facets if m]


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
        facets = _drop_vertex(facets, v)
        alive &= ~(1 << v)
    return _complex_on(K, facets) if seq.steps else K


@lru_cache(maxsize=8192)
def core(K: Complex) -> tuple[Complex, CollapseSequence]:
    """The strong-collapse core of K and its collapse sequence (replayed on construction)."""
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

    Each round of the collapse (delete each v, dominated by its u) induces
    the retraction sending each v to its u and fixing everything else; the
    retraction is contiguous to the identity, and composing the chain
    (maps._retraction_chain) contracts the identity to the constant map at
    the core vertex.
    """
    r = _retraction_chain(K)
    if r.core.n_vertices != 1:
        return None
    return ContiguityWitness(tuple(_unchecked_map(K, K, rho) for rho in r.chain))
