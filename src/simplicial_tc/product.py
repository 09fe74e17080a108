"""Categorical square K^2, projections, diagonal, squared maps, preimages.

Vertices of K^2 are ordered pairs of K-vertices, encoded as u*n + v with the
label "u|v".  A vertex set is a simplex of K^2 iff both coordinate
projections are simplices of K; it follows that the facets of K^2 are exactly
the products F1 x F2 of facets of K (every simplex lies in pi1(s) x pi2(s),
and a product of facets satisfies the rule and is maximal).  Tests validate
this facet characterization against the projection rule by brute force.

The slice rule of the Farber check asks whether a subcomplex of K^2 holds a
whole row {a} x K or column K x {b}, that is, whether every copy {a} x F
or F x {b} of a facet F of K placed in that slice lies in one of the
subcomplex's facets.  The facet masks of the cover search and the facets of
a `Complex` subcomplex go through the same test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .complexes import (
    Complex,
    embedding_ids,
    ids_from_mask,
    is_subcomplex,
    mask_from_ids,
    subcomplex,
    union_mask,
)
from .errors import InvalidInput
from .maps import ContiguityWitness, SimplicialMap


@dataclass(frozen=True)
class ProductComplex:
    """A complex together with its categorical square (pair-encoded vertices)."""

    base: Complex
    product: Complex

    @property
    def n(self) -> int:
        return self.base.n_vertices

    def pair_id(self, u: int, v: int) -> int:
        return u * self.n + v

    def unpair(self, q: int) -> tuple[int, int]:
        return divmod(q, self.n)

    @cached_property
    def split_pairs(self) -> int:
        """Mask of the vertices (u, v) of the square whose u and v lie in different components."""
        n, full = self.n, (1 << self.n) - 1
        out = 0
        for u, comp in enumerate(self.base.component_masks):
            out |= (full & ~comp) << (u * n)
        return out

    @cached_property
    def pair_distances(self) -> tuple[int, ...]:
        """Edge-path distance in K between u and v, indexed by the vertex u*n + v of the square.

        Pairs in different components get n, longer than any path.
        """
        n, K = self.n, self.base
        near = [union_mask(K.facets[j] for j in K.vertex_facets[v]) for v in range(n)]
        out = [n] * (n * n)
        for u in range(n):
            seen = frontier = 1 << u
            d = 0
            while frontier:
                for v in ids_from_mask(frontier):
                    out[u * n + v] = d
                frontier = union_mask(near[v] for v in ids_from_mask(frontier)) & ~seen
                seen |= frontier
                d += 1
        return tuple(out)

    @cached_property
    def _slices(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The rows {a} x K, then the columns K x {a}: (vertex mask, placed facets of K)."""
        n, K = self.n, self.base
        columns = [sum(1 << (u * n) for u in ids) for ids in K.facet_vertex_ids]
        slices = [tuple(f << (a * n) for f in K.facets) for a in range(n)]
        slices += [tuple(c << a for c in columns) for a in range(n)]
        return tuple((union_mask(placed), placed) for placed in slices)

    def has_full_slice(self, facets: Sequence[int]) -> bool:
        """Whether the subcomplex the simplices facets generate contains a whole slice.

        A row {a} x K (column K x {a}) lies in the subcomplex exactly when
        each of its placed facets {a} x F (F x {a}) lies in one of facets;
        a slice with a vertex outside all of facets is skipped at once.
        """
        union = union_mask(facets)
        # plain loops, as in Complex.is_simplex: all(any(...)) costs more here
        for vertices, placed in self._slices:
            if vertices & ~union:
                continue
            for t in placed:
                for m in facets:
                    if t & m == t:
                        break
                else:  # no facet holds t
                    break
            else:
                return True
        return False


def categorical_square(K: Complex) -> ProductComplex:
    n = K.n_vertices
    labels = tuple(f"{K.labels[u]}|{K.labels[v]}" for u in range(n) for v in range(n))
    facets = []
    for f1 in K.facets:
        for f2 in K.facets:
            m = 0
            for u in ids_from_mask(f1):
                m |= f2 << (u * n)
            facets.append(m)
    return ProductComplex(K, Complex(labels, tuple(facets)))


def projection(P: ProductComplex, i: int) -> SimplicialMap:
    """Coordinate projection K^2 -> K; i is 1 (first) or 2 (second)."""
    if i not in (1, 2):
        raise InvalidInput("projection index must be 1 or 2")
    pairs = map(P.unpair, range(P.n**2))
    return SimplicialMap(P.product, P.base, tuple(pair[i - 1] for pair in pairs))


def diagonal(P: ProductComplex) -> SimplicialMap:
    """The diagonal K -> K^2, v -> (v, v)."""
    return SimplicialMap(P.base, P.product, tuple(P.pair_id(v, v) for v in range(P.n)))


def square_map(phi: SimplicialMap) -> SimplicialMap:
    """The squared map K^2 -> L^2 acting coordinatewise; preserves contiguity."""
    PK = categorical_square(phi.domain)
    PL = categorical_square(phi.codomain)
    f = phi.assignment
    assignment = tuple(PL.pair_id(f[u], f[v]) for u, v in map(PK.unpair, range(PK.n**2)))
    return SimplicialMap(PK.product, PL.product, assignment)


def square_witness(w: ContiguityWitness) -> ContiguityWitness:
    """Square every step: a witness phi ~ psi becomes a witness phi^2 ~ psi^2."""
    return ContiguityWitness(tuple(square_map(s) for s in w.steps))


def preimage_subcomplex(phi: SimplicialMap, omega: Complex) -> Complex:
    """Facet-generated preimage: all simplices of the domain mapping into omega.

    For a domain facet F and an omega facet G, the largest simplex of F
    mapping into G is {v in F : phi(v) in G}; the preimage's facets are the
    maximal such intersections.
    """
    if not is_subcomplex(omega, phi.codomain):
        raise InvalidInput("omega is not a subcomplex of the codomain")
    emb = embedding_ids(omega, phi.codomain)
    omega_cod_masks = [
        mask_from_ids(emb[v] for v in ids_from_mask(m)) for m in omega.facets
    ]
    pieces = []
    for F in phi.domain.facets:
        for G in omega_cod_masks:
            sigma = mask_from_ids(v for v in ids_from_mask(F) if (1 << phi.assignment[v]) & G)
            if sigma:
                pieces.append(sigma)
    if not pieces:
        raise InvalidInput("preimage is empty (no vertex maps into omega)")
    return subcomplex(phi.domain, pieces)
