"""Categorical square K^2, projections, diagonal, squared maps, preimages.

Vertices of K^2 are ordered pairs of K-vertices, encoded as u*n + v with the
label "u|v".  A vertex set is a simplex of K^2 iff both coordinate
projections are simplices of K; it follows that the facets of K^2 are exactly
the products F1 x F2 of facets of K (every simplex lies in pi1(s) x pi2(s),
and a product of facets satisfies the rule and is maximal).  Tests validate
this facet characterization against the projection rule by brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .complexes import (
    Complex,
    embedding_ids,
    ids_from_mask,
    is_subcomplex,
    mask_from_ids,
    subcomplex,
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
    def facet_slices(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Per row {a} x K and column K x {a}: its vertex mask and K's facets placed in it.

        A subcomplex's row (column) slice at a contains all of K exactly when
        each placed facet lies in one of its facets; that needs every vertex
        of the row (column) first.
        """
        n = self.n
        column = [sum(1 << (u * n) for u in ids_from_mask(f)) for f in self.base.facets]
        placed = [tuple(f << (a * n) for f in self.base.facets) for a in range(n)]
        placed += [tuple(c << a for c in column) for a in range(n)]
        out = []
        for targets in placed:
            whole = 0
            for t in targets:
                whole |= t
            out.append((whole, targets))
        return tuple(out)


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
    n = P.n
    assignment = tuple(q // n if i == 1 else q % n for q in range(n * n))
    return SimplicialMap(P.product, P.base, assignment)


def diagonal(P: ProductComplex) -> SimplicialMap:
    """The diagonal K -> K^2, v -> (v, v)."""
    n = P.n
    return SimplicialMap(P.base, P.product, tuple(v * n + v for v in range(n)))


def square_map(phi: SimplicialMap) -> SimplicialMap:
    """The squared map K^2 -> L^2 acting coordinatewise; preserves contiguity."""
    PK = categorical_square(phi.domain)
    PL = categorical_square(phi.codomain)
    nk, nl = PK.n, PL.n
    assignment = []
    for q in range(nk * nk):
        u, v = divmod(q, nk)
        assignment.append(phi.assignment[u] * nl + phi.assignment[v])
    return SimplicialMap(PK.product, PL.product, tuple(assignment))


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
