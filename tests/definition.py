"""The defining certificate of a Farber subcomplex, built from a library witness.

Omega in K^2 is a Farber subcomplex when some section sigma: omega -> K has
the diagonal after sigma in the contiguity class of the inclusion
omega -> K^2.  The library certifies the equivalent condition
pi1|omega ~ pi2|omega instead, with a chain h_0 = pi1|omega, ..., h_m =
pi2|omega of maps omega -> K.  Take sigma = h_0 and pair each h_j with it,
w -> (sigma(w), h_j(w)).  For a facet F of omega, the joint image of two
consecutive pairs projects to sigma(F) and to h_j(F) | h_{j+1}(F), both
simplices of K, so it is a simplex of K^2: the paired maps form a
contiguous chain from (sigma, sigma), the diagonal after sigma, to
(pi1, pi2), the inclusion.
"""

from simplicial_tc import ContiguityWitness, SimplicialMap, compose, diagonal, inclusion_map


def defining_chain(P, adm):
    """sigma = adm.witness.first, and the paired chain in P.product from Δ∘sigma to the inclusion.

    Raises unless the chain is contiguous and has those two ends.
    """
    sigma = adm.witness.first
    steps = tuple(
        SimplicialMap(
            adm.omega,
            P.product,
            tuple(P.pair_id(s, h) for s, h in zip(sigma.assignment, step.assignment)),
        )
        for step in adm.witness.steps
    )
    chain = ContiguityWitness(steps)  # raises unless consecutive pairs are contiguous in K^2
    assert chain.first == compose(diagonal(P), sigma)
    assert chain.last == inclusion_map(adm.omega, P.product)
    return sigma, chain
