"""Seeded random complex generators shared by property and acceptance tests."""

from __future__ import annotations

import random
import string

from simplicial_tc import Complex, build_complex
from simplicial_tc.collapse import add_cone_facet
from simplicial_tc.complexes import is_edge_path_connected, subcomplex

LABELS = string.ascii_lowercase
ACCEPTANCE_SEED = 20240817

CYCLE3 = [("a", "b"), ("b", "c"), ("a", "c")]
CYCLE4 = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
CYCLE5 = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")]
BOUNDARY_TETRAHEDRON = [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")]
# The 7-vertex (Moebius) torus.
TORUS7 = [
    (str(i), str((i + 1) % 7), str((i + 3) % 7)) for i in range(7)
] + [(str(i), str((i + 2) % 7), str((i + 3) % 7)) for i in range(7)]
# The 6-vertex real projective plane (hemi-icosahedron).
RP2_6 = [
    ("0", "1", "2"), ("0", "2", "3"), ("0", "3", "4"), ("0", "4", "5"), ("0", "5", "1"),
    ("1", "2", "4"), ("2", "3", "5"), ("3", "4", "1"), ("4", "5", "2"), ("5", "1", "3"),
]



def square_facets(facets) -> list[tuple[str, ...]]:
    """The facets F x G of K^2, the vertex (u, v) labelled u + v; K's labels must be single letters.

    The result is isomorphic to categorical_square(K).product, whose pair
    labels "u|v" build_complex and the text format do not accept.
    """
    return [tuple(u + v for u in F for v in G) for F in facets for G in facets]


# The square of the boundary of the 3-simplex (S^2 x S^2): H^1 = 0, so the
# homology rule never fires and scat at budget 1 stays budget-exhausted in [1, 2].
TETRAHEDRON_SQUARE = square_facets(BOUNDARY_TETRAHEDRON)
def random_complex(
    rng: random.Random,
    max_vertices: int = 6,
    max_facets: int = 4,
    max_facet_size: int = 3,
) -> Complex:
    n = rng.randint(1, max_vertices)
    verts = list(LABELS[:n])
    n_facets = rng.randint(1, max_facets)
    facets = []
    for _ in range(n_facets):
        size = rng.randint(1, min(max_facet_size, n))
        facets.append(rng.sample(verts, size))
    # unused labels are simply absent, so |V| <= max_vertices holds
    return build_complex(facets)


def acceptance_corpus(seed: int) -> list[Complex]:
    """The 50-complex acceptance corpus: curated hard/degenerate cases, then seeded randoms."""
    bd = build_complex([{"a", "b"}, {"b", "c"}, {"a", "c"}])
    instances = [
        bd,
        build_complex([{"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "d"}]),  # 4-cycle
        add_cone_facet(bd, bd.simplex_mask({"a", "b"}), "w"),  # expansion of the boundary
        add_cone_facet(bd, bd.simplex_mask({"b"}), "w"),  # boundary with a whisker
        build_complex([{"a", "b", "x"}, {"b", "c", "x"}, {"a", "c", "x"}]),  # cone
        build_complex([{"a"}, {"b"}]),  # disconnected
        build_complex([{"a", "b"}, {"c", "d"}]),  # two disjoint edges
        build_complex([{"a", "b", "c"}, {"c", "d"}]),  # simplex with a tail
    ]
    rng = random.Random(seed)
    while len(instances) < 50:
        instances.append(random_complex(rng, max_vertices=6, max_facets=4))
    return instances


def random_facet_masks(n_facets: int, count: int, seed: int) -> list[int]:
    """Seeded nonempty facet masks (bit i selects facet i) over n_facets facets."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        density = rng.uniform(0.1, 0.9)
        mask = 0
        for i in range(n_facets):
            if rng.random() < density:
                mask |= 1 << i
        if mask:
            out.append(mask)
    return out


def facet_subcomplex(ambient: Complex, mask: int) -> Complex:
    """The subcomplex of ambient generated by the facets that mask selects."""
    return subcomplex(ambient, [m for i, m in enumerate(ambient.facets) if mask >> i & 1])


def random_facet_subcomplexes(ambient: Complex, count: int, seed: int) -> list[Complex]:
    """Seeded subcomplexes of ambient, each generated by a random nonempty facet subset."""
    return [
        facet_subcomplex(ambient, m) for m in random_facet_masks(len(ambient.facets), count, seed)
    ]


def random_connected_complex(rng: random.Random, **kw) -> Complex:
    while True:
        K = random_complex(rng, **kw)
        if is_edge_path_connected(K):
            return K


def random_expansion(rng: random.Random, K: Complex) -> Complex:
    """K plus one vertex dominated by a random simplex of a random facet."""
    facet = rng.choice(K.facets)
    bits = [1 << v for v in range(K.n_vertices) if facet & (1 << v)]
    size = rng.randint(1, len(bits))
    base = 0
    for b in rng.sample(bits, size):
        base |= b
    label = "z" + str(rng.randint(0, 10**9))
    return add_cone_facet(K, base, label)
