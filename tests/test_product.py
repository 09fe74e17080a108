import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from simplicial_tc import (
    InvalidInput,
    are_contiguous,
    build_complex,
    categorical_square,
    compose,
    constant_map,
    diagonal,
    identity_map,
    is_farber,
    preimage_subcomplex,
    projection,
    same_contiguity_class,
    square_map,
    square_witness,
    subcomplex,
    validate_map,
    Verdict,
)
from simplicial_tc import invariants
from simplicial_tc.complexes import union_mask

import corpusgen
import oracles


small_complexes = st.builds(
    corpusgen.random_complex,
    st.randoms(use_true_random=False),
    max_vertices=st.just(4),
    max_facets=st.just(3),
    max_facet_size=st.just(3),
)


def simplex_rule_holds(P, vertex_subset):
    """Brute-force projection rule: both coordinate images are simplices."""
    first = {u for (u, v) in vertex_subset}
    second = {v for (u, v) in vertex_subset}
    K = P.base
    return oracles.oracle_is_simplex(K, first) and oracles.oracle_is_simplex(K, second)


class TestCategoricalSquare:
    def test_boundary_triangle_counts(self, boundary_triangle):
        P = categorical_square(boundary_triangle)
        assert P.product.n_vertices == 9
        assert len(P.product.facets) == 9

    def test_single_vertex(self):
        P = categorical_square(build_complex([{"a"}]))
        assert P.product.n_vertices == 1
        assert len(P.product.facets) == 1

    def test_edge_square_is_full_simplex(self):
        edge = build_complex([{"a", "b"}])
        P = categorical_square(edge)
        assert P.product.n_vertices == 4
        assert len(P.product.facets) == 1
        # verify against the simplex rule on all 2^4 vertex subsets
        for r in range(1, 5):
            for subset in itertools.combinations(range(4), r):
                pairs = {P.unpair(q) for q in subset}
                mask = sum(1 << q for q in subset)
                assert P.product.is_simplex(mask) == simplex_rule_holds(P, pairs)

    def test_pair_labels(self, boundary_triangle):
        P = categorical_square(boundary_triangle)
        assert P.product.labels[P.pair_id(0, 1)] == "a|b"

    @given(small_complexes)
    def test_facet_count_squares(self, K):
        P = categorical_square(K)
        assert len(P.product.facets) == len(K.facets) ** 2

    @given(small_complexes)
    @settings(max_examples=12)
    def test_simplex_rule_equivalence(self, K):
        if K.n_vertices > 3:
            return  # keep the 2^(n^2) enumeration tiny
        P = categorical_square(K)
        nn = P.product.n_vertices
        for mask in range(1, 1 << nn):
            pairs = {P.unpair(q) for q in range(nn) if mask & (1 << q)}
            assert P.product.is_simplex(mask) == simplex_rule_holds(P, pairs)


class TestProjectionsAndDiagonal:
    def test_projection_values(self, boundary_triangle):
        P = categorical_square(boundary_triangle)
        p1, p2 = projection(P, 1), projection(P, 2)
        q = P.pair_id(0, 1)  # a|b
        assert p1.assignment[q] == 0
        assert p2.assignment[q] == 1

    def test_projection_validates(self, boundary_triangle):
        P = categorical_square(boundary_triangle)
        validate_map(projection(P, 1).assignment, P.product, P.base)

    def test_bad_index(self, boundary_triangle):
        with pytest.raises(InvalidInput):
            projection(categorical_square(boundary_triangle), 3)

    def test_diagonal_values(self, boundary_triangle):
        P = categorical_square(boundary_triangle)
        d = diagonal(P)
        assert P.product.labels[d.assignment[0]] == "a|a"

    def test_diagonal_image_is_simplex(self, boundary_triangle):
        P = categorical_square(boundary_triangle)
        d = diagonal(P)
        edge = P.base.simplex_mask({"a", "b"})
        assert P.product.is_simplex(d.image_mask(edge))

    @given(small_complexes)
    def test_projection_after_diagonal_is_identity(self, K):
        P = categorical_square(K)
        d = diagonal(P)
        for i in (1, 2):
            assert compose(projection(P, i), d) == identity_map(K)


class TestSquareMap:
    def test_square_of_identity(self, boundary_triangle):
        K = boundary_triangle
        assert square_map(identity_map(K)) == identity_map(categorical_square(K).product)

    def test_square_of_constant(self, boundary_triangle):
        K = boundary_triangle
        P = categorical_square(K)
        sq = square_map(constant_map(K, K, 1))
        assert sq == constant_map(P.product, P.product, P.pair_id(1, 1))

    @given(small_complexes, st.randoms(use_true_random=False))
    @settings(max_examples=15)
    def test_squares_of_contiguous_maps_are_contiguous(self, cod, rng):
        dom = corpusgen.random_complex(rng, max_vertices=3, max_facets=2)
        maps = oracles.oracle_valid_maps(dom, cod)
        fa, ga = rng.choice(maps), rng.choice(maps)
        f, g = validate_map(fa, dom, cod), validate_map(ga, dom, cod)
        if are_contiguous(f, g):
            assert are_contiguous(square_map(f), square_map(g))

    @given(small_complexes, st.randoms(use_true_random=False))
    @settings(max_examples=10)
    def test_squared_witness_connects_squared_maps(self, cod, rng):
        dom = corpusgen.random_complex(rng, max_vertices=3, max_facets=2)
        maps = oracles.oracle_valid_maps(dom, cod)
        fa, ga = rng.choice(maps), rng.choice(maps)
        r = same_contiguity_class(validate_map(fa, dom, cod), validate_map(ga, dom, cod))
        if r.verdict is not Verdict.YES:
            return
        sq = square_witness(r.witness)  # construction re-validates contiguity
        assert sq.first == square_map(r.witness.first)
        assert sq.last == square_map(r.witness.last)


class TestPreimage:
    def test_full_codomain_gives_full_domain(self, boundary_triangle):
        K = boundary_triangle
        assert preimage_subcomplex(identity_map(K), K) == K

    def test_constant_map_full_preimage(self, boundary_triangle):
        K = boundary_triangle
        target = subcomplex(K, [K.simplex_mask({"a"})])
        assert preimage_subcomplex(constant_map(K, K, 0), target) == K

    def test_projection_preimage_of_vertex_is_column(self, boundary_triangle):
        K = boundary_triangle
        P = categorical_square(K)
        target = subcomplex(K, [K.simplex_mask({"a"})])
        col = preimage_subcomplex(projection(P, 1), target)
        assert set(col.labels) == {"a|a", "a|b", "a|c"}
        assert sorted(col.facet_label_sets()) == [
            ("a|a", "a|b"),
            ("a|a", "a|c"),
            ("a|b", "a|c"),
        ]

    def test_empty_preimage_rejected(self):
        K = build_complex([{"a", "b"}])
        L = build_complex([{"u"}, {"v", "w"}])
        f = validate_map([2, 1], K, L)  # image misses vertex u
        target = subcomplex(L, [L.simplex_mask({"u"})])
        with pytest.raises(InvalidInput):
            preimage_subcomplex(f, target)

    def test_foreign_subcomplex_rejected(self, boundary_triangle):
        other = build_complex([{"x"}])
        with pytest.raises(InvalidInput):
            preimage_subcomplex(identity_map(boundary_triangle), other)

    @given(small_complexes, st.randoms(use_true_random=False))
    @settings(max_examples=15)
    def test_preimage_matches_brute_force(self, K, rng):
        maps = oracles.oracle_valid_maps(K, K)
        f = validate_map(rng.choice(maps), K, K)
        target = subcomplex(K, [rng.choice(K.facets)])
        try:
            pre = preimage_subcomplex(f, target)
        except InvalidInput:
            pre = None
        closure_target = oracles.downward_closure(target)
        target_parent = {
            frozenset(K.id(target.labels[v]) for v in s) for s in closure_target
        }
        expected = {
            s
            for s in oracles.downward_closure(K)
            if frozenset(f.assignment[v] for v in s) in target_parent
        }
        if pre is None:
            assert not expected
        else:
            got = {
                frozenset(K.id(pre.labels[v]) for v in s)
                for s in oracles.downward_closure(pre)
            }
            assert got == expected


SQUARED = {
    "C4": corpusgen.CYCLE4,
    "boundary-tetrahedron": corpusgen.BOUNDARY_TETRAHEDRON,
    "C5": corpusgen.CYCLE5,
}
SURFACES = {"torus": corpusgen.TORUS7, "RP2": corpusgen.RP2_6}


def placed_slices(K):
    """The placed facets {a} x F of every row, then F x {a} of every column, of K^2."""
    n = K.n_vertices
    column = [sum(1 << (u * n) for u in ids) for ids in K.facet_vertex_ids]
    rows = [[f << (a * n) for f in K.facets] for a in range(n)]
    return rows + [[c << a for c in column] for a in range(n)]


def ambient_masks(P, gens):
    """The facets of subcomplex(P.product, gens), as masks in the square's ids."""
    omega = subcomplex(P.product, gens)
    return invariants._ambient_facets(omega, P.product, "not a subcomplex")[0]


class TestCoverageWords:
    """ProductComplex.has_full_slice: the placed facets of a whole slice, and
    agreement with the placed-facet scan in oracles."""

    @staticmethod
    def agree(P, facets) -> bool:
        got = P.has_full_slice(facets)
        assert got == oracles.oracle_full_slice(P.base, facets), facets
        return got

    @pytest.mark.parametrize("name", ["C3", *SQUARED, *SURFACES])
    def test_placed_facets_of_every_slice(self, name):
        K = build_complex({"C3": corpusgen.CYCLE3, **SQUARED, **SURFACES}[name])
        P = categorical_square(K)
        slices = placed_slices(K)
        assert len(slices) == 2 * P.n
        for placed in slices:
            assert P.has_full_slice(placed)
            assert P.has_full_slice(ambient_masks(P, placed))
            for i in range(len(placed)):
                rest = placed[:i] + placed[i + 1 :]
                assert not P.has_full_slice(rest)
                assert not P.has_full_slice(ambient_masks(P, rest))

    def test_every_facet_subset_of_the_C3_square(self):
        P = categorical_square(build_complex(corpusgen.CYCLE3))
        facets = P.product.facets
        full = [
            self.agree(P, [f for i, f in enumerate(facets) if mask >> i & 1])
            for mask in range(1, 1 << len(facets))
        ]
        assert len(full) == 511
        assert 0 < sum(full) < len(full)

    @pytest.mark.parametrize("name", [*SQUARED, *SURFACES])
    def test_seeded_facet_subsets(self, name):
        P = categorical_square(build_complex({**SQUARED, **SURFACES}[name]))
        facets = P.product.facets
        every_vertex = (1 << P.product.n_vertices) - 1
        full = all_vertices_no_slice = 0
        for m in corpusgen.random_facet_masks(len(facets), 300, seed=8):
            chosen = [f for i, f in enumerate(facets) if m >> i & 1]
            has = self.agree(P, chosen)
            full += has
            all_vertices_no_slice += not has and union_mask(chosen) == every_vertex
        assert 0 < full < 300
        assert all_vertices_no_slice > 0  # the vertex prefilter alone does not decide

    @pytest.mark.parametrize("name", list(SQUARED))
    def test_subcomplexes_with_faces_for_facets(self, name):
        """Complex-form subcomplexes, generated by faces of product facets and
        by the placed facets of a slice, some with one placed facet left out."""
        K = build_complex(SQUARED[name])
        P = categorical_square(K)
        n = P.n
        slices = placed_slices(K)
        rng = random.Random(5)
        full = non_product = 0
        for _ in range(200):
            gens = []
            for f in rng.sample(P.product.facets, rng.randint(1, 4)):
                ids = [q for q in range(n * n) if f >> q & 1]
                gens.append(sum(1 << q for q in rng.sample(ids, rng.randint(1, len(ids)))))
            if rng.random() < 0.6:
                placed = list(rng.choice(slices))
                if rng.random() < 0.5:
                    placed.pop(rng.randrange(len(placed)))
                gens += placed
            omega = subcomplex(P.product, gens)
            ambient, _ = invariants._ambient_facets(omega, P.product, "not a subcomplex")
            non_product += any(m not in P.product.facets for m in ambient)
            has = self.agree(P, ambient)
            full += has
            if has:  # none of these K is strongly collapsible: the rule refuses omega
                assert is_farber(omega, P, want_witness=False)[0] is Verdict.NO
        assert 0 < full < 200
        assert non_product > 100
