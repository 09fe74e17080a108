import random

import pytest
from hypothesis import given, settings, strategies as st

from simplicial_tc import (
    ContiguityWitness,
    DomainMismatch,
    NotSimplicial,
    Verdict,
    are_contiguous,
    build_complex,
    categorical_square,
    compose,
    constant_map,
    contiguity_component,
    identity_map,
    neighbors,
    projection,
    restrict,
    restrict_witness,
    same_contiguity_class,
    subcomplex,
    validate_map,
    witness_between_constants,
)
from simplicial_tc._kernels import pure

import corpusgen
import oracles


small_complexes = st.builds(
    corpusgen.random_complex,
    st.randoms(use_true_random=False),
    max_vertices=st.just(4),
    max_facets=st.just(3),
    max_facet_size=st.just(3),
)


def brute_pairs(dom, cod, rng, count):
    maps = oracles.oracle_valid_maps(dom, cod)
    for _ in range(count):
        yield rng.choice(maps), rng.choice(maps)


class TestValidateMap:
    def test_identity_valid(self, boundary_triangle):
        f = identity_map(boundary_triangle)
        assert f.assignment == (0, 1, 2)

    def test_constant_valid(self, boundary_triangle):
        f = constant_map(boundary_triangle, boundary_triangle, 0)
        assert f.is_constant

    def test_fold_map_valid(self, boundary_triangle):
        # a->a, b->b, c->a: every facet image is checked against the oracle
        K = boundary_triangle
        f = validate_map([0, 1, 0], K, K)
        for verts in K.facet_vertex_ids:
            assert oracles.oracle_is_simplex(K, {f.assignment[v] for v in verts})

    def test_invalid_map_rejected(self, boundary_triangle):
        path = build_complex([{"a", "b"}, {"b", "c"}])
        # a->a, b->a, c->c sends facet {a,c} to {a,c}, not a simplex of the path
        with pytest.raises(NotSimplicial):
            validate_map([0, 0, 2], boundary_triangle, path)

    @given(small_complexes, small_complexes, st.randoms(use_true_random=False))
    def test_agrees_with_oracle_enumeration(self, dom, cod, rng):
        valid = set(oracles.oracle_valid_maps(dom, cod))
        for _ in range(10):
            assignment = tuple(rng.randrange(cod.n_vertices) for _ in range(dom.n_vertices))
            try:
                validate_map(assignment, dom, cod)
                ok = True
            except NotSimplicial:
                ok = False
            assert ok == (assignment in valid)


class TestAreContiguous:
    def test_reflexive(self, boundary_triangle):
        f = identity_map(boundary_triangle)
        assert are_contiguous(f, f)

    def test_identity_vs_constant_on_boundary(self, boundary_triangle):
        f = identity_map(boundary_triangle)
        g = constant_map(boundary_triangle, boundary_triangle, 0)
        assert not are_contiguous(f, g)

    def test_full_simplex_codomain_everything_contiguous(self, full_triangle):
        K = full_triangle
        for fa in [(0, 1, 2), (0, 0, 0), (2, 1, 0)]:
            for ga in [(1, 1, 1), (2, 2, 0)]:
                assert are_contiguous(validate_map(fa, K, K), validate_map(ga, K, K))

    def test_domain_mismatch(self, boundary_triangle, full_triangle):
        with pytest.raises(DomainMismatch):
            are_contiguous(identity_map(boundary_triangle), identity_map(full_triangle))

    @given(small_complexes, small_complexes, st.randoms(use_true_random=False))
    def test_matches_face_level_oracle(self, dom, cod, rng):
        for fa, ga in brute_pairs(dom, cod, rng, 8):
            f = validate_map(fa, dom, cod)
            g = validate_map(ga, dom, cod)
            assert are_contiguous(f, g) == oracles.oracle_are_contiguous(dom, cod, fa, ga)

    @given(small_complexes, small_complexes, st.randoms(use_true_random=False))
    def test_symmetric(self, dom, cod, rng):
        for fa, ga in brute_pairs(dom, cod, rng, 8):
            f = validate_map(fa, dom, cod)
            g = validate_map(ga, dom, cod)
            assert are_contiguous(f, g) == are_contiguous(g, f)


class TestNeighbors:
    def test_identity_on_minimal_complex_is_isolated(self, boundary_triangle):
        K = boundary_triangle
        got = sorted(n.assignment for n in neighbors(identity_map(K)))
        expected = sorted(oracles.oracle_neighbors(K, K, (0, 1, 2)))
        assert got == expected == []

    def test_constant_into_isolated_star_empty(self):
        edge = build_complex([{"a", "b"}])
        two_points = build_complex([{"v"}, {"w"}])
        f = constant_map(edge, two_points, 0)
        assert list(neighbors(f)) == []

    def test_full_simplex_all_other_maps(self, full_triangle):
        K = full_triangle
        got = {n.assignment for n in neighbors(identity_map(K))}
        assert len(got) == 26  # 3^3 - 1, all valid and all contiguous

    @given(small_complexes, small_complexes, st.randoms(use_true_random=False))
    def test_matches_oracle(self, dom, cod, rng):
        maps = oracles.oracle_valid_maps(dom, cod)
        fa = rng.choice(maps)
        f = validate_map(fa, dom, cod)
        got = [n.assignment for n in neighbors(f)]
        assert sorted(got) == sorted(oracles.oracle_neighbors(dom, cod, fa))
        assert got == sorted(got)  # lexicographic by assignment

    @given(small_complexes, small_complexes, st.randoms(use_true_random=False))
    def test_bfs_step_is_the_one_vertex_oracle_neighbors(self, dom, cod, rng):
        ctx = pure.Context(
            dom.facet_vertex_ids, dom.vertex_facets, cod.facets, dom.n_vertices, cod.n_vertices
        )
        maps = oracles.oracle_valid_maps(dom, cod)
        for _ in range(5):
            fa = rng.choice(maps)
            moves = []
            for g in oracles.oracle_neighbors(dom, cod, fa):
                changed = [v for v in range(dom.n_vertices) if g[v] != fa[v]]
                if len(changed) == 1:
                    moves.append((changed[0], g[changed[0]], g))
            got = [tuple(b) for b in pure.neighbors(ctx, bytes(fa))]
            assert got == [g for _, _, g in sorted(moves)]


class TestAlgebra:
    def test_compose_identity(self, boundary_triangle):
        K = boundary_triangle
        f = validate_map([1, 2, 0], K, K)
        assert compose(identity_map(K), f) == f
        assert compose(f, identity_map(K)) == f

    def test_compose_shape_mismatch(self, boundary_triangle, full_triangle):
        with pytest.raises(DomainMismatch):
            compose(identity_map(boundary_triangle), identity_map(full_triangle))

    def test_restrict_constant(self, boundary_triangle):
        K = boundary_triangle
        sub = subcomplex(K, [K.simplex_mask({"a", "b"})])
        r = restrict(constant_map(K, K, 2), sub)
        assert r.is_constant
        assert r.domain == sub

    def test_restrict_foreign_subcomplex(self, boundary_triangle):
        other = build_complex([{"x", "y"}])
        with pytest.raises(DomainMismatch):
            restrict(identity_map(boundary_triangle), other)

    @given(small_complexes, st.randoms(use_true_random=False))
    def test_restricted_witness_is_witness(self, cod, rng):
        dom = corpusgen.random_connected_complex(rng, max_vertices=4, max_facets=3)
        maps = oracles.oracle_valid_maps(dom, cod)
        fa = rng.choice(maps)
        r = same_contiguity_class(validate_map(fa, dom, cod), validate_map(rng.choice(maps), dom, cod))
        if r.verdict is not Verdict.YES:
            return
        facet = rng.choice(dom.facets)
        sub = subcomplex(dom, [facet])
        restricted = restrict_witness(r.witness, sub)  # constructor re-validates
        assert len(restricted) == len(r.witness)


class TestSameContiguityClass:
    def test_equal_maps_trivial_witness(self, boundary_triangle):
        f = identity_map(boundary_triangle)
        r = same_contiguity_class(f, f)
        assert r.verdict is Verdict.YES
        assert len(r.witness) == 1

    def test_identity_never_reaches_constant_on_boundary(self, boundary_triangle):
        K = boundary_triangle
        r = same_contiguity_class(identity_map(K), constant_map(K, K, 0))
        assert r.verdict is Verdict.NO
        assert r.witness is None

    def test_full_simplex_all_maps_equivalent(self, full_triangle):
        K = full_triangle
        r = same_contiguity_class(validate_map([0, 1, 2], K, K), validate_map([2, 2, 2], K, K))
        assert r.verdict is Verdict.YES
        assert r.witness.first.assignment == (0, 1, 2)
        assert r.witness.last.assignment == (2, 2, 2)

    def test_budget_exhaustion_reports_unknown(self, boundary_triangle):
        # domain and codomain are their own cores, so the budget bites the
        # actual search; one state is not enough to reach another constant
        K = boundary_triangle
        f = constant_map(K, K, 0)
        g = constant_map(K, K, 2)
        r = same_contiguity_class(f, g, budget=1)
        assert r.verdict is Verdict.UNKNOWN

    def test_witness_endpoints(self, boundary_triangle):
        K = boundary_triangle
        f = constant_map(K, K, 0)
        g = constant_map(K, K, 2)
        r = same_contiguity_class(f, g)
        assert r.verdict is Verdict.YES
        assert r.witness.first == f
        assert r.witness.last == g

    def test_point_domain_is_exact_without_budget(self):
        # an edge collapses to a point, so constants from it meet along an
        # edge path of the codomain; no map-space search is run
        edge = build_complex([{"x", "y"}])
        c4 = build_complex([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
        f, g = constant_map(edge, c4, c4.id("a")), constant_map(edge, c4, c4.id("c"))
        r = same_contiguity_class(f, g, budget=1)
        assert r.verdict is Verdict.YES
        assert r.witness.first == f
        assert r.witness.last == g

        two_c4 = build_complex(
            [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
            + [("e", "f"), ("f", "g"), ("g", "h"), ("e", "h")]
        )
        f, g = constant_map(edge, two_c4, two_c4.id("a")), constant_map(edge, two_c4, two_c4.id("e"))
        r = same_contiguity_class(f, g, budget=1)
        assert r.verdict is Verdict.NO
        assert r.witness is None

    @given(small_complexes, st.randoms(use_true_random=False))
    @settings(max_examples=15)
    def test_equivalence_via_witness_concat(self, cod, rng):
        dom = corpusgen.random_complex(rng, max_vertices=3, max_facets=2)
        maps = oracles.oracle_valid_maps(dom, cod)
        f, g, h = (rng.choice(maps) for _ in range(3))
        rf = same_contiguity_class(validate_map(f, dom, cod), validate_map(g, dom, cod))
        rg = same_contiguity_class(validate_map(g, dom, cod), validate_map(h, dom, cod))
        if rf.verdict is Verdict.YES and rg.verdict is Verdict.YES:
            combined = rf.witness.concat(rg.witness)
            assert combined.first.assignment == f
            assert combined.last.assignment == h
            rfh = same_contiguity_class(validate_map(f, dom, cod), validate_map(h, dom, cod))
            assert rfh.verdict is Verdict.YES

    @given(small_complexes, st.randoms(use_true_random=False))
    @settings(max_examples=10)
    def test_no_matches_component_oracle(self, cod, rng):
        dom = corpusgen.random_complex(rng, max_vertices=3, max_facets=2)
        if dom.n_vertices * cod.n_vertices > 12:
            return
        maps = oracles.oracle_valid_maps(dom, cod)
        fa, ga = rng.choice(maps), rng.choice(maps)
        r = same_contiguity_class(validate_map(fa, dom, cod), validate_map(ga, dom, cod))
        in_component = ga in oracles.oracle_component(dom, cod, fa)
        assert (r.verdict is Verdict.YES) == in_component


class TestConstants:
    def test_constants_on_connected_complex(self):
        rng = random.Random(7)
        for _ in range(10):
            K = corpusgen.random_connected_complex(rng, max_vertices=5, max_facets=4)
            L = corpusgen.random_complex(rng, max_vertices=3, max_facets=2)
            u, v = rng.randrange(K.n_vertices), rng.randrange(K.n_vertices)
            w = witness_between_constants(L, K, u, v)
            assert w is not None
            assert w.first == constant_map(L, K, u)
            assert w.last == constant_map(L, K, v)

    def test_constants_across_components_unreachable(self):
        K = build_complex([{"a", "b"}, {"c", "d"}])
        L = build_complex([{"x"}])
        assert witness_between_constants(L, K, 0, 2) is None
        r = same_contiguity_class(constant_map(L, K, 0), constant_map(L, K, 2))
        assert r.verdict is Verdict.NO


class TestComponent:
    def test_component_of_identity_on_boundary(self, boundary_triangle):
        comp, complete = contiguity_component(identity_map(boundary_triangle))
        assert complete
        assert comp == {(0, 1, 2)}

    def test_component_budget(self, full_triangle):
        comp, complete = contiguity_component(identity_map(full_triangle), budget=5)
        assert not complete
        assert len(comp) == 5

    @given(small_complexes, small_complexes, st.randoms(use_true_random=False))
    @settings(max_examples=15)
    def test_class_query_agrees_with_raw_component(self, dom, cod, rng):
        """The core-reduced decision must match membership in the raw
        (unreduced) contiguity component."""
        maps = oracles.oracle_valid_maps(dom, cod)
        fa, ga = rng.choice(maps), rng.choice(maps)
        f, g = validate_map(fa, dom, cod), validate_map(ga, dom, cod)
        comp, complete = contiguity_component(f, budget=200000)
        if not complete:
            return
        r = same_contiguity_class(f, g)
        assert (r.verdict is Verdict.YES) == (ga in comp)


class TestWitnessValidation:
    def test_rejects_non_contiguous_chain(self, boundary_triangle):
        K = boundary_triangle
        from simplicial_tc import InvalidInput

        with pytest.raises(InvalidInput):
            ContiguityWitness((identity_map(K), constant_map(K, K, 0)))

    def test_rejects_mixed_domains(self, boundary_triangle, full_triangle):
        with pytest.raises(DomainMismatch):
            ContiguityWitness((identity_map(boundary_triangle), identity_map(full_triangle)))



class TestWideCodomain:
    def test_class_query_over_81_vertex_square(self):
        # a 9-vertex path squares to an 81-vertex product, wider than a 64-bit word
        path = build_complex([set(p) for p in zip("abcdefgh", "bcdefghi")])
        P = categorical_square(path)
        assert P.product.n_vertices == 81
        r = same_contiguity_class(projection(P, 1), projection(P, 2))
        assert r.verdict is Verdict.YES

    def test_codomain_beyond_255_vertices_rejected(self):
        from simplicial_tc import InvalidInput

        point = build_complex([{"x"}])
        for n, rejected in ((255, False), (256, True)):
            L = build_complex([{f"v{i}"} for i in range(n)])
            f, g = constant_map(point, L, 0), constant_map(point, L, 1)
            if not rejected:
                assert same_contiguity_class(f, g).verdict is Verdict.NO
                continue
            for query in (
                lambda: same_contiguity_class(f, g),
                lambda: contiguity_component(f),
                lambda: list(neighbors(f)),
            ):
                with pytest.raises(InvalidInput):
                    query()
