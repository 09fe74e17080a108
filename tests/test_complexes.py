import itertools
import random

import pytest
from hypothesis import given, strategies as st

from simplicial_tc import (
    Complex,
    InvalidInput,
    ParseError,
    build_complex,
    is_edge_path_connected,
    is_simplex,
    parse_complex,
    serialize_complex,
    subcomplex,
)
from simplicial_tc.complexes import automorphisms, edge_path, ids_from_mask, union_mask

import corpusgen
import oracles


label_sets = st.lists(
    st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=4).map(set),
    min_size=1,
    max_size=6,
)


class TestBuildComplex:
    def test_boundary_triangle(self, boundary_triangle):
        assert boundary_triangle.n_vertices == 3
        assert len(boundary_triangle.facets) == 3

    def test_duplicate_facets_dedupe(self):
        K = build_complex([{"a"}, {"a"}])
        assert K.n_vertices == 1
        assert K.facets == (1,)

    def test_maximality_absorbs_faces(self):
        K = build_complex([{"a", "b"}, {"a"}])
        assert K.facet_label_sets() == (("a", "b"),)

    def test_empty_facet_rejected(self):
        with pytest.raises(InvalidInput):
            build_complex([set()])

    def test_empty_list_rejected(self):
        with pytest.raises(InvalidInput):
            build_complex([])

    def test_reserved_characters_rejected(self):
        with pytest.raises(InvalidInput):
            build_complex([{"a|b"}])
        with pytest.raises(InvalidInput):
            build_complex([{"a#b"}])
        with pytest.raises(InvalidInput):
            build_complex([{"a b"}])

    @given(label_sets)
    def test_facets_form_antichain(self, facets):
        K = build_complex(facets)
        for i, a in enumerate(K.facets):
            for j, b in enumerate(K.facets):
                if i != j:
                    assert a & ~b != 0

    @given(label_sets)
    def test_every_input_facet_is_a_simplex(self, facets):
        K = build_complex(facets)
        for f in facets:
            assert is_simplex(K, K.simplex_mask(f))


class TestIsSimplex:
    def test_edge_of_boundary(self, boundary_triangle):
        K = boundary_triangle
        assert is_simplex(K, K.simplex_mask({"a", "b"}))

    def test_top_cell_missing(self, boundary_triangle):
        K = boundary_triangle
        assert not is_simplex(K, K.simplex_mask({"a", "b", "c"}))

    def test_vertex(self, boundary_triangle):
        K = boundary_triangle
        assert is_simplex(K, K.simplex_mask({"a"}))

    def test_accepts_id_iterables(self, boundary_triangle):
        assert is_simplex(boundary_triangle, [0, 1])

    @given(label_sets)
    def test_matches_downward_closure_oracle(self, facets):
        K = build_complex(facets)
        closure = oracles.downward_closure(K)
        n = K.n_vertices
        for mask in range(1, 1 << n):
            vertices = frozenset(v for v in range(n) if mask & (1 << v))
            assert K.is_simplex(mask) == (vertices in closure)


class TestConnectivity:
    def test_boundary_triangle_connected(self, boundary_triangle):
        assert is_edge_path_connected(boundary_triangle)

    def test_two_points_disconnected(self):
        assert not is_edge_path_connected(build_complex([{"a"}, {"b"}]))

    def test_single_facet_connected(self):
        assert is_edge_path_connected(build_complex([{"a", "b", "c"}]))

    def test_single_vertex_connected(self):
        assert is_edge_path_connected(build_complex([{"a"}]))

    def test_components_match_the_oracle(self):
        # the acceptance corpus, plus seeded sparse complexes with isolated vertices
        rng = random.Random(7)
        corpus = corpusgen.acceptance_corpus(corpusgen.ACCEPTANCE_SEED) + [
            corpusgen.random_complex(rng, max_vertices=8, max_facets=6, max_facet_size=size)
            for size in (1, 2, 3)
            for _ in range(60)
        ]
        for K in corpus:
            expected = oracles.oracle_component_masks(K)
            assert K.component_masks == expected, K.facet_label_sets()
            assert is_edge_path_connected(K) == (expected[0] == (1 << K.n_vertices) - 1)
            for u in range(K.n_vertices):
                for v in range(K.n_vertices):
                    path = edge_path(K, u, v)
                    assert (path is None) == (not expected[u] >> v & 1), (K.labels, u, v)
                    if path is not None:
                        assert path[0] == u and path[-1] == v
                        assert all(K.is_simplex((1 << a) | (1 << b)) for a, b in zip(path, path[1:]))
        # a one-vertex facet is an isolated vertex
        assert any(len(set(K.component_masks)) >= 3 for K in corpus)
        assert any(any(m.bit_count() == 1 for m in K.facets) and len(K.facets) > 1 for K in corpus)

    def test_union_mask(self):
        assert union_mask([]) == 0
        for seed in range(20):
            family = corpusgen.random_facet_masks(12, seed % 7 + 1, seed)
            plain = 0
            for m in family:
                plain |= m
            assert union_mask(family) == plain
            assert union_mask(iter(family)) == plain


class TestSubcomplex:
    def test_path_inside_boundary(self, boundary_triangle):
        K = boundary_triangle
        sub = subcomplex(K, [K.simplex_mask({"a", "b"}), K.simplex_mask({"b", "c"})])
        assert sub.facet_label_sets() == (("a", "b"), ("b", "c"))

    def test_all_facets_is_identity(self, boundary_triangle):
        K = boundary_triangle
        assert subcomplex(K, K.facets) == K

    def test_edge_inside_full_triangle(self, full_triangle):
        K = full_triangle
        sub = subcomplex(K, [K.simplex_mask({"a", "b"})])
        assert sub.facet_label_sets() == (("a", "b"),)
        assert sub.n_vertices == 2

    def test_non_simplex_rejected(self, boundary_triangle):
        K = boundary_triangle
        with pytest.raises(InvalidInput):
            subcomplex(K, [K.simplex_mask({"a", "b", "c"})])


class TestParseSerialize:
    def test_parse_boundary_triangle(self, boundary_triangle):
        assert parse_complex("a b\nb c\na c") == boundary_triangle

    def test_comments_and_blanks(self, boundary_triangle):
        text = "# boundary\n\na b  # one edge\nb c\na c\n"
        assert parse_complex(text) == boundary_triangle

    def test_json_form(self, boundary_triangle):
        text = '{"facets": [["a","b"],["b","c"],["a","c"]]}'
        assert parse_complex(text) == boundary_triangle

    def test_empty_text_rejected(self):
        with pytest.raises(ParseError):
            parse_complex("")

    def test_bad_label_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_complex("a b\nc d|e\n")
        assert exc.value.line == 2

    def test_bad_json_rejected(self):
        with pytest.raises(ParseError):
            parse_complex("{not json")

    def test_deeply_nested_json_rejected(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_complex('{"facets": ' + "[" * 200000 + "]" * 200000 + "}")

    def test_json_needs_facets_key(self):
        with pytest.raises(ParseError):
            parse_complex('{"cells": []}')

    @given(label_sets)
    def test_round_trip_text(self, facets):
        K = build_complex(facets)
        assert parse_complex(serialize_complex(K)) == K

    @given(label_sets)
    def test_round_trip_json(self, facets):
        K = build_complex(facets)
        assert parse_complex(serialize_complex(K, form="json")) == K

    @given(label_sets)
    def test_serialize_is_canonical_fixpoint(self, facets):
        K = build_complex(facets)
        text = serialize_complex(K)
        assert serialize_complex(parse_complex(text)) == text


class TestComplexInvariants:
    def test_direct_construction_validates_antichain(self):
        with pytest.raises(InvalidInput):
            Complex(("a", "b"), (0b01, 0b11))

    def test_isolated_vertex_needs_facet(self):
        with pytest.raises(InvalidInput):
            Complex(("a", "b"), (0b01,))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            Complex((), ())


def _cycle(n, names=None):
    names = names or [f"v{i}" for i in range(n)]
    return build_complex([(names[i], names[(i + 1) % n]) for i in range(n)])


class TestAutomorphisms:
    """complexes.automorphisms against the brute-force permutation filter."""

    NAMED = {
        "C3": _cycle(3),
        "C4": _cycle(4),
        "boundary-tetrahedron": build_complex(corpusgen.BOUNDARY_TETRAHEDRON),
        "torus": build_complex(corpusgen.TORUS7),
        "RP2": build_complex(corpusgen.RP2_6),
    }

    @pytest.mark.parametrize(
        "name, size", [("C3", 6), ("C4", 8), ("boundary-tetrahedron", 24), ("torus", 42), ("RP2", 60)]
    )
    def test_group_sizes_pinned(self, name, size):
        K = self.NAMED[name]
        found = automorphisms(K, 1000)
        assert len(found) == size
        assert set(found) == oracles.oracle_automorphisms(K)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycles_have_the_dihedral_group(self, n):
        K = _cycle(n)
        found = automorphisms(K, 1000)
        assert len(found) == len(set(found)) == 2 * n
        assert set(found) == oracles.oracle_automorphisms(K)

    def test_relabelled_and_disconnected_inputs(self):
        rng = random.Random(5)
        names = rng.sample(["p", "q", "r", "s", "t", "u", "w"], 7)
        inputs = [
            _cycle(7, names),
            build_complex([("a", "b", "c"), ("c", "d"), ("e", "f"), ("g",)]),  # three components
            build_complex([("a", "b"), ("c", "d"), ("e", "f")]),  # 2^3 * 3! = 48
            build_complex([("x", "y", "z"), ("p", "q", "r")]),
        ]
        for K in inputs:
            assert set(automorphisms(K, 1000)) == oracles.oracle_automorphisms(K)

    def test_the_limit_keeps_the_first_ones_found(self):
        K = self.NAMED["boundary-tetrahedron"]
        every = automorphisms(K, 1000)
        assert automorphisms(K, 5) == every[:5]

    @given(st.randoms(use_true_random=False))
    def test_tiny_complexes(self, rng):
        K = corpusgen.random_complex(rng, max_vertices=5, max_facets=5)
        found = automorphisms(K, 1000)
        assert len(found) == len(set(found))
        assert set(found) == oracles.oracle_automorphisms(K)


class TestCocycles:
    """Complex.cocycles against brute-force counts of F2 1-cocycles and 1-coboundaries."""

    PINNED = {
        "point": ([("a",)], 0),
        "triangle": ([("a", "b", "c")], 0),
        # Delta^3 has no 2-dimensional facet: its triangles come from its one 3-dimensional facet
        "tetrahedron": ([("a", "b", "c", "d")], 0),
        "cone-C4": ([(a, b, "x") for a, b in corpusgen.CYCLE4], 0),
        "hollow-triangle": (corpusgen.CYCLE3, 1),
        "C4": (corpusgen.CYCLE4, 1),
        "boundary-tetrahedron": (corpusgen.BOUNDARY_TETRAHEDRON, 0),
        "torus": (corpusgen.TORUS7, 2),
        "RP2": (corpusgen.RP2_6, 1),
        "two-hollow-triangles": (corpusgen.CYCLE3 + [("x", "y"), ("y", "z"), ("x", "z")], 2),
    }

    @staticmethod
    def assert_basis(K):
        """Each member is a cocycle on edges of K, and no nonzero sum of members is a coboundary."""
        triangles = oracles.oracle_triangles(K)
        edges = set(oracles.oracle_edges(K))
        basis = [frozenset(frozenset(ids_from_mask(e)) for e in c) for c in K.cocycles]
        for c in basis:
            assert c and c <= edges
            assert oracles.oracle_is_cocycle(triangles, c)
        coboundaries = oracles.oracle_coboundaries(K)
        for r in range(1, len(basis) + 1):
            for combo in itertools.combinations(basis, r):
                total = frozenset()
                for c in combo:
                    total ^= c
                assert total not in coboundaries

    @pytest.mark.parametrize("name", list(PINNED))
    def test_dimension_pinned(self, name):
        facets, dim = self.PINNED[name]
        K = build_complex(facets)
        assert len(K.cocycles) == dim
        self.assert_basis(K)
        if len(oracles.oracle_edges(K)) <= 15:  # all but the torus (21 edges)
            assert oracles.oracle_h1_dimension(K) == dim

    # facets of up to four of five labels: at most 10 edges for the oracle, and
    # facets of every dimension up to 3, whose triangles must all count
    tiny = st.lists(
        st.lists(st.sampled_from("abcde"), min_size=1, max_size=4).map(set), min_size=1, max_size=6
    )

    @given(tiny)
    def test_tiny_complexes(self, facets):
        K = build_complex(facets)
        assert len(K.cocycles) == oracles.oracle_h1_dimension(K)
        self.assert_basis(K)
