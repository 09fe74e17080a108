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
