"""Degenerate and odd-shaped inputs pushed through every layer."""

import pytest

from simplicial_tc import (
    Status,
    Verdict,
    build_complex,
    categorical_square,
    core,
    emit_core,
    emit_scat,
    is_categorical,
    is_farber,
    motion_plan,
    parse_complex,
    scat,
    serialize_complex,
    tc,
    verify_certificate,
)
from simplicial_tc.maps import DEFAULT_BUDGET


class TestSingleVertex:
    def test_everything_on_a_point(self):
        K = build_complex([{"a"}])
        assert tc(K).value == 0
        assert scat(K).value == 0
        c, seq = core(K)
        assert c == K and seq.steps == ()
        P = categorical_square(K)
        assert P.product.n_vertices == 1
        verdict, adm = is_farber(P.product, P)
        assert verdict is Verdict.YES
        plan = motion_plan(tc(K).cover[0], 0, 0)
        assert plan.path == (0,)


class TestLabels:
    def test_multichar_and_digit_labels(self):
        K = build_complex([{"v10", "v2"}, {"v2", "x_3"}])
        assert K.labels == ("v10", "v2", "x_3")
        res = tc(K)
        assert res.value == 0  # a path is strongly collapsible
        P = categorical_square(K)
        assert "v10|x_3" in P.product.labels

    def test_duplicate_labels_within_facet_collapse(self):
        K = parse_complex('{"facets": [["a", "a", "b"]]}')
        assert K.facet_label_sets() == (("a", "b"),)

    def test_round_trip_odd_labels(self):
        K = build_complex([{"A-1", "b.2"}, {"b.2", "c'3"}])
        assert parse_complex(serialize_complex(K)) == K

    def test_prefix_labels_certificates_round_trip(self):
        # 'ab|a' sorts before 'a|ab' as a string, so pair-id order and
        # label-sort order disagree; certificates must stay label-based
        K = build_complex([{"a", "ab"}, {"ab", "abc"}, {"a", "abc"}])
        from simplicial_tc import emit_tc, dumps
        from simplicial_tc.maps import DEFAULT_BUDGET
        import json

        res = tc(K)
        assert res.value == 2  # relabeled hollow triangle
        cert = json.loads(dumps(emit_tc(K, res, DEFAULT_BUDGET)))
        ok, msgs = verify_certificate(cert)
        assert ok, msgs
        plan = motion_plan(res.cover[0], *(
            K.id(lab) for lab in next(
                l for l in res.cover[0].omega.labels
            ).split("|", 1)
        ))
        assert plan.path


class TestProductComplexesAsFirstClassInputs:
    """Library callers may run every invariant directly on a square."""

    def test_core_certificate_of_a_square(self, full_triangle):
        P = categorical_square(full_triangle)
        c, seq = core(P.product)
        assert c.n_vertices == 1  # square of a simplex is a simplex
        ok, msgs = verify_certificate(emit_core(P.product, c, seq))
        assert ok, msgs

    def test_scat_certificate_of_a_square(self, boundary_triangle):
        P = categorical_square(boundary_triangle)
        res = scat(P.product)
        cert = emit_scat(P.product, res, DEFAULT_BUDGET)
        ok, msgs = verify_certificate(cert)
        assert ok, msgs

    def test_categorical_query_inside_a_square(self, boundary_triangle):
        P = categorical_square(boundary_triangle)
        from simplicial_tc import subcomplex

        L = subcomplex(P.product, [P.product.facets[0]])
        verdict, adm = is_categorical(L, P.product)
        assert verdict is Verdict.YES


class TestDisconnected:
    def test_tc_not_coverable_but_scat_fine(self):
        K = build_complex([{"a", "b"}, {"c", "d"}])
        assert tc(K).status is Status.NOT_COVERABLE
        res = scat(K)
        assert res.status is Status.EXACT
        assert res.value == 1

    def test_component_crossing_farber_check(self):
        K = build_complex([{"a", "b"}, {"c", "d"}])
        P = categorical_square(K)
        # a facet whose vertices pair up across components
        cross = next(
            m
            for m, verts in zip(P.product.facets, P.product.facet_vertex_ids)
            if any(P.unpair(q)[0] < 2 <= P.unpair(q)[1] for q in verts)
        )
        from simplicial_tc import subcomplex

        omega = subcomplex(P.product, [cross])
        verdict, _ = is_farber(omega, P)
        assert verdict is Verdict.NO


class TestBigPurePath:
    def test_invariants_beyond_kernel_width(self):
        # 9 vertices square to 81, so facet masks are wider than a 64-bit word
        path = build_complex([set(p) for p in zip("abcdefgh", "bcdefghi")])
        res = tc(path)
        assert res.value == 0 and res.status is Status.EXACT
        assert scat(path).value == 0
