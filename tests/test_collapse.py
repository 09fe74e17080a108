import random

import pytest
from hypothesis import given, settings, strategies as st

from simplicial_tc import (
    CollapseSequence,
    InvalidInput,
    add_cone_facet,
    build_complex,
    categorical_square,
    contraction_witness,
    core,
    dominated_vertices,
    is_strongly_collapsible,
    replay,
)
from simplicial_tc.collapse import _strong_collapse
from simplicial_tc.complexes import embedding_ids, ids_from_mask, mask_from_ids
from simplicial_tc.maps import _contiguous, _retraction_chain

import corpusgen
import oracles


small_complexes = st.builds(
    corpusgen.random_complex,
    st.randoms(use_true_random=False),
    max_vertices=st.just(6),
    max_facets=st.just(5),
    max_facet_size=st.just(4),
)


def cone_over_boundary():
    return build_complex([{"a", "b", "x"}, {"b", "c", "x"}, {"a", "c", "x"}])


class TestDominatedVertices:
    def test_full_simplex_everything_dominated(self, full_triangle):
        got = set(dominated_vertices(full_triangle))
        assert got == {(v, u) for v in range(3) for u in range(3) if v != u}

    def test_boundary_triangle_nothing_dominated(self, boundary_triangle):
        assert dominated_vertices(boundary_triangle) == []

    def test_cone_apex_dominates(self):
        K = cone_over_boundary()
        x = K.id("x")
        got = set(dominated_vertices(K))
        assert got == {(K.id(lab), x) for lab in "abc"}

    @given(small_complexes)
    def test_definition_holds(self, K):
        for v, u in dominated_vertices(K):
            for j in K.vertex_facets[v]:
                assert K.facets[j] & (1 << u)


class TestCore:
    def test_simplex_cores_to_point(self):
        for n in range(1, 5):
            K = build_complex([set("abcde"[: n + 1])])
            c, seq = core(K)
            assert c.n_vertices == 1
            assert len(seq.steps) == n

    def test_boundary_triangle_is_its_own_core(self, boundary_triangle):
        c, seq = core(boundary_triangle)
        assert c == boundary_triangle
        assert seq.steps == ()

    def test_cone_over_boundary_collapses(self):
        c, seq = core(cone_over_boundary())
        assert c.n_vertices == 1
        assert len(seq.steps) == 3

    def test_collapse_sequence_replays(self):
        K = cone_over_boundary()
        c, seq = core(K)
        assert replay(seq) == c

    def test_bogus_sequence_rejected(self, boundary_triangle):
        K = boundary_triangle
        point = build_complex([{"a"}])
        with pytest.raises(InvalidInput):
            CollapseSequence(K, point, ((1, 0), (2, 0)))

    @given(small_complexes)
    def test_idempotent(self, K):
        c, _ = core(K)
        again, seq = core(c)
        assert again == c
        assert seq.steps == ()

    @given(small_complexes)
    @settings(max_examples=25)
    def test_order_independent_up_to_isomorphism(self, K):
        """Replay deletions under different deterministic rules; cores agree."""
        if K.n_vertices > 7:
            return
        lowest, _ = core(K)

        def core_with(pick):
            current = K
            while True:
                doms = dominated_vertices(current)
                if not doms:
                    return current
                v, u = pick(doms)
                current = oracles.delete_vertex(current, v)

        highest = core_with(lambda doms: max(doms))
        seeded = core_with(lambda doms: sorted(doms)[len(doms) // 2])
        assert oracles.complexes_isomorphic(lowest, highest)
        assert oracles.complexes_isomorphic(lowest, seeded)


class TestBitmaskCoreMatchesReference:
    """core() and the mask collapse against the object-level round rule kept in
    oracles.oracle_round_core, and their cores against the one-at-a-time
    cores of oracles.oracle_core, which they must match up to isomorphism."""

    @staticmethod
    def assert_same_core(K):
        rounds, expected = oracles.oracle_round_core(K)
        c, seq = core(K)
        assert seq.steps == tuple(step for steps in rounds for step in steps)
        assert c == expected
        assert replay(seq) == expected
        assert oracles.complexes_isomorphic(c, oracles.oracle_core(K)[1])
        assert _strong_collapse(K.facets)[0] == [list(steps) for steps in rounds]
        # the mask loop follows relative id order: spreading the ids apart
        # (as in an ambient numbering) deletes the same vertices in the same rounds
        spread = [sum(1 << (2 * v + 1) for v in ids_from_mask(m)) for m in K.facets]
        spread_rounds, _ = _strong_collapse(spread)
        assert spread_rounds == [[(2 * v + 1, 2 * u + 1) for v, u in steps] for steps in rounds]

    def test_acceptance_corpus(self):
        for K in corpusgen.acceptance_corpus(corpusgen.ACCEPTANCE_SEED):
            self.assert_same_core(K)

    @pytest.mark.parametrize(
        "facets", [corpusgen.CYCLE4, corpusgen.BOUNDARY_TETRAHEDRON], ids=["C4", "boundary-tetrahedron"]
    )
    def test_seeded_subcomplexes_of_the_square(self, facets):
        square = categorical_square(build_complex(facets)).product
        subs = corpusgen.random_facet_subcomplexes(square, 500, seed=11)
        collapsed = batched = 0
        for omega in subs:
            self.assert_same_core(omega)
            collapsed += core(omega)[0].n_vertices == 1
            batched += any(len(steps) > 1 for steps in _strong_collapse(omega.facets)[0])
        # both outcomes occur, so neither branch of the loop goes untested,
        # and rounds delete several vertices at once
        assert 0 < collapsed < len(subs)
        assert batched

    @pytest.mark.parametrize(
        "facets",
        [corpusgen.CYCLE4, corpusgen.BOUNDARY_TETRAHEDRON, corpusgen.CYCLE5],
        ids=["C4", "boundary-tetrahedron", "C5"],
    )
    def test_seeded_masks_in_ambient_ids(self, facets):
        """The loop on facet masks of the square, in the square's own vertex
        ids as the cover search runs it, against the oracle on the subcomplex."""
        square = categorical_square(build_complex(facets)).product
        masks = corpusgen.random_facet_masks(len(square.facets), 300, seed=13)
        for mask in masks:
            chosen = [f for i, f in enumerate(square.facets) if mask >> i & 1]
            rounds, core_facets = _strong_collapse(chosen)
            omega = corpusgen.facet_subcomplex(square, mask)
            emb = embedding_ids(omega, square)
            expected_rounds, expected = oracles.oracle_round_core(omega)
            assert rounds == [[(emb[v], emb[u]) for v, u in steps] for steps in expected_rounds]
            expected_emb = embedding_ids(expected, square)
            assert sorted(core_facets) == sorted(
                sum(1 << expected_emb[v] for v in ids) for ids in expected.facet_vertex_ids
            )


class TestCollapseProperties:
    """Properties of the collapse in rounds on random complexes."""

    @given(small_complexes)
    def test_steps_replay_one_at_a_time(self, K):
        c, seq = core(K)
        assert CollapseSequence(K, c, seq.steps).end == c

    @given(small_complexes)
    def test_the_end_has_no_dominated_vertex(self, K):
        assert dominated_vertices(core(K)[0]) == []

    @given(small_complexes)
    def test_the_chain_is_contiguous_and_ends_at_the_retraction(self, K):
        r = _retraction_chain(K)
        assert len(r.chain) == len(_strong_collapse(K.facets)[0]) + 1
        for a, b in zip(r.chain, r.chain[1:]):
            assert _contiguous(K, K, a, b)
        # the last map is the retraction onto the core: into the core, fixing it
        assert r.chain[-1] == tuple(r.core_ids[x] for x in r.retraction)
        assert all(r.chain[-1][v] == v for v in r.core_ids)
        for verts in K.facet_vertex_ids:
            assert r.core.is_simplex(mask_from_ids(r.retraction[v] for v in verts))


class TestReductionRecord:
    """maps._retraction_chain, the one record of a complex's strong-collapse
    reduction, against core(), label embeddings and the dominance oracle."""

    @staticmethod
    def assert_record_agrees(K):
        r = _retraction_chain(K)
        c, seq = core(K)
        assert (r.core, r.steps) == (c, seq.steps)
        assert r.core_ids == embedding_ids(c, K)
        # the dict-based derivation class queries used before the record
        to_core = {old: new for new, old in enumerate(embedding_ids(c, K))}
        assert r.retraction == tuple(to_core[x] for x in r.chain[-1])
        assert r.chain[0] == tuple(range(K.n_vertices))
        assert set(r.chain[-1]) == set(r.core_ids)
        assert dominated_vertices(K) == oracles.oracle_dominated_vertices(K)

    def test_acceptance_corpus(self):
        for K in corpusgen.acceptance_corpus(corpusgen.ACCEPTANCE_SEED):
            self.assert_record_agrees(K)

    @pytest.mark.parametrize(
        "facets",
        [corpusgen.CYCLE3, corpusgen.CYCLE4, corpusgen.BOUNDARY_TETRAHEDRON],
        ids=["C3", "C4", "boundary-tetrahedron"],
    )
    def test_squares(self, facets):
        self.assert_record_agrees(categorical_square(build_complex(facets)).product)

    def test_seeded_subcomplexes_of_the_square(self):
        square = categorical_square(build_complex(corpusgen.CYCLE4)).product
        for omega in corpusgen.random_facet_subcomplexes(square, 300, seed=17):
            self.assert_record_agrees(omega)


class TestReplayChecks:
    def test_non_dominated_step(self, boundary_triangle):
        K = boundary_triangle
        with pytest.raises(InvalidInput, match="not dominated"):
            CollapseSequence(K, K, ((K.id("a"), K.id("b")),))

    def test_vertex_dominating_itself(self, boundary_triangle):
        K = boundary_triangle
        with pytest.raises(InvalidInput, match="not dominated"):
            CollapseSequence(K, K, ((K.id("a"), K.id("a")),))

    @pytest.mark.parametrize("second", [("a", "x"), ("b", "a")], ids=["deleted", "deleted-dominator"])
    def test_step_on_deleted_vertex(self, second):
        K = cone_over_boundary()
        a, x = K.id("a"), K.id("x")
        steps = ((a, x), (K.id(second[0]), K.id(second[1])))
        with pytest.raises(InvalidInput, match="deleted vertex"):
            CollapseSequence(K, K, steps)

    @pytest.mark.parametrize("step", [(7, 0), (0, -1)], ids=["past-end", "negative"])
    def test_unknown_vertex(self, step):
        K = cone_over_boundary()
        with pytest.raises(InvalidInput, match="unknown vertex"):
            CollapseSequence(K, K, (step,))


class TestStronglyCollapsible:
    def test_simplices_yes(self):
        assert is_strongly_collapsible(build_complex([{"a", "b", "c", "d"}]))

    def test_boundary_no(self, boundary_triangle):
        assert not is_strongly_collapsible(boundary_triangle)

    def test_two_points_no(self):
        assert not is_strongly_collapsible(build_complex([{"a"}, {"b"}]))


class TestExpansion:
    def test_expansion_adds_dominated_vertex(self, boundary_triangle):
        K = boundary_triangle
        K2 = add_cone_facet(K, K.simplex_mask({"a", "b"}), "w")
        w = K2.id("w")
        doms = [u for v, u in dominated_vertices(K2) if v == w]
        assert set(doms) == {K2.id("a"), K2.id("b")}

    def test_expansion_preserves_core(self):
        rng = random.Random(3)
        for _ in range(15):
            K = corpusgen.random_complex(rng, max_vertices=5, max_facets=4)
            K2 = corpusgen.random_expansion(rng, K)
            assert K2.n_vertices == K.n_vertices + 1
            c1, _ = core(K)
            c2, _ = core(K2)
            assert oracles.complexes_isomorphic(c1, c2)

    def test_bad_base_rejected(self, boundary_triangle):
        K = boundary_triangle
        with pytest.raises(InvalidInput):
            add_cone_facet(K, K.simplex_mask({"a", "b", "c"}), "w")

    def test_duplicate_label_rejected(self, boundary_triangle):
        K = boundary_triangle
        with pytest.raises(InvalidInput):
            add_cone_facet(K, K.simplex_mask({"a"}), "a")

    def test_expansion_of_a_product_complex(self, boundary_triangle):
        # pair labels carry '|', which only the *input* paths reserve
        P = categorical_square(boundary_triangle)
        K2 = add_cone_facet(P.product, P.product.facets[0], "w")
        assert K2.n_vertices == 10
        undone = oracles.delete_vertex(K2, K2.id("w"))
        assert sorted(undone.facet_label_sets()) == sorted(P.product.facet_label_sets())


class TestContractionWitness:
    def test_collapsible_complex_contracts(self):
        K = cone_over_boundary()
        w = contraction_witness(K)
        assert w is not None
        assert w.first.assignment == tuple(range(K.n_vertices))
        assert w.last.is_constant

    def test_non_collapsible_returns_none(self, boundary_triangle):
        assert contraction_witness(boundary_triangle) is None

    @given(small_complexes)
    @settings(max_examples=25)
    def test_witness_valid_whenever_collapsible(self, K):
        w = contraction_witness(K)
        if is_strongly_collapsible(K):
            # the ContiguityWitness constructor has already validated each
            # consecutive pair; check the endpoints here
            assert w is not None
            assert w.first.assignment == tuple(range(K.n_vertices))
            assert w.last.is_constant
        else:
            assert w is None
