import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from simplicial_tc import (
    AdmissibleSet,
    InvalidInput,
    Status,
    Verdict,
    build_complex,
    categorical_square,
    class_constant_witness,
    diagonal,
    edge_path,
    embedding_ids,
    emit_membership,
    identity_map,
    inclusion_map,
    is_categorical,
    is_farber,
    maximal_admissible_sets,
    min_cover,
    motion_plan,
    projection,
    restrict,
    restrict_witness,
    same_contiguity_class,
    scat,
    subcomplex,
    tc,
    validate_motion_plan,
    verify_certificate,
    compose,
)
from simplicial_tc import invariants
from simplicial_tc.collapse import _greedy_collapse, core
from simplicial_tc.complexes import ids_from_mask, mask_from_ids
from simplicial_tc.invariants import _cover_invariant, admissibility
from simplicial_tc.maps import DEFAULT_BUDGET

import corpusgen
import definition
import oracles
import reference


def diagonal_subcomplex(P):
    d = diagonal(P)
    masks = [d.image_mask(m) for m in P.base.facets]
    return subcomplex(P.product, masks)


class TestIsFarber:
    def test_diagonal_subcomplex_is_farber(self, boundary_triangle):
        P = categorical_square(boundary_triangle)
        omega = diagonal_subcomplex(P)
        verdict, adm = is_farber(omega, P)
        assert verdict is Verdict.YES
        assert adm.witness.first == restrict(projection(P, 1), omega)
        assert adm.witness.last == restrict(projection(P, 2), omega)

    def test_whole_square_of_boundary_is_not(self, boundary_triangle):
        P = categorical_square(boundary_triangle)
        verdict, adm = is_farber(P.product, P)
        assert verdict is Verdict.NO
        assert adm is None

    def test_single_product_facet_is_farber(self, boundary_triangle):
        P = categorical_square(boundary_triangle)
        omega = subcomplex(P.product, [P.product.facets[0]])
        verdict, adm = is_farber(omega, P)
        assert verdict is Verdict.YES

    def test_whole_square_of_full_triangle_is_farber(self, full_triangle):
        P = categorical_square(full_triangle)
        verdict, adm = is_farber(P.product, P)
        assert verdict is Verdict.YES

    def test_foreign_subcomplex_rejected(self, boundary_triangle, full_triangle):
        P = categorical_square(boundary_triangle)
        with pytest.raises(InvalidInput):
            is_farber(full_triangle, P)

    def test_witness_certifies_definition(self, boundary_triangle):
        """The witness, paired with the section pi1|omega, chains diagonal∘section to the inclusion."""
        P = categorical_square(boundary_triangle)
        omega = subcomplex(P.product, [P.product.facets[0], P.product.facets[1]])
        verdict, adm = is_farber(omega, P)
        assert verdict is Verdict.YES
        sigma, _ = definition.defining_chain(P, adm)
        assert sigma == restrict(projection(P, 1), omega)


class TestIsCategorical:
    def test_single_vertex(self, boundary_triangle):
        K = boundary_triangle
        L = subcomplex(K, [K.simplex_mask({"a"})])
        verdict, adm = is_categorical(L, K)
        assert verdict is Verdict.YES

    def test_whole_boundary_in_itself(self, boundary_triangle):
        verdict, adm = is_categorical(boundary_triangle, boundary_triangle)
        assert verdict is Verdict.NO

    def test_path_inside_boundary(self, boundary_triangle):
        K = boundary_triangle
        L = subcomplex(K, [K.simplex_mask({"a", "b"}), K.simplex_mask({"b", "c"})])
        verdict, adm = is_categorical(L, K)
        assert verdict is Verdict.YES
        assert adm.witness.first == inclusion_map(L, K)
        assert adm.witness.last.is_constant

    def test_across_components_not_categorical(self):
        K = build_complex([{"a", "b"}, {"c", "d"}])
        L = subcomplex(K, [K.simplex_mask({"a"}), K.simplex_mask({"c"})])
        verdict, _ = is_categorical(L, K)
        assert verdict is Verdict.NO


class TestMonotonicity:
    """Admissibility is closed under facet subsets; witnesses restrict."""

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=20)
    def test_farber_subsets_pass(self, rng):
        K = corpusgen.random_connected_complex(rng, max_vertices=4, max_facets=3)
        P = categorical_square(K)
        n = len(P.product.facets)
        indices = rng.sample(range(n), rng.randint(1, n))
        omega = subcomplex(P.product, [P.product.facets[i] for i in indices])
        verdict, adm = is_farber(omega, P)
        if verdict is not Verdict.YES or len(indices) == 1:
            return
        sub_indices = indices[: rng.randint(1, len(indices) - 1)]
        smaller = subcomplex(P.product, [P.product.facets[i] for i in sub_indices])
        sub_verdict, _ = is_farber(smaller, P)
        assert sub_verdict is Verdict.YES
        # the restricted witness itself certifies the subset
        restricted = restrict_witness(adm.witness, smaller)
        assert restricted.first == restrict(projection(P, 1), smaller)
        assert restricted.last == restrict(projection(P, 2), smaller)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=20)
    def test_categorical_subsets_pass(self, rng):
        K = corpusgen.random_connected_complex(rng, max_vertices=5, max_facets=4)
        n = len(K.facets)
        indices = rng.sample(range(n), rng.randint(1, n))
        L = subcomplex(K, [K.facets[i] for i in indices])
        verdict, adm = is_categorical(L, K)
        if verdict is not Verdict.YES or len(indices) == 1:
            return
        sub_indices = indices[: rng.randint(1, len(indices) - 1)]
        smaller = subcomplex(K, [K.facets[i] for i in sub_indices])
        assert is_categorical(smaller, K)[0] is Verdict.YES
        restricted = restrict_witness(adm.witness, smaller)
        assert restricted.first == inclusion_map(smaller, K)
        assert restricted.last.is_constant


class TestTheoremEquivalence:
    """The three Farber characterizations agree: brute-force section search,
    projection contiguity (implemented), and diagonal∘projection."""

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=12)
    def test_three_conditions_agree(self, rng):
        K = corpusgen.random_complex(rng, max_vertices=3, max_facets=2)
        P = categorical_square(K)
        n = len(P.product.facets)
        indices = rng.sample(range(n), rng.randint(1, n))
        omega = subcomplex(P.product, [P.product.facets[i] for i in indices])
        if omega.n_vertices > 6:
            return

        cond2, _ = is_farber(omega, P)

        # condition 1: brute force over all vertex maps omega -> K
        incl = inclusion_map(omega, P.product)
        d = diagonal(P)
        found = False
        for assignment in itertools.product(range(K.n_vertices), repeat=omega.n_vertices):
            try:
                from simplicial_tc import validate_map

                sigma = validate_map(assignment, omega, K)
            except Exception:
                continue
            r = same_contiguity_class(compose(d, sigma), incl)
            assert r.verdict is not Verdict.UNKNOWN
            if r.verdict is Verdict.YES:
                found = True
                break
        assert (cond2 is Verdict.YES) == found

        # condition 3: diagonal after either projection restriction
        for i in (1, 2):
            pi = restrict(projection(P, i), omega)
            r = same_contiguity_class(compose(d, pi), incl)
            assert (r.verdict is Verdict.YES) == (cond2 is Verdict.YES)


class TestMaximalAdmissibleSets:
    """The explicit enumeration, run on the same checks tc and scat use."""

    def test_full_simplex_single_maximal(self, full_triangle):
        P = categorical_square(full_triangle)
        assert reference.maximal_sets("farber", full_triangle) == (
            frozenset(range(len(P.product.facets))),
        )

    def test_boundary_farber_sets_avoid_full_slices(self, boundary_triangle):
        K = boundary_triangle
        maximal = reference.maximal_sets("farber", K)
        assert maximal
        nf = len(K.facets)
        for S in maximal:
            for a in range(K.n_vertices):
                rows = set(K.vertex_facets[a])
                # no choice of one product facet per base facet, all rows at a
                full_row = all(
                    any(i * nf + j in S for i in rows) for j in range(nf)
                )
                full_col = all(
                    any(j * nf + i in S for i in rows) for j in range(nf)
                )
                assert not full_row and not full_col

    def test_boundary_categorical_maximal_sets_are_the_three_paths(self, boundary_triangle):
        maximal = reference.maximal_sets("categorical", boundary_triangle)
        assert sorted(tuple(sorted(S)) for S in maximal) == [
            (0, 1),
            (0, 2),
            (1, 2),
        ]

    def test_matches_brute_force_on_random_families(self):
        rng = random.Random(19)
        family_check = TestPartitionSearch.family_check
        for _ in range(200):
            n = rng.randint(1, 7)
            maximal = TestPartitionSearch.random_family(rng, n, 5)
            check = family_check(maximal)
            passing = [
                frozenset(i for i in range(n) if m >> i & 1)
                for m in range(1, 1 << n)
                if check(m) is Verdict.YES
            ]
            expected = sorted((S for S in passing if not any(S < T for T in passing)), key=sorted)
            sets, unknown, checks = maximal_admissible_sets(n, check)
            assert sets == expected and unknown == []
            assert 1 <= checks < 1 << n

    def test_undecided_sets_are_reported_and_never_returned(self):
        rng = random.Random(20)
        family_check = TestPartitionSearch.family_check
        seen_unknown = 0
        for _ in range(200):
            n = rng.randint(2, 6)
            maximal = TestPartitionSearch.random_family(rng, n, 4)
            subsets = [
                frozenset(c) for r in range(1, n + 1) for c in itertools.combinations(range(n), r)
            ]
            undecided = frozenset(rng.sample(subsets, rng.randint(0, len(subsets) // 2)))
            sets, unknown, _ = maximal_admissible_sets(n, family_check(maximal, undecided))
            seen_unknown += bool(unknown)
            assert set(unknown) <= undecided
            assert all(any(S <= M for M in maximal) and S not in undecided for S in sets)
            assert not any(S < T for S in sets for T in sets)
        assert seen_unknown >= 50

    def test_unknown_propagates_as_incomplete(self):
        # scat of the square of the boundary of the 3-simplex needs real class
        # searches, and its H^1 is 0, so the homology rule cannot decide them:
        # a one-state budget leaves subsets undecided and the result degrades honestly
        P = categorical_square(build_complex(corpusgen.BOUNDARY_TETRAHEDRON))
        res = scat(P.product, budget=1)
        assert res.status is Status.BUDGET_EXHAUSTED
        assert res.unknown_sets
        exact = scat(P.product)
        assert exact.status is Status.EXACT
        assert res.lower_bound <= exact.value
        if res.upper_bound is not None:
            assert exact.value <= res.upper_bound

    def test_homology_rule_decides_the_hollow_triangles_square(self, boundary_triangle):
        # every "no" the search meets there is a cycle that the inclusion and a
        # constant send apart in H_1(-; F2), so budget 1 gives the exact value
        P = categorical_square(boundary_triangle)
        res = scat(P.product, budget=1)
        exact = scat(P.product)
        assert (res.status, res.value, res.unknown_sets, res.checks) == (
            Status.EXACT, exact.value, (), exact.checks
        )


class TestMinCover:
    def test_single_set_covers(self):
        assert min_cover(3, [frozenset({0, 1, 2})]) == [0]

    def test_uncoverable(self):
        assert min_cover(3, [frozenset({0, 1})]) is None

    def test_picks_minimum(self):
        sets = [frozenset({0}), frozenset({1}), frozenset({2}), frozenset({0, 1, 2})]
        assert min_cover(3, sets) == [3]

    def test_empty_universe_needs_no_sets(self):
        assert min_cover(0, []) == []
        assert min_cover(0, [frozenset({0})]) == []

    def test_empty_set_in_the_family(self):
        assert min_cover(2, [frozenset(), frozenset({0, 1})]) == [1]
        assert min_cover(2, [frozenset(), frozenset({0})]) is None
        assert min_cover(1, [frozenset()]) is None

    def test_elements_outside_the_universe_are_ignored(self):
        sets = [frozenset({0, 5}), frozenset({1, 2, 9}), frozenset({0, 1, 2, 7})]
        assert min_cover(3, sets) == [2]
        assert min_cover(3, [frozenset({3, 4})]) is None

    def test_exact_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 7)
            sets = [
                frozenset(rng.sample(range(n), rng.randint(1, n)))
                for _ in range(rng.randint(1, 6))
            ]
            got = min_cover(n, sets)
            # brute-force smallest cover
            best = None
            for r in range(1, len(sets) + 1):
                for combo in itertools.combinations(range(len(sets)), r):
                    if frozenset().union(*(sets[i] for i in combo)) == frozenset(range(n)):
                        best = combo
                        break
                if best:
                    break
            if best is None:
                assert got is None
            else:
                assert got is not None and len(got) == len(best)


class TestScat:
    def test_simplices_zero(self):
        for n in range(1, 4):
            K = build_complex([set("abcd"[: n + 1])])
            res = scat(K)
            assert res.value == 0 and res.status is Status.EXACT

    def test_boundary_is_one(self, boundary_triangle):
        res = scat(boundary_triangle)
        assert res.value == 1 and res.status is Status.EXACT
        assert len(res.cover) == 2

    def test_square_of_boundary_within_product_bound(self, boundary_triangle):
        P = categorical_square(boundary_triangle)
        res = scat(P.product)
        assert res.status is Status.EXACT
        # scat(K^2) + 1 <= (scat K + 1)^2 = 4, and TC <= scat(K^2) gives >= 2
        assert res.value in (2, 3)


class TestTc:
    def test_strongly_collapsible_zero(self):
        for facets in ([{"a", "b", "c"}], [{"a", "b", "x"}, {"b", "c", "x"}, {"a", "c", "x"}]):
            res = tc(build_complex(facets))
            assert res.value == 0 and res.status is Status.EXACT

    def test_boundary_is_two(self, boundary_triangle):
        res = tc(boundary_triangle)
        assert res.value == 2 and res.status is Status.EXACT
        assert len(res.cover) == 3

    def test_disjoint_points_not_coverable(self):
        res = tc(build_complex([{"a"}, {"b"}]))
        assert res.status is Status.NOT_COVERABLE
        assert res.value is None and res.cover is None

    def test_cover_members_are_certified(self, boundary_triangle):
        P = categorical_square(boundary_triangle)
        res = tc(boundary_triangle)
        for adm in res.cover:
            assert adm.witness.first == restrict(projection(P, 1), adm.omega)
            assert adm.witness.last == restrict(projection(P, 2), adm.omega)


class TestMotionPlan:
    def plan_for(self, K, x_label, y_label):
        res = tc(K)
        assert res.cover
        label = f"{x_label}|{y_label}"
        adm = next(a for a in res.cover if label in a.omega.labels)
        return motion_plan(adm, K.id(x_label), K.id(y_label)), adm

    def test_boundary_plan_between_a_and_c(self, boundary_triangle):
        K = boundary_triangle
        plan, _ = self.plan_for(K, "a", "c")
        validate_motion_plan(K, plan)
        assert plan.path[0] == K.id("a")
        assert plan.path[-1] == K.id("c")

    def test_same_point_plan(self, boundary_triangle):
        K = boundary_triangle
        plan, _ = self.plan_for(K, "b", "b")
        validate_motion_plan(K, plan)
        assert plan.path[0] == plan.path[-1] == K.id("b")

    def test_diagonal_query_on_diagonal_subcomplex(self, boundary_triangle):
        P = categorical_square(boundary_triangle)
        omega = diagonal_subcomplex(P)
        verdict, adm = is_farber(omega, P)
        assert verdict is Verdict.YES
        plan = motion_plan(adm, 0, 0)
        assert set(plan.path) == {0}

    def test_pair_outside_omega_rejected(self, boundary_triangle):
        P = categorical_square(boundary_triangle)
        omega = subcomplex(P.product, [P.product.facets[0]])
        verdict, adm = is_farber(omega, P)
        missing = next(
            (u, v)
            for u in range(3)
            for v in range(3)
            if f"{'abc'[u]}|{'abc'[v]}" not in omega.labels
        )
        with pytest.raises(InvalidInput):
            motion_plan(adm, *missing)

    @pytest.mark.parametrize("x, y", [(5, 0), (0, 3), (-1, 0), (0, -3)])
    def test_vertex_ids_outside_k_rejected(self, boundary_triangle, x, y):
        # -1 and -3 would read the label table from its end: c and a
        _, adm = self.plan_for(boundary_triangle, "c", "a")
        with pytest.raises(InvalidInput, match="must be vertex ids"):
            motion_plan(adm, x, y)

    def test_every_cover_plan_validates(self, boundary_triangle):
        K = boundary_triangle
        res = tc(K)
        for adm in res.cover:
            for label in adm.omega.labels:
                xl, yl = label.split("|")
                plan = motion_plan(adm, K.id(xl), K.id(yl))
                validate_motion_plan(K, plan)


class TestIsomorphismInvariance:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=15)
    def test_relabeling_preserves_both_invariants(self, rng):
        """Vertex labels are names, not structure; the values cannot move."""
        K = corpusgen.random_complex(rng, max_vertices=5, max_facets=3)
        fresh = [f"v{rng.randint(100, 10**6)}_{i}" for i in range(K.n_vertices)]
        if len(set(fresh)) != K.n_vertices:
            return
        mapping = dict(zip(K.labels, fresh))
        relabeled = build_complex(
            [{mapping[lab] for lab in facet} for facet in K.facet_label_sets()]
        )
        for invariant in (tc, scat):
            a, b = invariant(K), invariant(relabeled)
            assert a.status is b.status
            assert a.value == b.value


class TestNotCoverableWithUnknowns:
    def test_definite_failures_beat_open_budget(self):
        """A disconnected complex is not coverable even when the budget
        leaves other subsets undecided: the cross-component "no" needs no
        search, so the verdict stays decisive."""
        K = build_complex([{"a", "b"}, {"b", "c"}, {"a", "c"}, {"z"}])
        res = tc(K, budget=1)
        assert res.status is Status.NOT_COVERABLE
        assert res.value is None


class TestCollapseInvariance:
    def test_deleting_dominated_vertex_preserves_invariants(self):
        from simplicial_tc import dominated_vertices

        rng = random.Random(5)
        checked = 0
        while checked < 12:
            K = corpusgen.random_complex(rng, max_vertices=5, max_facets=3)
            doms = dominated_vertices(K)
            if not doms or K.n_vertices < 2:
                continue
            smaller = oracles.delete_vertex(K, doms[0][0])
            r1, r2 = tc(K), tc(smaller)
            s1, s2 = scat(K), scat(smaller)
            if r1.status is r2.status is Status.EXACT:
                assert r1.value == r2.value
            assert s1.status is s2.status is Status.EXACT
            assert s1.value == s2.value
            checked += 1


class TestVerdictOnlyPath:
    """want_witness=False decides on the greedy core; witness mode must agree."""

    @staticmethod
    def tally(runs):
        counts = {Verdict.YES: 0, Verdict.NO: 0, Verdict.UNKNOWN: 0}
        yes_on_proper_core = 0
        for sub, (quick, nothing), (full, adm) in runs:
            assert nothing is None
            assert quick is full
            assert (adm is not None) == (full is Verdict.YES)
            counts[full] += 1
            yes_on_proper_core += full is Verdict.YES and core(sub)[0].n_vertices > 1
        # both verdicts occur, and some "yes" needed the class query on a
        # core of several vertices, so no branch goes untested
        assert counts[Verdict.YES] and counts[Verdict.NO] and yes_on_proper_core

    @staticmethod
    def farber_modes(P, omega):
        return omega, is_farber(omega, P, want_witness=False), is_farber(omega, P)

    def test_farber_all_subsets_of_c3_square(self):
        P = categorical_square(build_complex(corpusgen.CYCLE3))
        F = P.product.facets
        subs = [
            subcomplex(P.product, [F[i] for i in range(len(F)) if r >> i & 1])
            for r in range(1, 1 << len(F))
        ]
        assert len(subs) == 511
        self.tally(self.farber_modes(P, omega) for omega in subs)

    def test_farber_seeded_subsets_of_c4_square(self):
        P = categorical_square(build_complex(corpusgen.CYCLE4))
        subs = corpusgen.random_facet_subcomplexes(P.product, 300, seed=12)
        self.tally(self.farber_modes(P, omega) for omega in subs)

    def test_categorical_seeded_subsets_of_torus(self):
        T = build_complex(corpusgen.TORUS7)
        subs = corpusgen.random_facet_subcomplexes(T, 300, seed=13)
        self.tally(
            (sub, is_categorical(sub, T, want_witness=False), is_categorical(sub, T)) for sub in subs
        )

    # -- the facet-mask form, which the cover search hands the checkers ------

    @staticmethod
    def assert_mask_form_agrees(A, masks):
        """Mask and Complex forms give one verdict, with or without a shared memo.

        Returns the verdict counts, so callers can require both answers.
        """
        counts = {Verdict.YES: 0, Verdict.NO: 0, Verdict.UNKNOWN: 0}
        memo = {}
        for mask in masks:
            sub = corpusgen.facet_subcomplex(A.ambient, mask)
            quick = A.decide(mask, DEFAULT_BUDGET, want_witness=False)
            assert A.decide(mask, DEFAULT_BUDGET, want_witness=False, memo=memo) == quick
            assert A.decide(sub, DEFAULT_BUDGET, want_witness=False) == quick
            assert A.decide(sub, DEFAULT_BUDGET)[0] is quick[0]
            counts[quick[0]] += 1
        return counts

    def test_mask_form_on_all_subsets_of_c3_square(self):
        A = admissibility("farber", build_complex(corpusgen.CYCLE3))
        counts = self.assert_mask_form_agrees(A, range(1, 1 << 9))
        assert counts[Verdict.YES] and counts[Verdict.NO]

    @pytest.mark.parametrize(
        "facets, seed",
        [(corpusgen.CYCLE4, 21), (corpusgen.BOUNDARY_TETRAHEDRON, 22), (corpusgen.CYCLE5, 23)],
        ids=["C4", "boundary-tetrahedron", "C5"],
    )
    def test_mask_form_on_seeded_subsets_of_squares(self, facets, seed):
        A = admissibility("farber", build_complex(facets))
        masks = corpusgen.random_facet_masks(len(A.ambient.facets), 200, seed)
        counts = self.assert_mask_form_agrees(A, masks)
        assert counts[Verdict.YES] and counts[Verdict.NO]

    def test_mask_form_on_seeded_subsets_of_torus(self):
        A = admissibility("categorical", build_complex(corpusgen.TORUS7))
        masks = corpusgen.random_facet_masks(len(A.ambient.facets), 200, seed=24)
        counts = self.assert_mask_form_agrees(A, masks)
        assert counts[Verdict.YES] and counts[Verdict.NO]

    def test_mask_form_with_a_mask_certifies_like_the_complex(self):
        for kind, facets in (("farber", corpusgen.CYCLE4), ("categorical", corpusgen.TORUS7)):
            A = admissibility(kind, build_complex(facets))
            for mask in corpusgen.random_facet_masks(len(A.ambient.facets), 40, seed=25):
                sub = corpusgen.facet_subcomplex(A.ambient, mask)
                assert A.decide(mask, DEFAULT_BUDGET) == A.decide(sub, DEFAULT_BUDGET)

    def test_component_rule_on_a_disconnected_complex(self, monkeypatch):
        K = build_complex([{"a", "b"}, {"b", "c"}, {"d", "e"}])
        farber, categorical = admissibility("farber", K), admissibility("categorical", K)
        counts = self.assert_mask_form_agrees(farber, range(1, 1 << 9))
        assert counts[Verdict.YES] and counts[Verdict.NO]
        counts = self.assert_mask_form_agrees(categorical, range(1, 1 << 3))
        assert counts == {Verdict.YES: 4, Verdict.NO: 3, Verdict.UNKNOWN: 0}
        # the split classes are refused before any class query
        monkeypatch.setattr(invariants, "same_contiguity_class", None)
        monkeypatch.setattr(invariants, "class_constant_witness", None)
        de_x_ab = farber.ambient.simplex_mask(["d|a", "d|b", "e|a", "e|b"])
        single = 1 << farber.ambient.facets.index(de_x_ab)
        assert farber.decide(single, DEFAULT_BUDGET, want_witness=False)[0] is Verdict.NO
        assert categorical.decide(0b101, DEFAULT_BUDGET, want_witness=False)[0] is Verdict.NO

    def test_slice_rule_fires_only_when_k_is_not_strongly_collapsible(self, monkeypatch):
        def row_of_a(A):
            # the facets F1 x F2 of K^2 with a (vertex 0) in F1 hold the whole row {a} x K
            row = (1 << A.square.n) - 1
            return sum(1 << i for i, f in enumerate(A.ambient.facets) if f & row)

        cycle = admissibility("farber", build_complex(corpusgen.CYCLE3))
        path = admissibility("farber", build_complex([{"a", "b"}, {"b", "c"}]))
        for A in (cycle, path):
            self.assert_mask_form_agrees(A, [row_of_a(A)])
        # C3 is not strongly collapsible: the full row is refused with no class query
        monkeypatch.setattr(invariants, "same_contiguity_class", None)
        assert cycle.decide(row_of_a(cycle), DEFAULT_BUDGET, want_witness=False)[0] is Verdict.NO
        # a path is: the rule is skipped, and the row (a cone) is Farber
        assert path.decide(row_of_a(path), DEFAULT_BUDGET, want_witness=False)[0] is Verdict.YES

    def test_class_queries_are_memoised_by_core_within_one_call(self, monkeypatch):
        calls = []
        real = invariants.same_contiguity_class

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(invariants, "same_contiguity_class", counted)
        K = build_complex(corpusgen.CYCLE4)
        P = categorical_square(K)
        # facets 3, 4 and facets 0, 3, 4 of C4^2 collapse to one two-facet core
        first, second = 0b11000, 0b11001
        cores = [
            _greedy_collapse([f for i, f in enumerate(P.product.facets) if m >> i & 1])[1]
            for m in (first, second)
        ]
        assert set(cores[0]) == set(cores[1]) and len(cores[0]) == 2

        memo = {}
        assert is_farber(first, P, want_witness=False, memo=memo)[0] is Verdict.YES
        assert is_farber(second, P, want_witness=False, memo=memo)[0] is Verdict.YES
        assert len(calls) == 1
        assert is_farber(second, P, want_witness=False, memo={})[0] is Verdict.YES
        assert len(calls) == 2

        # each tc call starts from an empty memo and asks its own queries
        calls.clear()
        r = tc(K)
        per_call = len(calls)
        calls.clear()
        assert tc(K) == r
        assert len(calls) == per_call
        assert 0 < per_call < r.checks

    def test_classes_with_a_common_vertex_skip_the_collapse(self, monkeypatch):
        seen = []
        real = invariants._greedy_collapse

        def counted(facets):
            seen.append(list(facets))
            return real(facets)

        monkeypatch.setattr(invariants, "_greedy_collapse", counted)
        K = build_complex(corpusgen.CYCLE4)
        P = categorical_square(K)
        # the facets F_i x F_j of C4^2 holding the pair (0, 0): a cone on it
        cone = sum(1 << i for i, f in enumerate(P.product.facets) if f & 1)
        assert cone.bit_count() == 4
        assert is_farber(cone, P, want_witness=False)[0] is Verdict.YES
        star = sum(1 << i for i, f in enumerate(K.facets) if f & 1)
        assert is_categorical(star, K, want_witness=False)[0] is Verdict.YES
        assert seen == []
        # facets 3, 4 of C4^2 share no vertex and do reach the collapse
        assert is_farber(0b11000, P, want_witness=False)[0] is Verdict.YES
        assert len(seen) == 1
        # over whole searches, every class that reaches it has no common vertex
        seen.clear()
        for invariant, facets in (
            (tc, corpusgen.CYCLE4),
            (tc, corpusgen.BOUNDARY_TETRAHEDRON),
            (scat, corpusgen.TORUS7),
        ):
            invariant(build_complex(facets))
        assert len(seen) > 100
        for class_facets in seen:
            common = -1
            for m in class_facets:
                common &= m
            assert common == 0

    # Ids "<mask>" run verdict-only, "<mask>-witness" with a witness.
    BAD_MASKS = {
        "0": 0, "-3": -3, "True": True, "False": False, "512": 1 << 9, "513": (1 << 9) | 1,
        "1.0": 1.0, "bad7": frozenset({0}),
    }

    @pytest.mark.parametrize(
        "bad, want_witness",
        [pytest.param(bad, False, id=name) for name, bad in BAD_MASKS.items()]
        + [pytest.param(bad, True, id=f"{name}-witness") for name, bad in BAD_MASKS.items()],
    )
    def test_bad_facet_masks_rejected(self, bad, want_witness):
        K = build_complex(corpusgen.CYCLE3)
        with pytest.raises(InvalidInput):
            is_farber(bad, categorical_square(K), want_witness=want_witness)
        with pytest.raises(InvalidInput):
            is_categorical(bad, K, want_witness=want_witness)


class TestSandwichOnRandoms:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=10)
    def test_scat_le_tc_le_scat_square(self, rng):
        K = corpusgen.random_connected_complex(rng, max_vertices=4, max_facets=3)
        r_tc = tc(K)
        r_scat = scat(K)
        assert r_tc.status is Status.EXACT and r_scat.status is Status.EXACT
        assert r_scat.value <= r_tc.value
        P = categorical_square(K)
        r_sq = scat(P.product)
        if r_sq.status is Status.EXACT:
            assert r_tc.value <= r_sq.value


class TestPartitionSearch:
    """tc/scat search directly for a partition of the facets into admissible classes."""

    @staticmethod
    def family_check(maximal, undecided=frozenset()):
        """A hereditary family given by its maximal sets; sets in undecided answer UNKNOWN."""

        def check(mask):
            S = frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)
            if S in undecided:
                return Verdict.UNKNOWN
            return Verdict.YES if any(S <= M for M in maximal) else Verdict.NO

        return check

    @staticmethod
    def certify(mask, within):
        assert mask & ~within == 0  # the checked "yes" that vouches for the class holds it
        return frozenset(ids_from_mask(mask))

    @staticmethod
    def random_family(rng, n, most):
        sizes = [rng.randint(1, n) for _ in range(rng.randint(1, most))]
        return [frozenset(rng.sample(range(n), size)) for size in sizes]

    @staticmethod
    def covering(family, n):
        """family with the singleton of each facet it leaves out: every facet alone passes.

        _cover_invariant asks this of its check; tc and scat rule out the
        rest before the search (TestCoverability).
        """
        return family + [frozenset({i}) for i in range(n) if not any(i in S for S in family)]

    def test_matches_min_cover_on_random_families(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 7)
            maximal = self.covering(self.random_family(rng, n, 5), n)
            res = _cover_invariant(n, self.family_check(maximal), self.certify, _index_order(n))
            chosen = min_cover(n, maximal)
            assert res.maximal == () and res.unknown_sets == ()
            assert res.status is Status.EXACT
            assert res.value == res.lower_bound == res.upper_bound == len(chosen) - 1
            classes = list(res.cover)
            assert sorted(i for S in classes for i in S) == list(range(n))
            assert all(any(S <= M for M in maximal) for S in classes)

    def test_unknown_verdicts_give_sound_bounds(self):
        rng = random.Random(18)
        seen_open = 0
        for _ in range(200):
            n = rng.randint(2, 6)
            maximal = self.random_family(rng, n, 4) + [frozenset({i}) for i in range(n)]
            exact = len(min_cover(n, maximal)) - 1
            subsets = [
                frozenset(c) for r in range(2, n + 1) for c in itertools.combinations(range(n), r)
            ]
            undecided = frozenset(rng.sample(subsets, rng.randint(0, len(subsets) // 2)))
            res = _cover_invariant(
                n, self.family_check(maximal, undecided), self.certify, _index_order(n)
            )
            assert (res.status is Status.BUDGET_EXHAUSTED) == bool(res.unknown_sets)
            assert set(res.unknown_sets) <= undecided
            if res.status is Status.EXACT:
                assert res.value == exact
                continue
            seen_open += 1
            assert res.value is None
            assert res.lower_bound <= exact <= res.upper_bound  # singletons always pass
            assert len(res.cover) == res.upper_bound + 1
            assert all(any(S <= M for M in maximal) for S in res.cover)
        assert seen_open >= 50

    def test_thousands_of_facets_backtrack_without_recursion(self):
        def check(mask):  # facets 0 and 1 never share a class
            return Verdict.NO if mask & 3 == 3 else Verdict.YES

        res = _cover_invariant(3000, check, self.certify, _index_order(3000))
        assert res.status is Status.EXACT and res.value == 1
        assert res.checks == 3000  # full set, {0, 1}, then 2998 joins
        assert res.cover == (frozenset({0} | set(range(2, 3000))), frozenset({1}))

    def test_corpus_matches_the_enumerate_then_cover_pipeline(self):
        from simplicial_tc import emit_scat, emit_tc, verify_certificate

        for K in corpusgen.acceptance_corpus(corpusgen.ACCEPTANCE_SEED):
            for kind, invariant, emit in (
                ("farber", tc, emit_tc),
                ("categorical", scat, emit_scat),
            ):
                res = invariant(K)
                assert (res.status, res.value) == reference.reference_invariant(kind, K)
                assert _bounds(res) == _bounds(reference.index_order_invariant(kind, K))
                if kind == "farber":  # scat has no symmetries to prune by
                    assert res.cover == reference.unpruned_invariant(kind, K).cover
                ok, msgs = verify_certificate(emit(K, res, DEFAULT_BUDGET))
                assert ok, msgs

    def test_repeated_runs_are_identical(self):
        from simplicial_tc import dumps, emit_tc

        K = build_complex(corpusgen.CYCLE4)
        a, b = tc(K), tc(K)
        assert a.checks == b.checks
        assert dumps(emit_tc(K, a, DEFAULT_BUDGET)) == dumps(emit_tc(K, b, DEFAULT_BUDGET))


class TestCoverability:
    """tc and scat decide coverability from the kind's "no" rules, and `checks` counts the search.

    A facet alone is a simplex, so a cone: the checker answers it from those
    rules alone, and _admissible_cover asks them once per facet before the
    search, which never checks a one-facet class.
    """

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("a checker call decided coverability")

    @pytest.mark.parametrize(
        "facets",
        [[{"a", "b"}, {"c", "d"}], [{"a"}, {"b"}], [{"a", "b"}, {"b", "c"}, {"z"}]],
        ids=["two-edges", "two-points", "path-and-point"],
    )
    def test_a_facet_ruled_out_alone_is_not_coverable_with_no_check(self, facets):
        K = build_complex(facets)
        with mock.patch.object(invariants, "is_farber", self.refuse):
            res = tc(K, budget=1)
        assert (res.status, res.checks, res.unknown_sets) == (Status.NOT_COVERABLE, 0, ())
        assert res.value is res.lower_bound is res.upper_bound is res.cover is None
        assert scat(K).status is Status.EXACT  # each facet alone is categorical

    @pytest.mark.parametrize(
        "name, budget",
        [("C3", DEFAULT_BUDGET), ("C4", DEFAULT_BUDGET), ("C4", 1), ("C5", DEFAULT_BUDGET)]
        + [("boundary-tetrahedron", DEFAULT_BUDGET), ("torus", 1)],
    )
    def test_no_check_on_a_single_facet(self, monkeypatch, name, budget):
        K = build_complex(_NAMED[name])
        checked = []
        for checker in ("is_farber", "is_categorical"):
            real = getattr(invariants, checker)

            def wrapped(sub, *args, real=real, **kwargs):
                if not kwargs.get("want_witness", True):  # a check; certification asks for a witness
                    checked.append(sub)
                return real(sub, *args, **kwargs)

            monkeypatch.setattr(invariants, checker, wrapped)
        for invariant in (tc, scat) if name != "torus" else (scat,):
            checked.clear()
            res = invariant(K, budget=budget)
            assert res.status is not Status.NOT_COVERABLE
            assert len(checked) == res.checks > 0
            assert all(mask.bit_count() > 1 for mask in checked), (name, invariant)

    def test_checks_count_the_search_alone(self):
        """C4 and C16 need 184 and 292 checks; one per K^2 facet alone came on top before."""

        def cycle(n):
            return build_complex([(f"v{i}", f"v{(i + 1) % n}") for i in range(n)])

        assert [tc(cycle(n)).checks for n in (4, 16)] == [184, 292]


def _index_order(n):
    """A plan for _cover_invariant: index order, no symmetries."""
    return lambda: (range(n), ())


def _bounds(res):
    return res.status, res.value, res.lower_bound, res.upper_bound


def _relabelled_cycle(n, seed):
    rng = random.Random(seed)
    names = rng.sample(range(10**4), n)
    edges = [(f"v{names[i]}", f"v{names[(i + 1) % n]}") for i in range(n)]
    rng.shuffle(edges)
    return build_complex(edges)


class TestIndexOrderOracle:
    """The distance order and heredity change which masks are checked, not the answer.

    reference.index_order_cover is the search with facets in index order and
    every verdict from the checker.
    """

    @staticmethod
    def banded_check(yes_sets, maybe_sets):
        """YES inside a yes set, else UNKNOWN inside a maybe set, else NO.

        Both families are hereditary, so the verdicts are monotone: nothing
        inside a "yes" is undecided or "no", and nothing holding a "no" is
        undecided or "yes", and heredity answers what the check would.  (A
        real checker under a small budget can leave a subset of a "yes"
        undecided; TestPartitionSearch asks only for sound bounds there.)
        Singletons are decided, as one facet always is: it spans a simplex.
        """

        def check(mask):
            S = frozenset(ids_from_mask(mask))
            if any(S <= M for M in yes_sets):
                return Verdict.YES
            if any(S <= M for M in maybe_sets):
                return Verdict.YES if len(S) == 1 else Verdict.UNKNOWN
            return Verdict.NO

        return check

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_hereditary_families_with_undecided_sets(self, rng):
        n = rng.randint(1, 7)
        yes_sets = TestPartitionSearch.random_family(rng, n, 4)
        maybe_sets = TestPartitionSearch.random_family(rng, n, 4)
        maybe_sets += [frozenset({i}) for i in range(n)]  # every facet alone passes
        check = self.banded_check(yes_sets, maybe_sets)
        certify = TestPartitionSearch.certify
        expected = reference.index_order_cover(n, check)
        # In index order heredity only skips checker calls: the same masks
        # meet the same verdicts.
        res = _cover_invariant(n, check, certify, _index_order(n))
        assert _bounds(res) == _bounds(expected)
        assert res.unknown_sets == expected.unknown_sets
        assert res.checks <= expected.checks
        # Another order can meet other undecided masks, so only whether one
        # was met may change, and then both searches bracket one value.
        order = rng.sample(range(n), n)
        res = _cover_invariant(n, check, certify, lambda: (order, ()))
        if res.status is expected.status:
            assert _bounds(res) == _bounds(expected)
        else:
            assert res.lower_bound == res.upper_bound
            assert (expected.lower_bound, expected.upper_bound) == (res.lower_bound,) * 2
        assert sorted(i for S in res.cover for i in S) == list(range(n))
        assert all(check(mask_from_ids(S)) is Verdict.YES for S in res.cover)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_tiny_complexes(self, rng):
        from simplicial_tc import emit_scat, emit_tc, verify_certificate

        K = corpusgen.random_complex(rng, max_vertices=4, max_facets=4)
        for kind, invariant, emit in (("farber", tc, emit_tc), ("categorical", scat, emit_scat)):
            res = invariant(K)
            assert _bounds(res) == _bounds(reference.index_order_invariant(kind, K))
            if kind == "farber":
                assert res.cover == reference.unpruned_invariant(kind, K).cover
            ok, msgs = verify_certificate(emit(K, res, DEFAULT_BUDGET))
            assert ok, msgs

    def test_every_seed_one_workload_case(self):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "e2ebench"))
        try:
            import workloads
        finally:
            sys.path.pop(0)
        from simplicial_tc import parse_complex

        for name in workloads.WORKLOADS:
            for case in workloads.build(name, 1):
                K = parse_complex(case.text)
                runs = [("categorical", scat)] + [("farber", tc)] * case.run_tc
                for kind, invariant in runs:
                    expected = reference.index_order_invariant(kind, K)
                    res = invariant(K)
                    assert _bounds(res) == _bounds(expected), (name, case.name, kind)
                    if kind == "farber":
                        unpruned = reference.unpruned_invariant(kind, K)
                        assert res.cover == unpruned.cover, (name, case.name)

    def test_the_order_is_asked_for_only_from_k_two(self):
        asked = []

        def order(n):
            return lambda: asked.append(n) or (range(n), ())

        family_check = TestPartitionSearch.family_check
        certify = TestPartitionSearch.certify
        _cover_invariant(3, family_check([frozenset({0, 1, 2})]), certify, order(3))
        assert asked == []
        _cover_invariant(3, family_check([frozenset({0, 1}), frozenset({2})]), certify, order(3))
        assert asked == [3]

    def test_search_order_sorts_square_facets_by_distance_from_the_diagonal(self):
        from simplicial_tc.complexes import edge_path

        for K in (build_complex(corpusgen.BOUNDARY_TETRAHEDRON), _relabelled_cycle(6, seed=1)):
            A = admissibility("farber", K)
            n, r = K.n_vertices, len(K.facets)
            rank = invariants._walk_ranks(K.facets)

            def key(i):
                pairs = [divmod(q, n) for q in ids_from_mask(A.ambient.facets[i])]
                d = [len(edge_path(K, u, v)) - 1 for u, v in pairs]
                return min(d), sum(d), rank[i // r], rank[i % r]

            order = A.search_order()
            assert order == sorted(range(r * r), key=key)
            assert order[:r] == sorted((i * r + i for i in range(r)), key=key)  # the F x F first
            assert admissibility("categorical", K).search_order() == list(range(r))

    def test_walk_ranks_go_around_a_cycle_and_through_each_component(self):
        K = _relabelled_cycle(9, seed=2)
        rank = invariants._walk_ranks(K.facets)
        walk = sorted(range(9), key=rank.__getitem__)
        assert all(K.facets[a] & K.facets[b] for a, b in zip(walk, walk[1:] + walk[:1]))
        # two components, facets interleaved by index: each is walked in one piece
        assert invariants._walk_ranks([0b000011, 0b011000, 0b000110, 0b110000]) == [0, 2, 1, 3]

    @pytest.mark.parametrize(
        "facets, budget",
        [
            ([("a", "b", "d"), ("a", "b", "e"), ("c", "d"), ("c", "e")], DEFAULT_BUDGET),
            ([("a", "b"), ("a", "c", "d"), ("b", "c"), ("b", "d")], DEFAULT_BUDGET),
            ([("a", "b"), ("a", "c", "d"), ("b", "c"), ("b", "d")], 1),
        ],
    )
    def test_a_class_decided_by_heredity_certifies_by_restriction(
        self, monkeypatch, facets, budget
    ):
        """On these squares a cover class lies inside a checked "yes" and was never checked."""
        from simplicial_tc import emit_tc, verify_certificate

        restricted = []
        search = invariants._cover_invariant

        def spy(n_facets, check, certify, order):
            def spied(mask, within):
                restricted.append(mask != within)
                return certify(mask, within)

            return search(n_facets, check, spied, order)

        monkeypatch.setattr(invariants, "_cover_invariant", spy)
        K = build_complex(facets)
        res = tc(K, budget=budget)
        assert any(restricted)
        assert _bounds(res) == _bounds(reference.index_order_invariant("farber", K, budget))
        ok, msgs = verify_certificate(emit_tc(K, res, budget))
        assert ok, msgs

    def test_a_non_cone_class_in_a_checked_yes_gets_the_restricted_witness(self, monkeypatch):
        """The container route of certification, on the square of the 4-cycle.

        The four diagonal facets F x F form a Farber class with no common
        vertex, and so do three of them: certify(three, four) restricts the
        witness of the four to the three.
        """
        K = build_complex(corpusgen.CYCLE4)
        captured, restricted = [], []
        search, restrict_witness = invariants._cover_invariant, invariants.restrict_witness

        def spy(n_facets, check, certify, order):
            captured.append(certify)
            return search(n_facets, check, certify, order)

        def restricting(witness, sub):
            restricted.append(sub)
            return restrict_witness(witness, sub)

        monkeypatch.setattr(invariants, "_cover_invariant", spy)
        tc(K)
        A = admissibility("farber", K)
        r = len(K.facets)
        diagonal = [i * r + i for i in range(r)]
        four, three = mask_from_ids(diagonal), mask_from_ids(diagonal[:3])
        for mask in (four, three):
            assert invariants._apex([A.ambient.facets[i] for i in ids_from_mask(mask)]) < 0
        monkeypatch.setattr(invariants, "restrict_witness", restricting)
        adm = captured[0](three, four)
        assert restricted == [adm.omega]
        labels = A.ambient.facet_label_sets()
        assert adm.omega.facet_label_sets() == tuple(labels[i] for i in diagonal[:3])
        assert len(adm.witness) == 9
        start, end = A.endpoints(embedding_ids(adm.omega, A.ambient))  # pi1|omega, pi2|omega
        assert (adm.witness.first.assignment, adm.witness.last.assignment) == (start, end)
        cert = emit_membership("farber", K, adm.omega, Verdict.YES, adm, DEFAULT_BUDGET)
        assert verify_certificate(cert, recompute=True) == (True, ["certificate OK"])


def _rgs_words(n, k):
    """Every word of n classes below k, numbered by first appearance."""
    words = [()]
    for _ in range(n):
        words = [w + (c,) for w in words for c in range(min(max(w, default=-1) + 2, k))]
    return words


def _image_word(word, g, order):
    """The word, in placement order, of the partition g makes of word's partition."""
    cls = [0] * len(order)
    for t, i in enumerate(order):
        cls[g[i]] = word[t]  # facet order[t] moves to g(order[t])
    renumber = {}
    return tuple(renumber.setdefault(cls[i], len(renumber)) for i in order)


class TestSymmetryPruning:
    """Both passes visit only lex-leaders under the symmetries of the square."""

    def test_the_incremental_test_keeps_exactly_the_lex_leaders(self):
        rng = random.Random(29)
        for _ in range(150):
            n, k = rng.randint(1, 7), rng.randint(2, 3)
            order = rng.sample(range(n), n)
            symmetries = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 4))]
            lead = invariants._LexLeader(order, symmetries).reset(k)
            kept, word = [], []

            def walk(d):
                if d == n:
                    kept.append(tuple(word))
                    return
                for j in range(min(max(word, default=-1) + 2, k)):
                    if lead.place(d, j, word):
                        word.append(j)
                        walk(d + 1)
                        word.pop()
                        lead.undo(d)

            walk(0)
            leaders = [
                w for w in _rgs_words(n, k)
                if all(_image_word(w, g, order) >= w for g in symmetries)
            ]
            assert kept == leaders
            assert lead.compared == [0] * len(lead.sources)  # every placement taken back

    @pytest.mark.parametrize("name", ["C4", "boundary-tetrahedron"])
    def test_each_square_symmetry_keeps_is_farbers_verdict(self, name):
        from simplicial_tc.complexes import automorphisms

        K = build_complex(_NAMED[name])
        A = admissibility("farber", K)
        r = len(K.facets)
        symmetries = A.symmetries()
        assert tuple(b * r + a for a in range(r) for b in range(r)) in symmetries  # the swap
        assert len(set(symmetries)) == len(symmetries) == 2 * len(automorphisms(K, 1000))
        assert admissibility("categorical", K).symmetries() == []
        rng = random.Random(31)
        seen = set()
        for _ in range(12):
            mask = mask_from_ids(rng.sample(range(r * r), rng.randint(1, 6)))
            verdict = is_farber(mask, A.square, want_witness=False)[0]
            seen.add(verdict)
            for g in symmetries:
                image = mask_from_ids(g[i] for i in ids_from_mask(mask))
                assert is_farber(image, A.square, want_witness=False)[0] is verdict
        assert seen == {Verdict.YES, Verdict.NO}

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_symmetric_families_give_the_unpruned_result(self, rng):
        """Any subset of a family's symmetry group keeps the bounds, and the cover when exact."""
        n = rng.randint(1, 7)
        generators = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 2))]
        group = {tuple(range(n))}
        while more := {tuple(a[i] for i in g) for g in group for a in generators} - group:
            group |= more

        def orbits(family):
            return {frozenset(g[i] for i in S) for S in family for g in group}

        yes_sets = orbits(TestPartitionSearch.random_family(rng, n, 3))
        singletons = [frozenset({i}) for i in range(n)]  # every facet alone passes
        maybe_sets = orbits(TestPartitionSearch.random_family(rng, n, 3) + singletons)
        check = TestIndexOrderOracle.banded_check(yes_sets, maybe_sets)
        certify = TestPartitionSearch.certify
        order = rng.sample(range(n), n)
        subset = rng.sample(sorted(group), rng.randint(0, len(group)))
        res = _cover_invariant(n, check, certify, lambda: (order, subset))
        expected = reference.unpruned_cover(n, check, certify, lambda: order)
        if res.status is expected.status:
            assert _bounds(res) == _bounds(expected)
            if res.status is Status.EXACT:
                assert res.cover == expected.cover
        else:  # the pruned search met no undecided class; both bracket its value
            assert {res.status, expected.status} == {Status.EXACT, Status.BUDGET_EXHAUSTED}
            exact = res if res.status is Status.EXACT else expected
            assert (res.lower_bound, res.upper_bound) == (exact.value,) * 2
            assert (expected.lower_bound, expected.upper_bound) == (exact.value,) * 2

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_random_small_budgets_bracket_the_exact_value(self, rng):
        """Tiny complexes, or C3, C4 or the boundary relabelled, maybe with a whisker.

        Tiny complexes rarely need a class search that a budget cuts; the
        squares of the others often do.
        """
        from simplicial_tc import emit_tc, verify_certificate

        if rng.random() < 0.5:
            K = corpusgen.random_complex(rng, max_vertices=5, max_facets=4)
        else:
            facets = [list(f) for f in _NAMED[rng.choice(["C3", "C4", "boundary-tetrahedron"])]]
            labels = sorted({v for f in facets for v in f})
            if rng.random() < 0.5:
                facets.append([rng.choice(labels), "w"])
                labels.append("w")
            names = dict(zip(labels, rng.sample("pqrstuvxyz", len(labels))))
            K = build_complex([[names[v] for v in f] for f in facets])
        budget = rng.randint(1, 8)
        exact, res = tc(K), tc(K, budget=budget)
        assert exact.status is not Status.BUDGET_EXHAUSTED
        if exact.status is Status.NOT_COVERABLE:
            assert res.status is Status.NOT_COVERABLE
        else:
            assert res.lower_bound <= exact.value <= res.upper_bound
        ok, msgs = verify_certificate(emit_tc(K, res, budget))
        assert ok, msgs

    def test_small_budgets_give_the_unpruned_bounds(self):
        """Budget-limited verdicts need not be symmetric; on these squares the bounds agree."""
        named = [build_complex(_NAMED[name]) for name in ("C3", "C4", "boundary-tetrahedron")]
        corpus = corpusgen.acceptance_corpus(corpusgen.ACCEPTANCE_SEED)
        runs = [(K, budget) for K in named for budget in range(1, 9)]
        largest = sorted(corpus, key=lambda K: -len(K.facets))[:10]
        runs += [(K, budget) for K in largest for budget in (1, 2, 4, 8)]
        exhausted = 0
        for K, budget in runs:
            res = tc(K, budget=budget)
            expected = reference.unpruned_invariant("farber", K, budget)
            exhausted += res.status is Status.BUDGET_EXHAUSTED
            if res.status is expected.status:
                assert _bounds(res) == _bounds(expected), (K.facets, budget)
            else:  # one search met no undecided class; both bracket its value
                assert {res.status, expected.status} == {Status.EXACT, Status.BUDGET_EXHAUSTED}
                value = (res if res.status is Status.EXACT else expected).value
                assert (res.lower_bound, res.upper_bound) == (value, value)
                assert (expected.lower_bound, expected.upper_bound) == (value, value)
        assert exhausted > 8  # C4 at every budget, and corpus complexes too

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_the_strict_pass_ends_at_the_singletons(self, rng):
        """The all-singleton word 0, 1, ..., n - 1 is its own image, so no permutation cuts it.

        The check looks only at a class's size, so every permutation keeps it.
        """
        n = rng.randint(2, 8)

        def check(mask):
            return Verdict.YES if mask.bit_count() == 1 else Verdict.UNKNOWN

        order = rng.sample(range(n), n)
        symmetries = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 6))]
        res = _cover_invariant(n, check, TestPartitionSearch.certify, lambda: (order, symmetries))
        assert (res.status, res.lower_bound, res.upper_bound) == (Status.BUDGET_EXHAUSTED, 0, n - 1)
        assert sorted(res.cover, key=min) == [frozenset({i}) for i in range(n)]

    @pytest.mark.parametrize("name, most", [("C4", 250), ("boundary-tetrahedron", 100)])
    def test_pruning_cuts_the_checks_of_the_square_refutations(self, name, most):
        K = build_complex(_NAMED[name])
        assert tc(K).checks <= most < reference.unpruned_invariant("farber", K).checks


class TestFiveCycle:
    def test_tc_and_scat_of_c5_are_one(self):
        """The discrete value drops under subdivision: C3 and C4 give TC = 2."""
        import time

        from simplicial_tc import emit_tc, verify_certificate

        K = build_complex([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")])
        t0 = time.monotonic()
        res = tc(K)
        assert res.status is Status.EXACT and res.value == 1
        assert len(res.cover) == 2
        ok, msgs = verify_certificate(emit_tc(K, res, DEFAULT_BUDGET))
        assert ok, msgs
        assert time.monotonic() - t0 < 60.0
        r_scat = scat(K)
        assert r_scat.status is Status.EXACT and r_scat.value == 1

    @pytest.mark.parametrize("n", [8, 10])
    def test_tc_of_longer_cycles_is_one(self, n):
        """C8 and C10 under a seeded relabelling: the distance order reaches a cover at once."""
        import time

        from simplicial_tc import emit_tc, verify_certificate

        K = _relabelled_cycle(n, seed=n)
        t0 = time.monotonic()
        res = tc(K)
        assert res.status is Status.EXACT and res.value == 1
        ok, msgs = verify_certificate(emit_tc(K, res, DEFAULT_BUDGET))
        assert ok, msgs
        assert time.monotonic() - t0 < 60.0


_NAMED = {
    "C3": corpusgen.CYCLE3,
    "C4": corpusgen.CYCLE4,
    "boundary-tetrahedron": corpusgen.BOUNDARY_TETRAHEDRON,
    "C5": corpusgen.CYCLE5,
    "torus": corpusgen.TORUS7,
    "RP2": corpusgen.RP2_6,
}
_C3 = build_complex(corpusgen.CYCLE3)
_P3 = categorical_square(_C3)
# Each call is decided without a BFS (equal maps, a cone class, a full-slice
# class, a split component) or reaches one only through class_constant_witness.
_BUDGET_ENTRY_POINTS = {
    "farber-cone-check": lambda b: is_farber(1, _P3, b, want_witness=False),
    "farber-cone-certify": lambda b: is_farber(1, _P3, b),
    "farber-full-slice": lambda b: is_farber(_P3.product, _P3, b),
    "equal-maps": lambda b: same_contiguity_class(identity_map(_C3), identity_map(_C3), b),
    "categorical-edge": lambda b: is_categorical(1, _C3, b),
    "categorical-split": lambda b: is_categorical(3, build_complex([{"a"}, {"b"}]), b),
    "constant-class": lambda b: class_constant_witness(identity_map(_C3), b),
}


class TestBudgetBounds:
    @pytest.mark.parametrize("budget", [0, -1, True, 2.5, "8"])
    def test_budget_must_be_a_positive_int(self, budget):
        # a simplex needs no class search, so the check must come first
        simplex = build_complex([{"a", "b", "c"}])
        for invariant in (tc, scat):
            with pytest.raises(InvalidInput, match="budget must be a positive integer"):
                invariant(simplex, budget=budget)

    @pytest.mark.parametrize("budget", [0, -1, True, 1.5, "8"])
    @pytest.mark.parametrize("entry", sorted(_BUDGET_ENTRY_POINTS))
    def test_entry_points_check_the_budget(self, entry, budget):
        with pytest.raises(InvalidInput, match="budget must be a positive integer"):
            _BUDGET_ENTRY_POINTS[entry](budget)

    def test_small_budgets_bracket_the_exact_value(self):
        """Every budget gives lower <= exact <= upper and a certificate that verifies."""
        from simplicial_tc import emit_scat, emit_tc, verify_certificate

        corpus = corpusgen.acceptance_corpus(corpusgen.ACCEPTANCE_SEED)
        runs = [(K, tc, emit_tc) for K in random.Random(19).sample(corpus, 20)]
        runs += [(K, scat, emit_scat) for K, _, _ in runs]
        # this square needs real class searches and has H^1 = 0, so the homology
        # rule cannot decide them and small budgets leave some undecided
        square = categorical_square(build_complex(corpusgen.BOUNDARY_TETRAHEDRON)).product
        runs.append((square, scat, emit_scat))
        degraded = 0
        for K, invariant, emit in runs:
            exact = invariant(K)
            for budget in (1, 2, 4, 8, 32):
                res = invariant(K, budget=budget)
                assert (res.status is Status.BUDGET_EXHAUSTED) == bool(res.unknown_sets)
                if res.status is Status.BUDGET_EXHAUSTED:
                    degraded += 1
                    assert res.value is None
                    assert res.lower_bound <= exact.value
                    if res.upper_bound is not None:
                        assert exact.value <= res.upper_bound
                else:
                    assert (res.status, res.value) == (exact.status, exact.value)
                ok, msgs = verify_certificate(emit(K, res, budget))
                assert ok, (budget, msgs)
        assert degraded

    @pytest.mark.parametrize(
        "kind, name",
        [
            (kind, name)
            for name in ("C3", "C4", "boundary-tetrahedron", "C5")
            for kind in ("tc", "scat")
        ]
        + [("scat", "torus"), ("scat", "RP2")],
    )
    def test_budgets_one_to_eight_certify_every_class(self, kind, name):
        """A "yes" that came from heredity never met the checker; it certifies all the same."""
        K = build_complex(_NAMED[name])
        invariant = tc if kind == "tc" else scat
        exact = invariant(K)
        for budget in range(1, 9):
            res = invariant(K, budget=budget)
            _assert_bracket_and_certificate(kind, K, res, budget, exact.value)

    def test_small_budget_search_on_c5_stays_below_the_index_order_search(self):
        """At budget 1 the index-order search made 60,693 checks.

        Heredity and the distance order cut that to 22,178 while the strict
        pass still visited every partition; with lex-leaders in both passes
        it is 1,745.
        """
        K = build_complex(corpusgen.CYCLE5)
        res = tc(K, budget=1)
        assert (res.status, res.lower_bound, res.upper_bound) == (Status.BUDGET_EXHAUSTED, 1, 2)
        assert res.checks < 2_500
        _assert_bracket_and_certificate("tc", K, res, 1, 1)


def _assert_bracket_and_certificate(kind, K, res, budget, exact_value):
    from simplicial_tc import emit_scat, emit_tc, verify_certificate

    assert res.lower_bound <= exact_value <= res.upper_bound
    ok, msgs = verify_certificate((emit_tc if kind == "tc" else emit_scat)(K, res, budget))
    assert ok, (budget, msgs)


class TestHomologyRule:
    """The H_1(-; F2) rule says "differ" only where the plain class query says "no".

    Contiguous maps induce one map on H^1(K; F2), so a cycle whose two images
    pair differently with a cocycle of K proves "no" without a BFS.  The rule
    runs on the greedy core of a class; it is checked here on the class and
    on its core against class_constant_witness of the inclusion (categorical)
    or same_contiguity_class of the two restricted projections (Farber), both
    at the default budget, so a "no" from them is an exhausted search.
    """

    @staticmethod
    def categorical(K, mask):
        """(rule on the class, rule on its core, the class query's verdict) for a facet mask of K."""
        facets = [K.facets[i] for i in ids_from_mask(mask)]
        core_facets = _greedy_collapse(facets)[1]
        sub = corpusgen.facet_subcomplex(K, mask)
        rule = [
            invariants._differs_on_homology(f, K.cocycles, lambda v: (v, 0)) for f in (facets, core_facets)
        ]
        return rule, class_constant_witness(inclusion_map(sub, K)).verdict

    @staticmethod
    def farber(P, mask):
        """The same for a facet mask of K^2: the two projections, restricted."""
        facets = [P.product.facets[i] for i in ids_from_mask(mask)]
        core_facets = _greedy_collapse(facets)[1]
        omega = corpusgen.facet_subcomplex(P.product, mask)
        rule = [
            invariants._differs_on_homology(f, P.base.cocycles, P.unpair) for f in (facets, core_facets)
        ]
        p1, p2 = (restrict(projection(P, i), omega) for i in (1, 2))
        return rule, same_contiguity_class(p1, p2).verdict

    @staticmethod
    def assert_sound(runs):
        """No "differ" on a class the query does not exhaust as "no"; returns how often the rule fired."""
        fired = 0
        for (on_class, on_core), verdict in runs:
            assert on_class == on_core  # the core is a deformation retract: same cycles up to homology
            if on_class:
                assert verdict is Verdict.NO
                fired += 1
        return fired

    @staticmethod
    def tiny(rng, max_vertices, cycle):
        """A random tiny complex; with cycle, a cycle on the first vertices and up to 3 random simplices."""
        if not cycle:
            return corpusgen.random_complex(rng, max_vertices=max_vertices, max_facets=6)
        n = rng.randint(3, max_vertices)
        labels = corpusgen.LABELS[:n]
        k = rng.randint(3, n)
        facets = [(labels[i], labels[(i + 1) % k]) for i in range(k)]
        for _ in range(rng.randint(0, 3)):
            facets.append(rng.sample(labels, rng.randint(1, min(3, n))))
        return build_complex(facets)

    @given(st.randoms(use_true_random=False), st.booleans(), st.data())
    def test_tiny_complexes_categorical(self, rng, cycle, data):
        K = self.tiny(rng, 6, cycle)
        masks = data.draw(st.lists(st.integers(1, (1 << len(K.facets)) - 1), min_size=1, max_size=8))
        self.assert_sound(self.categorical(K, m) for m in masks)

    @given(st.randoms(use_true_random=False), st.booleans(), st.data())
    def test_tiny_squares_farber(self, rng, cycle, data):
        P = categorical_square(self.tiny(rng, 4, cycle))
        full = (1 << len(P.product.facets)) - 1
        masks = data.draw(st.lists(st.integers(1, full), min_size=1, max_size=8))
        self.assert_sound(self.farber(P, m) for m in masks)

    def test_cycle_squares_fire_and_stay_sound(self):
        for facets in (corpusgen.CYCLE3, corpusgen.CYCLE4):
            P = categorical_square(build_complex(facets))
            n = len(P.product.facets)
            masks = range(1, 1 << n) if n == 9 else corpusgen.random_facet_masks(n, 300, seed=31)
            assert self.assert_sound(self.farber(P, m) for m in masks)

    @pytest.mark.parametrize("name", ["torus", "RP2"])
    def test_surfaces_fire_and_stay_sound(self, name):
        K = build_complex(_NAMED[name])
        masks = corpusgen.random_facet_masks(len(K.facets), 200, seed=32)
        assert self.assert_sound(self.categorical(K, m) for m in masks)
        P = categorical_square(K)
        rng = random.Random(33)
        small = [sum(1 << i for i in rng.sample(range(len(P.product.facets)), 3)) for _ in range(60)]
        self.assert_sound(self.farber(P, m) for m in small)

    def test_silent_where_the_cycle_bounds(self):
        full = build_complex([{"a", "b", "c"}])
        hollow = [full.simplex_mask(e) for e in ({"a", "b"}, {"b", "c"}, {"a", "c"})]
        assert not invariants._differs_on_homology(hollow, full.cocycles, lambda v: (v, 0))
        tetra = build_complex(corpusgen.BOUNDARY_TETRAHEDRON)
        equator = [tetra.simplex_mask(e) for e in ({"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "d"})]
        assert not invariants._differs_on_homology(equator, tetra.cocycles, lambda v: (v, 0))
        # the link of a vertex of the torus is a hexagon that bounds its star
        torus = build_complex(corpusgen.TORUS7)
        assert len(torus.cocycles) == 2
        star = [m for m in torus.facets if m & 1]
        link = [m & ~1 for m in star]
        assert not invariants._differs_on_homology(link, torus.cocycles, lambda v: (v, 0))
        link_sub = subcomplex(torus, link)
        assert class_constant_witness(inclusion_map(link_sub, torus)).verdict is Verdict.YES

    @pytest.mark.parametrize(
        "facets",
        [corpusgen.BOUNDARY_TETRAHEDRON, [(a, b, "x") for a, b in corpusgen.CYCLE4], [("a", "b", "c")]],
        ids=["boundary-tetrahedron", "cone-C4", "triangle"],
    )
    def test_silent_on_every_class_when_h1_vanishes(self, facets):
        K = build_complex(facets)
        assert K.cocycles == ()
        P = categorical_square(K)
        for mask in range(1, 1 << len(K.facets)):
            facet_masks = [K.facets[i] for i in ids_from_mask(mask)]
            assert not invariants._differs_on_homology(facet_masks, K.cocycles, lambda v: (v, 0))
        for mask in corpusgen.random_facet_masks(len(P.product.facets), 100, seed=34):
            facet_masks = [P.product.facets[i] for i in ids_from_mask(mask)]
            assert not invariants._differs_on_homology(facet_masks, K.cocycles, P.unpair)

    def test_fires_on_a_hollow_triangle_and_a_torus_meridian(self):
        C3 = build_complex(corpusgen.CYCLE3)
        assert invariants._differs_on_homology(list(C3.facets), C3.cocycles, lambda v: (v, 0))
        assert is_categorical(C3, C3)[0] is Verdict.NO
        torus = build_complex(corpusgen.TORUS7)
        meridian = [torus.simplex_mask({str(i), str((i + 1) % 7)}) for i in range(7)]
        assert invariants._differs_on_homology(meridian, torus.cocycles, lambda v: (v, 0))
        inclusion = inclusion_map(subcomplex(torus, meridian), torus)
        assert class_constant_witness(inclusion).verdict is Verdict.NO

    # maps._bfs calls and checks of one call; without the rule the BFS ran 23, 11 and 25 times.
    # The checks were 108, 68 and 200 while the search first checked each facet alone.
    ROUTES = [("scat", "torus", 1, 94), ("scat", "RP2", 0, 58), ("tc", "C4", 19, 184)]

    @pytest.mark.parametrize(
        "kind, name, bfs_calls, checks", ROUTES, ids=[f"{kind}-{name}" for kind, name, *_ in ROUTES]
    )
    def test_bfs_calls_pinned(self, monkeypatch, kind, name, bfs_calls, checks):
        from simplicial_tc import maps

        calls = []
        real = maps._bfs

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(maps, "_bfs", counting)
        res = (tc if kind == "tc" else scat)(build_complex(_NAMED[name]))
        assert res.status is Status.EXACT
        assert (len(calls), res.checks) == (bfs_calls, checks)


class TestConeWitness:
    """A class whose facets share a vertex w is certified through constants at the images of w.

    Each map f on a cone is contiguous to the constant at f(w), so the
    witness runs A's start map, the constant at fa, the constants along an
    edge path to ga and A's end map, where (fa, ga) = A.images(w), with no
    class query.  reference.class_query is the class-query route such a
    class took before, kept as the oracle.
    """

    @staticmethod
    def no_class_query():
        def refuse(*args, **kwargs):
            raise AssertionError("a cone class ran a class query")

        return mock.patch.multiple(
            invariants, same_contiguity_class=refuse, class_constant_witness=refuse
        )

    @staticmethod
    def certificate_ok(A, K, adm):
        cert = emit_membership(A.kind, K, adm.omega, Verdict.YES, adm, DEFAULT_BUDGET)
        return verify_certificate(cert, recompute=True) == (True, ["certificate OK"])

    @staticmethod
    def joins_endpoints(A, witness):
        start, end = A.endpoints(embedding_ids(witness.first.domain, A.ambient))
        last = witness.last
        return witness.first.assignment == start and (
            last.is_constant if end is None else last.assignment == end
        )

    @given(st.randoms(use_true_random=False), st.booleans())
    def test_tiny_cones_verify_and_agree_with_the_class_query(self, rng, farber):
        K = corpusgen.random_complex(rng, max_vertices=5 if farber else 6, max_facets=4)
        A = admissibility("farber" if farber else "categorical", K)
        facets = A.ambient.facets
        split = A.square.split_pairs if farber else 0  # split pairs fail the component rule
        w = rng.choice([v for v in range(A.ambient.n_vertices) if not split >> v & 1])
        star = [i for i, m in enumerate(facets) if m >> w & 1]
        mask = sum(1 << i for i in rng.sample(star, rng.randint(1, len(star))))
        with self.no_class_query():
            verdict, adm = A.decide(mask, DEFAULT_BUDGET)
        assert verdict is Verdict.YES
        assert self.joins_endpoints(A, adm.witness)
        fa, ga = A.images(invariants._apex([facets[i] for i in ids_from_mask(mask)]))
        farthest = len(edge_path(K, fa, ga)) + 2 if farber else 2
        assert len(adm.witness) <= farthest
        assert self.certificate_ok(A, K, adm)
        sub, oracle = reference.class_query(A, mask)
        assert sub == adm.omega
        assert oracle.verdict is Verdict.YES
        assert self.joins_endpoints(A, oracle.witness)
        assert self.certificate_ok(A, K, AdmissibleSet(A.kind, sub, oracle.witness))

    # A 4-cycle through two triangles: tc certifies a cone class here whose
    # "yes" came from heredity, inside a checked class that is no cone.
    THICK_CYCLE = [("a", "c", "d"), ("a", "c", "e"), ("b", "d"), ("b", "e")]

    @pytest.mark.parametrize("kind", ["farber", "categorical"])
    def test_cover_cones_certified_from_their_own_apex(self, kind):
        # a class whose "yes" came from heredity gets the cone witness too, not a restricted one
        cones = 0
        corpus = corpusgen.acceptance_corpus(corpusgen.ACCEPTANCE_SEED)[:20]
        for K in [build_complex(self.THICK_CYCLE), *corpus]:
            A = admissibility(kind, K)
            for entry in (tc if kind == "farber" else scat)(K).cover or ():
                if invariants._apex(entry.omega.facets) < 0:
                    continue
                cones += 1
                with self.no_class_query():
                    assert entry.witness == A.decide(entry.omega, DEFAULT_BUDGET)[1].witness
        assert cones
