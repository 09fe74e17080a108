import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from simplicial_tc import (
    InvalidInput,
    Status,
    Verdict,
    build_complex,
    categorical_square,
    diagonal,
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
    compose,
)
from simplicial_tc import invariants
from simplicial_tc.collapse import _greedy_collapse, core
from simplicial_tc.invariants import AdmissibleSet, _cover_invariant, admissibility
from simplicial_tc.maps import DEFAULT_BUDGET

import corpusgen
import oracles
import reference


def boundary():
    return build_complex([{"a", "b"}, {"b", "c"}, {"a", "c"}])


def diagonal_subcomplex(P):
    d = diagonal(P)
    masks = [d.image_mask(m) for m in P.base.facets]
    return subcomplex(P.product, masks)


class TestIsFarber:
    def test_diagonal_subcomplex_is_farber(self, boundary_triangle):
        P = categorical_square(boundary_triangle)
        verdict, adm = is_farber(diagonal_subcomplex(P), P)
        assert verdict is Verdict.YES
        assert adm.section is not None

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
        """The stored witness must chain diagonal∘section to the inclusion."""
        P = categorical_square(boundary_triangle)
        omega = subcomplex(P.product, [P.product.facets[0], P.product.facets[1]])
        verdict, adm = is_farber(omega, P)
        assert verdict is Verdict.YES
        d = diagonal(P)
        first = adm.witness.first
        assert first == compose(d, adm.section)
        assert adm.witness.last == inclusion_map(omega, P.product)


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
        from simplicial_tc import restrict

        restricted = restrict_witness(adm.witness, smaller)
        assert restricted.first == compose(diagonal(P), restrict(adm.section, smaller))
        assert restricted.last == inclusion_map(smaller, P.product)

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

    def test_unknown_propagates_as_incomplete(self, boundary_triangle):
        # scat of the square needs real class searches, so a one-state budget
        # leaves subsets undecided and the result degrades honestly
        P = categorical_square(boundary_triangle)
        res = scat(P.product, budget=1)
        assert res.status is Status.BUDGET_EXHAUSTED
        assert res.unknown_sets
        exact = scat(P.product)
        assert exact.status is Status.EXACT
        assert res.lower_bound <= exact.value
        if res.upper_bound is not None:
            assert exact.value <= res.upper_bound


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
            assert adm.witness.last == inclusion_map(adm.omega, P.product)


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
        assert plan.section_point == 0
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

    @pytest.mark.parametrize("bad", [0, -3, True, False, 1 << 9, (1 << 9) | 1, 1.0, frozenset({0})])
    def test_bad_facet_masks_rejected(self, bad):
        K = build_complex(corpusgen.CYCLE3)
        with pytest.raises(InvalidInput):
            is_farber(bad, categorical_square(K), want_witness=False)
        with pytest.raises(InvalidInput):
            is_categorical(bad, K)


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
    def certify(mask):
        return AdmissibleSet("categorical", None, None)

    @staticmethod
    def random_family(rng, n, most):
        sizes = [rng.randint(1, n) for _ in range(rng.randint(1, most))]
        return [frozenset(rng.sample(range(n), size)) for size in sizes]

    def test_matches_min_cover_on_random_families(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 7)
            maximal = self.random_family(rng, n, 5)
            res = _cover_invariant(n, self.family_check(maximal), self.certify)
            chosen = min_cover(n, maximal)
            assert res.maximal == () and res.unknown_sets == ()
            if chosen is None:
                assert res.status is Status.NOT_COVERABLE and res.cover is None
                continue
            assert res.status is Status.EXACT
            assert res.value == res.lower_bound == res.upper_bound == len(chosen) - 1
            classes = [adm.facet_indices for adm in res.cover]
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
            res = _cover_invariant(n, self.family_check(maximal, undecided), self.certify)
            assert (res.status is Status.BUDGET_EXHAUSTED) == bool(res.unknown_sets)
            assert set(res.unknown_sets) <= undecided
            if res.status is Status.EXACT:
                assert res.value == exact
                continue
            seen_open += 1
            assert res.value is None
            assert res.lower_bound <= exact <= res.upper_bound  # singletons always pass
            assert len(res.cover) == res.upper_bound + 1
            assert all(any(adm.facet_indices <= M for M in maximal) for adm in res.cover)
        assert seen_open >= 50

    def test_singleton_no_is_not_coverable(self):
        maximal = [frozenset({0, 1}), frozenset({1, 2})]  # facet 3 lies in no set
        res = _cover_invariant(4, self.family_check(maximal), self.certify)
        assert res.status is Status.NOT_COVERABLE
        assert res.value is None and res.lower_bound is None and res.cover is None

    def test_corpus_matches_the_enumerate_then_cover_pipeline(self):
        from simplicial_tc import emit_scat, emit_tc, verify_certificate

        for K in corpusgen.acceptance_corpus(corpusgen.ACCEPTANCE_SEED):
            for kind, invariant, emit in (
                ("farber", tc, emit_tc),
                ("categorical", scat, emit_scat),
            ):
                res = invariant(K)
                assert (res.status, res.value) == reference.reference_invariant(kind, K)
                ok, msgs = verify_certificate(emit(K, res, DEFAULT_BUDGET))
                assert ok, msgs

    def test_repeated_runs_are_identical(self):
        from simplicial_tc import dumps, emit_tc

        K = build_complex(corpusgen.CYCLE4)
        a, b = tc(K), tc(K)
        assert a.checks == b.checks
        assert dumps(emit_tc(K, a, DEFAULT_BUDGET)) == dumps(emit_tc(K, b, DEFAULT_BUDGET))


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


class TestBudgetBounds:
    @pytest.mark.parametrize("budget", [0, -1, True, 2.5, "8"])
    def test_budget_must_be_a_positive_int(self, budget):
        # a simplex needs no class search, so the check must come first
        simplex = build_complex([{"a", "b", "c"}])
        for invariant in (tc, scat):
            with pytest.raises(InvalidInput, match="budget must be a positive integer"):
                invariant(simplex, budget=budget)

    def test_small_budgets_bracket_the_exact_value(self):
        """Every budget gives lower <= exact <= upper and a certificate that verifies."""
        from simplicial_tc import emit_scat, emit_tc, verify_certificate

        corpus = corpusgen.acceptance_corpus(corpusgen.ACCEPTANCE_SEED)
        runs = [(K, tc, emit_tc) for K in random.Random(19).sample(corpus, 20)]
        runs += [(K, scat, emit_scat) for K, _, _ in runs]
        # the square needs real class searches, so small budgets leave some undecided
        runs.append((categorical_square(boundary()).product, scat, emit_scat))
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
