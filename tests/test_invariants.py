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
    min_cover,
    motion_plan,
    restrict_witness,
    same_contiguity_class,
    scat,
    subcomplex,
    tc,
    validate_motion_plan,
    compose,
)
from simplicial_tc.collapse import core_complex

import corpusgen
import oracles


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
        from simplicial_tc.invariants import _projection_restriction

        for i in (1, 2):
            pi = _projection_restriction(omega, P, i)
            r = same_contiguity_class(compose(d, pi), incl)
            assert (r.verdict is Verdict.YES) == (cond2 is Verdict.YES)


class TestMaximalAdmissibleSets:
    def test_full_simplex_single_maximal(self, full_triangle):
        P = categorical_square(full_triangle)
        res = tc(full_triangle)
        assert res.maximal == (frozenset(range(len(P.product.facets))),)

    def test_boundary_farber_sets_avoid_full_slices(self, boundary_triangle):
        res = tc(boundary_triangle)
        K = boundary_triangle
        nf = len(K.facets)
        for S in res.maximal:
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
        res = scat(boundary_triangle)
        assert sorted(tuple(sorted(S)) for S in res.maximal) == [
            (0, 1),
            (0, 2),
            (1, 2),
        ]

    def test_seeded_slice_patterns_really_fail(self, boundary_triangle):
        """Every pre-seeded failing pattern must agree with the checker."""
        from simplicial_tc.invariants import _slice_failure_patterns

        K = boundary_triangle
        P = categorical_square(K)
        patterns = _slice_failure_patterns(K)
        assert patterns
        for S in patterns[:12]:
            omega = subcomplex(P.product, [P.product.facets[i] for i in sorted(S)])
            verdict, _ = is_farber(omega, P)
            assert verdict is Verdict.NO

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


class TestBackendDeterminism:
    def test_certificates_identical_across_kernels(self, boundary_triangle, monkeypatch):
        """Pure and compiled kernels must produce byte-identical certificates."""
        import simplicial_tc._kernels as kernels
        from simplicial_tc import dumps, emit_tc
        from simplicial_tc.maps import DEFAULT_BUDGET, _class_query

        if "fast" not in kernels.available_backends():
            pytest.skip("compiled kernel not built")

        outputs = {}
        for backend in ("fast", "pure"):
            monkeypatch.setenv("SIMPLICIAL_TC_KERNEL", backend)
            _class_query.cache_clear()  # cached search spaces pin their backend
            res = tc(boundary_triangle)
            outputs[backend] = dumps(emit_tc(boundary_triangle, res, DEFAULT_BUDGET))
        _class_query.cache_clear()
        assert outputs["fast"] == outputs["pure"]


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
            yes_on_proper_core += full is Verdict.YES and core_complex(sub).n_vertices > 1
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
