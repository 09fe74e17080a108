"""Acceptance suite: one test per criterion, plus one on the corpus's cover
witnesses, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  The random corpora are seeded, so every run checks the same
instances.
"""

import itertools
import random
import time

import pytest

from simplicial_tc import (
    Status,
    Verdict,
    add_cone_facet,
    build_complex,
    categorical_square,
    compose,
    core,
    diagonal,
    dumps,
    emit_core,
    emit_membership,
    emit_plan,
    emit_scat,
    emit_tc,
    inclusion_map,
    is_categorical,
    is_edge_path_connected,
    is_farber,
    is_strongly_collapsible,
    motion_plan,
    same_contiguity_class,
    scat,
    subcomplex,
    tc,
    validate_map,
    verify_certificate,
)
from simplicial_tc.errors import NotSimplicial
from simplicial_tc.maps import DEFAULT_BUDGET

import corpusgen
import oracles
import reference

SEED = corpusgen.ACCEPTANCE_SEED


def boundary():
    return build_complex([{"a", "b"}, {"b", "c"}, {"a", "c"}])


@pytest.fixture(scope="module")
def corpus_results():
    instances = corpusgen.acceptance_corpus(SEED)
    t0 = time.monotonic()
    results = [(K, tc(K), scat(K)) for K in instances]
    return results, time.monotonic() - t0


class TestCriterion1:
    def test_tc_of_boundary_triangle(self):
        K = boundary()
        t0 = time.monotonic()
        res = tc(K)
        elapsed = time.monotonic() - t0
        assert res.value == 2
        assert res.status is Status.EXACT
        assert len(res.cover) == 3

        # the cover is a genuine certificate: witnesses chain the diagonal
        # composed with the section to the inclusion, and the three members
        # cover all nine facets of the square
        P = categorical_square(K)
        covered = set()
        d = diagonal(P)
        for adm in res.cover:
            assert adm.witness.first == compose(d, adm.section)
            assert adm.witness.last == inclusion_map(adm.omega, P.product)
            covered.update(adm.omega.facet_label_sets())
        assert covered >= set(P.product.facet_label_sets())

        # exhaustive proof no 2-set cover exists: every Farber subcomplex is
        # contained in a maximal one (all of them enumerated on the check tc
        # uses), and no pair of maximal sets covers
        maximal = reference.maximal_sets("farber", K)
        assert len(maximal) >= 3
        all_facets = frozenset(range(9))
        for A, B in itertools.combinations(maximal, 2):
            assert A | B != all_facets
        assert not any(S == all_facets for S in maximal)

        cert = emit_tc(K, res, DEFAULT_BUDGET)
        ok, msgs = verify_certificate(cert)
        assert ok, msgs

        assert elapsed < 60.0
        print(
            f"\n[criterion 1] PASS: TC(boundary) = 2 exact, 3-set cover verified, "
            f"no pair of the {len(maximal)} maximal Farber sets covers "
            f"({elapsed:.2f}s < 60s)"
        )


class TestCriterion2:
    def test_scat_of_boundary_triangle(self):
        K = boundary()
        t0 = time.monotonic()
        res = scat(K)
        elapsed = time.monotonic() - t0
        assert res.value == 1
        assert res.status is Status.EXACT
        assert len(res.cover) == 2
        for adm in res.cover:
            assert adm.witness.first == inclusion_map(adm.omega, K)
            assert adm.witness.last.is_constant
        assert elapsed < 5.0
        print(f"\n[criterion 2] PASS: scat(boundary) = 1 with a 2-subcomplex cover ({elapsed:.2f}s < 5s)")


class TestCriterion3:
    def test_square_counts(self):
        t0 = time.monotonic()
        P = categorical_square(boundary())
        elapsed = time.monotonic() - t0
        assert P.product.n_vertices == 9
        assert len(P.product.facets) == 9
        assert elapsed < 1.0
        print(f"\n[criterion 3] PASS: square of the boundary has 9 vertices and 9 facets ({elapsed*1000:.1f}ms)")


class TestCriterion4:
    def test_simplices_and_zero_iff_collapsible(self, corpus_results):
        for n in range(4):
            K = build_complex([set("abcd"[: n + 1])])
            rt, rs = tc(K), scat(K)
            assert rt.value == 0 and rt.status is Status.EXACT
            assert rs.value == 0 and rs.status is Status.EXACT

        results, elapsed = corpus_results
        assert len(results) >= 50
        for K, r_tc, _ in results:
            collapsible = is_strongly_collapsible(K)
            if r_tc.status is Status.EXACT:
                assert (r_tc.value == 0) == collapsible, K.facet_label_sets()
            else:
                # not coverable only happens for disconnected complexes,
                # which are never strongly collapsible
                assert r_tc.status is Status.NOT_COVERABLE
                assert not collapsible
                assert not is_edge_path_connected(K)
        assert elapsed < 600.0
        print(
            f"\n[criterion 4] PASS: TC(simplex^n) = scat = 0 for n <= 3; "
            f"TC = 0 iff core is a point on {len(results)} complexes ({elapsed:.1f}s < 600s)"
        )


class TestCriterion5:
    def test_sandwich_inequalities(self, corpus_results):
        results, _ = corpus_results
        checked_lower = checked_upper = 0
        for K, r_tc, r_scat in results:
            if r_tc.status is Status.EXACT and r_scat.status is Status.EXACT:
                assert r_scat.value <= r_tc.value, K.facet_label_sets()
                checked_lower += 1
            if (
                r_tc.status is Status.EXACT
                and is_edge_path_connected(K)
                and len(K.facets) <= 3
            ):
                r_sq = scat(categorical_square(K).product)
                if r_sq.status is Status.EXACT:
                    assert r_tc.value <= r_sq.value, K.facet_label_sets()
                    checked_upper += 1
        assert checked_lower >= 40
        assert checked_upper >= 30
        print(
            f"\n[criterion 5] PASS: scat(K) <= TC(K) on {checked_lower} exact instances, "
            f"TC(K) <= scat(K^2) on {checked_upper} connected exact instances, zero violations"
        )


class TestCoverWitnesses:
    def test_no_repeated_consecutive_steps(self, corpus_results):
        results, _ = corpus_results
        chains = 0
        for K, r_tc, r_scat in results:
            for adm in (r_tc.cover or ()) + (r_scat.cover or ()):
                steps = [s.assignment for s in adm.witness.steps]
                assert all(a != b for a, b in zip(steps, steps[1:])), K.facet_label_sets()
                chains += 1
        assert chains >= 100
        print(f"\n[witnesses] PASS: no cover witness of the corpus repeats a step ({chains} chains)")


class TestCriterion6:
    def test_strong_homotopy_invariance(self):
        rng = random.Random(SEED + 1)
        pairs = []
        bd = boundary()
        # expansions of the hard cases: over a full facet (cheap) and over
        # proper faces (adds a facet)
        pairs.append((bd, add_cone_facet(bd, bd.simplex_mask({"a", "b"}), "w")))
        pairs.append((bd, add_cone_facet(bd, bd.simplex_mask({"b", "c"}), "w")))
        pairs.append((bd, add_cone_facet(bd, bd.simplex_mask({"b"}), "w")))
        pairs.append((bd, add_cone_facet(bd, bd.simplex_mask({"c"}), "w")))
        while len(pairs) < 30:
            K = corpusgen.random_complex(rng, max_vertices=5, max_facets=3)
            facet = rng.choice(K.facets)
            K2 = add_cone_facet(K, facet, "w0")
            pairs.append((K, K2))
        violations = 0
        exact_pairs = 0
        for K, K2 in pairs:
            r1, r2 = tc(K), tc(K2)
            s1, s2 = scat(K), scat(K2)
            if r1.status is r2.status is Status.EXACT:
                exact_pairs += 1
                if r1.value != r2.value:
                    violations += 1
            elif {r1.status, r2.status} <= {Status.NOT_COVERABLE}:
                pass  # disconnected stays disconnected under expansion
            if s1.status is s2.status is Status.EXACT and s1.value != s2.value:
                violations += 1
        assert len(pairs) >= 30
        assert exact_pairs >= 25
        assert violations == 0
        print(
            f"\n[criterion 6] PASS: TC and scat unchanged by adding a dominated vertex "
            f"on {len(pairs)} pairs ({exact_pairs} exact TC pairs), zero violations"
        )


class TestCriterion7:
    @staticmethod
    def brute_force_section_exists(omega, P):
        """Condition (1) directly: try every vertex map omega -> K as a section."""
        K = P.base
        incl = inclusion_map(omega, P.product)
        d = diagonal(P)
        for assignment in itertools.product(range(K.n_vertices), repeat=omega.n_vertices):
            try:
                sigma = validate_map(assignment, omega, K)
            except NotSimplicial:
                continue
            r = same_contiguity_class(compose(d, sigma), incl)
            assert r.verdict is not Verdict.UNKNOWN
            if r.verdict is Verdict.YES:
                return True
        return False

    def test_section_search_agrees_with_projection_condition(self):
        rng = random.Random(SEED + 2)
        done = disagreements = 0
        t0 = time.monotonic()
        while done < 100:
            K = corpusgen.random_complex(rng, max_vertices=4, max_facets=3)
            P = categorical_square(K)
            n = len(P.product.facets)
            idx = rng.sample(range(n), rng.randint(1, n))
            omega = subcomplex(P.product, [P.product.facets[i] for i in idx])
            if omega.n_vertices > 8:
                continue
            done += 1
            cond2, _ = is_farber(omega, P)
            assert cond2 is not Verdict.UNKNOWN
            if self.brute_force_section_exists(omega, P) != (cond2 is Verdict.YES):
                disagreements += 1
        assert done >= 100
        assert disagreements == 0
        print(
            f"\n[criterion 7] PASS: brute-force section search agrees with the projection "
            f"condition on {done} subcomplexes ({time.monotonic()-t0:.1f}s), zero disagreements"
        )

    def test_fully_independent_oracle_on_tiny_instances(self):
        """Same comparison with no shared machinery at all: face-level
        contiguity and quadratic component construction from oracles.py."""
        rng = random.Random(SEED + 3)
        done = 0
        while done < 15:
            K = corpusgen.random_complex(rng, max_vertices=3, max_facets=2)
            P = categorical_square(K)
            n = len(P.product.facets)
            idx = rng.sample(range(n), rng.randint(1, n))
            omega = subcomplex(P.product, [P.product.facets[i] for i in idx])
            if omega.n_vertices > 4:
                continue
            valid_into_product = oracles.oracle_valid_maps(omega, P.product)
            if len(valid_into_product) > 700:
                continue
            done += 1
            incl = tuple(inclusion_map(omega, P.product).assignment)
            component = oracles.oracle_component(omega, P.product, incl)
            d = diagonal(P)
            found = False
            for sigma in oracles.oracle_valid_maps(omega, K):
                diag_sigma = tuple(d.assignment[c] for c in sigma)
                if diag_sigma in component:
                    found = True
                    break
            verdict, _ = is_farber(omega, P)
            assert (verdict is Verdict.YES) == found
        print(f"\n[criterion 7b] PASS: fully independent oracle agrees on {done} tiny instances")


class TestCriterion8:
    @staticmethod
    def independent_plan_check(K, adm, plan):
        """Re-derive everything the plan claims without the library validator."""
        label = f"{K.labels[plan.x]}|{K.labels[plan.y]}"
        w = list(adm.omega.labels).index(label)
        assert adm.section.assignment[w] == plan.section_point
        m = len(plan.pairs) - 1
        assert len(plan.path) == 2 * m + 1
        assert plan.path[0] == plan.x and plan.path[-1] == plan.y
        assert plan.path[m] == plan.section_point
        for a, b in zip(plan.path, plan.path[1:]):
            assert a == b or oracles.oracle_is_simplex(K, {a, b})

    def test_all_plans_from_boundary_cover(self):
        K = boundary()
        res = tc(K)
        count = 0
        for adm in res.cover:
            for label in adm.omega.labels:
                xl, yl = label.split("|")
                plan = motion_plan(adm, K.id(xl), K.id(yl))
                self.independent_plan_check(K, adm, plan)
                count += 1
        assert count >= 9
        print(f"\n[criterion 8] PASS: {count} motion plans from the boundary cover validate independently")

    def test_plans_across_corpus(self, corpus_results):
        results, _ = corpus_results
        rng = random.Random(SEED + 4)
        count = 0
        for K, r_tc, _ in results:
            if r_tc.status is not Status.EXACT or not r_tc.cover:
                continue
            adm = rng.choice(r_tc.cover)
            labels = rng.sample(list(adm.omega.labels), min(3, adm.omega.n_vertices))
            for label in labels:
                xl, yl = label.split("|")
                plan = motion_plan(adm, K.id(xl), K.id(yl))
                self.independent_plan_check(K, adm, plan)
                count += 1
        assert count >= 50
        print(f"\n[criterion 8b] PASS: {count} corpus motion plans validate independently")


class TestCriterion9:
    def test_round_trip_and_mutation(self, tmp_path):
        K = boundary()
        cone = build_complex([{"a", "b", "x"}, {"b", "c", "x"}, {"a", "c", "x"}])
        P = categorical_square(K)
        certs = []

        res_tc = tc(K)
        certs.append(emit_tc(K, res_tc, DEFAULT_BUDGET))
        certs.append(emit_scat(K, scat(K), DEFAULT_BUDGET))
        certs.append(emit_tc(cone, tc(cone), DEFAULT_BUDGET))
        certs.append(emit_scat(cone, scat(cone), DEFAULT_BUDGET))
        c, seq = core(cone)
        certs.append(emit_core(cone, c, seq))
        omega = subcomplex(P.product, [P.product.facets[0], P.product.facets[4]])
        verdict, adm = is_farber(omega, P)
        certs.append(emit_membership("farber", K, omega, verdict, adm, DEFAULT_BUDGET))
        verdict, adm = is_farber(P.product, P)
        certs.append(emit_membership("farber", K, P.product, verdict, adm, DEFAULT_BUDGET))
        L = subcomplex(K, [K.facets[0], K.facets[1]])
        verdict, adm = is_categorical(L, K)
        certs.append(emit_membership("categorical", K, L, verdict, adm, DEFAULT_BUDGET))
        adm = next(a for a in res_tc.cover if "a|c" in a.omega.labels)
        certs.append(emit_plan(K, adm, motion_plan(adm, K.id("a"), K.id("c")), DEFAULT_BUDGET))

        accepted = 0
        for cert in certs:
            import json

            ok, msgs = verify_certificate(json.loads(dumps(cert)))
            assert ok, (cert["kind"], msgs)
            accepted += 1
        assert accepted == len(certs)

        # flip one vertex image inside a witness step
        import copy

        bad = copy.deepcopy(certs[0])
        step = bad["cover"][0]["witness"][0]
        step[0] = next(lab for lab in bad["cover"][0]["vertices"] if lab != step[0])
        ok, _ = verify_certificate(bad)
        assert not ok
        print(
            f"\n[criterion 9] PASS: verify re-accepted {accepted}/{len(certs)} emitted certificates "
            f"and rejected the mutated one"
        )
