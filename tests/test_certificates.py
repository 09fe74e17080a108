import copy
import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from simplicial_tc import (
    InvariantResult,
    SimplicialTCError,
    Status,
    Verdict,
    add_cone_facet,
    build_complex,
    categorical_square,
    core,
    dumps,
    emit_core,
    emit_membership,
    emit_plan,
    emit_scat,
    emit_tc,
    is_categorical,
    is_farber,
    motion_plan,
    scat,
    subcomplex,
    tc,
    verify_certificate,
)
from simplicial_tc.certificates import FORMAT
from simplicial_tc.invariants import admissibility
from simplicial_tc.maps import DEFAULT_BUDGET, ContiguityWitness, _unchecked_map

import corpusgen


def tc_cert(K):
    return emit_tc(K, tc(K), DEFAULT_BUDGET)


def scat_cert(K):
    return emit_scat(K, scat(K), DEFAULT_BUDGET)


def plan_cert(K, x_label, y_label):
    res = tc(K)
    label = f"{x_label}|{y_label}"
    adm = next(a for a in res.cover if label in a.omega.labels)
    plan = motion_plan(adm, K.id(x_label), K.id(y_label))
    return emit_plan(K, adm, plan, DEFAULT_BUDGET)


class TestRoundTrip:
    def test_tc_certificate_accepted(self, boundary_triangle):
        ok, msgs = verify_certificate(tc_cert(boundary_triangle))
        assert ok, msgs

    def test_scat_certificate_accepted(self, boundary_triangle):
        ok, msgs = verify_certificate(scat_cert(boundary_triangle))
        assert ok, msgs

    def test_core_certificate_accepted(self):
        K = build_complex([{"a", "b", "x"}, {"b", "c", "x"}, {"a", "c", "x"}])
        c, seq = core(K)
        ok, msgs = verify_certificate(emit_core(K, c, seq))
        assert ok, msgs

    # The path a b / b c collapsed to c, and the edge a b collapsed to a: a core
    # is unique only up to isomorphism, and core() ends at b and at b.
    CORES_ELSEWHERE = [
        ([["a", "b"], ["b", "c"]], [["c"]], [["a", "b"], ["b", "c"]]),
        ([["a", "b"]], [["a"]], [["b", "a"]]),
    ]

    @staticmethod
    def core_cert(facets, end, steps):
        complex_, core_ = {"facets": facets}, {"facets": end}
        return {"format": FORMAT, "kind": "core", "complex": complex_, "core": core_, "steps": steps}

    @pytest.mark.parametrize("facets, end, steps", CORES_ELSEWHERE)
    def test_core_certificate_with_another_core_recomputes(self, facets, end, steps):
        cert = self.core_cert(facets, end, steps)
        assert core(build_complex(facets))[0].facet_label_sets() != tuple(map(tuple, end))
        assert verify_certificate(cert, recompute=True) == (True, ["certificate OK"])

    def test_recompute_rejects_a_core_of_another_size(self, monkeypatch):
        from simplicial_tc import certificates

        facets, end, steps = self.CORES_ELSEWHERE[0]
        cert = self.core_cert(facets, end, steps)
        two = build_complex([["x"], ["y"]])
        monkeypatch.setattr(certificates, "core", lambda K: (two, None))
        ok, msgs = verify_certificate(cert, recompute=True)
        assert not ok
        assert msgs == ["recompute: core changed"]

    def test_membership_certificates_accepted(self, boundary_triangle):
        K = boundary_triangle
        P = categorical_square(K)
        omega = subcomplex(P.product, [P.product.facets[0]])
        verdict, adm = is_farber(omega, P)
        ok, msgs = verify_certificate(emit_membership("farber", K, omega, verdict, adm, DEFAULT_BUDGET))
        assert ok, msgs
        L = subcomplex(K, [K.facets[0]])
        verdict, adm = is_categorical(L, K)
        ok, msgs = verify_certificate(
            emit_membership("categorical", K, L, verdict, adm, DEFAULT_BUDGET)
        )
        assert ok, msgs

    def test_plan_certificate_accepted(self, boundary_triangle):
        ok, msgs = verify_certificate(plan_cert(boundary_triangle, "a", "c"))
        assert ok, msgs

    def test_json_round_trip_survives(self, boundary_triangle):
        cert = tc_cert(boundary_triangle)
        ok, _ = verify_certificate(json.loads(dumps(cert)))
        assert ok

    def test_recompute_agrees(self, boundary_triangle):
        ok, msgs = verify_certificate(tc_cert(boundary_triangle), recompute=True)
        assert ok, msgs

    def test_budget_exhausted_certificate_round_trips(self):
        # H^1 of the square of the boundary of the 3-simplex is 0, so the
        # homology rule cannot decide its class queries and budget 1 starves them
        P = categorical_square(build_complex(corpusgen.BOUNDARY_TETRAHEDRON))
        res = scat(P.product, budget=1)
        assert res.status.value == "budget-exhausted"
        cert = emit_scat(P.product, res, 1)
        ok, msgs = verify_certificate(cert)
        assert ok, msgs

    def test_hollow_triangles_square_round_trips_exact_at_budget_one(self, boundary_triangle):
        # every "no" of this search is a cycle the two maps send apart in H_1,
        # so budget 1 leaves nothing undecided: exact 2, as at the default budget
        P = categorical_square(boundary_triangle)
        res = scat(P.product, budget=1)
        assert (res.status, res.value, res.unknown_sets) == (Status.EXACT, 2, ())
        cert = emit_scat(P.product, res, 1)
        ok, msgs = verify_certificate(cert, recompute=True)
        assert ok, msgs

    def test_not_coverable_certificate_round_trips(self):
        K = build_complex([{"a"}, {"b"}])
        res = tc(K)
        cert = emit_tc(K, res, DEFAULT_BUDGET)
        assert cert["status"] == "not-coverable"
        ok, msgs = verify_certificate(cert)
        assert ok, msgs

    @pytest.mark.parametrize(
        "kind, facets, lower",
        [
            # tc(C4, budget=1) is budget-exhausted in [2, 2]; a lower bound of 1
            # still reads consistent with the cover
            ("tc", corpusgen.CYCLE4, 1),
            # scat of the square of the boundary of the 3-simplex at budget 1 is
            # budget-exhausted in [1, 2]; the homology rule cannot fire there (H^1 = 0)
            ("scat", corpusgen.TETRAHEDRON_SQUARE, 2),
        ],
    )
    def test_recompute_checks_both_bounds(self, kind, facets, lower):
        K = build_complex(facets)
        invariant, emit = (tc, emit_tc) if kind == "tc" else (scat, emit_scat)
        cert = emit(K, invariant(K, budget=1), 1)
        assert cert["status"] == "budget-exhausted"
        assert verify_certificate(cert, recompute=True)[0]
        assert cert["lower"] != lower
        forged = {**cert, "lower": lower}
        assert verify_certificate(forged)[0]  # consistent on its face
        ok, msgs = verify_certificate(forged, recompute=True)
        assert not ok
        assert "lower bound changed" in msgs[0]
        dropped = {**cert, "upper": None, "cover": None}  # no search ends without a cover
        ok, msgs = verify_certificate(dropped)
        assert not ok
        assert "must carry a cover" in msgs[0]

    def test_recompute_checks_the_torus_bounds_at_budget_one(self):
        # the homology rule decides the torus's "no" classes, so its lower bound
        # at budget 1 is the exact value 2; a forged lower bound of 1 is caught
        K = build_complex(corpusgen.TORUS7)
        cert = emit_scat(K, scat(K, budget=1), 1)
        assert (cert["status"], cert["lower"], cert["upper"]) == ("budget-exhausted", 2, 2)
        assert verify_certificate(cert, recompute=True)[0]
        ok, msgs = verify_certificate({**cert, "lower": 1}, recompute=True)
        assert not ok
        assert "lower bound changed" in msgs[0]

    def test_recompute_checks_membership_verdicts(self, boundary_triangle):
        from simplicial_tc import Verdict

        K = boundary_triangle
        P = categorical_square(K)
        verdict, adm = is_farber(P.product, P)
        assert verdict is Verdict.NO
        cert = emit_membership("farber", K, P.product, verdict, adm, DEFAULT_BUDGET)
        ok, msgs = verify_certificate(cert, recompute=True)
        assert ok, msgs
        cert["verdict"] = "yes"
        cert["admissible"] = None
        ok, _ = verify_certificate(cert, recompute=True)
        assert not ok


class TestDeterminism:
    def test_tc_certificate_bytes_stable(self, boundary_triangle):
        a = dumps(tc_cert(boundary_triangle))
        b = dumps(tc_cert(boundary_triangle))
        assert a == b

    def test_scat_certificate_bytes_stable(self, boundary_triangle):
        assert dumps(scat_cert(boundary_triangle)) == dumps(scat_cert(boundary_triangle))

    @staticmethod
    def digest(cert):
        """sha256 of cert as json.dumps(cert, indent=2, sort_keys=True) writes it.

        The pins below were recorded in that text, the layout certificates were
        written in before dumps wrote one line, so they track the certificate's
        content across writer changes.  The bytes dumps writes are pinned too:
        they must be exactly json.dumps(cert, sort_keys=True).
        """
        assert dumps(cert) == json.dumps(cert, sort_keys=True)
        return hashlib.sha256(json.dumps(cert, indent=2, sort_keys=True).encode()).hexdigest()

    # (tc value, checks, sha256 of the tc certificate, scat value, checks, sha256),
    # recorded when the tc search began placing K^2 facets by distance from the
    # diagonal and `checks` began counting checker calls only (heredity decides
    # the rest); every value and the scat pins were unchanged by that.  The tc
    # entries were re-recorded when the tc search began visiting lex-leaders
    # only (C3 44 -> 27, C4 605 -> 200, the boundary 291 -> 78, C5 59 -> 57
    # checks): the covers and witnesses stayed, only `checks` and so the bytes moved.
    # Every digest in this class was re-recorded for certificate format 2: the
    # format string changed, Farber witness rows hold labels of K (the second
    # coordinates of the old rows), categorical entries lost "section": null
    # and plans lost "pairs" and "section_point"; values, `checks`, bounds,
    # unknown counts and covers stayed.
    # Re-recorded when a cone class (facets sharing a vertex w) began to be
    # certified through the constants at the images of w, with no class query:
    # only witness rows moved.  Steps per class: C3 tc 7/11/11 -> 7/4/4, scat
    # 3/2 -> 2/2; C4 tc 15/19/10 -> 15/19/5, scat 4/2 (other constants); the
    # boundary tc 13/21/22 -> 13/4/4, scat 4/3 -> 2/2; C5 scat 5/2 (other
    # constants).  tc of C5 has no cone class, and its digest stayed.
    # Every entry was re-recorded when the search stopped checking each facet
    # alone before it starts (the kind's "no" rules decide coverability):
    # only `checks` and so the bytes moved.  tc C3 27 -> 18, C4 200 -> 184,
    # the boundary 78 -> 62, C5 57 -> 32; scat C3 5 -> 2, C4 7 -> 3, the
    # boundary 7 -> 3, C5 9 -> 4.
    # Re-recorded when the strong collapse began deleting in rounds, with one
    # retraction per round in the chains that lift class-query witnesses:
    # only witness rows moved; values and `checks` stayed.  Steps per class:
    # tc C3 7/4/4 -> 3/4/4, C4 15/19/5 -> 6/7/5, the boundary 13/4/4 -> 3/4/4,
    # C5 26/34 -> 7/19; scat C4 4/2 -> 3/2, C5 5/2 -> 3/2.  scat of C3 and of
    # the boundary (cone classes only) kept their digests.
    PINNED = {
        "C3": (
            2, 18, "71950d398f3549a890dff6cf2e57d3bdeeb69e0d0b8a872ae75036327848b39d",
            1, 2, "c2ade527a20cfc1dc05f93790790dd2481060d20ec61f2b4183286fab3e04f07",
        ),
        "C4": (
            2, 184, "1345643257e636ef7d942f430e33d04de1cf5d621ddba4548a1f9b3661a5309a",
            1, 3, "25937358aabbf4cad04a97a706be3bb38e4d217bcfbb24abc3c25675867ab01b",
        ),
        "boundary-tetrahedron": (
            2, 62, "0d0b265965c0bb7ddaa63b3e16aaf32ca0e25ae465d1dd831396e11a19b68d88",
            1, 3, "d5fcddfce706630ad628f7dba0d5865c828eb01d4baaaf46e0b5626d02a78f07",
        ),
        "C5": (
            1, 32, "ab50325074713597702419bf08eef69d16b1c01e77856c176d1526bbedbcea76",
            1, 4, "8c717cf76119e7593c04bef54da45c70abfba3f8f56c24b600ceec7a49761769",
        ),
    }
    FACETS = {
        "C3": corpusgen.CYCLE3,
        "C4": corpusgen.CYCLE4,
        "boundary-tetrahedron": corpusgen.BOUNDARY_TETRAHEDRON,
        "C5": corpusgen.CYCLE5,
    }

    @pytest.mark.parametrize("name", list(PINNED))
    def test_values_checks_and_bytes_pinned(self, name):
        K = build_complex(self.FACETS[name])
        got = []
        for invariant, emit in ((tc, emit_tc), (scat, emit_scat)):
            r = invariant(K)
            assert r.status is Status.EXACT
            digest = self.digest(emit(K, r, DEFAULT_BUDGET))
            got += [r.value, r.checks, digest]
        assert tuple(got) == self.PINNED[name]

    # (invariant, complex, budget) -> (status, lower, upper, checks, number of
    # unknown subsets, sha256 of the certificate), recorded with the pins above.
    # tc of C5 at budget 32 became exact there (the distance order meets no
    # undecided class); the torus entry keeps four budget-exhausted pins.  The
    # tc entries were re-recorded with the lex-leader search, which checks
    # fewer classes (C4 607 -> 206 and 203, C5 59 -> 57) and so meets other
    # undecided ones (C4 24 -> 25 and 17 -> 12); bounds and covers stayed.
    # The two C4 entries were re-recorded again when the strict pass began
    # visiting only lex-leaders too: it checks three classes fewer (206 -> 203,
    # 203 -> 200); bounds and unknown counts stayed.
    # The two scat entries were re-recorded when the homology rule began
    # deciding class queries before the BFS: every undecided "no" of the C3
    # square becomes a sound "no" (budget-exhausted [1, 2] with 78 checks ->
    # exact 2 with 54, the default budget's count), and the torus's lower
    # bound rises to 2 (401 checks, 176 undecided -> 297, 10).  The square of
    # the boundary of the 3-simplex has H^1 = 0, so the rule cannot fire
    # there; its entry, added then, keeps a budget-exhausted scat pin.
    # Every entry but tc of C5 (no cone class) was re-recorded when cone
    # classes began to be certified through their apex's constants: only
    # witness rows moved.  Steps per class: C4 at 1 and 8 15/19/10 -> 15/19/5,
    # C3-square 9/8/7 -> 2/2/2, torus 7/7/6 -> 7/7/2, tetrahedron-square
    # 16/15/14 -> 2/2/2.
    # Every entry was re-recorded when the search stopped checking each facet
    # alone before it starts: only `checks` and so the bytes moved (C4 at 1
    # 203 -> 187, at 8 200 -> 184, C5 57 -> 32, C3-square 54 -> 45, torus
    # 297 -> 283, tetrahedron-square 1804 -> 1788); bounds and unknown
    # counts stayed.
    # Four entries were re-recorded when the strong collapse began deleting
    # in rounds.  Witness rows moved everywhere (steps per class: C4 at 1 and
    # 8 15/19/5 -> 6/7/5, C5 at 32 26/34 -> 7/19, torus 7/7/2 -> 3/3/2).  tc
    # of C4 at budget 1 also meets 31 undecided classes, not 25: its classes
    # collapse to other (isomorphic) cores, and at budget 1 a class is
    # undecided whenever its reduced maps differ, which depends on the core.
    # Bounds and `checks` stayed.
    BUDGET_PINNED = {
        ("tc", "C4", 1): (
            "budget-exhausted", 2, 2, 187, 31,
            "2f7e13025519b6b8dc45593905d21290a6a38a9d26b190ae2210e06e787e9cca",
        ),
        ("tc", "C4", 8): (
            "budget-exhausted", 2, 2, 184, 12,
            "dceec91beed1b3f991b4861bf6ddd7f8a1cd13bcf91e2d9d1758dc756bba557d",
        ),
        ("tc", "C5", 32): (
            "exact", 1, 1, 32, 0,
            "106e87d5cbd9e34c1f0bf69cc008b6c13c34f86882d6db0910a579ae4696d441",
        ),
        ("scat", "C3-square", 1): (
            "exact", 2, 2, 45, 0,
            "00996951c977ff3c548b8e212da2397c7f1442c8f92c44151ba02f4066a7a2e5",
        ),
        ("scat", "torus", 1): (
            "budget-exhausted", 2, 2, 283, 10,
            "608c8ee84690f565c535fa5e058d69e433588a084097700f7299e85f8ccf2297",
        ),
        ("scat", "tetrahedron-square", 1): (
            "budget-exhausted", 1, 2, 1788, 780,
            "ab7df6a8a46e4365d493b3d8eed54480b118a6e6b56a4da92e05388f88042ae1",
        ),
    }

    @pytest.mark.parametrize("kind, name, budget", list(BUDGET_PINNED))
    def test_budget_exhausted_results_pinned(self, kind, name, budget):
        if name == "C3-square":
            K = categorical_square(build_complex(corpusgen.CYCLE3)).product
        elif name == "tetrahedron-square":
            K = categorical_square(build_complex(corpusgen.BOUNDARY_TETRAHEDRON)).product
        else:
            K = build_complex({**self.FACETS, **self.SURFACES}[name])
        invariant, emit = (tc, emit_tc) if kind == "tc" else (scat, emit_scat)
        r = invariant(K, budget=budget)
        digest = self.digest(emit(K, r, budget))
        got = (r.status.value, r.lower_bound, r.upper_bound, r.checks, len(r.unknown_sets), digest)
        assert got == self.BUDGET_PINNED[kind, name, budget]

    # (value, checks, sha256 of the scat certificate).  Both surfaces make BFS
    # queries whose domain and codomain cores have several vertices, so the
    # lifted witnesses go through both retractions.  Re-recorded when heredity
    # began deciding classes without a checker call: the covers stayed, only
    # `checks` (torus 213 -> 108, RP2 123 -> 68) and so the bytes moved.
    # Re-recorded when cone classes began to be certified through their
    # apex's constant: only witness rows moved (steps per class: torus 7/6/6
    # -> 2/6/6, RP2 6/5/4 -> 2/2/2).
    # Re-recorded when the search stopped checking each facet alone before it
    # starts: only `checks` (torus 108 -> 94, RP2 68 -> 58) and the bytes moved.
    # The torus was re-recorded when the strong collapse began deleting in
    # rounds: only witness rows moved (steps per class 2/6/6 -> 2/3/3).  RP2's
    # classes are cones, and its digest stayed.
    SCAT_PINNED = {
        "torus": (2, 94, "e457dd8e5d19678b1db86c4ce6b910b4625234ddcef5b83ae086c2610f925f39"),
        "RP2": (2, 58, "2eafdebe0600152731a3b0edbd990e7633c9f37257c7a71a200bfc52ade36a17"),
    }
    SURFACES = {"torus": corpusgen.TORUS7, "RP2": corpusgen.RP2_6}

    @pytest.mark.parametrize("name", list(SCAT_PINNED))
    def test_surface_scat_pinned(self, name):
        K = build_complex(self.SURFACES[name])
        r = scat(K)
        assert r.status is Status.EXACT
        digest = self.digest(emit_scat(K, r, DEFAULT_BUDGET))
        assert (r.value, r.checks, digest) == self.SCAT_PINNED[name]

    # sha256 of the core certificate, recorded with the first scat pins of the
    # surfaces; the cover search does not reach it.
    CORE_PINNED = {
        "torus": "97abada960ba5aaeb93f55581c2a7616a36923794b809a0944c74dc80fbc2511",
        "cone": "5a6090638c7d86c2ed9ebfd8c53c1c9eb65d8955f52ee84f2c3c52d5c0f6b457",
        "C4": "c2863848f113a581a69f3a8a0829280cb562ba00bea653a014ceda1209a24444",
    }

    @pytest.mark.parametrize("name", list(CORE_PINNED))
    def test_core_certificate_bytes_pinned(self, name):
        if name == "cone":
            bd = build_complex(corpusgen.CYCLE3)
            K = add_cone_facet(bd, bd.simplex_mask({"a", "b"}), "w")
        else:
            K = build_complex(corpusgen.TORUS7 if name == "torus" else corpusgen.CYCLE4)
        digest = self.digest(emit_core(K, *core(K)))
        assert digest == self.CORE_PINNED[name]

    # sha256 of certificates of strongly collapsible complexes, whose class
    # queries have a one-vertex codomain core and so never walk the domain's
    # retraction chain.  (name, certificate kind) -> digest.  Every cone
    # entry was re-recorded when cone classes began to be certified through
    # their apex's constants (only witness rows moved): edge tc and scat keep
    # 3 and 2 steps with other constants; triangle tc, is-farber and plan
    # 5 -> 3, scat and is-categorical 3 -> 2; cone-C3 tc 7 -> 3, scat 4 -> 2.
    # The point (one step either way) and abc-cd-def (no cone class) kept theirs.
    # abc-cd-def was re-recorded when the strong collapse began deleting in
    # rounds: its lifted witnesses walk K's chain, now one map per round (tc
    # 11 -> 5 steps, scat 6 -> 3).  The cone entries and the point kept theirs.
    COLLAPSIBLE = {
        "point": [("a",)],
        "edge": [("a", "b")],
        "triangle": [("a", "b", "c")],
        "abc-cd-def": [("a", "b", "c"), ("c", "d"), ("d", "e", "f")],
        "cone-C3": [(*e, "x") for e in corpusgen.CYCLE3],
    }
    COLLAPSIBLE_PINNED = {
        ("point", "tc"): "fa6d24c62d52fa80ded653e7e6825daf76af28fa61114b4316cae15c31b19423",
        ("point", "scat"): "41a9f964907091c15f4c3b185f76d70b892351076cc6760af7800576d72dfd37",
        ("edge", "tc"): "8ab1e0d06fd138ed3824379a7f512e86dd0ebf9ad6e99535ee44a5c92c5b0023",
        ("edge", "scat"): "dfc891435e2d80bcd64692a6d76961cd0111af95a9694574386d1b9fd67d62d8",
        ("triangle", "tc"): "f7b0b1bcad0ebb201e07c5b56b99be6615556b7b31026bb574ecc44c6dae5b92",
        ("triangle", "scat"): "c77761c019b0041345a88f958accf82aa7c7bde5ebde731d30dc3bcf61559b5e",
        ("abc-cd-def", "tc"): "c9b388dd7d79dfa9fc3a15138c548475b46e8c5c413b074a2e0cc257c3031f9a",
        ("abc-cd-def", "scat"): "e38040d48af69f01dba5e27dd7bdfd6abe6a706fcd68105a1cdab1c9234af85a",
        ("cone-C3", "tc"): "1080a012da4ea84c442630f7da56c2d7318536bedbf10ef958d24b558cd26231",
        ("cone-C3", "scat"): "60f76d83425f164afa9c0d1dc250bc3a4354778962a254e80b2d09aaecd9c765",
        ("triangle", "is-farber"): "efdac3402fd053fa0d39b44eb7da955585fd7ef7dbc341c52c4deec13830ca36",
        ("triangle", "is-categorical"): "1b1e6de78dbd57b42142fb1787642ae6ec7d6cd7a9e6f9de0fb653f0b369ecfa",
        ("triangle", "plan"): "a25c48990c684472052f97f7be0be4c7c9dfcde855aa03faa8fdb675ba75e823",
    }

    @staticmethod
    def _collapsible_cert(K, kind):
        if kind == "tc":
            return tc_cert(K)
        if kind == "scat":
            return scat_cert(K)
        if kind == "is-farber":
            P = categorical_square(K)
            return emit_membership("farber", K, P.product, *is_farber(P.product, P), DEFAULT_BUDGET)
        if kind == "is-categorical":
            L = subcomplex(K, [K.simplex_mask({"a", "b"})])
            return emit_membership("categorical", K, L, *is_categorical(L, K), DEFAULT_BUDGET)
        return plan_cert(K, "a", "c")

    @pytest.mark.parametrize("name, kind", list(COLLAPSIBLE_PINNED))
    def test_collapsible_certificate_bytes_pinned(self, name, kind):
        K = build_complex(self.COLLAPSIBLE[name])
        cert = self._collapsible_cert(K, kind)
        assert verify_certificate(cert)[0]
        digest = self.digest(cert)
        assert digest == self.COLLAPSIBLE_PINNED[name, kind]


class TestConeWitnessRows:
    def test_hollow_triangle_farber_example_is_three_rows(self, boundary_triangle):
        # omega = {a,b}^2 u {b,c}^2 is a cone at (b, b): pi1|omega, constant b, pi2|omega
        K = boundary_triangle
        P = categorical_square(K)
        omega = admissibility("farber", K).from_labels(
            [["a|a", "a|b", "b|a", "b|b"], ["b|b", "b|c", "c|b", "c|c"]]
        )
        cert = emit_membership("farber", K, omega, *is_farber(omega, P), DEFAULT_BUDGET)
        assert verify_certificate(cert, recompute=True)[0]
        pairs = [lab.split("|") for lab in cert["admissible"]["vertices"]]
        assert cert["admissible"]["witness"] == [
            [u for u, _ in pairs], ["b"] * len(pairs), [v for _, v in pairs]
        ]
        assert len(pairs) == 7


def _join_rows(rows):
    return ["".join(row) for row in rows]


def _in_cover(field, change):
    def mutate(cert):
        for entry in cert["cover"]:
            entry[field] = change(entry[field])

    return mutate


# (certificate, mutation): one label list given as a string, or as strings.
# Single-letter labels read one character at a time would pass as the list.
LABEL_LISTS_AS_STRINGS = [
    pytest.param("tc", lambda c: c["complex"].update(facets=["ab", "bc", "ac"]), id="complex-facets"),
    pytest.param("scat", _in_cover("facets", _join_rows), id="cover-facets"),
    pytest.param("scat", _in_cover("vertices", "".join), id="vertices"),
    pytest.param("scat", _in_cover("witness", _join_rows), id="witness-rows"),
    pytest.param("membership", lambda c: c.update(omega=_join_rows(c["omega"])), id="omega"),
    pytest.param(
        "core", lambda c: c["core"].update(facets=_join_rows(c["core"]["facets"])), id="core-facets"
    ),
    pytest.param("core", lambda c: c.update(steps=_join_rows(c["steps"])), id="collapse-steps"),
]


class TestMutationsRejected:
    def test_flipped_witness_image(self, boundary_triangle):
        cert = copy.deepcopy(tc_cert(boundary_triangle))
        step = cert["cover"][0]["witness"][0]
        original = step[0]
        step[0] = next(lab for lab in cert["cover"][0]["vertices"] if lab != original)
        ok, msgs = verify_certificate(cert)
        assert not ok

    def test_unknown_witness_label(self, boundary_triangle):
        cert = copy.deepcopy(tc_cert(boundary_triangle))
        cert["cover"][0]["witness"][0][0] = "zz"
        ok, msgs = verify_certificate(cert)
        assert not ok
        assert msgs == ["unknown vertex label 'zz'"]

    def test_membership_entry_for_another_subcomplex(self, boundary_triangle):
        K = boundary_triangle
        P = categorical_square(K)
        first, second = P.product.facets[:2]
        omega = subcomplex(P.product, [first, second])
        cert = emit_membership("farber", K, omega, *is_farber(omega, P), DEFAULT_BUDGET)
        assert cert["verdict"] == "yes"
        ok, msgs = verify_certificate(cert)
        assert ok, msgs
        cert["omega"] = cert["omega"][::-1]  # facet order is not part of the subcomplex
        ok, msgs = verify_certificate(cert)
        assert ok, msgs
        cert["omega"] = cert["omega"][:1]
        ok, msgs = verify_certificate(cert)
        assert not ok
        assert msgs == ["admissible set does not match the queried subcomplex"]

    def test_categorical_membership_entry_for_another_subcomplex(self, boundary_triangle):
        K = boundary_triangle
        L = subcomplex(K, list(K.facets[:2]))
        cert = emit_membership("categorical", K, L, *is_categorical(L, K), DEFAULT_BUDGET)
        assert cert["verdict"] == "yes"
        ok, msgs = verify_certificate(cert)
        assert ok, msgs
        cert["omega"] = cert["omega"][::-1]  # facet order is not part of the subcomplex
        ok, msgs = verify_certificate(cert)
        assert ok, msgs
        cert["omega"] = cert["omega"][:1]
        ok, msgs = verify_certificate(cert)
        assert not ok
        assert msgs == ["admissible set does not match the queried subcomplex"]

    def test_dropped_cover_member(self, boundary_triangle):
        cert = copy.deepcopy(tc_cert(boundary_triangle))
        cert["cover"] = cert["cover"][:-1]
        ok, msgs = verify_certificate(cert)
        assert not ok
        assert any("covered" in m or "value" in m for m in msgs)

    def test_wrong_value(self, boundary_triangle):
        cert = copy.deepcopy(tc_cert(boundary_triangle))
        cert["value"] = cert["lower"] = cert["upper"] = 1
        ok, _ = verify_certificate(cert)
        assert not ok

    def test_corrupted_collapse_step(self):
        K = build_complex([{"a", "b", "x"}, {"b", "c", "x"}, {"a", "c", "x"}])
        c, seq = core(K)
        cert = copy.deepcopy(emit_core(K, c, seq))
        cert["steps"][0] = [cert["steps"][0][1], cert["steps"][0][0]]
        ok, _ = verify_certificate(cert)
        assert not ok

    def test_corrupted_plan_path(self, boundary_triangle):
        cert = copy.deepcopy(plan_cert(boundary_triangle, "a", "c"))
        cert["path"][0] = "b"
        ok, _ = verify_certificate(cert)
        assert not ok

    def test_swapped_plan_endpoints(self, boundary_triangle):
        cert = copy.deepcopy(plan_cert(boundary_triangle, "a", "c"))
        cert["from"], cert["to"] = cert["to"], cert["from"]
        ok, _ = verify_certificate(cert)
        assert not ok

    def test_truncated_witness(self, boundary_triangle):
        cert = copy.deepcopy(tc_cert(boundary_triangle))
        entry = cert["cover"][0]
        assert len(entry["witness"]) > 1
        entry["witness"] = entry["witness"][:-1]  # no longer ends at the inclusion
        ok, _ = verify_certificate(cert)
        assert not ok

    # Each mutation keeps a contiguous chain in K, so only the endpoint check finds it.
    def test_farber_witness_not_starting_at_the_first_projection(self, boundary_triangle):
        cert = copy.deepcopy(tc_cert(boundary_triangle))
        entry = cert["cover"][0]
        entry["witness"] = entry["witness"][::-1]  # pi2|omega ~ ... ~ pi1|omega
        ok, msgs = verify_certificate(cert)
        assert not ok
        assert msgs == ["witness does not start at the first projection"]

    def test_farber_witness_not_ending_at_the_second_projection(self, boundary_triangle):
        cert = copy.deepcopy(tc_cert(boundary_triangle))
        entry = cert["cover"][0]
        entry["witness"] = entry["witness"][:-1]
        ok, msgs = verify_certificate(cert)
        assert not ok
        assert msgs == ["witness does not end at the second projection"]

    @staticmethod
    def scat_entry(cert):
        """A cover entry whose witness's next-to-last step is not constant."""
        return next(
            e for e in cert["cover"] if len(e["witness"]) > 1 and len(set(e["witness"][-2])) > 1
        )

    def test_categorical_witness_not_starting_at_the_inclusion(self, boundary_triangle):
        cert = copy.deepcopy(scat_cert(boundary_triangle))
        entry = self.scat_entry(cert)
        entry["witness"] = entry["witness"][::-1]  # a constant ~ ... ~ the inclusion
        ok, msgs = verify_certificate(cert)
        assert not ok
        assert msgs == ["witness does not start at the inclusion"]

    def test_categorical_witness_not_ending_at_a_constant_map(self, boundary_triangle):
        cert = copy.deepcopy(scat_cert(boundary_triangle))
        entry = self.scat_entry(cert)
        entry["witness"] = entry["witness"][:-1]
        ok, msgs = verify_certificate(cert)
        assert not ok
        assert msgs == ["witness does not end at a constant map"]

    # A cone's witness passes through the constant at its apex's image; a vertex
    # of the 4-cycle that is not adjacent to that image breaks the chain.
    CONE_MEMBERSHIP = {
        "farber": ("a|a a|b b|a b|b", "a", "c"),
        "categorical": ("a b; b c", "b", "d"),
    }

    @pytest.mark.parametrize("kind", list(CONE_MEMBERSHIP))
    def test_cone_constant_moved_off_the_apex(self, kind):
        K = build_complex(corpusgen.CYCLE4)
        rows, apex, far = self.CONE_MEMBERSHIP[kind]
        A = admissibility(kind, K)
        sub = A.from_labels([row.split() for row in rows.split(";")])
        cert = emit_membership(kind, K, sub, *A.decide(sub, DEFAULT_BUDGET), DEFAULT_BUDGET)
        assert verify_certificate(cert)[0]
        witness = cert["admissible"]["witness"]
        assert witness[1] == [apex] * len(witness[1])
        assert not K.is_simplex(K.simplex_mask({apex, far}))
        witness[1] = [far] * len(witness[1])
        ok, msgs = verify_certificate(cert)
        assert not ok
        assert msgs == ["consecutive witness steps are not contiguous"]

    def test_witness_row_of_square_labels(self, boundary_triangle):
        """A row of pair labels such as a|b names vertices of K^2, not of K."""
        cert = copy.deepcopy(tc_cert(boundary_triangle))
        entry = cert["cover"][0]
        entry["witness"][-1] = list(entry["vertices"])  # the inclusion into K^2
        ok, msgs = verify_certificate(cert)
        assert not ok
        assert msgs == [f"unknown vertex label {entry['vertices'][0]!r}"]
        assert "|" in entry["vertices"][0]

    def test_format_1_certificate_rejected(self, boundary_triangle):
        cert = {**tc_cert(boundary_triangle), "format": "simplicial-tc/1"}
        ok, msgs = verify_certificate(cert)
        assert not ok
        assert msgs == ["unknown certificate format 'simplicial-tc/1'"]

    def test_unknown_kind_rejected(self, boundary_triangle):
        cert = copy.deepcopy(tc_cert(boundary_triangle))
        cert["kind"] = "mystery"
        ok, _ = verify_certificate(cert)
        assert not ok

    def test_wrong_format_rejected(self, boundary_triangle):
        cert = copy.deepcopy(tc_cert(boundary_triangle))
        cert["format"] = "something-else/9"
        ok, _ = verify_certificate(cert)
        assert not ok

    def test_malformed_payload_rejected(self):
        ok, msgs = verify_certificate({"format": FORMAT, "kind": "tc"})
        assert not ok

    @pytest.mark.parametrize(
        "field, value",
        [
            ("checks", "x"),
            ("checks", -5),
            ("checks", None),
            ("unknown_subsets", 7),
            ("unknown_subsets", "many"),
        ],
    )
    def test_inconsistent_counts(self, boundary_triangle, field, value):
        cert = {**tc_cert(boundary_triangle), field: value}
        ok, msgs = verify_certificate(cert)
        assert not ok
        assert "unknown_subsets" in msgs[0] or "undecided" in msgs[0], msgs

    def test_budget_exhausted_needs_an_undecided_subset(self):
        K = build_complex(corpusgen.CYCLE4)
        cert = emit_tc(K, tc(K, budget=1), 1)
        assert cert["status"] == "budget-exhausted"
        assert verify_certificate(cert)[0]
        ok, msgs = verify_certificate({**cert, "unknown_subsets": 0})
        assert not ok
        assert "no undecided subsets" in msgs[0]
        # the kind's "no" rules decide coverability with no checker call
        K = build_complex([{"a"}, {"b"}])
        cert = emit_tc(K, tc(K), DEFAULT_BUDGET)
        assert (cert["status"], cert["checks"], cert["unknown_subsets"]) == ("not-coverable", 0, 0)
        ok, msgs = verify_certificate({**cert, "unknown_subsets": 1})
        assert not ok
        assert "more undecided subsets than checks" in msgs[0]
        # earlier releases checked the full set before the singletons, and it
        # could be undecided: such certificates still verify
        assert verify_certificate({**cert, "checks": 3, "unknown_subsets": 1})[0]

    @staticmethod
    def _source_cert(source, K):
        if source == "tc":
            return tc_cert(K)
        if source == "scat":
            return scat_cert(K)
        if source == "membership":
            L = subcomplex(K, [K.facets[0]])
            return emit_membership("categorical", K, L, *is_categorical(L, K), DEFAULT_BUDGET)
        coned = build_complex([{"a", "b", "x"}, {"b", "c", "x"}, {"a", "c", "x"}])
        return emit_core(coned, *core(coned))

    @pytest.mark.parametrize("source, mutate", LABEL_LISTS_AS_STRINGS)
    def test_label_lists_given_as_strings(self, boundary_triangle, source, mutate):
        cert = copy.deepcopy(self._source_cert(source, boundary_triangle))
        mutate(cert)
        ok, msgs = verify_certificate(cert)
        assert not ok
        assert "must be a list of label" in msgs[0], msgs

    def test_facets_as_an_object_rejected_by_shape(self, boundary_triangle):
        cert = copy.deepcopy(tc_cert(boundary_triangle))
        cert["complex"]["facets"] = {"a|a": ["a|b"]}
        ok, msgs = verify_certificate(cert)
        assert not ok
        assert "facets must be a list of label lists" in msgs[0]


class TestAdmissibleKindMustMatch:
    """A categorical subcomplex of K^2 need not be Farber: tc covers and farber
    membership certificates must carry Farber entries."""

    def test_tc_cover_of_categorical_sets_rejected(self):
        K = build_complex([{"a", "b"}, {"c", "d"}])  # TC is not coverable
        P = categorical_square(K)
        cover = []
        for m in P.product.facets:
            verdict, adm = is_categorical(subcomplex(P.product, [m]), P.product)
            assert verdict is Verdict.YES
            cover.append(adm)
        claim = InvariantResult(3, 3, 3, Status.EXACT, tuple(cover), (), (), 0)
        ok, msgs = verify_certificate(emit_tc(K, claim, DEFAULT_BUDGET))
        assert not ok
        assert "expected a farber admissible set" in msgs[0]

    def test_farber_membership_with_categorical_entry_rejected(self):
        K = build_complex([{"a", "b"}, {"c", "d"}])
        P = categorical_square(K)
        through_ac = P.product.simplex_mask(["a|c"])
        omega = subcomplex(P.product, [m for m in P.product.facets if m & through_ac])
        assert is_farber(omega, P)[0] is Verdict.NO
        verdict, adm = is_categorical(omega, P.product)
        assert verdict is Verdict.YES
        cert = emit_membership("farber", K, omega, Verdict.YES, adm, DEFAULT_BUDGET)
        ok, msgs = verify_certificate(cert)
        assert not ok
        assert "expected a farber admissible set" in msgs[0]


class TestStatusBoundsConsistency:
    """Status, value, bounds and cover must agree without --recompute."""

    @staticmethod
    def rejected(cert, **fields):
        cert = copy.deepcopy(cert)
        cert.update(fields)
        ok, _ = verify_certificate(cert)
        return not ok

    def test_unknown_status(self, boundary_triangle):
        assert self.rejected(tc_cert(boundary_triangle), status="bogus")

    def test_not_coverable_with_a_cover(self, boundary_triangle):
        cert = tc_cert(boundary_triangle)
        assert self.rejected(cert, status="not-coverable", value=None, lower=None, upper=None)

    def test_not_coverable_with_a_value_or_bounds(self):
        K = build_complex([{"a"}, {"b"}])
        cert = emit_tc(K, tc(K), DEFAULT_BUDGET)
        assert verify_certificate(cert)[0]
        assert self.rejected(cert, value=0)
        assert self.rejected(cert, lower=0)
        assert self.rejected(cert, upper=3)

    def test_budget_exhausted_with_a_value(self, boundary_triangle):
        cert = tc_cert(boundary_triangle)
        assert self.rejected(cert, status="budget-exhausted", unknown_subsets=1)

    # a budget-exhausted result has met at least one undecided subset
    PARTIAL = dict(status="budget-exhausted", value=None, unknown_subsets=1)

    def test_budget_exhausted_bounds(self, boundary_triangle):
        cert = tc_cert(boundary_triangle)  # three cover classes
        partial = self.PARTIAL
        assert not self.rejected(cert, lower=1, upper=2, **partial)
        assert self.rejected(cert, lower=3, upper=2, **partial)
        assert self.rejected(cert, lower=1, upper=1, **partial)
        assert self.rejected(cert, lower=1, upper=3, **partial)
        assert self.rejected(cert, lower=1, upper=2, cover=None, **partial)
        assert self.rejected(cert, lower=1, upper=None, cover=None, **partial)

    def test_non_integer_bounds(self, boundary_triangle):
        cert = tc_cert(boundary_triangle)  # three cover classes
        partial = self.PARTIAL
        assert self.rejected(cert, lower=True, upper=2, **partial)
        assert self.rejected(cert, lower="1", upper=2, **partial)
        assert self.rejected(cert, lower=1, upper=2.0, **partial)

    @staticmethod
    def partial_c4():
        K = build_complex(corpusgen.CYCLE4)
        cert = emit_tc(K, tc(K, budget=1), 1)
        assert cert["status"] == "budget-exhausted" and verify_certificate(cert)[0]
        return cert

    def test_negative_lower_bound(self):
        cert = self.partial_c4()
        assert self.rejected(cert, lower=-3)
        assert not self.rejected(cert, lower=0)

    def test_more_undecided_subsets_than_checks(self):
        cert = self.partial_c4()
        checks, unknown = cert["checks"], cert["unknown_subsets"]
        assert 1 <= unknown <= checks
        assert not self.rejected(cert, unknown_subsets=checks)
        assert self.rejected(cert, unknown_subsets=checks + 1)
        assert self.rejected(cert, checks=0)
        assert self.rejected(cert, lower=-3, checks=0, unknown_subsets=7)

    def test_budget_must_be_a_positive_integer(self, boundary_triangle):
        cert = tc_cert(boundary_triangle)
        for budget in (True, -3, 0, 2.5, "1000", None):
            assert self.rejected(cert, budget=budget), budget
        assert not self.rejected(cert, budget=7)


class TestMembershipVerdictConsistency:
    """A farber/categorical certificate's verdict must be a Verdict value, and
    only a "yes" may (and must) carry an admissible set."""

    @staticmethod
    def certs(K):
        P = categorical_square(K)
        omega = subcomplex(P.product, [P.product.facets[0]])
        L = subcomplex(K, [K.facets[0]])
        out = []
        for kind, sub, (verdict, adm) in (
            ("farber", omega, is_farber(omega, P)),
            ("categorical", L, is_categorical(L, K)),
        ):
            assert verdict is Verdict.YES
            out.append(emit_membership(kind, K, sub, verdict, adm, DEFAULT_BUDGET))
        return out

    @staticmethod
    def message(cert, **fields):
        cert = copy.deepcopy(cert)
        cert.update(fields)
        ok, msgs = verify_certificate(cert)
        assert not ok, fields
        assert not msgs[0].startswith("malformed certificate"), msgs
        return msgs[0]

    def test_verdict_must_be_yes_no_or_unknown(self, boundary_triangle):
        for cert in self.certs(boundary_triangle):
            for verdict in ("maybe", None, 3):
                assert "unknown verdict" in self.message(cert, verdict=verdict, admissible=None)

    def test_no_or_unknown_verdict_carries_no_admissible_set(self, boundary_triangle):
        for cert in self.certs(boundary_triangle):
            for verdict in ("no", "unknown"):
                msg = self.message(cert, verdict=verdict)
                assert "carries an admissible set" in msg
                assert verify_certificate({**cert, "verdict": verdict, "admissible": None})[0]

    def test_yes_verdict_needs_an_admissible_set(self, boundary_triangle):
        for cert in self.certs(boundary_triangle):
            assert "admissible set" in self.message(cert, admissible=None)


def _json_or_error(encode, x):
    """What encode(x) returns, or the type of what it raises."""
    try:
        return encode(x)
    except Exception as exc:  # noqa: BLE001 - compared with the reference's
        return type(exc)


def _reference_dumps(x):
    return json.dumps(x, sort_keys=True)


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.just(10**40)
    | st.text()  # unicode, control characters, quotes and backslashes
    | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "\u00e9\u2603\U0001f600", "a|b"])
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=25,
)
# values no certificate holds: floats and non-str keys
_fallback_values = st.recursive(
    _json_scalars | st.floats(),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3)
        | st.dictionaries(st.integers(), inner, min_size=1, max_size=3)
        | st.dictionaries(st.none() | st.booleans(), inner, min_size=1, max_size=2)
    ),
    max_leaves=20,
)


class TestWriterContract:
    """dumps(x) is byte for byte json.dumps(x, sort_keys=True), errors included.

    The inputs are those a hand-written writer would get wrong: unicode and
    control characters, long ints, empty and nested containers, tuples,
    floats, non-str keys, cycles.
    """

    @given(_json_values)
    def test_json_values(self, x):
        assert dumps(x) == _reference_dumps(x)

    @given(_fallback_values)
    def test_fallback_values(self, x):
        assert _json_or_error(dumps, x) == _json_or_error(_reference_dumps, x)

    @pytest.mark.parametrize(
        "x",
        [
            {},
            [],
            (),
            {"a": [], "b": {}, "c": [[]], "d": [{}]},
            ["x", 1],  # a list of strings and more
            [1, "x"],
            {"b": 1, "a": 2, "A": 3, "": 4, "\u00e9": 5},
            [True, False, None, 0, -1, 2**64],
            1.5,
            {1: "x"},
            {"a": 1.0},
            [float("nan"), float("inf")],
        ],
    )
    def test_edge_values(self, x):
        assert dumps(x) == _reference_dumps(x)

    def test_errors_are_those_of_json_dumps(self):
        cycle = []
        cycle.append(cycle)
        for x in (cycle, {1: 2, "a": 3}, {"a": object()}, 10**5000):
            assert _json_or_error(dumps, x) == _json_or_error(_reference_dumps, x)
            assert isinstance(_json_or_error(dumps, x), type)

    @staticmethod
    def corpus_certificates(K):
        """Every certificate kind of K, budget-exhausted ones included where budget 1 leaves some."""
        yield tc_cert(K)
        yield scat_cert(K)
        yield emit_tc(K, tc(K, budget=1), 1)
        yield emit_scat(K, scat(K, budget=1), 1)
        yield emit_core(K, *core(K))
        P = categorical_square(K)
        omega = subcomplex(P.product, [P.product.facets[0]])
        yield emit_membership("farber", K, omega, *is_farber(omega, P), DEFAULT_BUDGET)
        L = subcomplex(K, [K.facets[0]])
        yield emit_membership("categorical", K, L, *is_categorical(L, K), DEFAULT_BUDGET)
        res = tc(K)
        if res.cover is not None:
            adm = res.cover[0]
            x, y = adm.omega.labels[-1].split("|")
            yield emit_plan(K, adm, motion_plan(adm, K.id(x), K.id(y)), DEFAULT_BUDGET)

    def test_acceptance_corpus_certificates(self):
        """Every certificate is written as the contract says, and reads back in
        the indented layout certificates were written in before, too."""
        kinds = set()
        for K in corpusgen.acceptance_corpus(corpusgen.ACCEPTANCE_SEED):
            for cert in self.corpus_certificates(K):
                kinds.add((cert["kind"], cert.get("status")))
                assert dumps(cert) == _reference_dumps(cert)
                indented = json.dumps(cert, indent=2, sort_keys=True)
                assert verify_certificate(json.loads(indented)) == (True, ["certificate OK"])
        assert {"tc", "scat", "core", "farber", "categorical", "plan"} <= {k for k, _ in kinds}
        assert ("tc", "budget-exhausted") in kinds and ("tc", "not-coverable") in kinds


# Witnesses of the categorical edge {a, b} of the 4-cycle, as label rows over
# its vertices (a, b); "zz" names no vertex.  Each row but the valid one has
# one fault that only the witness check finds in one pass.
ONE_PASS_WITNESSES = {
    "valid": [["a", "b"], ["b", "b"]],
    "lone-step-not-simplicial": [["a", "c"]],
    "bad-entry": [["a", "b"], ["a", "zz"], ["b", "b"]],
    "row-of-wrong-length": [["a", "b"], ["a"], ["b", "b"]],
    "non-simplicial-middle-step": [["a", "b"], ["a", "c"], ["b", "b"]],
    "non-contiguous-pair": [["a", "b"], ["c", "d"], ["d", "d"]],
}


class TestOnePassWitnessCheck:
    """ContiguityWitness and verify_certificate reject every fault of a chain
    whose steps were not checked on their own."""

    @staticmethod
    def setting():
        K = build_complex(corpusgen.CYCLE4)
        L = subcomplex(K, [K.simplex_mask({"a", "b"})])
        cert = emit_membership("categorical", K, L, *is_categorical(L, K), DEFAULT_BUDGET)
        assert cert["admissible"]["vertices"] == ["a", "b"]
        return K, L, cert

    @pytest.mark.parametrize("name", list(ONE_PASS_WITNESSES))
    def test_witness_constructor(self, name):
        K, L, _ = self.setting()
        ids = {lab: i for i, lab in enumerate(K.labels)}
        steps = tuple(
            _unchecked_map(L, K, tuple(ids.get(lab, K.n_vertices) for lab in row))
            for row in ONE_PASS_WITNESSES[name]
        )
        if name == "valid":
            assert len(ContiguityWitness(steps)) == 2
        else:
            with pytest.raises(SimplicialTCError):
                ContiguityWitness(steps)

    @pytest.mark.parametrize("name", list(ONE_PASS_WITNESSES))
    def test_verifier(self, name):
        cert = copy.deepcopy(self.setting()[2])
        cert["admissible"]["witness"] = ONE_PASS_WITNESSES[name]
        ok, msgs = verify_certificate(cert)
        assert ok == (name == "valid"), msgs
        if not ok:
            assert "does not start" not in msgs[0] and "does not end" not in msgs[0], msgs
