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

    def test_budget_exhausted_certificate_round_trips(self, boundary_triangle):
        P = categorical_square(boundary_triangle)
        res = scat(P.product, budget=1)
        assert res.status.value == "budget-exhausted"
        cert = emit_scat(P.product, res, 1)
        ok, msgs = verify_certificate(cert)
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
            # scat of the 7-vertex torus at budget 1 is budget-exhausted in [1, 2]
            ("scat", corpusgen.TORUS7, 2),
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
        dropped = {**cert, "upper": None, "cover": None}  # no cover found, no upper bound
        assert verify_certificate(dropped)[0]
        ok, msgs = verify_certificate(dropped, recompute=True)
        assert not ok
        assert "upper bound changed" in msgs[0]

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

    # (tc value, checks, sha256 of the tc certificate, scat value, checks, sha256),
    # recorded when the tc search began placing K^2 facets by distance from the
    # diagonal and `checks` began counting checker calls only (heredity decides
    # the rest); every value and the scat pins were unchanged by that.
    PINNED = {
        "C3": (
            2, 44, "d7168c0727ef7ef82da6275d026ea447adf7dad5b5e4cedb4d46832ad3b8370b",
            1, 5, "5df5b11e1b9dbd93b4df12eec2fde0e25148663a210c5cd66c704fe9882c1ecf",
        ),
        "C4": (
            2, 605, "926b001cb76e58430f8d79693446aec2050c502a6135d10e440e124894ef7ca3",
            1, 7, "0bf9479ad90192b04d17c69cff4762e754a42810ad194eb731abeed46d453700",
        ),
        "boundary-tetrahedron": (
            2, 291, "a54853452009e92871d55a25bde5f1f42117c02615af600e5534c3dbec17eab3",
            1, 7, "5cd6b4e176e8b082c3f1e17f24a091701445ca466e625988976dacd5a3e4a0cd",
        ),
        "C5": (
            1, 59, "5ccd309034e7b04ea618644334807bd0f812e50432e825d3eb75541fcb65219b",
            1, 9, "a7edaa47230d27540fe67bc839a279992eed5ec72ad3b9f0974423aae65987ad",
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
            digest = hashlib.sha256(dumps(emit(K, r, DEFAULT_BUDGET)).encode()).hexdigest()
            got += [r.value, r.checks, digest]
        assert tuple(got) == self.PINNED[name]

    # (invariant, complex, budget) -> (status, lower, upper, checks, number of
    # unknown subsets, sha256 of the certificate), recorded with the pins above.
    # tc of C5 at budget 32 became exact there (the distance order meets no
    # undecided class); the torus entry keeps four budget-exhausted pins.
    BUDGET_PINNED = {
        ("tc", "C4", 1): (
            "budget-exhausted", 2, 2, 607, 24,
            "a27f4bb64ca8e24d49b5cac2fcdb859da7fa84cadf21d9373302a0ba651f3ab4",
        ),
        ("tc", "C4", 8): (
            "budget-exhausted", 2, 2, 607, 17,
            "3897f898c5738a6eac81de863579bf0f9f7920b81a0cc1f6d38328985961fdc5",
        ),
        ("tc", "C5", 32): (
            "exact", 1, 1, 59, 0,
            "8f8337745bef0a4334f440ff3c39016569b6fc58fc2263df4495bbddf074feb7",
        ),
        ("scat", "C3-square", 1): (
            "budget-exhausted", 1, 2, 78, 31,
            "f2109eb18e53205a1640c460476c5ffbded6bcde2ab0211399943df76031c0ef",
        ),
        ("scat", "torus", 1): (
            "budget-exhausted", 1, 2, 401, 176,
            "c7809c47ea09f9698d58476628843f953b8ddd752f42e8580e22639b365e6b23",
        ),
    }

    @pytest.mark.parametrize("kind, name, budget", list(BUDGET_PINNED))
    def test_budget_exhausted_results_pinned(self, kind, name, budget):
        if name == "C3-square":
            K = categorical_square(build_complex(corpusgen.CYCLE3)).product
        else:
            K = build_complex({**self.FACETS, **self.SURFACES}[name])
        invariant, emit = (tc, emit_tc) if kind == "tc" else (scat, emit_scat)
        r = invariant(K, budget=budget)
        digest = hashlib.sha256(dumps(emit(K, r, budget)).encode()).hexdigest()
        got = (r.status.value, r.lower_bound, r.upper_bound, r.checks, len(r.unknown_sets), digest)
        assert got == self.BUDGET_PINNED[kind, name, budget]

    # (value, checks, sha256 of the scat certificate).  Both surfaces make BFS
    # queries whose domain and codomain cores have several vertices, so the
    # lifted witnesses go through both retractions.  Re-recorded when heredity
    # began deciding classes without a checker call: the covers stayed, only
    # `checks` (torus 213 -> 108, RP2 123 -> 68) and so the bytes moved.
    SCAT_PINNED = {
        "torus": (2, 108, "15285c0bd9380b7597e6a40093f76b266700f3f2f7e849182aabdd6a05e01d67"),
        "RP2": (2, 68, "f7b0b5957faaf58066359d083b3d299f02f27cd26e44bbb910052f57acc9e632"),
    }
    SURFACES = {"torus": corpusgen.TORUS7, "RP2": corpusgen.RP2_6}

    @pytest.mark.parametrize("name", list(SCAT_PINNED))
    def test_surface_scat_pinned(self, name):
        K = build_complex(self.SURFACES[name])
        r = scat(K)
        assert r.status is Status.EXACT
        digest = hashlib.sha256(dumps(emit_scat(K, r, DEFAULT_BUDGET)).encode()).hexdigest()
        assert (r.value, r.checks, digest) == self.SCAT_PINNED[name]

    # sha256 of the core certificate, recorded with the first scat pins of the
    # surfaces; the cover search does not reach it.
    CORE_PINNED = {
        "torus": "eb6a6c5b8ed8c0baec6557fdb1481523fc23701d5d0624aa76463251b1121f65",
        "cone": "685b10c28b146aa442940183caa2483c894a75f54653ceebb734975599a21e19",
        "C4": "ac168d11cda76247c481dbfb4b163c9e29741822e701efc096711c5de1022795",
    }

    @pytest.mark.parametrize("name", list(CORE_PINNED))
    def test_core_certificate_bytes_pinned(self, name):
        if name == "cone":
            bd = build_complex(corpusgen.CYCLE3)
            K = add_cone_facet(bd, bd.simplex_mask({"a", "b"}), "w")
        else:
            K = build_complex(corpusgen.TORUS7 if name == "torus" else corpusgen.CYCLE4)
        digest = hashlib.sha256(dumps(emit_core(K, *core(K))).encode()).hexdigest()
        assert digest == self.CORE_PINNED[name]

    # sha256 of certificates of strongly collapsible complexes, whose class
    # queries have a one-vertex codomain core and so never walk the domain's
    # retraction chain.  (name, certificate kind) -> digest.
    COLLAPSIBLE = {
        "point": [("a",)],
        "edge": [("a", "b")],
        "triangle": [("a", "b", "c")],
        "abc-cd-def": [("a", "b", "c"), ("c", "d"), ("d", "e", "f")],
        "cone-C3": [(*e, "x") for e in corpusgen.CYCLE3],
    }
    COLLAPSIBLE_PINNED = {
        ("point", "tc"): "2d9fb4fff71c4dcccd5ab75164572080af918d5e1adf5d635c0ddb92b8382ecd",
        ("point", "scat"): "b9670b5d6ce4ea1f56713663d8fbf4ad0a6b79438538ece78728c0c672bb9094",
        ("edge", "tc"): "595e200f7a5bbfcea0e2e5023e3355746ec6b672238dadb1ef2f59a2276ccc80",
        ("edge", "scat"): "6b08235ae564f80c2fe2dcf543dc0ede56895e978e9859b9ac96a404c90b17a9",
        ("triangle", "tc"): "2137549cfdd7813912cb28b5eb5725be1c679e5aa05c19a20ed39c985450a177",
        ("triangle", "scat"): "8df7b282471be01928b8398e902a2efe2b17d36ab088c8fccf6be7721bbad681",
        ("abc-cd-def", "tc"): "65b55a44dd0aacd49d8c2d803d920c5bf240f4e0574dfa886b1f0fe52b0a4416",
        ("abc-cd-def", "scat"): "8449130146370946d1ecc4c8c97ba3867a1537f6107c01067a77b7fa8ce0119e",
        ("cone-C3", "tc"): "435764f492abc2aa2fff235ac7b0ddaddb1d94c8be91da1178edb214c8cfe414",
        ("cone-C3", "scat"): "87289a4864025b48f4aa4f660620525d995cda6bfd988a2d3fc41752a4bc38fd",
        ("triangle", "is-farber"): "a3e76a6ab0c56b91a5a814a41be23ced65178b5b35c7adb10a983b9dbc645a44",
        ("triangle", "is-categorical"): "83acf5319fe2b8fb9cdc288ebe5469afbfb76044d81f30da2b96368af397eb9a",
        ("triangle", "plan"): "56861e8eaf02295f7818fe7819607af9c563c4d88cc35c559e1ff47acd987f43",
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
        digest = hashlib.sha256(dumps(cert).encode()).hexdigest()
        assert digest == self.COLLAPSIBLE_PINNED[name, kind]


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
    pytest.param("tc", _in_cover("section", "".join), id="section"),
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

    def test_section_corruption(self, boundary_triangle):
        cert = copy.deepcopy(tc_cert(boundary_triangle))
        entry = cert["cover"][0]
        orig = entry["section"][0]
        entry["section"][0] = "b" if orig != "b" else "c"
        ok, _ = verify_certificate(cert)
        assert not ok

    def test_section_on_a_categorical_entry(self, boundary_triangle):
        cert = copy.deepcopy(scat_cert(boundary_triangle))
        assert cert["cover"][0]["section"] is None
        cert["cover"][0]["section"] = ["a"]
        ok, msgs = verify_certificate(cert)
        assert not ok
        assert any("section" in m for m in msgs)

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
        ok, msgs = verify_certificate({"format": "simplicial-tc/1", "kind": "tc"})
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
        # a full set can be undecided before a singleton is a "no"
        K = build_complex([{"a"}, {"b"}])
        cert = emit_tc(K, tc(K), DEFAULT_BUDGET)
        assert cert["status"] == "not-coverable"
        assert verify_certificate({**cert, "unknown_subsets": 1})[0]

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
    return json.dumps(x, indent=2, sort_keys=True)


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
# values dumps leaves to json.dumps: floats and non-str keys
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
    """dumps(x) is byte for byte json.dumps(x, indent=2, sort_keys=True)."""

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
        kinds = set()
        for K in corpusgen.acceptance_corpus(corpusgen.ACCEPTANCE_SEED):
            for cert in self.corpus_certificates(K):
                kinds.add((cert["kind"], cert.get("status")))
                assert dumps(cert) == _reference_dumps(cert)
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
