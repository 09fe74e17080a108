import copy
import hashlib
import json

import pytest

from simplicial_tc import (
    InvariantResult,
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
from simplicial_tc.maps import DEFAULT_BUDGET

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
    # recorded before the search checks moved onto facet masks: the mask path
    # must take the same search steps and emit the same bytes.
    PINNED = {
        "C3": (
            2, 72, "a21ed3294bd52ef8530001a38fb3ed42390626bb29eaa431d201686372857c6a",
            1, 5, "5df5b11e1b9dbd93b4df12eec2fde0e25148663a210c5cd66c704fe9882c1ecf",
        ),
        "C4": (
            2, 2432, "ec07f23ff5c98653ea81255affe3544403cf546e7da3798b2926c214ef057e28",
            1, 7, "0bf9479ad90192b04d17c69cff4762e754a42810ad194eb731abeed46d453700",
        ),
        "boundary-tetrahedron": (
            2, 1792, "62e03aa88cfc8f2b60a364674bf4b02ac6ae20fc9a0992d9dfb0df95b2af0341",
            1, 7, "5cd6b4e176e8b082c3f1e17f24a091701445ca466e625988976dacd5a3e4a0cd",
        ),
        "C5": (
            1, 1854, "a710f54866c65e01df37ade2b7919bd40661f97e4f5648154e8d08f9518df5b1",
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
    # unknown subsets, sha256 of the certificate), recorded before the cover
    # search dropped its exact-only pass: budget-exhausted searches must take
    # the same steps too.
    BUDGET_PINNED = {
        ("tc", "C4", 1): (
            "budget-exhausted", 2, 2, 2463, 159,
            "cff1e42043e7f2f4841fb2b047ce302c3c9314761f684ffea90086dedcdfb5a2",
        ),
        ("tc", "C4", 8): (
            "budget-exhausted", 2, 2, 2442, 70,
            "e5567a27bd3c4b221fcd375555ec4fa10bf0c47c7dd891e8e8f6a6439d3bce45",
        ),
        ("tc", "C5", 32): (
            "budget-exhausted", 1, 1, 1872, 35,
            "5461c1a99ac05c64af11b5f10932f60bb4cb6eee64e8bb9b874ad0bc7a8a9c4f",
        ),
        ("scat", "C3-square", 1): (
            "budget-exhausted", 1, 2, 78, 31,
            "f2109eb18e53205a1640c460476c5ffbded6bcde2ab0211399943df76031c0ef",
        ),
    }

    @pytest.mark.parametrize("kind, name, budget", list(BUDGET_PINNED))
    def test_budget_exhausted_results_pinned(self, kind, name, budget):
        if name == "C3-square":
            K = categorical_square(build_complex(corpusgen.CYCLE3)).product
        else:
            K = build_complex(self.FACETS[name])
        invariant, emit = (tc, emit_tc) if kind == "tc" else (scat, emit_scat)
        r = invariant(K, budget=budget)
        digest = hashlib.sha256(dumps(emit(K, r, budget)).encode()).hexdigest()
        got = (r.status.value, r.lower_bound, r.upper_bound, r.checks, len(r.unknown_sets), digest)
        assert got == self.BUDGET_PINNED[kind, name, budget]

    # (value, checks, sha256 of the scat certificate), recorded before class
    # queries read the strong-collapse record of maps._retraction_chain: both
    # surfaces make BFS queries whose domain and codomain cores have several
    # vertices, so the lifted witnesses go through both retractions.
    SCAT_PINNED = {
        "torus": (2, 213, "5e5d5a0b2c503af080351f5a0ccd3931c2526fb1db99e918d6ab0cde8f4cad67"),
        "RP2": (2, 123, "dc4af5a7f92a02d1fa3482aaeaaffa69e03413ce378ea390f6ece4c5d8ee8b45"),
    }
    SURFACES = {"torus": corpusgen.TORUS7, "RP2": corpusgen.RP2_6}

    @pytest.mark.parametrize("name", list(SCAT_PINNED))
    def test_surface_scat_pinned(self, name):
        K = build_complex(self.SURFACES[name])
        r = scat(K)
        assert r.status is Status.EXACT
        digest = hashlib.sha256(dumps(emit_scat(K, r, DEFAULT_BUDGET)).encode()).hexdigest()
        assert (r.value, r.checks, digest) == self.SCAT_PINNED[name]

    # sha256 of the core certificate, recorded with the scat pins above.
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
