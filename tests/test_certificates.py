import copy
import json

from simplicial_tc import (
    InvariantResult,
    Status,
    Verdict,
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
        assert self.rejected(tc_cert(boundary_triangle), status="budget-exhausted")

    def test_budget_exhausted_bounds(self, boundary_triangle):
        cert = tc_cert(boundary_triangle)  # three cover classes
        partial = dict(status="budget-exhausted", value=None)
        assert not self.rejected(cert, lower=1, upper=2, **partial)
        assert self.rejected(cert, lower=3, upper=2, **partial)
        assert self.rejected(cert, lower=1, upper=1, **partial)
        assert self.rejected(cert, lower=1, upper=3, **partial)
        assert self.rejected(cert, lower=1, upper=2, cover=None, **partial)

    def test_non_integer_bounds(self, boundary_triangle):
        cert = tc_cert(boundary_triangle)  # three cover classes
        partial = dict(status="budget-exhausted", value=None)
        assert self.rejected(cert, lower=True, upper=2, **partial)
        assert self.rejected(cert, lower="1", upper=2, **partial)
        assert self.rejected(cert, lower=1, upper=2.0, **partial)

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
