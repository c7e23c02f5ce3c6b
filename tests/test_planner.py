import math
import time
from fractions import Fraction

import pytest

from extraspecial import (INF, TowerParams, example_family, gms_verdict,
                          plan, residue_field)
from extraspecial.planner import default_leads


def family_params(p, n, u, t, variant, e0):
    field = residue_field(p, 2 * n)
    return TowerParams(p=p, n=n, variant=variant, e0=e0, r=u,
                       m=(0,) * (2 * n) + (t,), leads=default_leads(field, n),
                       field=field)


class TestPlanExamples:
    def test_h_char_p(self):
        params = family_params(3, 1, 1, 1, "H", INF)
        rep = plan(params, mode="full")
        assert rep.u == (1, 1, 10)
        assert rep.b == (1, 1, 82)
        assert rep.certified
        assert all(c.holds for c in rep.checks)
        assert rep.cfrak == 64

    def test_m_char_p(self):
        rep = plan(family_params(3, 1, 1, 1, "M", INF), mode="full")
        assert rep.cfrak == 55
        assert rep.certified

    def test_h_simple_finite_e0_boundary(self):
        rep = plan(family_params(3, 1, 1, 1, "H", 10), mode="simple")
        simple = next(c for c in rep.checks if c.id == "Hsimple")
        assert simple.holds and simple.slack == 0
        assert rep.certified and rep.cfrak == 64

    def test_full_mode_check_ids(self):
        rep = plan(family_params(3, 1, 1, 1, "H", 100), mode="full")
        assert [c.id for c in rep.checks] == ["H1", "H2", "H3", "H5", "H4"]
        rep = plan(family_params(3, 1, 1, 1, "M", 100), mode="full")
        assert [c.id for c in rep.checks] == ["M1", "M2", "M6", "M3", "M5", "M4", "M7"]

    def test_simple_mode_check_ids_and_notes(self):
        rep = plan(family_params(3, 1, 1, 1, "H", INF), mode="simple")
        assert [c.id for c in rep.checks] == ["Hsimple", "H4"]
        assert rep.notes == ("simple mode retains the b_top inequality H4; "
                             "its role is load-bearing in the full system",)
        rep = plan(family_params(3, 1, 1, 1, "M", INF), mode="simple")
        assert [c.id for c in rep.checks] == ["Msimple", "M4", "M7"]
        assert rep.notes == ("simple mode retains the b_top inequalities M4 and M7; "
                             "their role is load-bearing in the full system",)

    def test_failing_family(self):
        # u = 5, t = 1: b_top = 86 but p^2(u_n + u_2n) = 90, H4 fails
        rep = plan(family_params(3, 1, 5, 1, "H", INF), mode="full")
        assert not rep.certified
        assert rep.cfrak is None
        h4 = next(c for c in rep.checks if c.id == "H4")
        assert not h4.holds

    def test_b_congruence_asserted(self):
        rep = plan(family_params(3, 2, 2, 3, "H", INF))
        assert all((bi - rep.b[0]) % 3**5 == 0 for bi in rep.b)


class TestParamValidation:
    def test_p_divides_r(self):
        with pytest.raises(ValueError, match="divides u_1"):
            family_params(3, 1, 3, 1, "H", INF)

    def test_q_too_small(self):
        field = residue_field(3, 1)
        with pytest.raises(ValueError, match="p\\^\\(2n\\)"):
            TowerParams(p=3, n=1, variant="H", e0=INF, r=1, m=(0, 0, 1),
                        leads=(field.one(), field(2), field.one()), field=field)

    def test_decreasing_m(self):
        field = residue_field(3, 2)
        with pytest.raises(ValueError, match="nondecreasing"):
            TowerParams(p=3, n=1, variant="H", e0=INF, r=1, m=(1, 0, 1),
                        leads=default_leads(field, 1), field=field)

    @pytest.mark.parametrize("e0", [0, -1, Fraction(-1, 2)])
    def test_nonpositive_e0(self, e0):
        with pytest.raises(ValueError, match="e0 must be positive"):
            family_params(3, 1, 1, 1, "H", e0)

    @pytest.mark.parametrize("e0", [1.5, 100.0, math.nan, -math.inf, "inf"])
    def test_inexact_e0(self, e0):
        # a float other than INF has lost its exact value; it never reaches a report
        with pytest.raises(ValueError, match="neither INF nor an int or Fraction"):
            family_params(3, 1, 1, 1, "H", e0)

    def test_bad_variant(self):
        field = residue_field(3, 2)
        with pytest.raises(ValueError, match="variant"):
            TowerParams(p=3, n=1, variant="X", e0=INF, r=1, m=(0, 0, 1),
                        leads=default_leads(field, 1), field=field)


class TestGmsVerdict:
    def test_free(self):
        assert gms_verdict(3, 1, 64, 1) == "free"

    def test_free_and_hopf(self):
        assert gms_verdict(3, 1, 125, 26) == "free-and-hopf"

    def test_no_conclusion(self):
        assert gms_verdict(3, 1, 64, 5) == "no-conclusion"

    def test_requires_positive_precision(self):
        with pytest.raises(ValueError):
            gms_verdict(3, 1, 0, 1)

    @pytest.mark.parametrize("u1", [-1, -28])
    def test_requires_positive_u1(self, u1):
        with pytest.raises(ValueError, match="positive upper ramification"):
            gms_verdict(3, 1, 60, u1)

    def test_monotone_in_precision(self):
        order = {"no-conclusion": 0, "free": 1, "free-and-hopf": 2}
        for u1 in (1, 5, 26, 53):
            prev = 0
            for c in range(1, 200):
                v = order[gms_verdict(3, 1, c, u1)]
                assert v >= prev
                prev = v

    def test_modular_order_matches_full_powers(self):
        # the 'free' test on residues mod rho against the same test on the
        # full p^m - 1, at every precision where it decides the verdict
        for p in (3, 5, 7):
            for n in (1, 2, 3):
                pn2t = p ** (2 * n + 1)
                for u1 in range(1, 200):
                    if u1 % p == 0:
                        continue
                    rho = u1 % pn2t
                    divides = any((p**m - 1) % rho == 0 for m in range(1, 2 * n + 2))
                    assert gms_verdict(p, n, rho, u1) == \
                        ("free" if divides else "no-conclusion")

    def test_large_n_is_quick(self):
        # the order of 3 mod rho = 1,000,003 is 333,334 > 2n + 1, so every m
        # is tested; on the full powers 3^m - 1 this took about 26 s
        start = time.perf_counter()
        assert gms_verdict(3, 30000, 10**8, 1000003) == "no-conclusion"
        assert time.perf_counter() - start < 5


class TestExampleFamily:
    @pytest.mark.parametrize("variant,p,n,u,t,e0", [
        ("H", 3, 1, 1, 1, INF), ("M", 3, 1, 26, 10, 836),
        ("H", 5, 1, 2, 1, INF), ("M", 3, 2, 1, 1, INF)])
    def test_one_family_builder(self, variant, p, n, u, t, e0):
        # the planner's builder gives the params both the oracle and
        # example_family built by hand, here family_params of this file
        from extraspecial import planner
        assert planner.family_params(variant, p, n, u, t, e0, None) == \
            family_params(p, n, u, t, variant, e0)

    def test_family_builder_field_from_q(self):
        from extraspecial import planner
        params = planner.family_params("H", 3, 1, 1, 1, INF, 27)
        assert params.q == 27 and params.field == residue_field(3, 3)

    def test_family_builder_validates_only_through_params(self):
        # t = 0 is a valid (uncertified) parameter set; example_family rejects it
        from extraspecial import planner
        assert planner.family_params("H", 3, 1, 1, 0, INF, None).m == (0, 0, 0)
        with pytest.raises(ValueError, match="positive"):
            example_family(3, 1, 1, 0, "H")

    def test_h_free(self):
        rep = example_family(3, 1, 1, 1, "H")
        assert rep.cfrak == 64 and rep.gms == "free" and rep.certified

    def test_h_hopf(self):
        rep = example_family(3, 1, 26, 7, "H")
        assert rep.b == (26, 26, 593)
        assert rep.cfrak == 125 and rep.gms == "free-and-hopf"

    def test_m_hopf(self):
        rep = example_family(3, 1, 26, 10, "M")
        assert rep.b[-1] == 836
        assert rep.cfrak == 134 and rep.gms == "free-and-hopf"

    def test_rejects_divisible_u(self):
        with pytest.raises(ValueError):
            example_family(3, 1, 6, 1, "H")

    def test_p7_family(self):
        # F_49 field path: precision t p^4 + u - 2u p^2 = 2401 + 1 - 98
        rep = example_family(7, 1, 1, 1, "H")
        assert rep.params.q == 49
        assert rep.cfrak == 2304
        assert rep.gms == "free"

    def test_n2_family(self):
        # degree p^5 towers over F_81: closed form t p^8 + u - 2u p^4
        rep = example_family(3, 2, 1, 1, "H")
        assert rep.params.q == 81
        assert rep.u == (1, 1, 1, 1, 82)
        assert rep.b == (1, 1, 1, 1, 6562)
        assert rep.cfrak == 6561 + 1 - 2 * 81
        assert rep.gms == "free"
        rep_m = example_family(3, 2, 1, 1, "M")
        assert rep_m.cfrak == 6561 + 1 - 243

    @pytest.mark.parametrize("variant", ["H", "M"])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_n3_family(self, p, variant):
        # degree p^7 towers over F_(p^6): closed form t p^12 + u - 2u p^6 (H)
        # or t p^12 + u - u p^7 (M)
        rep = example_family(p, 3, 1, 1, variant)
        assert rep.params.q == p**6
        assert rep.b == (1,) * 6 + (p**12 + 1,)
        assert rep.certified
        assert rep.cfrak == p**12 + 1 - (2 * p**6 if variant == "H" else p**7)

    def test_closed_form_matches_on_grid(self):
        # the family's closed-form precision equals the general minimum
        # whenever m_1 = ... = m_2n = 0, in simple mode and in full mode
        # at the boundary value e0 = u_top
        for u in range(1, 21):
            if u % 3 == 0:
                continue
            for t in range(1, 11):
                for variant in ("H", "M"):
                    rep = example_family(3, 1, u, t, variant)
                    if not rep.certified:
                        continue
                    closed = t * 81 + u - (18 if variant == "H" else 27) * u
                    assert rep.cfrak == closed
                    full = plan(family_params(3, 1, u, t, variant, u + 9 * t), mode="full")
                    assert full.certified and full.cfrak == closed


class TestModeImplication:
    def test_simple_certifies_implies_full_certifies(self):
        # whenever u_top <= e0, a simple-mode pass forces a full-mode pass
        for u in (1, 2, 4, 5, 7, 26):
            for t in (1, 2, 7, 10):
                for variant in ("H", "M"):
                    params = family_params(3, 1, u, t, variant, u + 9 * t)
                    simple = plan(params, mode="simple")
                    if simple.certified:
                        assert plan(params, mode="full").certified

    def test_certified_invariants(self):
        for u in (1, 2, 26):
            for t in (1, 3, 10):
                for variant in ("H", "M"):
                    rep = example_family(3, 1, u, t, variant)
                    if rep.certified:
                        assert rep.cfrak >= 1
                        assert rep.b[-1] > 9 * (rep.u[0] + rep.u[1])


class TestReportShape:
    def test_to_dict_keys(self):
        d = example_family(3, 1, 1, 1, "H").to_dict()
        assert d["schema"] == 1
        assert d["verdict"] == "scaffold-certified"
        assert d["cfrak"] == 64
        assert isinstance(d["checks"], list)

    def test_not_applicable_precision(self):
        d = plan(family_params(3, 1, 5, 1, "H", INF)).to_dict()
        assert d["cfrak"] == "not-applicable"
