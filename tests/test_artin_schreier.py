import random
from math import comb

import pytest

from extraspecial import (ASConstantSpec, ExtRational, INF, LaurentSeries,
                          validate_reduced_AS, witt_carry, witt_carry_coeffs, residue_field)
from conftest import random_elem, random_series


class TestWpEval:
    """x^p - x, the Artin-Schreier operator of the tower relations."""

    def test_kills_prime_field(self, f9):
        one = LaurentSeries.one(f9)
        assert (one**3 - one).is_zero()

    def test_monomial(self, f9):
        x = LaurentSeries.monomial(f9, 1, -1)
        assert x**3 - x == LaurentSeries(f9, {-1: 2, -3: 1})

    def test_additive_in_char_p(self, f9):
        rng = random.Random(3)
        for _ in range(20):
            a = random_series(f9, rng)
            b = random_series(f9, rng)
            assert (a + b) ** 3 - (a + b) == (a**3 - a) + (b**3 - b)


class TestWittCarry:
    def test_p3_closed_form(self):
        # D(X, Y) = -X^2 Y - X Y^2 at p = 3
        assert witt_carry_coeffs(3) == {1: -1, 2: -1}

    def test_carry_of_zero(self, f9):
        x = random_series(f9, random.Random(1), nonzero=True)
        assert witt_carry(x, LaurentSeries.zero(f9), 3).is_zero()

    def test_p5_coefficient(self):
        # coefficient of X^2 Y^3 is -binom(5,2)/5 = -2
        assert witt_carry_coeffs(5)[2] == -2

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_defining_identity_over_integers(self, p):
        # X^p + Y^p - (X+Y)^p = p * D(X, Y), checked monomial by monomial
        coeffs = witt_carry_coeffs(p)
        for i in range(1, p):
            assert p * coeffs[i] == -comb(p, i)
        assert set(coeffs) == set(range(1, p))

    @pytest.mark.parametrize("p", [3, 5])
    def test_identity_on_series(self, p):
        field = residue_field(p, 2)
        rng = random.Random(p)
        for _ in range(10):
            x = random_series(field, rng, min_exp=-3, max_exp=3)
            y = random_series(field, rng, min_exp=-3, max_exp=3)
            # in char p the identity reads (x+y)^p = x^p + y^p - p D = x^p + y^p
            assert witt_carry(x, y, p) * p == LaurentSeries.zero(field)
            assert (x + y) ** p == x**p + y**p


def spec_of(field, e0, pairs):
    return ASConstantSpec(field, e0 if isinstance(e0, ExtRational) else ExtRational(e0),
                          tuple(pairs))


class TestValidateReduced:
    def test_independent_pair_passes(self, f9):
        rep = validate_reduced_AS(spec_of(f9, INF, [(-1, f9.one()), (-1, f9.gen())]))
        assert rep.ok
        assert rep.range_lower_vacuous and rep.tail_vacuous

    def test_dependent_pair_fails_independence(self, f9):
        rep = validate_reduced_AS(spec_of(f9, INF, [(-1, f9.one()), (-1, f9(2))]))
        assert not rep.independent_ok
        assert not rep.ok

    def test_divisible_valuation_fails(self, f9):
        rep = validate_reduced_AS(spec_of(f9, 10, [(-3, f9.one()), (-1, f9.gen())]))
        assert not rep.coprime_ok

    def test_single_constant_tail_vacuous(self, f9):
        rep = validate_reduced_AS(spec_of(f9, 10, [(-1, f9.one())]))
        assert rep.tail_vacuous and rep.ok

    def test_ordering_enforced(self, f9):
        rep = validate_reduced_AS(spec_of(f9, 10, [(-5, f9.one()), (-1, f9.gen())]))
        assert not rep.range_ok

    def test_depth_bound(self, f9):
        # -p e0/(p-1) = -3 at e0 = 2: valuation -4 is too deep, -2 is fine
        deep = validate_reduced_AS(spec_of(f9, 2, [(-1, f9.one()), (-4, f9.gen())]))
        assert not deep.range_ok
        ok = validate_reduced_AS(spec_of(f9, 2, [(-1, f9.one()), (-2, f9.gen())]))
        assert ok.range_ok

    def test_tail_condition(self, f9):
        # p e0 + (p-1) v(a_k) + v(a_(k-1)) > 0: e0=4, vals (-1, -5): 12-10-1 > 0
        assert validate_reduced_AS(spec_of(f9, 4, [(-1, f9.one()), (-5, f9.gen())])).tail_ok
        # e0=2: 6-10-1 < 0
        assert not validate_reduced_AS(spec_of(f9, 2, [(-1, f9.one()), (-5, f9.gen())])).tail_ok

    def test_monotone_in_e0(self, f9):
        rng = random.Random(17)
        e0s = [1, 2, 3, 5, 9, 20, 100, INF]
        for _ in range(40):
            k = rng.randint(1, 4)
            vals = sorted((-rng.randint(1, 12) for _ in range(k)), reverse=True)
            pairs = [(v, random_elem(f9, rng, nonzero=True)) for v in vals]
            prev_i = prev_iv = False
            for e0 in e0s:
                rep = validate_reduced_AS(spec_of(f9, e0 if isinstance(e0, ExtRational)
                                                  else ExtRational(e0), pairs))
                assert not (prev_i and not rep.range_ok)
                assert not (prev_iv and not rep.tail_ok)
                prev_i, prev_iv = rep.range_ok, rep.tail_ok

    def test_permuting_equal_run_keeps_verdict(self, f27):
        g = f27.gen()
        runs = [(-1, f27.one()), (-1, g), (-1, g * g), (-7, g)]
        base = validate_reduced_AS(spec_of(f27, INF, runs))
        shuffled = [runs[2], runs[0], runs[1], runs[3]]
        assert validate_reduced_AS(spec_of(f27, INF, shuffled)).ok == base.ok
