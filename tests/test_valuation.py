import math
import random
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extraspecial import (INF, FFElem, LaurentSeries, PrecisionError, ResidueField,
                          residue_field)
from extraspecial.valuation import (_idx_to_poly, _poly_mod, _poly_mul, _poly_trim,
                                    extended_json, parse_extended)
from conftest import const, elem_from_index, random_elem, random_series


class TestExtended:
    def test_infinity_absorbs_addition(self):
        assert INF + 5 == INF
        assert Fraction(1, 3) + INF == INF

    def test_infinity_dominates_comparison(self):
        assert INF > 10**12
        assert not INF < INF
        assert INF >= INF

    def test_json_roundtrip(self):
        for v in (5, Fraction(7, 3), Fraction(-10, 3), INF):
            assert parse_extended(str(extended_json(v))) == v

    def test_json_forms(self):
        assert extended_json(Fraction(6, 3)) == 2
        assert type(extended_json(Fraction(6, 3))) is int
        assert extended_json(Fraction(-10, 3)) == "-10/3"
        assert extended_json(INF) == "inf"

    @pytest.mark.parametrize("x", [math.nan, -math.inf, 1.5, 2.0])
    def test_json_refuses_inexact(self, x):
        # a float other than INF is an exact value already lost
        with pytest.raises(ValueError, match="not an exact number"):
            extended_json(x)

    def test_parse(self):
        for text in ("inf", "+inf", "infinity", " inf"):
            assert parse_extended(text) == INF
        assert parse_extended("82") == 82
        assert parse_extended("7/3") == Fraction(7, 3)
        assert parse_extended("1e3") == 1000
        assert parse_extended("0.5") == Fraction(1, 2)

    @pytest.mark.parametrize("text", ["nan", "-inf", "Infinity", "abc", ""])
    def test_parse_refuses(self, text):
        with pytest.raises(ValueError):
            parse_extended(text)

    def test_parse_zero_denominator_is_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_extended("1/0")


class TestResidueField:
    def test_unsupported_characteristic_rejected(self):
        with pytest.raises(ValueError):
            residue_field(11, 1)

    def test_generator_order(self, f9):
        g = f9.gen()
        powers = {(g**k).idx for k in range(8)}
        assert len(powers) == 8 and (g**8) == f9.one()

    def test_frobenius_is_identity_on_prime_field(self, f9):
        for c in range(3):
            assert const(f9, c).frobenius() == const(f9, c)
        assert const(f9, f9.gen()).frobenius() != const(f9, f9.gen())

    def test_inverse(self, f25):
        for i in range(1, 25):
            x = elem_from_index(f25, i)
            assert ref_mul_index(f25, x.idx, (x ** -1).idx) == 1

    @pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (3, 3)])
    def test_negative_powers(self, p, d):
        field = residue_field(p, d)
        for i in range(1, field.q):
            x = elem_from_index(field, i)
            for j in (1, 2, p, field.q - 2, field.q - 1, field.q + 3):
                assert ref_mul_index(field, (x ** -j).idx, (x ** j).idx) == 1
        for e in (1, 2, field.q - 1):
            with pytest.raises(ZeroDivisionError):
                field(0) ** -e

    def test_parse_negative_power(self, f9):
        assert f9.parse_element("g^-1") == f9.gen() ** 7
        assert f9.format_element(f9.parse_element("g^-1")) == "g^7"

    def test_format_parse_roundtrip(self, f9):
        for x in (elem_from_index(f9, i) for i in range(9)):
            assert f9.parse_element(f9.format_element(x)) == x


SUPPORTED_FIELDS = [(p, d) for p in (3, 5, 7) for d in (1, 2, 3, 4)]


# The reference F_q: elements as trimmed coordinate tuples over F_p (the
# power basis of the modulus), summed coordinatewise and multiplied as
# polynomials modulo the modulus.  It reads none of the field's tables.


def coords(field, idx: int) -> tuple[int, ...]:
    return _poly_trim(list(_idx_to_poly(idx, field.d, field.p)))


def coord_add(field, a, b):
    return _poly_trim([(x + y) % field.p for x, y in zip_longest(a, b, fillvalue=0)])


def coord_neg(field, a):
    return tuple(-x % field.p for x in a)


def coord_mul(field, a, b):
    return _poly_mod(_poly_mul(a, b, field.p), field.modulus, field.p)


def coord_pow(field, a, e: int):
    out = (1,)
    for bit in bin(e)[2:]:
        out = coord_mul(field, out, out)
        if bit == "1":
            out = coord_mul(field, out, a)
    return out


def ref_mul_index(field, a: int, b: int) -> int:
    """Reference product: polynomial multiplication modulo the modulus."""
    return field(coord_mul(field, coords(field, a), coords(field, b))).idx


def ref_pow_index(field, a: int, e: int) -> int:
    return field(coord_pow(field, coords(field, a), e)).idx


def poly_order(field, a: int) -> int:
    k, acc = 1, a
    while acc != 1:
        acc = ref_mul_index(field, acc, a)
        k += 1
    return k


def check_field_ops(field, a: int, b: int) -> None:
    """The table arithmetic, on constant series, against coordinatewise
    add and polynomial mul."""
    ca, cb = coords(field, a), coords(field, b)
    x, y = const(field, FFElem(field, a)), const(field, FFElem(field, b))
    assert x + y == const(field, coord_add(field, ca, cb))
    assert -x == const(field, coord_neg(field, ca))
    assert x - y == const(field, coord_add(field, ca, coord_neg(field, cb)))
    product = const(field, coord_mul(field, ca, cb))
    assert x * y == product
    assert x * FFElem(field, b) == product


class TestFieldTablesAgainstPolynomials:
    @pytest.mark.parametrize("p,d", [(p, d) for p, d in SUPPORTED_FIELDS if p**d <= 81])
    def test_all_pairs(self, p, d):
        field = residue_field(p, d)
        q = field.q
        for a in range(q):
            for b in range(q):
                check_field_ops(field, a, b)
            for e in (0, 1, 2, p, q - 2, q - 1, q, 2 * q + 1):
                assert field._pow_idx(a, e) == ref_pow_index(field, a, e)
            if a:
                x = field(_idx_to_poly(a, d, p))
                assert ref_mul_index(field, a, (x ** -1).idx) == 1
                assert field.gen() ** field.discrete_log(x) == x

    @pytest.mark.parametrize("p,d", [(5, 4), (7, 4)])
    def test_seeded_sample(self, p, d):
        field = residue_field(p, d)
        rng = random.Random(p * 10 + d)
        for _ in range(3000):
            a, b = rng.randrange(field.q), rng.randrange(field.q)
            check_field_ops(field, a, b)
            e = rng.randrange(3 * field.q)
            assert field._pow_idx(a, e) == ref_pow_index(field, a, e)
            if a:
                x = field(_idx_to_poly(a, d, p))
                assert ref_mul_index(field, a, (x ** -1).idx) == 1
                assert field.gen() ** field.discrete_log(x) == x

    @pytest.mark.parametrize("p,d", SUPPORTED_FIELDS)
    def test_generator_is_least_index_of_full_order(self, p, d):
        # every "g^j" in the CLI's JSON depends on this choice of g
        field = residue_field(p, d)
        g = field.gen().idx
        assert poly_order(field, g) == field.q - 1
        assert all(poly_order(field, c) < field.q - 1 for c in range(1, g))


class TestSeriesExamples:
    def test_monomial_product(self, f9):
        a = LaurentSeries.monomial(f9, 1, -1)
        b = LaurentSeries.monomial(f9, 1, -2)
        assert (a * b) == LaurentSeries.monomial(f9, 1, -3)

    def test_difference_of_squares(self, f9):
        one_plus = LaurentSeries(f9, {0: 1, 1: 1})
        one_minus = LaurentSeries(f9, {0: 1, 1: 2})
        assert (one_plus * one_minus) == LaurentSeries(f9, {0: 1, 2: 2})

    def test_product_valuation_with_cancelling_tail(self, f9):
        a = LaurentSeries(f9, {-1: 1})
        b = LaurentSeries(f9, {-1: 2, 3: 1})
        assert (a * b).valuation() == -2

    def test_inverse_of_uniformizer(self, f9):
        inv = LaurentSeries.monomial(f9, 1, 1).inverse(window=4)
        want = LaurentSeries.monomial(f9, 1, -1)
        assert inv.truncate(want.prec) == want.truncate(inv.prec)

    def test_geometric_inverse(self, f9):
        inv = LaurentSeries(f9, {0: 1, 1: 1}).inverse(window=5)
        # 1 - pi + pi^2 - ... with -1 = 2 in F_3
        assert inv == LaurentSeries(f9, {0: 1, 1: 2, 2: 1, 3: 2, 4: 1}, prec=5)

    def test_monomial_inverse_with_coefficient(self, f9):
        c = f9.gen() ** 3
        inv = LaurentSeries.monomial(f9, c, -1).inverse(window=4)
        want = LaurentSeries.monomial(f9, c ** -1, 1)
        assert inv.truncate(want.prec) == want.truncate(inv.prec)

    def test_frobenius_monomial(self, f9):
        assert LaurentSeries.monomial(f9, 1, -1).frobenius() == \
            LaurentSeries.monomial(f9, 1, -3)

    def test_frobenius_generator_coefficient(self, f9):
        g = f9.gen()
        assert LaurentSeries.monomial(f9, g, 1).frobenius() == \
            LaurentSeries.monomial(f9, g**3, 3)


class TestPrecisionSemantics:
    def test_exact_zero_valuation_is_infinite(self, f9):
        assert LaurentSeries.zero(f9).valuation() == math.inf

    def test_imprecise_zero_valuation_raises(self, f9):
        z = LaurentSeries(f9, {}, prec=10)
        with pytest.raises(PrecisionError):
            z.valuation()

    def test_imprecise_zero_product_is_a_lower_bound(self, f9):
        # v(O(pi^10)) >= 10, so O(pi^10) * b = O(pi^(10 + v(b))): still unknown
        z = LaurentSeries(f9, {}, prec=10)
        prod = z * LaurentSeries.one(f9)
        assert prod == LaurentSeries(f9, {}, prec=10)
        assert not prod.is_zero()
        with pytest.raises(PrecisionError):
            prod.valuation()
        assert (z * LaurentSeries.monomial(f9, 1, -3)).prec == 7
        assert (z * LaurentSeries(f9, {}, prec=-2)).prec == 8
        assert (z * LaurentSeries.zero(f9)).is_zero()

    def test_no_truth_value(self, f9):
        # an imprecise zero is neither zero nor nonzero, so no series is truthy
        for s in (LaurentSeries.zero(f9), LaurentSeries(f9, {}, prec=10),
                  LaurentSeries.one(f9)):
            with pytest.raises(TypeError, match=r"use is_zero\(\)"):
                bool(s)

    def test_mul_precision_rule(self, f9):
        a = LaurentSeries(f9, {-1: f9(1)}, prec=5)
        b = LaurentSeries(f9, {2: f9(2)}, prec=7)
        # min(val(a) + prec(b), val(b) + prec(a)) = min(-1 + 7, 2 + 5) = 6
        assert (a * b).prec == 6

    def test_exact_zero_product_stays_exact(self, f9):
        z = LaurentSeries.zero(f9)
        a = LaurentSeries(f9, {-1: f9(1)}, prec=5)
        assert (z * a).is_zero()

    def test_exact_inverse_needs_a_window(self, f9):
        # the caller owns the window: nothing picks one for an exact input
        one = LaurentSeries.monomial(f9, 1, 0)
        with pytest.raises(ValueError):
            one.inverse()
        with pytest.raises(ValueError):
            one ** -1
        assert one.inverse(window=7).prec == 7
        assert LaurentSeries(f9, {0: 1, 1: 1}, prec=5).inverse().prec == 5


@st.composite
def exact_series(draw):
    field = residue_field(3, 2)
    n = draw(st.integers(0, 4))
    coeffs = {}
    for _ in range(n):
        e = draw(st.integers(-5, 5))
        idx = draw(st.integers(1, 8))
        coeffs[e] = field((idx % 3, idx // 3))
    return LaurentSeries(field, coeffs)


class TestRingAxioms:
    @settings(max_examples=150, deadline=None)
    @given(exact_series(), exact_series(), exact_series())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=150, deadline=None)
    @given(exact_series(), exact_series())
    def test_valuation_rules(self, a, b):
        va, vb = a.valuation(), b.valuation()
        if va != math.inf and vb != math.inf:
            assert (a * b).valuation() == va + vb
        s = a + b
        assert s.valuation() >= min(va, vb)
        if va != vb:
            assert s.valuation() == min(va, vb)

    @settings(max_examples=100, deadline=None)
    @given(exact_series(), exact_series())
    def test_frobenius_is_homomorphism(self, a, b):
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()

    @settings(max_examples=100, deadline=None)
    @given(exact_series(), exact_series(), exact_series())
    def test_ring_axioms_at_matching_precision(self, a, b, c):
        # a truncated zero is an imprecise zero O(pi^9); its valuation bound
        # 9 enters products, so the axioms hold for it too
        a, b, c = (x.truncate(9) for x in (a, b, c))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        # distributing can only lose window: when b + c cancels its leading
        # term, a*(b+c) certifies more coefficients than a*b + a*c, so the
        # law holds on the common window rather than with equal precision
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert lhs.truncate(rhs.prec) == rhs.truncate(lhs.prec)
        assert lhs.prec >= rhs.prec


class TestTextualForm:
    """str(series): terms in increasing exponent, coefficients as the field
    formats them, a unit coefficient left out, and the window as O(pi^prec)."""

    def test_format(self, f9):
        assert str(LaurentSeries(f9, {-3: 1, -1: 2, 0: 1})) == "pi^-3 + 2*pi^-1 + 1"
        assert str(LaurentSeries.zero(f9)) == "0"
        g = f9.format_element(f9.gen())
        assert str(LaurentSeries.monomial(f9, f9.gen(), 2)) == f"{g}*pi^2"

    def test_truncated_format(self, f9):
        s = LaurentSeries(f9, {-2: 1, 0: 2}, prec=9)
        assert str(s) == "pi^-2 + 2 + O(pi^9)"
        assert str(LaurentSeries(f9, {}, prec=4)) == "0 + O(pi^4)"


class TestInverseRoundtrip:
    def test_double_inverse_agrees(self, f9):
        rng = random.Random(7)
        for _ in range(25):
            a = random_series(f9, rng, nonzero=True)
            again = a.inverse(window=20).inverse()
            assert again.truncate(a.prec) == a.truncate(again.prec)

    def test_inverse_checks_out(self, f27):
        rng = random.Random(11)
        for _ in range(25):
            a = random_series(f27, rng, nonzero=True)
            prod = a * a.inverse(window=40)
            assert prod.truncate(10) == LaurentSeries(f27, {0: 1}, prec=10)

    def test_inverse_valuation(self, f9):
        rng = random.Random(13)
        for _ in range(25):
            a = random_series(f9, rng, nonzero=True)
            assert a.inverse(window=1).valuation() == -a.valuation()


class RefSeries:
    """Reference series arithmetic, one coefficient at a time on the
    reference F_q: coordinate tuples, not the field's tables.

    ``coeffs`` maps exponents below ``prec`` to nonzero coordinate tuples;
    the rules are those :class:`LaurentSeries` documents."""

    def __init__(self, field, coeffs, prec=math.inf):
        self.field = field
        self.coeffs = {e: c for e, c in coeffs.items() if c and e < prec}
        self.prec = prec

    @classmethod
    def of(cls, s: LaurentSeries) -> "RefSeries":
        return cls(s.field, {e: coords(s.field, c) for e, c in s.coeffs.items()}, s.prec)

    def valuation(self):
        if self.coeffs:
            return min(self.coeffs)
        if self.prec == math.inf:
            return math.inf
        raise PrecisionError("imprecise zero")

    def __add__(self, other):
        prec = min(self.prec, other.prec)
        out = {e: coord_add(self.field, self.coeffs.get(e, ()), other.coeffs.get(e, ()))
               for e in set(self.coeffs) | set(other.coeffs)}
        return RefSeries(self.field, out, prec)

    def __neg__(self):
        f = self.field
        return RefSeries(f, {e: coord_neg(f, c) for e, c in self.coeffs.items()}, self.prec)

    def bound(self):
        """v >= bound: the valuation, or N for an imprecise zero O(pi^N)."""
        return min(self.coeffs) if self.coeffs else self.prec

    def __mul__(self, other):
        f = self.field
        prec = min(self.bound() + other.prec, other.bound() + self.prec)
        out = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                out[ea + eb] = coord_add(f, out.get(ea + eb, ()), coord_mul(f, ca, cb))
        return RefSeries(f, out, prec)

    def scale(self, c):
        f = self.field
        c = coords(f, f(c).idx)
        if not c:
            return RefSeries(f, {}, math.inf)
        return RefSeries(f, {e: coord_mul(f, x, c) for e, x in self.coeffs.items()}, self.prec)

    def inverse(self, window=None):
        v = self.valuation()
        if v == math.inf:
            raise ZeroDivisionError("inverse of the zero series")
        if self.prec == math.inf:
            if window is None:
                raise ValueError("no window")
            w = window
        else:
            w = int(self.prec - v) if window is None else min(window, int(self.prec - v))
        f = self.field
        lead_inv = coord_pow(f, self.coeffs[v], f.q - 2)
        unit = {e - v: coord_mul(f, c, lead_inv) for e, c in self.coeffs.items()}
        inv = [(1,)]
        for k in range(1, w):
            acc = ()
            for j, u in unit.items():
                if 0 < j <= k:
                    acc = coord_add(f, acc, coord_mul(f, u, inv[k - j]))
            inv.append(coord_neg(f, acc))
        return RefSeries(f, {k - v: coord_mul(f, c, lead_inv) for k, c in enumerate(inv)},
                         -v + w)

    def frobenius(self):
        f, p = self.field, self.field.p
        return RefSeries(f, {p * e: coord_pow(f, c, p) for e, c in self.coeffs.items()},
                         p * self.prec)


def outcome(fn):
    """A series as (exponent -> coordinates, prec), or the type of the exception raised."""
    try:
        s = fn()
    except (PrecisionError, ZeroDivisionError, ValueError) as exc:
        return type(exc)
    if isinstance(s, LaurentSeries):
        s = RefSeries.of(s)
    return s.coeffs, s.prec


def operand(field, rng: random.Random) -> LaurentSeries:
    """Exact, truncated, imprecise-zero or top-heavy (large discrete log) series."""
    kind = rng.randrange(4)
    if kind == 3:
        # coefficients g^j with 2j >= q-1, so products wrap past one log period
        g = field.gen()
        coeffs = {rng.randint(-4, 4): g ** rng.randrange((field.q - 1) // 2, field.q - 1)
                  for _ in range(rng.randint(1, 4))}
        return LaurentSeries(field, coeffs)
    s = random_series(field, rng, min_exp=-4, max_exp=4)
    if kind == 0:
        return s
    prec = rng.randint(-3, 8) if kind == 1 else rng.randint(-6, 6)
    return LaurentSeries(field, {} if kind == 2 else
                         {e: FFElem(field, c) for e, c in s.coeffs.items()}, prec)


class TestSeriesAgainstReference:
    @pytest.mark.parametrize("p,d", SUPPORTED_FIELDS)
    def test_seeded_operations(self, p, d):
        field = residue_field(p, d)
        rng = random.Random(1000 * p + d)
        for _ in range(60):
            a, b = operand(field, rng), operand(field, rng)
            ra, rb = RefSeries.of(a), RefSeries.of(b)
            c = elem_from_index(field, rng.randrange(field.q))
            w = rng.choice([None, 0, 1, rng.randint(2, 24)])
            assert outcome(lambda: a + b) == outcome(lambda: ra + rb)
            assert outcome(lambda: -a) == outcome(lambda: -ra)
            assert outcome(lambda: a * b) == outcome(lambda: ra * rb)
            assert outcome(lambda: a * c) == outcome(lambda: ra.scale(c))
            assert outcome(lambda: a.inverse(w)) == outcome(lambda: ra.inverse(w))
            assert outcome(lambda: a.frobenius()) == outcome(lambda: ra.frobenius())

    @pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (7, 1), (3, 4)])
    def test_monomial_inverse_matches_the_loop(self, p, d):
        # a monomial returns before the inverse loop; RefSeries.inverse runs
        # it, and both must give the same coefficients and prec
        field = residue_field(p, d)
        rng = random.Random(17 * p + d)
        for v in (-82, -1, 0, 1, 5):
            for c in [field.one(), field.gen()] + [random_elem(field, rng, nonzero=True)
                                                   for _ in range(3)]:
                for prec in (math.inf, v + 1, v + 9):
                    a = LaurentSeries(field, {v: c}, prec)
                    for w in (None, 0, 1, 2, 7, 300):
                        assert outcome(lambda: a.inverse(w)) == \
                            outcome(lambda: RefSeries.of(a).inverse(w))
        # a window as wide as the default of the H/M(3,2) towers
        a = LaurentSeries.monomial(field, field.gen(), -82)
        assert outcome(lambda: a.inverse(26248)) == outcome(lambda: RefSeries.of(a).inverse(26248))

    @pytest.mark.parametrize("p,d", SUPPORTED_FIELDS)
    def test_product_of_top_logs(self, p, d):
        # log a + log b = 2(q-2) >= q-1: the sum of logs wraps past one period
        field = residue_field(p, d)
        top = field.gen() ** (field.q - 2)
        a = LaurentSeries(field, {0: top, 1: top, 3: field.one()}, prec=7)
        b = LaurentSeries(field, {-1: top, 2: top})
        for x, y in ((a, b), (a, a), (b, b)):
            assert outcome(lambda: x * y) == outcome(lambda: RefSeries.of(x) * RefSeries.of(y))
        assert outcome(lambda: a.inverse()) == outcome(lambda: RefSeries.of(a).inverse())
        assert outcome(lambda: b.inverse(9)) == outcome(lambda: RefSeries.of(b).inverse(9))


def sparse_operand(field, rng: random.Random, terms: int) -> LaurentSeries:
    """A series of ``terms`` nonzero terms, exact or with a window above
    them all, so the window cuts none of them."""
    exps = rng.sample(range(-30, 30), terms)
    coeffs = {e: elem_from_index(field, rng.randrange(1, field.q)) for e in exps}
    prec = math.inf if rng.randrange(2) else max(exps, default=0) + rng.randint(1, 12)
    return LaurentSeries(field, coeffs, prec)


def same_series(got: LaurentSeries, want: RefSeries) -> bool:
    """The stored indices and window of got are want's, so a zero index
    kept in got fails."""
    return (got.coeffs == {e: got.field(c).idx for e, c in want.coeffs.items()}
            and got.prec == want.prec)


def reflect(s: LaurentSeries) -> LaurentSeries:
    """s(-pi): the terms of odd exponent negated."""
    return LaurentSeries._of(s.field, {e: s.field._neg_idx(c) if e % 2 else c
                                       for e, c in s.coeffs.items()}, s.prec)


class TestSparseKernelAgainstReference:
    """Products and sums by operand shape, monomial by monomial (one log
    sum), monomial by m terms, and m by m, with exact zeros and imprecise
    zeros, against RefSeries: equal coefficients and equal precision."""

    SHAPES = [(1, 1), (1, 4), (4, 1), (3, 5), (0, 1), (1, 0), (0, 4)]

    @pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (5, 2), (7, 1), (7, 2), (3, 4)])
    def test_products_and_sums_by_shape(self, p, d):
        field = residue_field(p, d)
        rng = random.Random(3000 + 10 * p + d)
        imprecise_zero = LaurentSeries(field, {}, prec=rng.randint(-8, 8))
        seen = set()
        for _ in range(40):
            for la, lb in self.SHAPES:
                a, b = sparse_operand(field, rng, la), sparse_operand(field, rng, lb)
                if not la and rng.randrange(2):
                    a = imprecise_zero
                # a + (-a) cancels every term, and a(pi) a(-pi) every odd one
                pairs = [(a, b), (b, a), (a, a), (b, b), (a, -a), (b, reflect(b))]
                for x, y in pairs:
                    rx, ry = RefSeries.of(x), RefSeries.of(y)
                    assert same_series(x * y, rx * ry)
                    assert same_series(x + y, rx + ry)
                    seen.add((len(x.coeffs), x.is_exact, len(y.coeffs), y.is_exact))
        # monomial by monomial in each pairing of exact and windowed
        assert {(1, ex, 1, ey) for ex in (True, False) for ey in (True, False)} <= seen
        assert {(0, True), (0, False)} <= {(n, ex) for n, ex, _, _ in seen}

    def test_fields_are_checked_first(self, f9, f27):
        a, b = LaurentSeries.monomial(f9, 1, 1), LaurentSeries.monomial(f27, 1, 1)
        with pytest.raises(ValueError, match="different residue fields"):
            a * b
        with pytest.raises(ValueError, match="different residue fields"):
            a + b
        assert a.__mul__("x") is NotImplemented and a.__add__(1.5) is NotImplemented
        one, two = LaurentSeries.one(f9), LaurentSeries.monomial(f9, 2)
        assert two + a == a + two == LaurentSeries(f9, {0: 2, 1: 1})
        assert a - one == -(one - a) == LaurentSeries(f9, {0: 2, 1: 1})


class TestFpOffset:
    @pytest.mark.parametrize("p,d", [(3, 2), (3, 3), (5, 2), (7, 1)])
    def test_against_the_difference(self, p, d):
        # the e in F_p with a = b + e, read from a - b: an exact constant
        # whose index is below p, the F_p element of that value
        field = residue_field(p, d)
        tails = [{}, {2: 1}, {-1: field.gen()}]
        found = set()
        for ia in range(field.q):
            for ib in range(field.q):
                for ta, tb in [(tails[0], tails[0]), (tails[1], tails[1]), (tails[1], tails[2])]:
                    a = LaurentSeries(field, {**ta, 0: elem_from_index(field, ia)})
                    b = LaurentSeries(field, {**tb, 0: elem_from_index(field, ib)})
                    diff = a - b
                    want = diff.coeffs.get(0, 0)
                    if diff.coeffs.keys() - {0} or want >= p:
                        want = None
                    assert a.fp_offset(b) == want
                    found.add(want)
        assert found == {None, *range(p)}
        windowed = LaurentSeries.monomial(field, 1, 0, prec=3)
        assert windowed.fp_offset(LaurentSeries.zero(field)) is None
        assert LaurentSeries.one(field).fp_offset(windowed.truncate(0)) is None


class TestCoefficientEdge:
    def test_int_and_element_coefficients_agree(self, f9):
        assert LaurentSeries(f9, {0: 2, 1: 4}) == LaurentSeries(f9, {0: f9(2), 1: f9(1)})
        assert LaurentSeries(f9, {0: 3}).is_zero()

    def test_coefficient_from_another_field_is_value_error(self, f9, f27):
        with pytest.raises(ValueError):
            LaurentSeries(f9, {0: f27.gen()})
        with pytest.raises(ValueError):
            LaurentSeries.monomial(f9, f27.gen(), 2)
        with pytest.raises(ValueError):
            LaurentSeries.one(f9) * f27.gen()

    def test_equal_fields_are_one_field(self):
        # same key, same field: a separately built copy of F_9 mixes freely
        a, b = ResidueField(3, 2), residue_field(3, 2)
        assert a is not b and a == b
        s = LaurentSeries(a, {0: b.gen()})
        assert s == LaurentSeries(b, {0: b.gen()})
        assert s + LaurentSeries(b, {1: 1}) == LaurentSeries(b, {0: b.gen(), 1: 1})
        assert a(b.gen()) == b.gen()
        assert const(a, a.gen()) * const(b, b.gen()) == const(b, b.gen() ** 2)
        assert const(a, a.gen()) * b.gen() == const(b, b.gen() ** 2)
