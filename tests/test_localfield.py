import itertools
import random
from fractions import Fraction

import pytest

from extraspecial import (INF, FFElem, LaurentSeries, PrecisionError, TowerAlgebra,
                          TowerElement, TowerParams, build_tower, construct_generator,
                          elt_valuation, elt_valuation_top, enumerate_group,
                          galois_generators, group_structure, localfield, oracle,
                          residue_field, verify_family, witt_carry)
from extraspecial.localfield import ConstructionError, GaloisMap, PlanRejection
from extraspecial.planner import default_leads
from conftest import const, random_elem, random_series


def make_tower(variant="H", p=3, n=1, u=1, t=1):
    field = residue_field(p, 2 * n)
    params = TowerParams(p=p, n=n, variant=variant, e0=INF, r=u,
                         m=(0,) * (2 * n) + (t,), leads=default_leads(field, n),
                         field=field)
    return build_tower(params)


@pytest.fixture(scope="module")
def h_tower():
    return make_tower("H")


@pytest.fixture(scope="module")
def m_tower():
    return make_tower("M")


def top_relation(tower):
    """alpha_top^p - alpha_top as the variant defines it, built apart from
    build_tower: the cross term a_1 alpha_(n+1) + ... + a_n alpha_(2n), plus
    a_top, plus the carry D(alpha_1, a_1) in M(n)."""
    n = tower.n
    rhs = tower.algebra.from_series(tower.a[-1])
    for i in range(1, n + 1):
        rhs = rhs + tower.alpha(n + i) * tower.a[i - 1]
    if tower.params.variant == "M":
        a1 = tower.algebra.from_series(tower.a[0])
        rhs = rhs + witt_carry(tower.alpha(1), a1, tower.p)
    return rhs


def random_element(tower, rng, max_terms=3):
    total = tower.algebra.zero()
    k = tower.nvars
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randrange(tower.p) for _ in range(k))
        coeff = LaurentSeries.monomial(tower.field, random_elem(tower.field, rng, True),
                                       rng.randint(-4, 4))
        mono = tower.algebra.from_series(coeff)
        for i, e in enumerate(exps):
            mono = mono * tower.algebra.gen(i) ** e
        total = total + mono
    return total


class TestBuildTower:
    def test_constants(self, h_tower):
        f = h_tower.field
        g = f.gen()
        assert h_tower.a[0] == LaurentSeries.monomial(f, 1, -1)
        # g^(p^2n) = g^9 = g in F_9
        assert h_tower.a[1] == LaurentSeries.monomial(f, g, -1)
        assert h_tower.a[2] == LaurentSeries.monomial(f, 1, -10)

    def test_constant_valuations_match_u(self, h_tower):
        u = h_tower.plan_report.u
        assert tuple(-s.valuation() for s in h_tower.a) == u

    def test_degree(self, h_tower):
        assert h_tower.p ** h_tower.nvars == 27

    def test_unit_multiplication(self, h_tower):
        a1 = h_tower.alpha(1)
        assert a1 * h_tower.algebra.one() == a1

    def test_top_relation_holds(self, h_tower):
        top = h_tower.alpha(3)
        rhs = h_tower.alpha(2) * h_tower.a[0] + h_tower.a[2]
        assert rhs == top_relation(h_tower)
        assert (top**3 - top - rhs).is_zero()

    def test_m_variant_carry_term(self, m_tower):
        top = m_tower.alpha(3)
        carry = witt_carry(m_tower.alpha(1), m_tower.algebra.from_series(m_tower.a[0]), 3)
        assert not carry.is_zero()
        rhs = m_tower.alpha(2) * m_tower.a[0] + carry + m_tower.a[2]
        assert rhs == top_relation(m_tower)
        assert (top**3 - top - rhs).is_zero()

    def test_rejects_finite_e0(self):
        field = residue_field(3, 2)
        params = TowerParams(p=3, n=1, variant="H", e0=100, r=1,
                             m=(0, 0, 1), leads=default_leads(field, 1), field=field)
        with pytest.raises(PlanRejection):
            build_tower(params)

    def test_rejects_uncertified(self):
        field = residue_field(3, 2)
        params = TowerParams(p=3, n=1, variant="H", e0=INF, r=5,
                             m=(0, 0, 1), leads=default_leads(field, 1), field=field)
        with pytest.raises(PlanRejection):
            build_tower(params)

    def test_reduction_keeps_exponents_small(self, h_tower):
        rng = random.Random(2)
        x = random_element(h_tower, rng)
        y = random_element(h_tower, rng)
        prod = x * y
        assert all(all(e < 3 for e in exps) for exps in prod.coeffs)


class TestValuation:
    def test_uniformizer(self, h_tower):
        pi = h_tower.algebra.from_series(LaurentSeries.monomial(h_tower.field, 1, 1))
        assert elt_valuation(pi) == 1

    def test_alpha1(self, h_tower):
        assert elt_valuation(h_tower.alpha(1)) == Fraction(-1, 3)

    def test_alpha_top(self, h_tower):
        assert elt_valuation(h_tower.alpha(3)) == Fraction(-10, 3)

    def test_split_algebra_is_construction_error(self):
        # alpha^3 - alpha = 0 splits, so alpha has exactly zero norm
        algebra = TowerAlgebra(residue_field(3, 2), 1)
        algebra.set_relation(0, algebra.zero())
        with pytest.raises(ConstructionError, match="not a domain"):
            elt_valuation(algebra.gen(0))

    def test_alpha_valuations_match_prediction(self, m_tower):
        # v_0(alpha_i) = -u_i / p on every level
        u = m_tower.plan_report.u
        for i in range(1, 4):
            assert elt_valuation(m_tower.alpha(i)) == Fraction(-u[i - 1], 3)

    def test_zero(self, h_tower):
        assert elt_valuation(h_tower.algebra.zero()) == INF

    def test_no_truth_value(self, h_tower):
        # an imprecise zero coefficient is neither zero nor nonzero
        for x in (h_tower.algebra.zero(), h_tower.alpha(1)):
            with pytest.raises(TypeError, match=r"use is_zero\(\)"):
                bool(x)

    def test_imprecise_zero_coefficient_is_kept_and_refused(self):
        # (1 + O(pi^5)) - 1 is O(pi^5), not 0: the tower keeps it and the
        # valuation refuses to guess
        f9 = residue_field(3, 2)
        algebra = TowerAlgebra(f9, 1)
        x = algebra.from_series(LaurentSeries(f9, {0: 1}, prec=5)) - 1
        assert not x.is_zero()
        assert x.coeffs == {(0,): LaurentSeries(f9, {}, prec=5)}
        with pytest.raises(PrecisionError):
            elt_valuation(x)
        assert (x - x).coeffs == {(0,): LaurentSeries(f9, {}, prec=5)}
        assert (x * algebra.zero()).is_zero()

    def test_multiplicative(self, h_tower):
        rng = random.Random(5)
        for _ in range(12):
            x = random_element(h_tower, rng)
            y = random_element(h_tower, rng)
            if x.is_zero() or y.is_zero():
                continue
            assert elt_valuation(x * y) == \
                elt_valuation(x) + elt_valuation(y)

    def test_ultrametric(self, h_tower):
        rng = random.Random(8)
        for _ in range(12):
            x = random_element(h_tower, rng)
            y = random_element(h_tower, rng)
            s = x + y
            if x.is_zero() or y.is_zero() or s.is_zero():
                continue
            vx, vy = elt_valuation(x), elt_valuation(y)
            vs = elt_valuation(s)
            assert vs >= min(vx, vy)
            if vx != vy:
                assert vs == min(vx, vy)

    def test_top_normalization_integral(self, h_tower):
        rng = random.Random(21)
        for _ in range(8):
            x = random_element(h_tower, rng)
            if x.is_zero():
                continue
            assert isinstance(elt_valuation_top(x), int)


TIER1_TOWERS = [(v, p, n) for p, n in [(3, 1), (3, 2), (5, 1), (7, 1)] for v in "HM"]


def exact_chain(x):
    """v_0(x) through the exact norm chain: the capped chain's fallback,
    kept here as its test oracle."""
    return INF if x.is_zero() else localfield._norm_valuation(x, None)[0]


def valuation_outcome(fn, x):
    """The valuation, or the type and message of the exception raised."""
    try:
        return fn(x)
    except (PrecisionError, ConstructionError) as exc:
        return type(exc), str(exc)


def seeded_elements(tower, rng, count):
    """Tower elements with random multi-term series coefficients, each also
    cut to a window at or just above its lowest exponent."""
    out = []
    for _ in range(count):
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randrange(tower.p) for _ in range(tower.nvars))
            coeffs[exps] = random_series(tower.field, rng, -8, 8, max_terms=6, nonzero=True)
        x = TowerElement(tower.algebra, coeffs)
        window = min(e for c in x.coeffs.values() for e in c.coeffs) + rng.randint(0, 3)
        out += [x, TowerElement(tower.algebra, {e: c.truncate(window)
                                                for e, c in x.coeffs.items()})]
    return out


class TestCappedValuation:
    """elt_valuation runs the norm chain at capped relative precision and
    must agree with the exact chain: same value, or same exception."""

    @pytest.mark.parametrize("variant", ["H", "M"])
    def test_seeded_elements_match_exact_chain(self, monkeypatch, variant, h_tower, m_tower):
        tower = h_tower if variant == "H" else m_tower
        elements = seeded_elements(tower, random.Random(31), 16)
        want = [valuation_outcome(exact_chain, x) for x in elements]
        assert any(isinstance(o, tuple) for o in want)
        assert any(not isinstance(o, tuple) for o in want)
        for start in (1, 2, 8):
            monkeypatch.setattr(localfield, "CAP_START", start)
            assert [valuation_outcome(elt_valuation, x) for x in elements] == want

    @pytest.mark.parametrize("variant, p", [("H", 3), ("M", 3), ("H", 5)])
    def test_oracle_elements_match_exact_chain(self, monkeypatch, variant, p):
        # every element a verify values (Y, the filtration's and the layers'
        # Galois differences, the scaffold elements), and sigma(Y) - Y for
        # every word: the capped chain certifies the exact chain's leading
        # term, valuation and coefficient, at every first cap
        real = localfield.elt_leading_term
        measured = []

        def record(x):
            measured.append(x)
            return real(x)

        monkeypatch.setattr(localfield, "elt_leading_term", record)
        monkeypatch.setattr(oracle, "elt_leading_term", record)
        assert verify_family(variant, p, 1, 1, 1).passed
        assert len(measured) >= 9
        tower = make_tower(variant, p)
        products = list(eager_products(enumerate_group(tower, galois_generators(tower))).values())
        y = construct_generator(tower).element
        elements = measured + [m.apply(y) - y for m in products[1:]]
        want = [localfield._norm_valuation(x, None) for x in elements]
        for start in (1, 2, 8):
            monkeypatch.setattr(localfield, "CAP_START", start)
            assert [real(x) for x in elements] == want

    @pytest.mark.parametrize("N, attempts", [(1, [8]), (2, [8, 16]), (3, [8, 16, 32]),
                                             (5, [8, 16, 32, 64, 128, 256]),
                                             (6, [8, 16, 32, 64, 128, 256, 512, None])])
    def test_deep_cancellation_retries(self, monkeypatch, N, attempts):
        # alpha^3 = alpha + pi and t_N = -(pi + pi^3 + ... + pi^(3^N)):
        # N(alpha - t_N) = -(t_N^3 - t_N - pi) = pi^(3^(N+1)), so v_0 = 3^N, and
        # the cap must keep pi^(3^N) in t_N before the cancellation certifies;
        # at N = 6, 3^N > 512 outruns the seven capped tries and the exact chain decides
        assert (localfield.CAP_START, localfield.CAP_TRIES) == (8, 7)
        f9 = residue_field(3, 2)
        algebra = TowerAlgebra(f9, 1)
        algebra.set_relation(0, algebra.from_series(LaurentSeries.monomial(f9, 1, 1)))
        t = -LaurentSeries(f9, {3**j: 1 for j in range(N + 1)})
        x = algebra.gen(0) - t
        tries = []
        real = localfield._norm_valuation

        def spy(x, w):
            tries.append(w)
            return real(x, w)

        monkeypatch.setattr(localfield, "_norm_valuation", spy)
        assert elt_valuation(x) == 3**N
        assert tries == attempts
        assert exact_chain(x) == 3**N

    def test_cap_keeps_short_series_and_zeros(self, h_tower):
        f = h_tower.field
        long = LaurentSeries(f, {e: 1 for e in range(-2, 10)})
        short = LaurentSeries(f, {-2: 1, 5: 1})
        imprecise = LaurentSeries(f, {}, prec=3)
        algebra = h_tower.algebra
        x = TowerElement(algebra, {(0, 0, 0): long, (1, 0, 0): short, (0, 1, 0): imprecise})
        capped = localfield._cap(x, 8)
        assert capped.coeffs[(0, 0, 0)] == long.truncate(6)
        assert capped.coeffs[(1, 0, 0)] is short
        assert capped.coeffs[(0, 1, 0)] is imprecise


def ring_det_leading(x):
    """The leading term of N_(L/K_0)(x), v_0(x) and the leading coefficient,
    through the exact _level_norm determinant on every level: the norm
    chain before the closed forms, kept here as their test oracle.  The
    chain ends with N_(K_l/K_0)(x), l the support level, and N_(L/K_0)(x)
    is its p^(k-l)-th power."""
    level = x.support_level()
    cur = x
    for i in range(level - 1, -1, -1):
        cur = localfield._level_norm(cur, i)
    norm = cur.constant_series()
    v = norm.valuation()
    if v == INF:
        raise ConstructionError("nonzero element has exactly zero norm; algebra is not a domain")
    p, k = x.algebra.p, x.algebra.nvars
    return Fraction(v, p**level), FFElem(norm.field, norm.coeffs[v]) ** p**(k - level)


def ring_det_chain(x):
    """v_0(x) from ring_det_leading; INF for exact zero."""
    return INF if x.is_zero() else ring_det_leading(x)[0]


def linear_element(algebra, rng, level):
    """c_0 + c_1 alpha_1 + ... + c_level alpha_level, exact, c_level != 0."""
    field = algebra.field
    x = algebra.from_series(random_series(field, rng, -3, 3, max_terms=2))
    for j in range(level):
        c = random_series(field, rng, -3, 3, max_terms=2, nonzero=j == level - 1)
        x = x + algebra.gen(j) * c
    return x


def element_below(algebra, rng, level, degree, terms=3):
    """An exact element on the generators below ``level`` with exponents at
    most ``degree``, whose generator level - 1, when there is one, has
    exponent ``degree`` in its first term."""
    coeffs = {}
    for t in range(terms):
        exps = [rng.randint(0, degree) for _ in range(level)]
        if t == 0 and level:
            exps[-1] = degree
        exps += [0] * (algebra.nvars - level)
        coeffs[tuple(exps)] = random_series(algebra.field, rng, -6, 6, max_terms=4, nonzero=True)
    return TowerElement(algebra, coeffs)


def windowed_variants(x, rng):
    """x cut to a window at or just above its lowest exponent, and x with
    an imprecise zero in place of one coefficient."""
    window = min(e for c in x.coeffs.values() for e in c.coeffs) + rng.randint(0, 3)
    truncated = TowerElement(x.algebra, {e: c.truncate(window) for e, c in x.coeffs.items()})
    coeffs = dict(x.coeffs)
    coeffs[rng.choice(sorted(coeffs))] = LaurentSeries(x.algebra.field, {}, prec=rng.randint(-2, 4))
    return [truncated, TowerElement(x.algebra, coeffs)]


def oracle_elements(tower):
    """Y, and sigma(Y) - Y and sigma(Y) - Y - t_i for each generator sigma_i:
    the exact elements whose valuations a verify certifies."""
    gen_data = construct_generator(tower)
    y = gen_data.element
    out = [y]
    for sigma, t in zip(galois_generators(tower), gen_data.cofactors):
        delta = sigma.apply(y) - y
        out += [delta, delta - t]
    return out


class TestClosedFormNorms:
    """Every element, window or not, takes the closed-form level norm on
    linear levels and the minimum over monomials at the bottom level; the
    ring_det chain on every level is the reference."""

    @pytest.mark.parametrize("variant, p, n", TIER1_TOWERS)
    def test_seeded_elements_match_ring_det_chain(self, variant, p, n):
        tower = make_tower(variant, p, n)
        algebra = tower.algebra
        rng = random.Random(4100 + 10 * p + n)
        # at the top level Y and the sigma(Y) - Y are the linear elements,
        # and c alpha_top^2 + 1 the nonlinear one: the ring_det chain of
        # c alpha_top^2 plus a linear element takes minutes
        exact = oracle_elements(tower)
        k = tower.nvars
        for level in range(1, k):
            exact += [linear_element(algebra, rng, level),
                      algebra.gen(level - 1) ** 2 * random_series(algebra.field, rng, -3, 3,
                                                                  max_terms=1, nonzero=True)
                      + linear_element(algebra, rng, level - 1)]
        exact.append(algebra.gen(k - 1) ** 2 * random_series(algebra.field, rng, -3, 3,
                                                             max_terms=1, nonzero=True) + 1)
        windowed = [w for x in exact[-2 * k + 1:] for w in windowed_variants(x, rng)]
        elements = exact + windowed
        want = [valuation_outcome(ring_det_chain, x) for x in elements]
        assert not any(isinstance(o, tuple) for o in want[:len(exact)])
        assert any(isinstance(o, tuple) for o in want[len(exact):])
        got = [valuation_outcome(elt_valuation, x) for x in elements]
        assert got[:len(exact)] == want[:len(exact)]
        # a windowed element gives the ring_det chain's value where that chain
        # certifies one, and refuses where it refuses, though the closed
        # forms may word the refusal differently
        assert [o[0] if isinstance(o, tuple) else o for o in got[len(exact):]] == \
            [o[0] if isinstance(o, tuple) else o for o in want[len(exact):]]
        # the closed forms and the bottom rule also give the norm's leading
        # coefficient
        nonzero = [x for x in exact if not x.is_zero()]
        assert [localfield.elt_leading_term(x) for x in nonzero] == \
            [ring_det_leading(x) for x in nonzero]

    def test_exact_linear_elements_take_no_determinant(self, monkeypatch, h_tower):
        calls = []
        real = localfield._level_norm

        def spy(x, i):
            calls.append(i)
            return real(x, i)

        monkeypatch.setattr(localfield, "_level_norm", spy)
        rng = random.Random(4170)
        x = linear_element(h_tower.algebra, rng, 3)
        elt_valuation(x)
        assert calls == []
        # nor does the same element with a window
        valuation_outcome(elt_valuation, windowed_variants(x, rng)[0])
        assert calls == []
        # a nonlinear level above the bottom takes the determinant there only
        elt_valuation(element_below(h_tower.algebra, rng, 2, 2, terms=1) + h_tower.alpha(3))
        assert calls == [1]

    @pytest.mark.parametrize("variant, p, n", TIER1_TOWERS)
    def test_linear_norm_is_the_level_norm(self, variant, p, n):
        # N(c alpha_i + d) against the p x p determinant, with c and d on
        # the generators below i, both nonscalar above the bottom level
        tower = make_tower(variant, p, n)
        algebra = tower.algebra
        rng = random.Random(4200 + 10 * p + n)
        for i in range(tower.nvars):
            for _ in range(2):
                c = element_below(algebra, rng, i, 1, terms=2)
                d = element_below(algebra, rng, i, 1, terms=2)
                assert i == 0 or (c.support_level() and d.support_level())
                x = c * algebra.gen(i) + d
                assert localfield._linear_norm(c, d, i) == localfield._level_norm(x, i)

    def test_linear_norm_is_a_ring_identity(self, f9):
        # alpha_0^3 - alpha_0 = 0 splits, so the algebra is not a field
        algebra = TowerAlgebra(f9, 2)
        algebra.set_relation(0, algebra.zero())
        algebra.set_relation(1, algebra.gen(0) * LaurentSeries.monomial(f9, 1, -2) + 1)
        rng = random.Random(4210)
        for i in (0, 1):
            for degree in (0, 1, 2):
                c = element_below(algebra, rng, i, degree, terms=2)
                d = element_below(algebra, rng, i, degree, terms=2)
                x = c * algebra.gen(i) + d
                assert localfield._linear_norm(c, d, i) == localfield._level_norm(x, i)

    @pytest.mark.parametrize("variant, p, n", TIER1_TOWERS)
    def test_frobenius_substitutes_the_relations(self, variant, p, n):
        # the substitution against square-and-multiply, on seeded elements
        # of every level and on the generator images the relation check
        # raises to the p-th power
        tower = make_tower(variant, p, n)
        algebra = tower.algebra
        rng = random.Random(4220 + 10 * p + n)
        elements = [element_below(algebra, rng, level, min(2, p - 1), terms=3)
                    for level in range(1, tower.nvars + 1)]
        elements += [img for sigma in galois_generators(tower) for img in sigma.images]
        for x in elements:
            assert localfield._frobenius(x) == x ** p

    @pytest.mark.parametrize("a1", [LaurentSeries.monomial(residue_field(3, 2), 1, 1),
                                    LaurentSeries.monomial(residue_field(3, 2), 1, -3),
                                    LaurentSeries.one(residue_field(3, 2))])
    def test_bottom_rule_needs_its_condition(self, a1):
        # a_1 = pi, pi^-3 and 1: v_0(a_1) >= 0 or p | u_1, so the monomials
        # c_j alpha^j need not have valuations distinct mod p and the bottom
        # level takes its norm
        algebra = TowerAlgebra(a1.field, 1)
        algebra.set_relation(0, algebra.from_series(a1))
        assert localfield._bottom_break(algebra) is None
        pole = algebra.from_series(LaurentSeries.monomial(a1.field, 1, -1))
        rng = random.Random(4230)
        # at a_1 = pi, N(1 + alpha / pi) has valuation 0 and the minimum over
        # monomials reads -2
        elements = [algebra.gen(0) - pole, pole * algebra.gen(0) + 1]
        elements += [element_below(algebra, rng, 1, rng.randint(1, 2), terms=3) for _ in range(6)]
        for x in elements:
            assert localfield.elt_leading_term(x) == ring_det_leading(x)

    def test_bottom_valuation_reads_windows(self, h_tower):
        f = h_tower.field
        algebra = TowerAlgebra(f, 1)
        algebra.set_relation(0, algebra.from_series(h_tower.a[0]))
        u1 = localfield._bottom_break(algebra)
        assert u1 == h_tower.plan_report.u[0] == 1
        a = algebra.gen(0)

        def elt(*coeffs):
            return sum((algebra.from_series(c) * a**j for j, c in enumerate(coeffs)),
                       algebra.zero())

        exact = LaurentSeries.monomial(f, 1, 0)
        # terms 3 v_0(c_j) - j: 0 from c_0, -1 from c_1, -2 from c_2; a_1 = pi^-1,
        # so the leading term lead(c_j)^3 lead(a_1)^j of the minimum is pi^-2
        assert localfield._bottom_leading_term(elt(exact, exact, exact), u1) == \
            LaurentSeries.monomial(f, 1, -2)
        # a known lead with a window certifies its term
        assert localfield._bottom_leading_term(
            elt(exact, exact, exact.truncate(1)), u1) == LaurentSeries.monomial(f, 1, -2)
        # an imprecise zero whose bound 3N - j lies above the minimum
        above = LaurentSeries(f, {}, prec=1)
        assert localfield._bottom_leading_term(elt(above, exact), u1) == \
            LaurentSeries.monomial(f, 1, -1)
        # ... and one whose bound -3 does not
        below = LaurentSeries(f, {}, prec=-1)
        with pytest.raises(PrecisionError):
            localfield._bottom_leading_term(elt(below, exact), u1)
        with pytest.raises(PrecisionError):
            localfield._bottom_leading_term(elt(below, below), u1)


    def test_bottom_leading_term_is_the_norms(self, f9):
        # a_1 = g pi^-1: lead(c_j)^3 lead(a_1)^j against the 3 x 3 determinant
        g = f9.gen()
        algebra = TowerAlgebra(f9, 1)
        algebra.set_relation(0, algebra.from_series(LaurentSeries.monomial(f9, g, -1)))
        u1 = localfield._bottom_break(algebra)
        assert u1 == 1
        rng = random.Random(4240)
        for _ in range(8):
            x = element_below(algebra, rng, 1, rng.randint(1, 2), terms=3)
            norm = localfield._level_norm(x, 0).constant_series()
            v = norm.valuation()
            assert localfield._bottom_leading_term(x, u1) == \
                LaurentSeries.monomial(f9, FFElem(f9, norm.coeffs[v]), v)
        # c_2 = g takes the minimum -2: g^3 g^2
        x = algebra.gen(0) ** 2 * LaurentSeries.monomial(f9, g, 0) + 1
        assert localfield._bottom_leading_term(x, u1) == LaurentSeries.monomial(f9, g**5, -2)


class TestGaloisGenerators:
    def test_h_images(self, h_tower):
        s1, s2, s3 = galois_generators(h_tower)
        a1, a2, a3 = (h_tower.alpha(i) for i in (1, 2, 3))
        one = h_tower.algebra.one()
        assert s1.images == (a1 + one, a2, a3)
        assert s2.images == (a1, a2 + one, a3 + a1)
        assert s3.images == (a1, a2, a3 + one)

    def test_m_sigma1_carry_image(self, m_tower):
        s1 = galois_generators(m_tower)[0]
        a1 = m_tower.alpha(1)
        a3 = m_tower.alpha(3)
        delta = witt_carry(m_tower.algebra.one(), a1, 3)
        assert s1.images[2] == a3 + delta
        # the translate solves the twisted relation: wp(delta) equals the
        # shift of the defining right-hand side
        rhs = top_relation(m_tower)
        image = s1.images[2]
        assert image**3 - image == s1.apply(rhs)
        # equivalently, wp(delta) = D(alpha_1 + 1, a_1) - D(alpha_1, a_1)
        a1_series = m_tower.algebra.from_series(m_tower.a[0])
        one = m_tower.algebra.one()
        assert delta**3 - delta == \
            witt_carry(a1 + one, a1_series, 3) - witt_carry(a1, a1_series, 3)

    def test_invalid_image_rejected(self, h_tower):
        a1, a2, a3 = (h_tower.alpha(i) for i in (1, 2, 3))
        with pytest.raises(ConstructionError):
            GaloisMap(h_tower.algebra, (a1 + a2, a2, a3))
        # sigma_1 of M(p, 1) with its top image missing the Witt carry
        # D(1, alpha_1): the relation of the top generator fails
        for p in (3, 7):
            tower = make_tower("M", p, 1)
            images = list(galois_generators(tower)[0].images)
            top = tower.alpha(3)
            assert images[-1] != top
            images[-1] = top
            with pytest.raises(ConstructionError, match="generator 3 violates"):
                GaloisMap(tower.algebra, images)

    def test_maps_preserve_valuation(self, h_tower):
        rng = random.Random(12)
        gens = galois_generators(h_tower)
        for _ in range(8):
            x = random_element(h_tower, rng)
            if x.is_zero():
                continue
            v = elt_valuation(x)
            for s in gens:
                assert elt_valuation(s.apply(x)) == v


class TestComposition:
    def test_identity_neutral(self, h_tower):
        s1 = galois_generators(h_tower)[0]
        ident = GaloisMap.identity(h_tower.algebra)
        assert s1.compose(ident) == s1
        assert ident.compose(s1) == s1

    def test_noncommuting_pair_and_commutator(self, h_tower):
        s1, s2, s3 = galois_generators(h_tower)
        assert s1.compose(s2) != s2.compose(s1)
        comm = s1.compose(s2).compose(s1.powers()[-1].compose(s2.powers()[-1]))
        assert comm == s3

    def test_center(self, h_tower):
        gens = galois_generators(h_tower)
        s3 = gens[2]
        for s in gens:
            assert s.compose(s3) == s3.compose(s)

    @pytest.mark.parametrize("variant", ["H", "M"])
    def test_powers_match_repeated_compose(self, variant, h_tower, m_tower):
        tower = h_tower if variant == "H" else m_tower
        ident = GaloisMap.identity(tower.algebra)
        for i, g in enumerate(galois_generators(tower)):
            pows = g.powers()
            assert len(pows) == (9 if variant == "M" and i == 0 else 3)
            acc = ident
            for e, pw in enumerate(pows):
                assert pw == acc and (e == 0 or not pw.is_identity())
                acc = acc.compose(g)
            assert acc.is_identity()
            assert pows[-1].compose(g).is_identity()
            if i == 0:
                # sigma_1^p: trivial in H(n), central of order p in M(n)
                cubed = g.compose(g).compose(g)
                assert pows[3 % len(pows)] == cubed
                assert cubed.is_identity() == (variant == "H")


def eager_products(walks):
    """Reference: every product sigma_1^e1 ... sigma_k^ek, 0 <= e_i < p, one
    letter at a time, by normal-form word in itertools.product order, the
    identity first."""
    identity = walks[0][0]
    elements = {(): identity}
    for walk in walks:
        new = {}
        for word, m in elements.items():
            new[word + (0,)] = m  # the e = 0 factor is the identity
            for e in range(1, identity.algebra.p):
                new[word + (e,)] = m.compose(walk[e])
        elements = new
    return elements


def count_composes(monkeypatch, run) -> tuple:
    """run() and the number of GaloisMap.compose calls it made."""
    calls = 0
    real = GaloisMap.compose

    def counted(self, other):
        nonlocal calls
        calls += 1
        return real(self, other)

    monkeypatch.setattr(GaloisMap, "compose", counted)
    try:
        return run(), calls
    finally:
        monkeypatch.setattr(GaloisMap, "compose", real)


def walk_composes(walks) -> int:
    """The compositions of the power walks: one per step, the last step the
    one that returns to the identity."""
    return sum(len(walk) - 1 for walk in walks)


def outside_fp(m, j, c):
    """m with its image of alpha_(j+1) shifted by the constant c."""
    images = list(m.images)
    images[j] = images[j] + c
    return GaloisMap(m.algebra, images, validate=False)


class TestGroupStructure:
    def test_h_group(self, h_tower):
        gens = galois_generators(h_tower)
        rep = group_structure(h_tower, gens, enumerate_group(h_tower, gens))
        assert rep.order == 27
        assert rep.gen_orders == (3, 3, 3)
        assert rep.metacyclic_w is None
        assert rep.commutator_words[(1, 2)] == (0, 0, 1)
        assert rep.commutator_words[(1, 3)] == (0, 0, 0)
        assert rep.commutator_words[(2, 3)] == (0, 0, 0)

    @pytest.mark.parametrize("variant", ["H", "M"])
    def test_enumerate_group_returns_each_power_walk(self, variant, h_tower, m_tower):
        tower = h_tower if variant == "H" else m_tower
        gens = galois_generators(tower)
        walks = enumerate_group(tower, gens)
        assert walks == [g.powers() for g in gens]
        # every word is the product of its generator powers, e = 0 factors included
        for word in itertools.product(range(tower.p), repeat=tower.nvars):
            expected = GaloisMap.identity(tower.algebra)
            for walk, e in zip(walks, word):
                expected = expected.compose(walk[e])
            assert localfield._product(walks, word) == expected

    @pytest.mark.parametrize("variant, p, n", TIER1_TOWERS)
    def test_products_match_eager_products(self, variant, p, n, monkeypatch):
        tower = make_tower(variant, p, n)
        gens = galois_generators(tower)
        # the unit check composes no map: only the power walks compose
        walks, calls = count_composes(monkeypatch, lambda: enumerate_group(tower, gens))
        assert calls == walk_composes(walks)
        k = tower.nvars
        eager = eager_products(walks)
        assert list(eager) == list(itertools.product(range(p), repeat=k))
        for word, m in eager.items():
            assert localfield._product(walks, word).images == m.images

    def test_m_group(self, m_tower):
        gens = galois_generators(m_tower)
        rep = group_structure(m_tower, gens, enumerate_group(m_tower, gens))
        assert rep.gen_orders[0] == 9
        assert rep.gen_orders[1:] == (3, 3)
        assert rep.sigma1_p_word[:-1] == (0, 0)
        assert rep.sigma1_p_word[-1] in (1, 2)
        assert rep.metacyclic_w == rep.sigma1_p_word[-1]


def closure_loop(walks, gens):
    """The closure check group_structure's presentation proof replaced,
    kept as a test reference: word_of(g m) for every generator g and every
    product m of the walks, k p^k compositions and every product built.
    The products hold the identity and the group is finite, so passing is
    closure under composition; a map that is no product raises
    ConstructionError."""
    for g in gens:
        for m in eager_products(walks).values():
            localfield.word_of(walks, g.compose(m))


def as_other_variant(tower):
    """The tower read against the presentation of the other variant, which
    it fails: H(n) against M(n), M(n) against H(n)."""
    other = "M" if tower.params.variant == "H" else "H"
    return tower.replace(params=tower.params.replace(variant=other))


class TestGroupClosure:
    """group_structure proves closure from the presentation, and stops on a
    relation that fails; the k p^k closure loop is the reference."""

    @pytest.mark.parametrize("variant, p, n", TIER1_TOWERS)
    def test_presentation_proves_closure(self, variant, p, n, monkeypatch):
        tower = make_tower(variant, p, n)
        gens = galois_generators(tower)
        walks = enumerate_group(tower, gens)
        report, calls = count_composes(monkeypatch, lambda: group_structure(tower, gens, walks))
        assert report.order == p ** tower.nvars
        # the proof builds no product: three compositions per commutator,
        # and every word it reads has the prefix 0
        k = tower.nvars
        assert calls == 3 * k * (k - 1) // 2
        closure_loop(walks, gens)

    def test_commutator_shift_outside_fp_is_construction_error(self, h_tower):
        # sigma_top shifted by g, outside F_3: [sigma_1, sigma_top] shifts
        # alpha_top by g - 1, which no word reads
        gens = galois_generators(h_tower)
        walks = enumerate_group(h_tower, gens)
        g = h_tower.field.gen()
        assert not g.in_prime_field
        bent = gens[:-1] + [outside_fp(gens[-1], 2, const(h_tower.field, g) - 1)]
        with pytest.raises(ConstructionError, match="^group is not closed under composition$"):
            group_structure(h_tower, bent, walks)

    @pytest.mark.parametrize("variant, p, n", TIER1_TOWERS)
    def test_failed_presentation_names_the_relation(self, variant, p, n):
        # sigma_1 has order p in H(n) and p^2 in M(n), so each variant read
        # against the other's presentation stops at the order of sigma_1
        tower = make_tower(variant, p, n)
        gens = galois_generators(tower)
        walks = enumerate_group(tower, gens)
        order, needs = (p, p**2) if variant == "H" else (p**2, p)
        other = as_other_variant(tower)
        with pytest.raises(ConstructionError,
                           match=rf"^the order of sigma_1 is {order}, the presentation of "
                                 rf"{other.params.variant}\({n}\) needs {needs}$"):
            group_structure(other, gens, walks)

    def test_failed_commutator_names_the_relation(self, h_tower):
        # sigma_1 and sigma_2 swapped: their commutator is sigma_top^-1
        s1, s2, s3 = galois_generators(h_tower)
        swapped = [s2, s1, s3]
        walks = [g.powers() for g in swapped]
        with pytest.raises(ConstructionError,
                           match=r"^the word of \[sigma_1, sigma_2\] is \(0, 0, 2\), "
                                 r"the presentation of H\(1\) needs \(0, 0, 1\)$"):
            group_structure(h_tower, swapped, walks)

    def test_failed_presentation_on_open_walk_is_construction_error(self, h_tower):
        # sigma_1 in the walk of sigma_1 is shifted on alpha_top by g, outside
        # F_3.  The presentation reads only the generators, sigma_1^3 and the
        # last entry of each walk, so it stops at the order of sigma_1 without
        # reading that entry; the closure loop builds a product on it and
        # finds the shift
        gens = galois_generators(h_tower)
        walks = enumerate_group(h_tower, gens)
        walk = list(walks[0])
        walk[1] = outside_fp(walk[1], 2, h_tower.field.gen())
        open_walks = [walk] + walks[1:]
        with pytest.raises(ConstructionError, match="^the order of sigma_1 is 3, "):
            group_structure(as_other_variant(h_tower), gens, open_walks)
        with pytest.raises(ConstructionError, match="^group is not closed under composition$"):
            closure_loop(open_walks, gens)


def map_key(m):
    """The deleted GaloisMap.key(), kept as a test reference: each image as
    its sorted terms (exponents, (sorted series coefficients, precision))."""
    return tuple(tuple(sorted((e, (tuple(sorted(c.coeffs.items())), c.prec))
                              for e, c in img.coeffs.items()))
                 for img in m.images)


class TestWordReading:
    """word_of reads a map's word from the shifts it makes."""

    @pytest.mark.parametrize("variant, p, n", TIER1_TOWERS)
    def test_every_element_reads_its_own_word(self, variant, p, n, monkeypatch):
        tower = make_tower(variant, p, n)
        walks = enumerate_group(tower, galois_generators(tower))
        eager = eager_products(walks)
        for word, m in eager.items():
            got, calls = count_composes(monkeypatch, lambda: localfield.word_of(walks, m))
            assert got == word
            # the prefix product composes its nonzero letters, none for a
            # zero or a unit prefix
            assert calls == max(0, sum(map(bool, word[:-1])) - 1)
        assert len({map_key(m) for m in eager.values()}) == p ** tower.nvars
        # a map that shifts alpha_top past a word's map by a constant outside
        # F_p is in no word
        last = eager[(p - 1,) * tower.nvars]
        g = tower.field.gen()
        assert not g.in_prime_field
        with pytest.raises(ConstructionError, match="^group is not closed under composition$"):
            localfield.word_of(walks, outside_fp(last, tower.nvars - 1, g))

    @pytest.mark.parametrize("variant", ["H", "M"])
    @pytest.mark.parametrize("order", [(1, 0, 2), (2, 1, 0), (0, 2, 1)])
    def test_permuted_generators_are_refused(self, variant, order, h_tower, m_tower):
        tower = h_tower if variant == "H" else m_tower
        gens = galois_generators(tower)
        with pytest.raises(ConstructionError):
            enumerate_group(tower, [gens[i] for i in order])

    def test_shift_outside_fp_is_not_a_word(self, h_tower):
        walks = enumerate_group(h_tower, galois_generators(h_tower))
        algebra, g = h_tower.algebra, h_tower.field.gen()
        assert not g.in_prime_field
        images = [algebra.gen(j) for j in range(algebra.nvars)]
        images[0] = images[0] + g
        with pytest.raises(ConstructionError, match="^group is not closed under composition$"):
            localfield.word_of(walks, GaloisMap(algebra, images, validate=False))
        alpha = algebra.gen(0)
        assert localfield._fp_shift(alpha + g, alpha) is None
        assert localfield._fp_shift(alpha + g + (2 - const(algebra.field, g)), alpha) == 2
        # only exact constants are read: O(pi^5) + 1 is not
        inexact = LaurentSeries.monomial(h_tower.field, 1, 0, prec=5)
        assert localfield._fp_shift(alpha + inexact, alpha) is None
        assert localfield._fp_shift(alpha * alpha, alpha) is None


# -- the accumulators that TowerAlgebra._collect replaced, kept as test oracles --


def reference_reduce(algebra, pending):
    """The work-list reduction: rewrite one term at a time, highest
    generator first, until no exponent reaches p."""
    p = algebra.p
    acc = {}
    work = list(pending.items())
    while work:
        exps, coeff = work.pop()
        if coeff.is_zero():
            continue
        over = None
        for i in range(algebra.nvars - 1, -1, -1):
            if exps[i] >= p:
                over = i
                break
        if over is None:
            cur = acc.get(exps)
            acc[exps] = coeff if cur is None else cur + coeff
            continue
        base = list(exps)
        base[over] -= p
        lin = list(base)
        lin[over] += 1
        work.append((tuple(lin), coeff))
        for rexps, rcoeff in algebra.relations[over].coeffs.items():
            work.append((tuple(b + r for b, r in zip(base, rexps)), coeff * rcoeff))
    return acc


def reference_mul(x, y):
    """Tower product: pre-merge the pairwise products, then the work list."""
    pending = {}
    for ea, ca in x.coeffs.items():
        for eb, cb in y.coeffs.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            c = ca * cb
            cur = pending.get(e)
            pending[e] = c if cur is None else cur + c
    return TowerElement(x.algebra, reference_reduce(x.algebra, pending))


def reference_add(x, y):
    """Tower sum: merge y's coefficients into a copy of x's."""
    out = dict(x.coeffs)
    for e, c in y.coeffs.items():
        cur = out.get(e)
        out[e] = c if cur is None else cur + c
    return TowerElement(x.algebra, out)


def reference_apply(sigma, x):
    """sigma(x) as a running total of sigma(monomial) * coefficient, with the
    image powers built by reference_mul."""
    algebra = x.algebra
    total = algebra.zero()
    for exps, c in x.coeffs.items():
        term = None
        for i, e in enumerate(exps):
            if e:
                pw = sigma.images[i]
                for _ in range(e - 1):
                    pw = reference_mul(pw, sigma.images[i])
                term = pw if term is None else reference_mul(term, pw)
        if term is None:
            term = algebra.from_series(c)
        else:
            term = TowerElement(algebra, {e: t * c for e, t in term.coeffs.items()})
        total = reference_add(total, term)
    return total


def mixed_series(field, rng, kinds=3):
    """An exact, a truncated or an imprecise-zero series, one third each;
    always exact for kinds=1."""
    s = random_series(field, rng, -6, 6, max_terms=4, nonzero=True)
    kind = rng.randrange(kinds)
    if kind == 1:
        return s.truncate(s.valuation() + rng.randint(1, 4))
    if kind == 2:
        return LaurentSeries(field, {}, prec=rng.randint(-3, 6))
    return s


def mixed_elements(algebra, rng, count, kinds=3):
    """Reduced elements whose coefficients come from mixed_series."""
    return [TowerElement(algebra, {tuple(rng.randrange(algebra.p) for _ in range(algebra.nvars)):
                                   mixed_series(algebra.field, rng, kinds)
                                   for _ in range(rng.randint(1, 4))})
            for _ in range(count)]


def one_generator_algebra():
    """F_9((pi))[alpha] with alpha^3 = alpha + pi^-2."""
    f9 = residue_field(3, 2)
    algebra = TowerAlgebra(f9, 1)
    algebra.set_relation(0, algebra.from_series(LaurentSeries.monomial(f9, 1, -2)))
    return algebra


def substitution_cases(algebra, rng):
    """The elements GaloisMap.apply takes without a product: each generator,
    exact and windowed scalars, zero, monomials with the exact coefficient
    one, and sums that mix such monomials with other terms; and monomials
    whose coefficient is one only up to a window, 1 + O(pi^N), which must
    take their products."""
    f, p, k = algebra.field, algebra.p, algebra.nvars
    one = LaurentSeries.one(f)
    cases = [algebra.gen(i) for i in range(k)] + [algebra.zero(), algebra.one()]
    cases += [algebra.from_series(mixed_series(f, rng)) for _ in range(3)]
    units = [TowerElement(algebra, {tuple(rng.randrange(p) for _ in range(k)): one})
             for _ in range(4)]
    cases += [TowerElement(algebra, {tuple(rng.randrange(p) for _ in range(k)):
                                     LaurentSeries(f, {0: 1}, prec=rng.randint(1, 3))})
              for _ in range(2)]
    return cases + units + [u + x for u, x in zip(units, mixed_elements(algebra, rng, 4))]


@pytest.fixture(scope="module")
def accumulator_algebras(h_tower, m_tower):
    return {"H-3": h_tower.algebra, "M-3": m_tower.algebra,
            "H-5": make_tower("H", p=5).algebra, "one-gen": one_generator_algebra()}


def same(got, want):
    """A TowerElement equal to want, coefficient precision included."""
    return type(got) is TowerElement and got == want


class TestCollectAgainstDeletedAccumulators:
    """__mul__, __add__ and GaloisMap.apply sum through TowerAlgebra._collect
    and must give what the deleted accumulators gave, precision included."""

    ALGEBRAS = ["H-3", "M-3", "H-5", "one-gen"]

    @pytest.mark.parametrize("name", ALGEBRAS)
    def test_products_and_sums(self, accumulator_algebras, name):
        algebra = accumulator_algebras[name]
        rng = random.Random(101)
        xs = mixed_elements(algebra, rng, 10)
        xs += [z for x in xs[:4] for z in (x * x, -x)]
        coeffs = [c for x in xs for c in x.coeffs.values()]
        assert any(c.is_exact for c in coeffs)
        assert any(c.coeffs and not c.is_exact for c in coeffs)
        assert any(not c.coeffs for c in coeffs)
        for x in xs:
            for y in xs:
                assert same(x * y, reference_mul(x, y))
                assert same(x + y, reference_add(x, y))

    @pytest.mark.parametrize("name", ALGEBRAS)
    def test_scalar_products(self, accumulator_algebras, name):
        algebra = accumulator_algebras[name]
        f = algebra.field
        rng = random.Random(102)
        for x in mixed_elements(algebra, rng, 6):
            for c in (0, 1, 2, f.gen(), mixed_series(f, rng)):
                s = c if isinstance(c, LaurentSeries) else LaurentSeries.monomial(f, c)
                assert same(x * c, reference_mul(x, algebra.from_series(s)))
        with pytest.raises(ValueError):
            algebra.one() * residue_field(7).one()

    @pytest.mark.parametrize("name", ALGEBRAS)
    def test_cancellation_to_exact_zero(self, accumulator_algebras, name):
        algebra = accumulator_algebras[name]
        rng = random.Random(103)
        zero = algebra.zero()
        xs = mixed_elements(algebra, rng, 8)
        exact = mixed_elements(algebra, rng, 8, kinds=1)
        for x in xs + exact:
            assert same(x - x, reference_add(x, -x))
            assert same(x * zero, reference_mul(x, zero))
            assert (x * zero).is_zero()
        for x, y in zip(exact, exact[1:]):
            assert (x - x).is_zero()
            comm = x * y - y * x
            assert comm.is_zero()
            assert same(comm, reference_add(reference_mul(x, y), -reference_mul(y, x)))
        # (g + 1)(g - 1) = g^2 - 1: the g terms cancel to an exact zero
        g = algebra.gen(algebra.nvars - 1)
        prod = (g + 1) * (g - 1)
        assert same(prod, reference_mul(g + 1, g - 1))
        assert len(prod.coeffs) == 2

    @pytest.mark.parametrize("name", ALGEBRAS)
    def test_collect_high_exponents(self, accumulator_algebras, name):
        algebra = accumulator_algebras[name]
        p, k = algebra.p, algebra.nvars
        rng = random.Random(104)
        for _ in range(12 if p == 3 else 4):
            terms = [(tuple(rng.randint(0, 3 * p) for _ in range(k)),
                      mixed_series(algebra.field, rng)) for _ in range(rng.randint(1, 4))]
            terms += [(e, mixed_series(algebra.field, rng)) for e, _ in terms[:2]]
            terms.append(((3 * p,) * k, LaurentSeries.one(algebra.field)))
            pending = {}
            for e, c in terms:
                pending[e] = c if e not in pending else pending[e] + c
            got = algebra._collect(terms)
            assert same(got, TowerElement(algebra, reference_reduce(algebra, pending)))
            assert all(e < p for exps in got.coeffs for e in exps)

    def test_apply_over_the_group(self, h_tower):
        products = eager_products(enumerate_group(h_tower, galois_generators(h_tower)))
        y = construct_generator(h_tower).element
        rng = random.Random(105)
        xs = [y] + mixed_elements(h_tower.algebra, rng, 6)
        xs += substitution_cases(h_tower.algebra, rng)
        assert len(products) == 27
        for sigma in products.values():
            for x in xs:
                assert same(sigma.apply(x), reference_apply(sigma, x))



# -- the lean kernel: internal results skip the zero filter -----------------------


def holds_no_exact_zero(x):
    """x is a TowerElement whose public constructor would drop nothing."""
    return type(x) is TowerElement and TowerElement(x.algebra, x.coeffs).coeffs == x.coeffs


def imprecise_zeros(x) -> int:
    return sum(1 for c in x.coeffs.values() if not c.coeffs and not c.is_exact)


class TestInternalResults:
    """_collect, apply, compose and __neg__ build their results without the
    public constructor's filter: none may hold an exact zero, and an
    imprecise zero stays."""

    @pytest.mark.parametrize("name", TestCollectAgainstDeletedAccumulators.ALGEBRAS)
    def test_sums_products_and_negations(self, accumulator_algebras, name):
        algebra = accumulator_algebras[name]
        rng = random.Random(201)
        xs = mixed_elements(algebra, rng, 8)
        xs += [-x for x in xs[:4]]
        kept = 0
        for x in xs:
            assert holds_no_exact_zero(-x)
            assert imprecise_zeros(-x) == imprecise_zeros(x)
            for y in xs:
                for z in (x + y, x * y, x - y, x + (-x)):
                    assert holds_no_exact_zero(z)
                    kept += imprecise_zeros(z)
                assert same(x - y, reference_add(x, -y))
        assert kept
        # a sum that cancels exactly holds nothing, an inexact one an O(pi^N)
        exact = mixed_elements(algebra, rng, 4, kinds=1)
        assert all((x + (-x)).coeffs == {} for x in exact)
        assert all(imprecise_zeros(x - x) == len(x.coeffs) for x in xs
                   if all(not c.is_exact for c in x.coeffs.values()))

    @pytest.mark.parametrize("name", TestCollectAgainstDeletedAccumulators.ALGEBRAS)
    def test_collect_drops_exact_zeros_as_they_merge(self, accumulator_algebras, name):
        algebra = accumulator_algebras[name]
        p, k = algebra.p, algebra.nvars
        rng = random.Random(202)
        for _ in range(10):
            terms = [(tuple(rng.randint(0, 2 * p) for _ in range(k)),
                      mixed_series(algebra.field, rng)) for _ in range(rng.randint(1, 5))]
            # each term again with its negation: the merge meets exact zeros
            terms += [(e, -c) for e, c in terms if c.is_exact] + terms[:2]
            got = algebra._collect(terms)
            assert holds_no_exact_zero(got)
            pending = {}
            for e, c in terms:
                pending[e] = c if e not in pending else pending[e] + c
            assert same(got, TowerElement(algebra, reference_reduce(algebra, pending)))

    def test_apply_and_compose(self, h_tower, m_tower):
        kept = 0
        for tower in (h_tower, m_tower):
            algebra = tower.algebra
            rng = random.Random(203)
            gens = galois_generators(tower)
            shifts = mixed_elements(algebra, rng, algebra.nvars)
            windowed = GaloisMap(algebra, [algebra.gen(i) + x for i, x in enumerate(shifts)],
                                 validate=False)
            # images whose coefficients are one only up to a window
            near_one = LaurentSeries(algebra.field, {0: 1}, prec=2)
            ones = GaloisMap(algebra, [algebra.gen(i) * near_one + 1
                                       for i in range(algebra.nvars)], validate=False)
            maps = gens + [windowed, ones]
            xs = mixed_elements(algebra, rng, 6) + substitution_cases(algebra, rng)
            for sigma in maps:
                for x in xs:
                    img = sigma.apply(x)
                    assert holds_no_exact_zero(img)
                    assert same(img, reference_apply(sigma, x))
                    kept += imprecise_zeros(img)
                for j in range(algebra.nvars):
                    assert sigma.apply(algebra.gen(j)) is sigma.images[j]
                for x in xs:
                    if x.support_level() == 0:
                        assert sigma.apply(x) is x
                for tau in maps:
                    composed = sigma.compose(tau)
                    assert all(holds_no_exact_zero(img) for img in composed.images)
                    kept += sum(map(imprecise_zeros, composed.images))
        assert kept

    @pytest.mark.parametrize("variant, p, n", TIER1_TOWERS)
    def test_apply_multiplies_nothing_by_one(self, variant, p, n, monkeypatch):
        # the series products apply makes itself, and those of its _collect:
        # a tower product it takes (an image power, the image of a monomial)
        # is TowerElement.__mul__'s and is not counted
        counts = {"apply": 0, "products": 0, "by_one": 0}
        depth = 0
        real_apply, real_tower_mul = GaloisMap.apply, TowerElement.__mul__
        real_series_mul = LaurentSeries.__mul__

        def is_one(s):
            return isinstance(s, LaurentSeries) and s.is_exact and s.coeffs == {0: 1}

        def apply(self, x):
            nonlocal depth
            counts["apply"] += 1
            depth += 1
            try:
                return real_apply(self, x)
            finally:
                depth -= 1

        def tower_mul(self, other):
            nonlocal depth
            outer, depth = depth, 0
            try:
                return real_tower_mul(self, other)
            finally:
                depth = outer

        def series_mul(self, other):
            if depth:
                counts["products"] += 1
                counts["by_one"] += is_one(self) or is_one(other)
            return real_series_mul(self, other)

        monkeypatch.setattr(GaloisMap, "apply", apply)
        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(TowerElement, name, tower_mul)
            monkeypatch.setattr(LaurentSeries, name, series_mul)
        assert verify_family(variant, p, n, 1, 1).passed
        assert counts["apply"] and counts["products"]
        assert counts["by_one"] == 0

    @pytest.mark.parametrize("variant, p, n", TIER1_TOWERS)
    def test_generators_survive_a_verify(self, variant, p, n, monkeypatch):
        towers = []

        def capture(params):
            towers.append(localfield.build_tower(params))
            return towers[-1]

        monkeypatch.setattr(oracle, "build_tower", capture)
        report = oracle.verify_tower(make_tower(variant, p, n).params)
        assert report.passed
        (tower,) = towers
        algebra = tower.algebra
        one = LaurentSeries.one(algebra.field)
        for i in range(algebra.nvars):
            unit = tuple(int(j == i) for j in range(algebra.nvars))
            assert algebra.gen(i) is algebra.gen(i)
            assert algebra.gen(i).coeffs == {unit: one}
            assert algebra.gen(i).coeffs[unit].coeffs == {0: 1}


def reference_fp_shift(x, y):
    """The F_p shift by its definition: build x - y, and read its constant."""
    d = dict((x - y).coeffs)
    c = d.pop(x.algebra._zero_exps, LaurentSeries.zero(x.algebra.field))
    if d or not c.is_exact or not c.coeffs.keys() <= {0}:
        return None
    e = c.coeffs.get(0, 0)
    return e if e < c.field.p else None


class TestFpShiftAgainstDefinition:
    @pytest.mark.parametrize("name", TestCollectAgainstDeletedAccumulators.ALGEBRAS)
    def test_random_pairs(self, accumulator_algebras, name):
        algebra = accumulator_algebras[name]
        f = algebra.field
        rng = random.Random(204)
        ys = mixed_elements(algebra, rng, 6) + mixed_elements(algebra, rng, 6, kinds=1)
        ys += [algebra.gen(i) for i in range(algebra.nvars)] + [algebra.zero()]
        results = []
        for y in ys:
            shifts = [random_elem(f, rng) for _ in range(4)] + [
                mixed_series(f, rng), LaurentSeries(f, {0: rng.randrange(f.p), 2: 1}),
                LaurentSeries.monomial(f, rng.randrange(1, f.p), 0, prec=rng.randint(1, 4))]
            xs = [y + algebra.from_series(LaurentSeries.monomial(f, s)) if not
                  isinstance(s, LaurentSeries) else y + algebra.from_series(s) for s in shifts]
            xs += [y * y, -y, rng.choice(ys)]
            for x in xs:
                got = localfield._fp_shift(x, y)
                assert got == reference_fp_shift(x, y)
                results.append(got)
        assert None in results
        assert {0, 1} <= set(results) and max(r for r in results if r is not None) < algebra.p


class TestCommutatorsAndWords:
    @pytest.mark.parametrize("variant, p, n", TIER1_TOWERS)
    def test_right_nested_commutators_equal_left_nested(self, variant, p, n, monkeypatch):
        tower = make_tower(variant, p, n)
        gens = galois_generators(tower)
        walks = enumerate_group(tower, gens)
        report, calls = count_composes(monkeypatch,
                                       lambda: group_structure(tower, gens, walks))
        k = tower.nvars
        assert calls == 3 * k * (k - 1) // 2
        for i in range(k):
            for j in range(i + 1, k):
                # the reference: [s_i, s_j] = s_i s_j s_i^-1 s_j^-1, left to right
                left = gens[i].compose(gens[j]).compose(walks[i][-1]).compose(walks[j][-1])
                right = gens[i].compose(gens[j].compose(walks[i][-1].compose(walks[j][-1])))
                assert all(same(r, l) for r, l in zip(right.images, left.images))
                assert report.commutator_words[(i + 1, j + 1)] == \
                    localfield.word_of(walks, left)

    @pytest.mark.parametrize("variant, p, n", [("H", 3, 2), ("M", 3, 2), ("M", 5, 1)])
    def test_word_of_negates_and_collects_nothing(self, variant, p, n, monkeypatch):
        # the words of a verify are read from the terms of the images: no
        # x - y is built, so no negation and no merge
        calls = {"word_of": 0, "neg": 0, "collect": 0}
        depth = 0
        real_word_of = localfield.word_of
        real_neg, real_collect = TowerElement.__neg__, TowerAlgebra._collect

        def word_of(walks, m):
            nonlocal depth
            calls["word_of"] += 1
            depth += 1
            try:
                return real_word_of(walks, m)
            finally:
                depth -= 1

        def neg(self):
            calls["neg"] += depth > 0
            return real_neg(self)

        def collect(self, terms):
            calls["collect"] += depth > 0
            return real_collect(self, terms)

        monkeypatch.setattr(localfield, "word_of", word_of)
        monkeypatch.setattr(TowerElement, "__neg__", neg)
        monkeypatch.setattr(TowerAlgebra, "_collect", collect)
        assert verify_family(variant, p, n, 1, 1).passed
        k = 2 * n + 1
        # each generator's unit word, each commutator and sigma_1^p
        assert calls == {"word_of": k + k * (k - 1) // 2 + 1, "neg": 0, "collect": 0}
