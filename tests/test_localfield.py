import random
from fractions import Fraction

import pytest

from extraspecial import (ExtRational, INF, LaurentSeries, PrecisionError, TowerAlgebra,
                          TowerElement, TowerParams, build_tower, construct_generator,
                          elt_valuation, elt_valuation_top, enumerate_group,
                          galois_generators, group_structure, localfield, oracle,
                          residue_field, verify_family, witt_carry)
from extraspecial.localfield import ConstructionError, GaloisMap, PlanRejection
from extraspecial.planner import default_leads
from conftest import random_elem, random_series


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
        params = TowerParams(p=3, n=1, variant="H", e0=ExtRational(100), r=1,
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
        assert elt_valuation(h_tower.algebra.zero()).is_infinite

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


def exact_chain(x):
    """v_0(x) through the exact norm chain: the capped chain's fallback,
    kept here as its test oracle."""
    return INF if x.is_zero() else localfield._norm_valuation(x, None)


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
        measured = []
        real = localfield.elt_valuation

        def record(x):
            measured.append(x)
            return real(x)

        monkeypatch.setattr(localfield, "elt_valuation", record)
        # the filtration measures every element, not one per class of cyclic
        # subgroups, so that each sigma(Y) - Y is among the elements checked
        monkeypatch.setattr(oracle, "_cyclic_class", lambda word, p: word)
        assert verify_family(variant, p, 1, 1, 1).passed
        assert len(measured) > 20
        want = [valuation_outcome(exact_chain, x) for x in measured]
        for start in (1, 2, 8):
            monkeypatch.setattr(localfield, "CAP_START", start)
            assert [valuation_outcome(real, x) for x in measured] == want

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


TIER1_TOWERS = [(v, p, n) for p, n in [(3, 1), (3, 2), (5, 1), (7, 1)] for v in "HM"]


def eager_products(tower, powers):
    """The loop GroupTable's lazy build replaced, kept as a test reference:
    every product sigma_1^e1 ... sigma_k^ek, 0 <= e_i < p, one letter at a
    time, by normal-form word."""
    elements = {(): GaloisMap.identity(tower.algebra)}
    for pows in powers:
        new = {}
        for word, m in elements.items():
            new[word + (0,)] = m  # the e = 0 factor is the identity
            for e in range(1, tower.p):
                new[word + (e,)] = m.compose(pows[e])
        elements = new
    return elements


def outside_fp(m, j, c):
    """m with its image of alpha_(j+1) shifted by the constant c."""
    images = list(m.images)
    images[j] = images[j] + c
    return GaloisMap(m.algebra, images, validate=False)


class TestGroupStructure:
    def test_h_group(self, h_tower):
        gens = galois_generators(h_tower)
        table = enumerate_group(h_tower, gens)
        assert table.order == 27
        rep = group_structure(h_tower, gens, table)
        assert rep.gen_orders == (3, 3, 3)
        assert rep.metacyclic_w is None
        assert rep.commutator_words[(1, 2)] == (0, 0, 1)
        assert rep.commutator_words[(1, 3)] == (0, 0, 0)
        assert rep.commutator_words[(2, 3)] == (0, 0, 0)

    @pytest.mark.parametrize("variant", ["H", "M"])
    def test_table_keeps_each_power_walk(self, variant, h_tower, m_tower):
        tower = h_tower if variant == "H" else m_tower
        gens = galois_generators(tower)
        table = enumerate_group(tower, gens)
        assert len(table.powers) == len(gens)
        for pows, g in zip(table.powers, gens):
            assert pows == g.powers()
        # every word is the product of its generator powers, e = 0 factors included
        for word in table.words:
            expected = GaloisMap.identity(tower.algebra)
            for pows, e in zip(table.powers, word):
                expected = expected.compose(pows[e])
            assert table[word] == expected

    @pytest.mark.parametrize("variant, p, n", TIER1_TOWERS)
    def test_lazy_products_match_eager_products(self, variant, p, n):
        tower = make_tower(variant, p, n)
        gens = galois_generators(tower)
        table = enumerate_group(tower, gens)
        # enumerate_group builds only the unit words its check reads
        k = tower.nvars
        assert set(table.built) == {tuple(int(i == j) for j in range(k))
                                    for i in range(-1, k - 1)}
        eager = eager_products(tower, table.powers)
        assert list(eager) == list(table.words)
        for word, m in eager.items():
            assert table[word].images == m.images
        assert len(table.built) == table.order == p**k

    def test_m_group(self, m_tower):
        gens = galois_generators(m_tower)
        table = enumerate_group(m_tower, gens)
        rep = group_structure(m_tower, gens, table)
        assert rep.gen_orders[0] == 9
        assert rep.gen_orders[1:] == (3, 3)
        assert rep.sigma1_p_word[:-1] == (0, 0)
        assert rep.sigma1_p_word[-1] in (1, 2)
        assert rep.metacyclic_w == rep.sigma1_p_word[-1]


def closure_loop(table, gens):
    """The closure check group_structure's presentation proof replaced,
    kept as a test reference: word_of(g m) for every generator g and table
    element m, k p^k compositions and every product built.  The table holds
    the identity and the group is finite, so passing is closure under
    composition; a map outside the table raises ConstructionError."""
    for g in gens:
        for word in table.words:
            table.word_of(g.compose(table[word]))


def as_other_variant(tower):
    """The tower read against the presentation of the other variant, which
    it fails: H(n) against M(n), M(n) against H(n)."""
    other = "M" if tower.params.variant == "H" else "H"
    return tower.replace(params=tower.params.replace(variant=other))


class TestGroupClosure:
    """group_structure proves closure from the presentation, and stops on a
    relation that fails; the k p^k closure loop is the reference."""

    @pytest.mark.parametrize("variant, p, n", TIER1_TOWERS)
    def test_presentation_proves_closure(self, variant, p, n):
        tower = make_tower(variant, p, n)
        gens = galois_generators(tower)
        table = enumerate_group(tower, gens)
        assert table.order == p ** tower.nvars
        built = set(table.built)
        group_structure(tower, gens, table)
        # the proof builds no product of the table
        assert set(table.built) == built
        closure_loop(table, gens)

    def test_commutator_shift_outside_fp_is_construction_error(self, h_tower):
        # sigma_top shifted by g, outside F_3: [sigma_1, sigma_top] shifts
        # alpha_top by g - 1, which no word reads
        gens = galois_generators(h_tower)
        table = enumerate_group(h_tower, gens)
        g = h_tower.field.gen()
        assert not g.in_prime_field
        bent = gens[:-1] + [outside_fp(gens[-1], 2, g - 1)]
        with pytest.raises(ConstructionError, match="^group is not closed under composition$"):
            group_structure(h_tower, bent, table)

    @pytest.mark.parametrize("variant, p, n", TIER1_TOWERS)
    def test_failed_presentation_names_the_relation(self, variant, p, n):
        # sigma_1 has order p in H(n) and p^2 in M(n), so each variant read
        # against the other's presentation stops at the order of sigma_1
        tower = make_tower(variant, p, n)
        gens = galois_generators(tower)
        table = enumerate_group(tower, gens)
        order, needs = (p, p**2) if variant == "H" else (p**2, p)
        other = as_other_variant(tower)
        with pytest.raises(ConstructionError,
                           match=rf"^the order of sigma_1 is {order}, the presentation of "
                                 rf"{other.params.variant}\({n}\) needs {needs}$"):
            group_structure(other, gens, table)

    def test_failed_commutator_names_the_relation(self, h_tower):
        # sigma_1 and sigma_2 swapped: their commutator is sigma_top^-1
        s1, s2, s3 = galois_generators(h_tower)
        swapped = [s2, s1, s3]
        table = localfield.GroupTable([g.powers() for g in swapped])
        with pytest.raises(ConstructionError,
                           match=r"^the word of \[sigma_1, sigma_2\] is \(0, 0, 2\), "
                                 r"the presentation of H\(1\) needs \(0, 0, 1\)$"):
            group_structure(h_tower, swapped, table)

    def test_failed_presentation_on_open_table_is_construction_error(self, h_tower):
        # sigma_1 in the walk of sigma_1 is shifted on alpha_top by g, outside
        # F_3.  The presentation reads only the generators, sigma_1^3 and the
        # last entry of each walk, so it stops at the order of sigma_1 without
        # reading that entry; the closure loop builds a product on it and
        # finds the shift
        gens = galois_generators(h_tower)
        table = enumerate_group(h_tower, gens)
        walk = list(table.powers[0])
        walk[1] = outside_fp(walk[1], 2, h_tower.field.gen())
        open_table = localfield.GroupTable([walk] + table.powers[1:])
        with pytest.raises(ConstructionError, match="^the order of sigma_1 is 3, "):
            group_structure(as_other_variant(h_tower), gens, open_table)
        with pytest.raises(ConstructionError, match="^group is not closed under composition$"):
            closure_loop(open_table, gens)


def map_key(m):
    """The deleted GaloisMap.key(), kept as a test reference: each image as
    its sorted terms (exponents, (sorted series coefficients, precision))."""
    return tuple(tuple(sorted((e, (tuple(sorted(c.coeffs.items())), c.prec))
                              for e, c in img.coeffs.items()))
                 for img in m.images)


class TestWordReading:
    """GroupTable.word_of reads a map's word from the shifts it makes."""

    @pytest.mark.parametrize("variant, p, n", TIER1_TOWERS)
    def test_every_element_reads_its_own_word(self, variant, p, n):
        tower = make_tower(variant, p, n)
        table = enumerate_group(tower, galois_generators(tower))
        for word in table.words:
            assert table.word_of(table[word]) == word
        assert len({map_key(m) for m in table.built.values()}) == p ** tower.nvars
        # a map that shifts alpha_top past a word's map by a constant outside
        # F_p is in no word
        last = table[(p - 1,) * tower.nvars]
        g = tower.field.gen()
        assert not g.in_prime_field
        with pytest.raises(ConstructionError, match="^group is not closed under composition$"):
            table.word_of(outside_fp(last, tower.nvars - 1, g))

    @pytest.mark.parametrize("variant", ["H", "M"])
    @pytest.mark.parametrize("order", [(1, 0, 2), (2, 1, 0), (0, 2, 1)])
    def test_permuted_generators_are_refused(self, variant, order, h_tower, m_tower):
        tower = h_tower if variant == "H" else m_tower
        gens = galois_generators(tower)
        with pytest.raises(ConstructionError):
            enumerate_group(tower, [gens[i] for i in order])

    def test_shift_outside_fp_is_not_a_word(self, h_tower):
        table = enumerate_group(h_tower, galois_generators(h_tower))
        algebra, g = h_tower.algebra, h_tower.field.gen()
        assert not g.in_prime_field
        images = [algebra.gen(j) for j in range(algebra.nvars)]
        images[0] = images[0] + g
        with pytest.raises(ConstructionError, match="^group is not closed under composition$"):
            table.word_of(GaloisMap(algebra, images, validate=False))
        alpha = algebra.gen(0)
        assert localfield._fp_shift(alpha + g, alpha) is None
        assert localfield._fp_shift(alpha + g + (2 - g), alpha) == 2
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

    def test_apply_over_the_group_table(self, h_tower):
        table = enumerate_group(h_tower, galois_generators(h_tower))
        y = construct_generator(h_tower).element
        xs = [y] + mixed_elements(h_tower.algebra, random.Random(105), 6)
        assert table.order == 27
        for sigma in map(table.__getitem__, table.words):
            for x in xs:
                assert same(sigma.apply(x), reference_apply(sigma, x))

