import itertools
import random

import pytest

import extraspecial
from extraspecial import (INF, LaurentSeries, TowerParams, default_leads, residue_field,
                          ring_det, ti_valuations)
from extraspecial import detval, localfield, oracle
from extraspecial.detval import _twist_valuation, frobenius_matrix
from extraspecial.artin_schreier import fp_rank
from conftest import elem_from_index, random_elem, random_series
from test_localfield import make_tower


def cofactor_det(rows):
    """The plain cofactor expansion along the first column that ``ring_det``
    replaced: every minor recomputed, every entry multiplied."""
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("matrix must be square")
    if k == 1:
        return rows[0][0]
    total = None
    for i in range(k):
        minor = [r[1:] for j, r in enumerate(rows) if j != i]
        term = rows[i][0] * cofactor_det(minor)
        if i % 2:
            term = -term
        total = term if total is None else total + term
    return total


def outcome(fn, rows):
    try:
        value = fn(rows)
    except Exception as exc:  # noqa: BLE001  (the exception type is compared)
        return "raises", type(exc)
    return type(value), value


def assert_same_det(rows):
    """ring_det and the cofactor expansion agree in type, value and, through
    the series' equality, precision; or both raise the same exception type."""
    got, want = outcome(ring_det, rows), outcome(cofactor_det, rows)
    assert got == want, rows
    return got


@pytest.fixture(scope="module")
def towers():
    return {"H": make_tower("H"), "M": make_tower("M")}


def random_matrix(rng, k, entry, zero):
    """A k x k matrix of ``entry(rng)`` with about a third exact zeros, and
    sometimes a whole row or column of exact zeros."""
    rows = [[zero if rng.random() < 0.35 else entry(rng) for _ in range(k)]
            for _ in range(k)]
    shape = rng.randrange(4)
    if shape == 1:
        rows[rng.randrange(k)] = [zero] * k
    elif shape == 2:
        col = rng.randrange(k)
        for r in rows:
            r[col] = zero
    return rows


class TestRingDet:
    def test_2x2(self, f9):
        a = LaurentSeries.monomial(f9, 1, 0)
        b = LaurentSeries.monomial(f9, 1, 1)
        c = LaurentSeries.monomial(f9, 1, 2)
        d = LaurentSeries.monomial(f9, 1, 3)
        # ad - bc = pi^3 - pi^3 = 0
        assert ring_det([[a, b], [c, d]]).is_zero()

    def test_3x3_permutation_signs(self, f3):
        one = LaurentSeries.one(f3)
        zero = LaurentSeries.zero(f3)
        m = [[zero, one, zero], [zero, zero, one], [one, zero, zero]]
        assert ring_det(m) == one


class TestMemoizedAgainstCofactor:
    """``ring_det`` against the cofactor expansion it replaced."""

    @pytest.mark.parametrize("p, d", [(3, 1), (3, 2), (5, 1), (7, 1)])
    @pytest.mark.parametrize("k", range(1, 8))
    def test_finite_field(self, p, d, k):
        field = residue_field(p, d)
        rng = random.Random(1000 * p + 100 * d + k)
        for _ in range(4):
            rows = random_matrix(rng, k, lambda r: random_elem(field, r, nonzero=True),
                                 field.zero())
            assert assert_same_det(rows)[0] is type(field.zero())

    @pytest.mark.parametrize("k", range(1, 8))
    def test_series(self, k, f9):
        """Exact, truncated and imprecise-zero entries, and whole zero rows
        and columns; the determinant's precision must match too."""
        rng = random.Random(7100 + k)
        precs = set()

        def entry(r):
            s = random_series(f9, r, min_exp=-3, max_exp=3, max_terms=3)
            kind = r.randrange(4)
            if kind == 1:
                return s.truncate(r.randint(-2, 4))
            if kind == 2:
                return LaurentSeries(f9, {}, r.randint(-2, 5))
            return s

        for _ in range(8 if k < 7 else 3):
            rows = random_matrix(rng, k, entry, LaurentSeries.zero(f9))
            kind, det = assert_same_det(rows)
            assert kind is LaurentSeries
            precs.add(det.prec)
        assert precs != {float("inf")} or k == 1

    @pytest.mark.parametrize("variant", ["H", "M"])
    @pytest.mark.parametrize("k", range(1, 6))
    def test_tower_elements(self, variant, k, towers):
        tower = towers[variant]
        algebra = tower.algebra
        field = tower.field
        rng = random.Random(7200 + 10 * k + (variant == "M"))
        pool = [tower.alpha(i) for i in range(1, tower.nvars + 1)]

        def entry(r):
            x = algebra.from_series(random_series(field, r, min_exp=-2, max_exp=2, max_terms=2))
            for _ in range(r.randint(0, 2)):
                x = x + r.choice(pool) * algebra.from_series(
                    random_series(field, r, min_exp=-1, max_exp=1, max_terms=1, nonzero=True))
            if r.random() < 0.15:
                x = x + algebra.from_series(LaurentSeries(field, {}, r.randint(1, 4)))
            return x

        for _ in range(2):
            rows = random_matrix(rng, k, entry, algebra.zero())
            assert assert_same_det(rows)[0] is type(algebra.zero())

    @pytest.mark.parametrize("variant", ["H", "M"])
    def test_oracle_matrices(self, variant, towers, monkeypatch):
        """Every determinant that building Y and the level norms of the
        tower's own elements expand: generators, Y and a Galois difference."""
        tower = towers[variant]
        seen = []

        def checked(rows):
            seen.append(len(rows))
            return assert_same_det(rows)[1]

        monkeypatch.setattr(localfield, "ring_det", checked)
        monkeypatch.setattr(oracle, "ring_det", checked)
        y = oracle.construct_generator(tower).element
        sigma = localfield.galois_generators(tower)[0]
        for x in [tower.alpha(i) for i in range(1, tower.nvars + 1)] + [sigma.apply(y) - y]:
            localfield.elt_valuation(x)
        assert tower.nvars in seen and tower.p in seen

    def test_exceptions_agree(self, f9, f3):
        one9 = LaurentSeries.one(f9)
        assert assert_same_det([[one9, one9], [one9]])[0] == "raises"
        # a nonzero entry of another field is multiplied by both
        rng = random.Random(7300)
        for k in range(2, 6):
            rows = [[random_elem(f9, rng, nonzero=True) for _ in range(k)] for _ in range(k)]
            rows[rng.randrange(k)][rng.randrange(k)] = f3(1)
            assert assert_same_det(rows) == ("raises", ValueError)


class Counted:
    """A ring element that logs each product it is the left factor of."""

    def __init__(self, value, log):
        self.value = value
        self.log = log

    def is_zero(self):
        return self.value.is_zero()

    def __mul__(self, other):
        self.log.append(self)
        return Counted(self.value * other.value, self.log)

    def __neg__(self):
        return Counted(-self.value, self.log)

    def __add__(self, other):
        return Counted(self.value + other.value, self.log)


class TestExpansionCost:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_dense_matrix_bound(self, k, f9):
        log = []
        rng = random.Random(7400 + k)
        plain = [[random_elem(f9, rng, nonzero=True) for _ in range(k)] for _ in range(k)]
        det = ring_det([[Counted(x, log) for x in row] for row in plain])
        assert det.value == cofactor_det(plain)
        # each minor of size s >= 2 multiplies its s entries once
        assert len(log) == k * (2 ** (k - 1) - 1) <= k * 2 ** (k - 1)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_exact_zeros_are_skipped_imprecise_zeros_are_not(self, k, f9):
        """A permutation matrix: with exact zeros off the permutation only the
        k - 1 nonzero entries above the last column are multiplied; with
        imprecise zeros every minor and entry is expanded."""
        perm = list(range(k))
        random.Random(7500 + k).shuffle(perm)
        one = LaurentSeries.one(f9)
        for zero, products in ((LaurentSeries.zero(f9), k - 1),
                               (LaurentSeries(f9, {}, 3), k * (2 ** (k - 1) - 1))):
            log = []
            plain = [[one if perm[i] == j else zero for j in range(k)] for i in range(k)]
            det = ring_det([[Counted(x, log) for x in row] for row in plain])
            assert det.value == cofactor_det(plain)
            assert len(log) == products
            assert not any(c.is_zero() for c in log)
            if k > 1 and not zero.is_zero():
                assert any(c.value == zero for c in log)

    def test_zero_column_makes_no_product(self, f9):
        log = []
        zero, one = LaurentSeries.zero(f9), LaurentSeries.one(f9)
        rows = [[Counted(zero, log), Counted(one, log)], [Counted(zero, log), Counted(one, log)]]
        assert ring_det(rows).is_zero() and log == []

    @pytest.mark.parametrize("k", range(1, 8))
    def test_each_minor_expanded_once(self, k, f9, monkeypatch):
        """Recursion goes through the module's name: one call per distinct
        set of kept rows, 2^k - 1 for a dense matrix."""
        calls = []
        inner = detval.ring_det

        def counting(rows):
            calls.append(rows)
            return inner(rows)

        monkeypatch.setattr(detval, "ring_det", counting)
        rng = random.Random(7600 + k)
        rows = [[random_elem(f9, rng, nonzero=True) for _ in range(k)] for _ in range(k)]
        assert counting(rows) == cofactor_det(rows)
        assert len(calls) == 2 ** k - 1

    def test_one_determinant_is_bound_everywhere(self):
        assert localfield.ring_det is detval.ring_det
        assert oracle.ring_det is detval.ring_det
        assert extraspecial.ring_det is detval.ring_det


class TestMooreDet:
    """det(mu_i^(p^(j-1))) over F_q is nonzero exactly when the mu_i are
    F_p-independent."""

    def test_empty_refused(self):
        with pytest.raises(ValueError):
            ring_det(frobenius_matrix([]))

    def test_1x1(self, f9):
        g = f9.gen()
        assert ring_det(frobenius_matrix([g])) == g

    def test_independent_pair_nonzero(self, f9):
        g = f9.gen()
        det = ring_det(frobenius_matrix([f9.one(), g]))
        assert det == g**3 - g
        assert det

    def test_dependent_pair_zero(self, f9):
        assert not ring_det(frobenius_matrix([f9.one(), f9(2)]))

    def test_exhaustive_rank_equivalence_k2(self, f9):
        for i, j in itertools.product(range(1, 9), range(1, 9)):
            mus = [elem_from_index(f9, i), elem_from_index(f9, j)]
            assert bool(ring_det(frobenius_matrix(mus))) == (fp_rank(f9, mus) == 2)

    def test_sampled_rank_equivalence_k3(self, f27):
        rng = random.Random(23)
        for _ in range(150):
            mus = [random_elem(f27, rng, nonzero=True) for _ in range(3)]
            assert bool(ring_det(frobenius_matrix(mus))) == (fp_rank(f27, mus) == 3)


class TestTval:
    """The expanded twist determinant det(phi^(j-1)(beta_i)) has valuation
    -(r_1 + p r_2 + ... + p^(k-1) r_k), r_i = -val(beta_i)."""

    def test_distinct_valuations(self, f9):
        betas = [LaurentSeries.monomial(f9, 1, -1), LaurentSeries.monomial(f9, 1, -2)]
        assert _twist_valuation(3, [1, 2]) == -7
        assert ring_det(frobenius_matrix(betas)).valuation() == -7

    def test_equal_run_with_independent_leads(self, f9):
        g = f9.gen()
        betas = [LaurentSeries.monomial(f9, 1, -1), LaurentSeries.monomial(f9, g, -1)]
        assert _twist_valuation(3, [1, 1]) == -4
        det = ring_det(frobenius_matrix(betas))
        assert det == LaurentSeries.monomial(f9, g**3 - g, -4)

    def test_singleton(self, f9):
        assert _twist_valuation(3, [5]) == -5
        assert ring_det(frobenius_matrix([LaurentSeries.monomial(f9, 1, -5)])).valuation() == -5


def random_frob_matrix(rng):
    """Rows beta_1..beta_k over a random small field with -val(beta_i)
    nondecreasing and F_p-independent leading coefficients within each run
    of equal valuations, with noise above the leading terms."""
    p, d = rng.choice([(3, 2), (5, 2), (3, 3)])
    field = residue_field(p, d)
    k = rng.randint(1, 4)
    rs = []
    cur = rng.randint(1, 4)
    while len(rs) < k:
        run = min(rng.randint(1, d), k - len(rs))
        rs.extend([cur] * run)
        cur += rng.randint(1, 3)
    betas = []
    i = 0
    while i < k:
        j = i
        while j + 1 < k and rs[j + 1] == rs[i]:
            j += 1
        while True:
            leads = [random_elem(field, rng, nonzero=True) for _ in range(j - i + 1)]
            if fp_rank(field, leads) == len(leads):
                break
        for offset, lead in enumerate(leads):
            coeffs = {-rs[i + offset]: lead}
            for _ in range(rng.randint(0, 3)):
                coeffs[rng.randint(-rs[i + offset] + 1, 3)] = random_elem(field, rng)
            betas.append(LaurentSeries(field, coeffs))
        i = j + 1
    return tuple(betas)


class TestTvalRandomEquivalence:
    def test_formula_matches_brute_force(self):
        rng = random.Random(2024)
        for _ in range(60):
            betas = random_frob_matrix(rng)
            assert ring_det(frobenius_matrix(list(betas))).valuation() == \
                _twist_valuation(betas[0].field.p, [-b.valuation() for b in betas])


class TestTiValuations:
    def test_example_family(self):
        assert ti_valuations(3, 1, (0, 0, 1)) == (-3, -3, 0)

    def test_all_zero(self):
        assert ti_valuations(3, 1, (0, 0, 0)) == (0, 0, 0)

    def test_b_difference_identity(self):
        v0 = ti_valuations(3, 1, (0, 0, 1))
        # v3(t3) - v3(t1) = 27 * 3 = 81 = b3 - b1 = 82 - 1
        assert 3**3 * (v0[2] - v0[0]) == 81

    def test_telescoping(self):
        for p, n, m in ((3, 1, (0, 1, 2)), (5, 2, (0, 0, 1, 1, 3)), (3, 2, (1, 1, 1, 2, 2))):
            v0 = ti_valuations(p, n, m)
            for i in range(1, 2 * n + 1):
                assert v0[i] - v0[i - 1] == p ** (i - 1) * (m[i] - m[i - 1])

    def test_wrong_length_rejected(self):
        # ti_valuations trusts its caller: TowerParams refuses a wrong-length
        # m before any tower, and so any ti_valuations call, is built
        field = residue_field(3, 2)
        with pytest.raises(ValueError, match="need 3 exponents m_i, got 2"):
            TowerParams(p=3, n=1, variant="H", e0=INF, r=1, m=(0, 1),
                        leads=default_leads(field, 1), field=field)


class TestPhidet:
    """det(phi(A)) = phi(det(A)) on the nose: in characteristic p the
    Frobenius is a ring homomorphism."""

    def test_1x1(self, f9):
        rows = [[LaurentSeries(f9, {-2: f9.gen(), 1: 1})]]
        assert ring_det([[x.frobenius() for x in r] for r in rows]) == ring_det(rows).frobenius()

    def test_identity_matrix(self, f9):
        one = LaurentSeries.one(f9)
        zero = LaurentSeries.zero(f9)
        rows = [[one, zero], [zero, one]]
        assert ring_det([[x.frobenius() for x in r] for r in rows]) == ring_det(rows).frobenius()
        assert ring_det(rows).valuation() == 0

    def test_random_2x2(self, f9):
        rng = random.Random(31)
        for _ in range(20):
            rows = [[random_series(f9, rng) for _ in range(2)] for _ in range(2)]
            assert ring_det([[x.frobenius() for x in r] for r in rows]) == \
                ring_det(rows).frobenius()


class TestFrobeniusMatrixShape:
    def test_entries_are_twists(self, f9):
        g = f9.gen()
        b = LaurentSeries.monomial(f9, g, -1)
        m = frobenius_matrix([b, b])
        assert m[0][1] == b.frobenius()
        assert m[1][1] == b.frobenius()
