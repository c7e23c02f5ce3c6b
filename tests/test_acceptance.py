"""Acceptance surface: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

from extraspecial import (INF, RamSequence, build_shift_tables,
                          check_ram_inequalities, example_family, lower_to_upper,
                          residue_field, ring_det, upper_to_lower, validate_reduced_AS,
                          verify_family)
from extraspecial.artin_schreier import ASConstantSpec
from extraspecial.detval import _twist_valuation, frobenius_matrix
from conftest import random_elem, random_series
from test_detval import random_frob_matrix


def _report(num, text):
    print(f"\nACCEPTANCE {num}: {text} ... PASS")


def test_criterion_1_h_family_reproduction():
    rep = example_family(3, 1, 1, 1, "H")
    assert rep.u == (1, 1, 10)
    assert rep.b == (1, 1, 82)
    assert rep.cfrak == 64  # closed form t p^4n + u - 2 u p^2n
    assert rep.gms == "free"
    assert rep.certified
    # steady-state latency: exact integer arithmetic only
    best = min(_timed() for _ in range(20))
    assert best < 1e-3, f"planner run took {best * 1e3:.3f} ms"
    _report(1, f"H family u=(1,1,10) b=(1,1,82) precision 64 free, {best * 1e6:.0f} us")


def _timed():
    t0 = time.perf_counter()
    example_family(3, 1, 1, 1, "H")
    return time.perf_counter() - t0


def test_criterion_2_m_family_and_hopf_members():
    m_free = example_family(3, 1, 1, 1, "M")
    assert m_free.cfrak == 55  # closed form t p^4n + u - u p^(2n+1)
    assert m_free.gms == "free"
    h_hopf = example_family(3, 1, 26, 7, "H")
    assert h_hopf.cfrak == 125
    assert h_hopf.gms == "free-and-hopf"
    m_hopf = example_family(3, 1, 26, 10, "M")
    assert m_hopf.cfrak == 134
    assert m_hopf.gms == "free-and-hopf"
    _report(2, "M family precision 55 free; Hopf members 125 (H) and 134 (M)")


def test_criterion_3_oracle_h1_end_to_end():
    t0 = time.perf_counter()
    rep = verify_family("H", 3, 1, 1, 1, q=9)
    elapsed = time.perf_counter() - t0
    # (a) group order 27 with the Heisenberg commutator relation
    assert rep.group.order == 27
    assert rep.group.commutator_words[(1, 2)] == (0, 0, 1)  # [s1, s2] = s3
    # (b) measured lower multiset equals the planner prediction
    assert rep.filtration.lower_multiset == (1, 1, 82)
    assert rep.b_match
    # (c) generator valuation
    assert rep.generator.vtop == -82
    # (d) the different, by Hilbert's formula from the measured breaks
    assert rep.filtration.different_val == 214
    assert rep.passed
    assert elapsed < 300, f"oracle took {elapsed:.1f} s"
    _report(3, f"H(1) oracle: order 27, b={{1,1,82}}, v(Y)=-82, different 214, "
               f"{elapsed:.2f} s")


def test_criterion_4_oracle_m1_end_to_end():
    rep = verify_family("M", 3, 1, 1, 1, q=9)
    assert rep.group.gen_orders[0] == 9
    # sigma_1^3 is a nontrivial element of the central subgroup
    word = rep.group.sigma1_p_word
    assert word[:-1] == (0, 0) and word[-1] in (1, 2)
    assert rep.filtration.lower_multiset == tuple(rep.plan.b)
    assert rep.scaffold.cfrak == 55
    assert rep.scaffold.min_contribution >= 55
    assert all(r.holds for r in rep.scaffold.rows)
    assert rep.passed
    _report(4, f"M(1) oracle: sigma_1 order 9 with cube = s3^{word[-1]}, "
               f"row slacks >= 55")


def test_criterion_5_twist_valuation_oracle_equivalence():
    rng = random.Random(20240817)
    count = 0
    while count < 200:
        betas = random_frob_matrix(rng)
        assert ring_det(frobenius_matrix(list(betas))).valuation() == \
            _twist_valuation(betas[0].field.p, [-b.valuation() for b in betas])
        count += 1
    _report(5, "200 random twist matrices: formula = brute-force determinant")


def test_criterion_6_ramification_machinery():
    rng = random.Random(99)
    for _ in range(1000):
        p = rng.choice([3, 5, 7])
        n = rng.randint(1, 6)
        b = [rng.randint(1, 50)]
        for _ in range(n - 1):
            b.append(b[-1] + rng.randint(0, 60))
        u = lower_to_upper(p, b)
        assert upper_to_lower(p, u) == tuple(b)
        rep = check_ram_inequalities(RamSequence.from_lower(p, b))
        assert rep.all_hold
        first = next(c for c in rep.checks if c.name == "b1 <= p^0*u1")
        assert first.equality and first.slack == 0

    checked = 0
    for p in (3, 5, 7):
        n = 1
        while p**n <= 243:
            b1 = 1 if p != 3 else 2  # keep p from dividing the breaks
            b = [b1 + k * p**n for k in range(n)]
            tables = build_shift_tables(p, n, b)
            pn = p**n
            seen = set()
            for t in range(pn):
                s = tables.inverse_values[t % pn]
                assert (-tables.shift_values[s]) % pn == t % pn
                seen.add(s)
            assert len(seen) == pn
            checked += 1
            n += 1
    assert checked == 10  # 3^1..3^5, 5^1..5^3, 7^1..7^2
    _report(6, "1000 conversion roundtrips; shift bijection exhaustive to 243")


def test_criterion_7_char_p_degeneracies():
    f9 = residue_field(3, 2)
    f25 = residue_field(5, 2)
    rng = random.Random(7)
    for i in range(100):
        field = f9 if i % 2 else f25
        k = rng.randint(1, 3)
        rows = [[random_series(field, rng, min_exp=-4, max_exp=4) for _ in range(k)]
                for _ in range(k)]
        assert ring_det([[x.frobenius() for x in r] for r in rows]) == \
            ring_det(rows).frobenius()

    # e0 = inf marks the depth bound and tail condition vacuous
    spec_inf = ASConstantSpec(f9, INF, ((-1, f9.one()), (-1, f9.gen())))
    rep_inf = validate_reduced_AS(spec_inf)
    assert rep_inf.range_lower_vacuous and rep_inf.tail_vacuous and rep_inf.ok

    # and agrees with the finite-e0 verdicts once e0 is large, monotonically
    for _ in range(60):
        k = rng.randint(1, 4)
        vals = sorted((-rng.randint(1, 15) for _ in range(k)), reverse=True)
        pairs = tuple((v, random_elem(f9, rng, nonzero=True)) for v in vals)
        verdicts = []
        for e0 in (1, 3, 10, 100, INF):
            r = validate_reduced_AS(ASConstantSpec(f9, e0, pairs))
            verdicts.append((r.range_ok, r.tail_ok))
        for a, b in zip(verdicts, verdicts[1:]):
            assert not (a[0] and not b[0])
            assert not (a[1] and not b[1])
        big = validate_reduced_AS(ASConstantSpec(f9, 10**9, pairs))
        assert (big.range_ok, big.tail_ok) == verdicts[-1]
    _report(7, "phidet exact on 100 matrices; e0 = inf degeneracy and monotonicity")
