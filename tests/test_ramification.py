import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extraspecial import (RamSequence, build_shift_tables, check_ram_inequalities,
                          lower_to_upper, upper_to_lower)


class TestConversions:
    def test_lower_to_upper_examples(self):
        assert lower_to_upper(3, (1, 1, 82)) == (1, 1, 10)
        assert lower_to_upper(3, (5, 5, 5)) == (5, 5, 5)
        assert lower_to_upper(3, (26, 26, 593)) == (26, 26, 89)

    def test_upper_to_lower_examples(self):
        assert upper_to_lower(3, (1, 1, 10)) == (1, 1, 82)
        assert upper_to_lower(3, (1,)) == (1,)
        assert upper_to_lower(3, (26, 26, 116)) == (26, 26, 836)

    def test_rational_sequences(self):
        u = (Fraction(1, 2), Fraction(3, 4))
        b = upper_to_lower(5, u)
        assert b == (Fraction(1, 2), Fraction(7, 4))
        assert lower_to_upper(5, b) == u

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            lower_to_upper(3, (5, 3))
        with pytest.raises(ValueError):
            upper_to_lower(3, (5, 3))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lower_to_upper(3, (0, 1))


@st.composite
def lower_sequences(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, 5))
    start = draw(st.fractions(min_value=Fraction(1, 7), max_value=20, max_denominator=12))
    seq = [start]
    for _ in range(n - 1):
        seq.append(seq[-1] + draw(
            st.fractions(min_value=0, max_value=30, max_denominator=12)))
    return p, tuple(seq)


class TestRoundtrip:
    @settings(max_examples=300, deadline=None)
    @given(lower_sequences())
    def test_roundtrip_identity(self, arg):
        p, b = arg
        assert upper_to_lower(p, lower_to_upper(p, b)) == b

    @settings(max_examples=100, deadline=None)
    @given(lower_sequences())
    def test_ram_sequence_accepts_consistent_pairs(self, arg):
        p, b = arg
        seq = RamSequence.from_lower(p, b)
        assert seq.upper == lower_to_upper(p, b)

    def test_ram_sequence_rejects_inconsistent(self):
        with pytest.raises(ValueError):
            RamSequence(3, (1, 1, 95), (1, 1, 10))


class TestShiftTables:
    def test_p3_n1(self):
        st_ = build_shift_tables(3, 1, [1])
        assert st_.shift_values == (0, 1, 2)
        assert st_.inverse_values == (0, 2, 1)

    def test_zero_maps_to_zero(self):
        for p, n, b in ((3, 1, [1]), (3, 3, [1, 1, 82]), (5, 2, [3, 28])):
            t = build_shift_tables(p, n, b)
            assert t.shift_values[0] == 0
            assert t.inverse_values[0] == 0

    def test_digit_sum_example(self):
        t = build_shift_tables(3, 3, [1, 1, 82])
        # digits of 13 are (1,1,1): 9*1 + 3*1 + 1*82
        assert t.shift_values[13] == 94

    def test_bijection_property(self):
        t = build_shift_tables(3, 3, [2, 2, 29])
        pn = 27
        for s in range(pn):
            assert t.inverse_values[(-t.shift_values[s]) % pn] == s

    def test_shift_strictly_increasing_in_each_digit(self):
        p, n = 3, 3
        t = build_shift_tables(p, n, [1, 1, 82])
        for s in range(p**n):
            for pos in range(n):
                if (s // p**pos) % p + 1 < p:
                    bumped = s + p**pos
                    assert t.shift_values[bumped] > t.shift_values[s]

    def test_rejects_divisible_break(self):
        with pytest.raises(ValueError):
            build_shift_tables(3, 1, [3])

    def test_rejects_congruence_violation(self):
        with pytest.raises(ValueError):
            build_shift_tables(3, 2, [1, 2])


class TestInequalities:
    def test_consistent_example(self):
        rep = check_ram_inequalities(3, (1, 1, 82), (1, 1, 10))
        assert rep.all_hold
        absolute = {c.name: c for c in rep.checks if "*(u" not in c.name}
        # b3 = 82 < p^2 u3 = 90
        assert absolute["b3 <= p^2*u3"].slack == 8

    def test_equality_only_at_first(self):
        rep = check_ram_inequalities(3, (1, 1, 82), (1, 1, 10))
        eq = [c for c in rep.checks if c.equality]
        assert [c.name for c in eq] == ["b1 <= p^0*u1"]

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError):
            check_ram_inequalities(3, (1, 1, 95), (1, 1, 10))

    def test_random_consistent_pairs_pass(self):
        rng = random.Random(42)
        for _ in range(100):
            p = rng.choice([3, 5, 7])
            n = rng.randint(1, 5)
            b = [rng.randint(1, 20)]
            for _ in range(n - 1):
                b.append(b[-1] + rng.randint(0, 25))
            u = lower_to_upper(p, b)
            assert check_ram_inequalities(p, b, u).all_hold
