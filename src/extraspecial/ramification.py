"""Ramification-number calculus and the digit-shift combinatorics used by
Galois scaffolds.

Lower and upper ramification numbers of a totally ramified degree-p^n
extension determine each other through the recursion
u_{i+1} = u_i + p^(-i) (b_{i+1} - b_i).  Both directions are implemented
exactly over rationals; every tower this package builds has integer breaks,
but rational lower numbers occur for non-Galois subextensions, so nothing
here rounds.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .record import Record
from .valuation import _idx_to_poly, extended_json

# the largest group order the oracle builds, 7^7: larger shift tables are
# refused before they are built, since each lists 2 p^n numbers
MAX_TABLE_ORDER = 7**7


def _as_fractions(seq: Sequence, what: str) -> tuple[Fraction, ...]:
    try:
        out = tuple(Fraction(x) for x in seq)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be rational numbers") from exc
    if not out:
        raise ValueError(f"{what} must be nonempty")
    if any(x <= 0 for x in out):
        raise ValueError(f"{what} must be positive")
    if any(out[i] > out[i + 1] for i in range(len(out) - 1)):
        raise ValueError(f"{what} must be nondecreasing")
    return out


def lower_to_upper(p: int, lower: Sequence) -> tuple[Fraction, ...]:
    """Upper ramification numbers from lower ones: u1 = b1,
    u_{i+1} = u_i + p^(-i)(b_{i+1} - b_i)."""
    b = _as_fractions(lower, "lower ramification numbers")
    u = [b[0]]
    for i in range(1, len(b)):
        u.append(u[-1] + Fraction(b[i] - b[i - 1], p**i))
    return tuple(u)


def upper_to_lower(p: int, upper: Sequence) -> tuple[Fraction, ...]:
    """Exact inverse of :func:`lower_to_upper`."""
    u = _as_fractions(upper, "upper ramification numbers")
    b = [u[0]]
    for i in range(1, len(u)):
        b.append(b[-1] + p**i * (u[i] - u[i - 1]))
    return tuple(b)


class RamSequence(Record, frozen=True):
    """The ramification numbers of one extension, kept as the lower ones;
    the upper ones are read from them by :func:`lower_to_upper`, so the two
    always match."""

    p: int
    lower: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.lower)

    @property
    def upper(self) -> tuple[Fraction, ...]:
        return lower_to_upper(self.p, self.lower)

    @classmethod
    def from_lower(cls, p: int, lower: Sequence) -> "RamSequence":
        return cls(p, _as_fractions(lower, "lower ramification numbers"))

    @classmethod
    def from_upper(cls, p: int, upper: Sequence) -> "RamSequence":
        return cls(p, upper_to_lower(p, upper))

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "lower": [extended_json(x) for x in self.lower],
            "upper": [extended_json(x) for x in self.upper],
        }


class ShiftTables(Record, frozen=True):
    """Digit-weighted shift function and its inverse on S = {0..p^n - 1}.

    ``shift_values[s]`` is the sum over base-p digits of s (most significant
    digit weighting the first ramification number):
    sum_i s_(n-i) p^(n-i) b_i.  ``inverse_values`` tabulates the bijection
    inverse to s -> (-shift(s)) mod p^n, extended to all integers through
    reduction mod p^n.
    """

    p: int
    n: int
    b: tuple[int, ...]
    shift_values: tuple[int, ...]
    inverse_values: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "b": list(self.b),
            "shift": list(self.shift_values),
            "inverse": list(self.inverse_values),
        }


def build_shift_tables(p: int, n: int, b: Sequence[int]) -> ShiftTables:
    """Tabulate the shift function and its inverse bijection.

    Requires integer lower ramification numbers with p not dividing b_i and
    b_i = b_1 mod p^n, which is what makes s -> (-shift(s)) mod p^n a
    bijection, and p^n <= MAX_TABLE_ORDER.
    """
    b = tuple(int(x) for x in b)
    if len(b) != n:
        raise ValueError(f"need {n} lower ramification numbers, got {len(b)}")
    pn = p**n
    if pn > MAX_TABLE_ORDER:
        raise ValueError(f"p^n = {pn} is above {MAX_TABLE_ORDER} = 7^7, the largest table built")
    if any(x <= 0 for x in b) or any(b[i] > b[i + 1] for i in range(n - 1)):
        raise ValueError("lower ramification numbers must be positive and nondecreasing")
    if any(x % p == 0 for x in b):
        raise ValueError(f"p = {p} divides a lower ramification number")
    if any((x - b[0]) % pn for x in b):
        raise ValueError(f"lower ramification numbers must be congruent mod p^n = {pn}")

    shift = []
    for s in range(pn):
        digits = _idx_to_poly(s, n, p)
        # digit s_(n-i) carries weight p^(n-i) b_i
        shift.append(sum(digits[n - i] * p ** (n - i) * b[i - 1] for i in range(1, n + 1)))

    forward = [(-v) % pn for v in shift]  # s -> r(-shift(s))
    if len(set(forward)) != pn:
        raise ValueError("shift residues do not form a bijection")
    backward = [0] * pn
    for s, t in enumerate(forward):
        backward[t] = s
    return ShiftTables(p, n, b, tuple(shift), tuple(backward))


class RamCheck(Record, frozen=True):
    name: str
    holds: bool
    slack: Fraction
    equality: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "slack": extended_json(self.slack),
            "equality": self.equality,
        }


class RamCheckReport(Record, frozen=True):
    p: int
    checks: tuple[RamCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "all_hold": self.all_hold,
            "checks": [c.to_dict() for c in self.checks],
        }


def check_ram_inequalities(seq: RamSequence) -> RamCheckReport:
    """Evaluate the pairwise and absolute bounds tying the lower numbers of
    ``seq`` to its upper ones.

    For every i <= j:  b_j - b_i <= p^(j-1) (u_j - u_i),
    and for every j:   b_j <= p^(j-1) u_j, with equality allowed only at j=1.
    """
    p, b, u = seq.p, seq.lower, seq.upper
    checks: list[RamCheck] = []
    n = len(b)
    for j in range(1, n + 1):
        for i in range(1, j):
            slack = p ** (j - 1) * (u[j - 1] - u[i - 1]) - (b[j - 1] - b[i - 1])
            checks.append(RamCheck(
                name=f"b{j}-b{i} <= p^{j - 1}*(u{j}-u{i})",
                holds=slack >= 0,
                slack=slack,
            ))
    for j in range(1, n + 1):
        slack = p ** (j - 1) * u[j - 1] - b[j - 1]
        equality = slack == 0
        holds = slack > 0 or (equality and j == 1)
        checks.append(RamCheck(
            name=f"b{j} <= p^{j - 1}*u{j}",
            holds=holds,
            slack=slack,
            equality=equality,
        ))
    return RamCheckReport(p, tuple(checks))
