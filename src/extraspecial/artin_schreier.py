"""Artin-Schreier and Witt-polynomial primitives, plus validation of the
valuation/independence conditions a tuple of constants must satisfy to cut
out a totally ramified elementary abelian tower.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import groupby
from math import comb

from .record import Record
from .valuation import ExtRational, FFElem, ResidueField


def witt_carry_coeffs(p: int) -> dict[int, int]:
    """Integer coefficients c_i of the carry polynomial sum c_i X^i Y^(p-i),
    where c_i = -binom(p, i)/p.  The divisions are exact over the integers."""
    return {i: -(comb(p, i) // p) for i in range(1, p)}


def witt_carry(x, y, p: int):
    """D(X, Y) = (X^p + Y^p - (X+Y)^p)/p evaluated via its integer
    coefficients, valid over any commutative ring (reduce mod p in char p)."""
    coeffs = witt_carry_coeffs(p)
    total = None
    for i, c in coeffs.items():
        term = c * (x**i * y ** (p - i))
        total = term if total is None else total + term
    return total


class ASConstantSpec(Record, frozen=True):
    """Constants a_1..a_k described by valuation and leading residue
    coefficient relative to a fixed uniformizer.

    Every condition checked below depends only on these data, which keeps
    the check independent of the characteristic of the base field.
    """

    field: ResidueField
    e0: ExtRational
    constants: tuple[tuple[int, FFElem], ...]

    def __post_init__(self):
        for v, lead in self.constants:
            if not isinstance(v, int):
                raise ValueError("constant valuations must be integers")
            if lead.field != self.field:
                raise ValueError("leading coefficient from a different residue field")
            if lead.idx == 0:
                raise ValueError("leading coefficients must be nonzero")

    @property
    def p(self) -> int:
        return self.field.p


def fp_rank(field: ResidueField, elems: Sequence[FFElem]) -> int:
    """Rank over F_p of the coordinate matrix of ``elems`` with respect to
    the power basis of F_q.  The rank does not depend on the basis choice;
    the power basis is fixed for reproducibility."""
    p = field.p
    rows = [list(x.coords()) for x in elems]
    rank = 0
    for col in range(field.d):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(c * inv) % p for c in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def first_dependent_run(field: ResidueField, vals: Sequence,
                        leads: Sequence[FFElem]) -> tuple[int, int] | None:
    """First and last 0-based row of the first run of equal consecutive
    ``vals`` whose ``leads`` are F_p-dependent; None when every run is
    F_p-independent."""
    start = 0
    for _, run in groupby(vals):
        end = start + len(list(run))
        if fp_rank(field, leads[start:end]) != end - start:
            return start, end - 1
        start = end
    return None


class ASReport(Record, frozen=True):
    """Outcome of the four named conditions on reduced constants.

    ``range_ok`` also covers the ordering of the valuations; its lower bound
    and the tail product condition become vacuous for e0 = +infinity, and
    the tail product is vacuous with fewer than two constants.
    """

    range_ok: bool           # (i)  -p*e0/(p-1) < v(a_k) <= ... <= v(a_1) < 0
    coprime_ok: bool         # (ii) p does not divide any v(a_i)
    independent_ok: bool     # (iii) equal-valuation runs F_p-independent
    tail_ok: bool            # (iv) p*e0 + (p-1) v(a_k) + v(a_(k-1)) > 0
    range_lower_vacuous: bool
    tail_vacuous: bool

    @property
    def ok(self) -> bool:
        return self.range_ok and self.coprime_ok and self.independent_ok and self.tail_ok

    def to_dict(self) -> dict:
        return {
            "i_range": self.range_ok,
            "ii_coprime": self.coprime_ok,
            "iii_independent": self.independent_ok,
            "iv_tail": self.tail_ok,
            "i_lower_vacuous": self.range_lower_vacuous,
            "iv_vacuous": self.tail_vacuous,
            "ok": self.ok,
        }


def validate_reduced_AS(spec: ASConstantSpec) -> ASReport:
    """Check the four conditions that make a_1..a_k reduced constants.

    Constants are listed with nonincreasing valuation (a_1 shallowest),
    so condition (i) reads v(a_k) <= ... <= v(a_1) with the shared depth
    bound -p*e0/(p-1) on the deepest one.
    """
    p = spec.p
    vals = [v for v, _ in spec.constants]
    k = len(vals)
    if k == 0:
        raise ValueError("no constants to validate")

    ordered = all(vals[i] >= vals[i + 1] for i in range(k - 1)) and vals[0] < 0
    lower_vacuous = spec.e0.is_infinite
    if lower_vacuous:
        lower_ok = True
    else:
        # v(a_k) > -p e0 / (p-1)
        lower_ok = Fraction(vals[-1]) > -Fraction(p, p - 1) * spec.e0.fraction
    range_ok = ordered and lower_ok

    coprime_ok = all(v % p != 0 for v in vals)

    leads = [lead for _, lead in spec.constants]
    independent_ok = first_dependent_run(spec.field, vals, leads) is None

    tail_vacuous = k < 2 or spec.e0.is_infinite
    if tail_vacuous:
        tail_ok = True
    else:
        tail_ok = p * spec.e0.fraction + (p - 1) * vals[-1] + vals[-2] > 0

    return ASReport(range_ok, coprime_ok, independent_ok, tail_ok,
                    lower_vacuous, tail_vacuous)
