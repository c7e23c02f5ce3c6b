"""Exact arithmetic substrate: the infinity INF, small finite fields, and
truncated Laurent series with valuation tracking.

F_q has one arithmetic: :class:`LaurentSeries` stores coefficients as plain
field indices 0..q-1 and computes on them through the field's exp/log/Zech
tables.  :class:`FFElem` is a value with no sums or products: it wraps an
index only where an element enters or leaves a series, and takes powers for
the parser and the default leads.

All values are immutable after construction and all operations are pure, so
everything here is safe for unrestricted parallel use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

_SUPPORTED_P = (3, 5, 7)


class PrecisionError(ArithmeticError):
    """Insufficient precision: a result cannot certify its own valuation."""


# ---------------------------------------------------------------------------
# Extended rationals: an int or Fraction, or INF
# ---------------------------------------------------------------------------

# +infinity: the valuation of exact zero, the precision of an exact series
# and e0 in characteristic p.  Every other valuation, slack and bound is an
# int or a Fraction.  INF only ever gains a finite term or a positive factor,
# so it stays INF; a nan or -inf would be refused by extended_json before it
# reached a report.
INF = math.inf


def is_extended(x) -> bool:
    """True when x is INF, an int or a Fraction."""
    return x == INF or isinstance(x, (int, Fraction))


def parse_extended(text: str) -> Fraction | float:
    """Parse 'inf', '+inf' or 'infinity' as INF, and anything else that
    Fraction reads ('82', '7/3', '1e3', '0.5') as a Fraction."""
    text = text.strip()
    if text in ("inf", "+inf", "infinity"):
        return INF
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def extended_json(x):
    """The report form of x: an int when integral, 'a/b' for a true
    fraction, 'inf' for INF.  Any other float (nan, -inf, a finite float)
    is an exact value already lost, and raises ValueError."""
    if not is_extended(x):
        raise ValueError(f"{x!r} is not an exact number")
    if x == INF:
        return "inf"
    return int(x) if x.denominator == 1 else str(x)


# ---------------------------------------------------------------------------
# Finite fields F_q, q = p^d with p in {3, 5, 7} and d <= 6
# ---------------------------------------------------------------------------


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    # m is monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1] % p
        shift = len(a) - 1 - dm
        if lead:
            for j, mj in enumerate(m):
                a[shift + j] = (a[shift + j] - lead * mj) % p
        a.pop()
    return _poly_trim(a)


def _poly_is_irreducible(m, p) -> bool:
    """Brute-force trial division; fine for the supported degrees (<= 6)."""
    d = len(m) - 1
    if d < 1:
        return False
    for deg in range(1, d // 2 + 1):
        for idx in range(p**deg):
            divisor = _idx_to_poly(idx, deg, p) + (1,)
            if _poly_mod(m, divisor, p) == ():
                return False
    return True


def _poly_to_idx(coeffs, p: int) -> int:
    return sum((c % p) * p**j for j, c in enumerate(coeffs))


def _idx_to_poly(idx: int, length: int, p: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        idx, r = divmod(idx, p)
        out.append(r)
    return tuple(out)


def _find_irreducible(p: int, d: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree d over F_p."""
    for idx in range(p**d):
        m = _idx_to_poly(idx, d, p) + (1,)
        if _poly_is_irreducible(m, p):
            return m
    raise RuntimeError(f"no irreducible polynomial of degree {d} over F_{p}")


class FFElem:
    """An element of a :class:`ResidueField`, stored as a basis index: a
    value with powers, but no sums or products (those are the series')."""

    __slots__ = ("field", "idx")

    def __init__(self, field: "ResidueField", idx: int):
        self.field = field
        self.idx = idx

    def __pow__(self, e: int):
        """x^e on the tables; a negative e needs x nonzero."""
        if e < 0 and self.idx == 0:
            raise ZeroDivisionError("negative power of zero in residue field")
        return FFElem(self.field, self.field._pow_idx(self.idx, e))

    def __bool__(self):
        return self.idx != 0

    def __eq__(self, other):
        if not isinstance(other, FFElem):
            return NotImplemented
        return self.field.key == other.field.key and self.idx == other.idx

    def __hash__(self):
        return hash((self.field.key, self.idx))

    @property
    def in_prime_field(self) -> bool:
        return self.idx < self.field.p

    def coords(self) -> tuple[int, ...]:
        """Coordinates with respect to the power basis 1, g0, ..., g0^(d-1)."""
        return _idx_to_poly(self.idx, self.field.d, self.field.p)

    def __repr__(self):
        return self.field.format_element(self)


class ResidueField:
    """F_q with q = p^d, p an odd prime in {3, 5, 7} and d <= 6.

    Elements are indices 0..q-1 encoding coordinate vectors base p with
    respect to the power basis of the modulus: the lexicographically
    smallest monic irreducible of degree d, found by brute-force factor
    search.

    The field holds tables built once, by polynomial arithmetic modulo the
    modulus, for the generator g (the least index of multiplicative order
    q-1): ``exp[j] = g^j``, ``log[g^j] = j`` and the Zech logarithms
    ``zech[j] = log(1 + g^j)``, None where 1 + g^j = 0.  The arithmetic on
    them is the series layer's: :class:`LaurentSeries` products add
    logarithms and its sums use g^i + g^j = g^i (1 + g^(j-i)).  The field
    itself only negates and raises to powers (scaling a logarithm).
    """

    def __init__(self, p: int, d: int = 1):
        if p not in _SUPPORTED_P:
            raise ValueError(f"unsupported characteristic {p}; supported: {_SUPPORTED_P}")
        if not 1 <= d <= 6:
            raise ValueError(f"unsupported extension degree {d}; need 1 <= d <= 6")
        self.p = p
        self.d = d
        self.q = p**d
        self.modulus = _find_irreducible(p, d)
        self.key = (p, d, self.modulus)
        exp, self._gen_idx = self._generator_powers()
        log: list[int | None] = [None] * self.q
        for j, x in enumerate(exp):
            log[x] = j
        self._log = log
        # two periods, so exp[i + j] needs no reduction for 0 <= i, j < q-1
        self._exp = exp + exp
        self._half = (self.q - 1) // 2  # -1 = g^((q-1)/2)
        # adding 1 changes only the constant coordinate; log[0] is None
        self._zech = [log[x - x % p + (x + 1) % p] for x in exp]

    def _generator_powers(self) -> tuple[list[int], int]:
        """g^0, ..., g^(q-2) and g, for the least index g of order q-1."""
        p, m = self.p, self.modulus
        seen: set[int] = set()  # members of the proper subgroups walked so far
        for cand in range(1, self.q):
            if cand in seen:
                continue
            c = _idx_to_poly(cand, self.d, p)
            powers = [1]
            acc = _poly_mod(c, m, p)
            while acc != (1,):
                powers.append(_poly_to_idx(acc, p))
                acc = _poly_mod(_poly_mul(acc, c, p), m, p)
            if len(powers) == self.q - 1:
                return powers, cand
            seen.update(powers)
        raise RuntimeError("no multiplicative generator found")

    # -- index arithmetic ---------------------------------------------------

    def _neg_idx(self, a: int) -> int:
        if a == 0:
            return 0
        return self._exp[self._log[a] + self._half]

    def _pow_idx(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            return 0
        return self._exp[self._log[a] * e % (self.q - 1)]

    # -- public API -----------------------------------------------------------

    def __call__(self, value) -> FFElem:
        if isinstance(value, FFElem):
            if value.field is not self and value.field != self:
                raise ValueError("element of a different residue field")
            return value
        if isinstance(value, int):
            return FFElem(self, value % self.p)
        if isinstance(value, (tuple, list)):
            if len(value) > self.d:
                raise ValueError("too many coordinates")
            return FFElem(self, _poly_to_idx(value, self.p))
        raise TypeError(f"cannot coerce {value!r} into {self!r}")

    def one(self) -> FFElem:
        return FFElem(self, 1)

    def gen(self) -> FFElem:
        """A fixed multiplicative generator of F_q^x."""
        return FFElem(self, self._gen_idx)

    def discrete_log(self, x: FFElem) -> int:
        """Exponent j with x = g^j, 0 <= j < q-1."""
        if x.idx == 0:
            raise ValueError("discrete log of zero")
        return self._log[x.idx]

    def format_element(self, x: FFElem) -> str:
        if x.idx == 0:
            return "0"
        if x.in_prime_field:
            return str(x.idx)
        j = self.discrete_log(x)
        return "g" if j == 1 else f"g^{j}"

    def parse_element(self, text: str) -> FFElem:
        text = text.strip()
        if text.lstrip("-").isdigit():
            return self(int(text))
        if text == "g":
            return self.gen()
        if text.startswith("g^"):
            return self.gen() ** int(text[2:])
        raise ValueError(f"cannot parse residue field element {text!r}")

    def __eq__(self, other):
        # the one rule for field identity: equal keys give equal tables
        return isinstance(other, ResidueField) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"F_{self.q}" if self.d > 1 else f"F_{self.p}"


@lru_cache(maxsize=None)
def residue_field(p: int, d: int = 1) -> ResidueField:
    """Cached field factory; reuses the exp/log/Zech tables across calls."""
    return ResidueField(p, d)


def exact_log(p: int, n: int) -> int | None:
    """The exact base-p logarithm: d >= 0 with n = p^d, None when n is not a
    power of p.  Callers raise their own error for None."""
    d = 0
    while n > 1 and n % p == 0:
        n //= p
        d += 1
    return d if n == 1 else None


def field_degree(p: int, q: int) -> int:
    """The d with q = p^d; ValueError when q is not a positive power of p."""
    d = exact_log(p, q)
    if not d:
        raise ValueError(f"q = {q} is not a power of p = {p}")
    return d


def binary_power(x, e: int):
    """x^e for e >= 1 by square-and-multiply from x itself, so no product
    has a factor one: bit_length(e) - 1 squarings and popcount(e) - 1
    products.  The series' and the tower elements' one power."""
    out = None
    while True:
        if e & 1:
            out = x if out is None else out * x
        e >>= 1
        if not e:
            return out
        x = x * x


# ---------------------------------------------------------------------------
# Truncated Laurent series over F_q
# ---------------------------------------------------------------------------


class LaurentSeries:
    """A Laurent series over F_q with an absolute precision window.

    ``coeffs`` maps exponents to nonzero coefficients, stored as field
    indices (``FFElem.idx``); every exponent below ``prec`` is determined,
    exponents >= ``prec`` are unknown.  ``prec`` is ``math.inf`` for exact
    series.  Every precision rule is here.  An empty series with
    finite ``prec`` is an *imprecise zero* O(pi^N): it is not exactly zero,
    its valuation raises :class:`PrecisionError` rather than guessing, and
    in a product it counts as valuation >= N.  No operation picks a window:
    :meth:`inverse` of an exact series takes the caller's.
    :class:`FFElem` appears only at the edge: the constructor (FFElem or
    int mod p), ``monomial`` and a scalar factor of ``*`` take elements in;
    ``str`` hands them out.  Sums, differences and equality take series.
    """

    __slots__ = ("field", "coeffs", "prec")

    def __init__(self, field: ResidueField, coeffs: dict | None = None,
                 prec: float = math.inf):
        self.field = field
        idx = {e: field(c).idx for e, c in coeffs.items()} if coeffs else {}
        self.coeffs = {e: c for e, c in idx.items() if c and e < prec}
        self.prec = prec

    @classmethod
    def _of(cls, field: ResidueField, coeffs: dict[int, int], prec: float) -> "LaurentSeries":
        """Internal results: ``coeffs`` already holds nonzero indices below ``prec``."""
        s = object.__new__(cls)
        s.field, s.coeffs, s.prec = field, coeffs, prec
        return s

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field: ResidueField) -> "LaurentSeries":
        return cls._of(field, {}, math.inf)

    @classmethod
    def one(cls, field: ResidueField) -> "LaurentSeries":
        return cls._of(field, {0: 1}, math.inf)

    @classmethod
    def monomial(cls, field: ResidueField, coeff, exp: int = 0,
                 prec: float = math.inf) -> "LaurentSeries":
        return cls(field, {exp: coeff}, prec)

    # -- basic queries ----------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.prec == math.inf

    def is_zero(self) -> bool:
        """Exactly zero; False for an imprecise zero, whose value is unknown."""
        return not self.coeffs and self.prec == math.inf

    def __bool__(self):
        raise TypeError("a series has no truth value: an imprecise zero is neither "
                        "zero nor nonzero; use is_zero()")

    def valuation(self):
        """Least exponent with a nonzero coefficient; inf for exact zero."""
        if self.coeffs:
            return min(self.coeffs)
        if self.is_exact:
            return math.inf
        raise PrecisionError("insufficient precision: valuation of imprecise zero")

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        f = self.field
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if other.field is not f and other.field != f:
            raise ValueError("series over different residue fields")
        prec = min(self.prec, other.prec)
        log, exp, zech = f._log, f._exp, f._zech
        out = {e: c for e, c in self.coeffs.items() if e < prec}
        for e, c in other.coeffs.items():
            if e >= prec:
                continue
            cur = out.get(e)
            if cur is None:
                out[e] = c
                continue
            # g^a + g^b = g^a (1 + g^(b-a)), as in __mul__; a negative
            # difference indexes from the end, which is the reduction mod q-1
            la = log[cur]
            if (z := zech[log[c] - la]) is None:
                del out[e]
            else:
                out[e] = exp[la + z]
        return self._of(f, out, prec)

    __radd__ = __add__

    def __neg__(self):
        neg = self.field._neg_idx
        return self._of(self.field, {e: neg(c) for e, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other):
        # a - b = -(-a + b): __add__ refuses a non-series and checks the field
        d = (-self).__add__(other)
        return d if d is NotImplemented else -d

    def __mul__(self, other):
        f = self.field
        log, exp = f._log, f._exp
        if not isinstance(other, LaurentSeries):
            if not isinstance(other, (int, FFElem)):
                return NotImplemented
            c = f(other).idx
            if c == 0:
                return self._of(f, {}, math.inf)
            lc = log[c]
            return self._of(f, {e: exp[log[x] + lc] for e, x in self.coeffs.items()}, self.prec)
        if other.field is not f and other.field != f:
            raise ValueError("series over different residue fields")
        a, b = self.coeffs, other.coeffs
        # prec = min(val(a) + prec(b), val(b) + prec(a)), with val >= N read
        # for an imprecise zero O(pi^N); exact zero absorbs.
        if len(a) == 1 == len(b):
            # two monomials: one log sum, which stays inside the table's two
            # periods, and nothing to merge; ea < prec(a) and eb < prec(b),
            # so the product lies below its window
            ((ea, ca),) = a.items()
            ((eb, cb),) = b.items()
            return self._of(f, {ea + eb: exp[log[ca] + log[cb]]},
                            min(ea + other.prec, eb + self.prec))
        va = min(a) if a else self.prec
        vb = min(b) if b else other.prec
        prec = min(va + other.prec, vb + self.prec)
        # accumulate logarithms: g^c + g^l = g^c (1 + g^(l-c)) = g^(c + zech[l-c]);
        # a pair's log sum reaches 2(q-2), so differences are reduced mod q-1
        zech, m = f._zech, f.q - 1
        out: dict[int, int] = {}
        for ea, ca in a.items():
            la = log[ca]
            for eb, cb in b.items():
                e = ea + eb
                if e >= prec:
                    continue
                lp = la + log[cb]
                cur = out.get(e)
                if cur is None:
                    out[e] = lp
                elif (z := zech[(lp - cur) % m]) is None:
                    del out[e]
                else:
                    out[e] = (cur + z) % m
        return self._of(f, {e: exp[lc] for e, lc in out.items()}, prec)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers need a window: use inverse(window)")
        return binary_power(self, e) if e else LaurentSeries.one(self.field)

    def inverse(self, window: int | None = None) -> "LaurentSeries":
        """Multiplicative inverse on a window of ``window`` coefficients
        above its valuation.

        The caller owns the window: an exact input without one is a
        ValueError.  A truncated input keeps its own relative precision,
        capped by ``window`` when one is given.
        """
        v = self.valuation()  # PrecisionError for an imprecise zero
        if v == math.inf:
            raise ZeroDivisionError("inverse of the zero series")
        if self.is_exact:
            if window is None:
                raise ValueError("the inverse of an exact series needs a window")
            w = window
        else:
            w = int(self.prec - v) if window is None else min(window, int(self.prec - v))
        f = self.field
        log, exp, zech, m = f._log, f._exp, f._zech, f.q - 1
        lead_inv = -log[self.coeffs[v]] % m  # log of lead^-1
        # logs of the normalized unit u = self * lead^-1 * pi^-v (constant term 1)
        # and of its inverse, None for a zero coefficient; sums as in __mul__
        unit = {e - v: (log[c] + lead_inv) % m for e, c in self.coeffs.items() if e > v}
        if not unit and w > 0:
            # a monomial: u = 1, so every term of 1/u above the constant is 0
            return self._of(f, {-v: exp[lead_inv]}, -v + w)
        inv: list[int | None] = [0]
        for k in range(1, w):
            acc = None
            for e, lc in unit.items():
                if e <= k and (lx := inv[k - e]) is not None:
                    lp = lc + lx
                    if acc is None:
                        acc = lp
                    elif (z := zech[(lp - acc) % m]) is None:
                        acc = None
                    else:
                        acc = (acc + z) % m
            inv.append(None if acc is None else (acc + f._half) % m)
        out = {k - v: exp[lc + lead_inv] for k, lc in enumerate(inv[:w]) if lc is not None}
        return self._of(f, out, -v + w)

    def frobenius(self) -> "LaurentSeries":
        """Coefficientwise p-th power with exponents multiplied by p.

        A ring homomorphism in characteristic p, so the unknown tail maps
        into exponents >= p*prec and the precision window scales by p.
        """
        f = self.field
        p = f.p
        return self._of(f, {p * e: f._pow_idx(c, p) for e, c in self.coeffs.items()},
                        p * self.prec)

    def fp_offset(self, other: "LaurentSeries") -> int | None:
        """The e in F_p with self = other + e exactly, or None; a series with
        a window gives None.  A field index is base p in the coordinates, so
        the pi^0 coefficients a, b differ by an element of F_p exactly when
        a // p == b // p, and then by (a - b) mod p, an index below p, which
        is the F_p element of that value."""
        a, b = self.coeffs, other.coeffs
        ca, cb = a.get(0, 0), b.get(0, 0)
        p = self.field.p
        if (not (self.is_exact and other.is_exact) or ca // p != cb // p
                or {**a, 0: 0} != {**b, 0: 0}):
            return None
        return (ca - cb) % p

    def truncate(self, prec: float) -> "LaurentSeries":
        prec = min(self.prec, prec)
        return self._of(self.field, {e: c for e, c in self.coeffs.items() if e < prec}, prec)

    # -- comparisons and formatting -----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.field.key == other.field.key and self.coeffs == other.coeffs
                and self.prec == other.prec)

    def __str__(self):
        if not self.coeffs:
            body = "0"
        else:
            terms = []
            for e in sorted(self.coeffs):
                cs = self.field.format_element(FFElem(self.field, self.coeffs[e]))
                if e == 0:
                    terms.append(cs)
                elif cs == "1":
                    terms.append(f"pi^{e}")
                else:
                    terms.append(f"{cs}*pi^{e}")
            body = " + ".join(terms)
        if self.is_exact:
            return body
        return f"{body} + O(pi^{int(self.prec)})"

    def __repr__(self):
        return f"<{self}>"
