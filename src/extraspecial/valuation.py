"""Exact arithmetic substrate: extended rationals, small finite fields, and
truncated Laurent series with valuation tracking.

:class:`LaurentSeries` stores coefficients as plain field indices 0..q-1 and
computes on them through the field's exp/log/Zech tables; :class:`FFElem`
wraps an index only where an element enters or leaves a series.

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
# Extended rationals
# ---------------------------------------------------------------------------


class ExtRational:
    """A rational number or +infinity; the carrier for all valuations.

    +infinity absorbs addition and dominates comparison.  Subtracting
    infinity or multiplying it by a nonpositive number is an error rather
    than a guess.
    """

    __slots__ = ("_v",)

    def __init__(self, value: "int | Fraction | ExtRational | None" = 0):
        if isinstance(value, ExtRational):
            self._v = value._v
        elif value is None:
            self._v = None
        elif isinstance(value, (int, Fraction)):
            self._v = Fraction(value)
        elif isinstance(value, float) and math.isinf(value) and value > 0:
            self._v = None
        else:
            raise TypeError(f"cannot build ExtRational from {value!r}")

    @classmethod
    def infinity(cls) -> "ExtRational":
        return cls(None)

    @classmethod
    def parse(cls, text: str) -> "ExtRational":
        """Parse 'inf', an integer literal, or 'a/b'."""
        text = text.strip()
        if text in ("inf", "+inf", "infinity"):
            return cls(None)
        try:
            return cls(Fraction(text))
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {text!r}") from exc

    @property
    def is_infinite(self) -> bool:
        return self._v is None

    @property
    def fraction(self) -> Fraction:
        if self._v is None:
            raise ValueError("infinite valuation has no fraction value")
        return self._v

    def _coerce(self, other) -> "ExtRational":
        if isinstance(other, ExtRational):
            return other
        if isinstance(other, (int, Fraction)):
            return ExtRational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self._v is None or o._v is None:
            return ExtRational(None)
        return ExtRational(self._v + o._v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o._v is None:
            raise ValueError("cannot subtract +infinity")
        if self._v is None:
            return ExtRational(None)
        return ExtRational(self._v - o._v)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self._v is None or o._v is None:
            finite = o._v if self._v is None else self._v
            if finite is not None and finite <= 0:
                raise ValueError("cannot multiply +infinity by a nonpositive number")
            return ExtRational(None)
        return ExtRational(self._v * o._v)

    __rmul__ = __mul__

    def __neg__(self):
        if self._v is None:
            raise ValueError("cannot negate +infinity")
        return ExtRational(-self._v)

    def _cmp_key(self):
        return self._v if self._v is not None else math.inf

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self._v == o._v

    def _cmp(self, other) -> "ExtRational":
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError(f"cannot compare ExtRational with {type(other).__name__}")
        return o

    def __lt__(self, other):
        return self._cmp_key() < self._cmp(other)._cmp_key()

    def __le__(self, other):
        return self._cmp_key() <= self._cmp(other)._cmp_key()

    def __gt__(self, other):
        return self._cmp_key() > self._cmp(other)._cmp_key()

    def __ge__(self, other):
        return self._cmp_key() >= self._cmp(other)._cmp_key()

    def __hash__(self):
        return hash(self._v)

    def __str__(self):
        return "inf" if self._v is None else str(self._v)

    def __repr__(self):
        return f"ExtRational({self})"

    def to_json(self):
        """int when integral, 'a/b' for true fractions, 'inf' for infinity."""
        if self._v is None:
            return "inf"
        if self._v.denominator == 1:
            return int(self._v)
        return str(self._v)


INF = ExtRational.infinity()


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
    """An element of a :class:`ResidueField`, stored as a basis index."""

    __slots__ = ("field", "idx")

    def __init__(self, field: "ResidueField", idx: int):
        self.field = field
        self.idx = idx

    def _check(self, other) -> "FFElem":
        if isinstance(other, int):
            return self.field(other)
        if isinstance(other, FFElem):
            if other.field != self.field:
                raise ValueError("elements of different residue fields")
            return other
        return NotImplemented

    def __add__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return FFElem(self.field, self.field._add_idx(self.idx, o.idx))

    __radd__ = __add__

    def __neg__(self):
        return FFElem(self.field, self.field._neg_idx(self.idx))

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return FFElem(self.field, self.field._mul_idx(self.idx, o.idx))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return FFElem(self.field, self.field._pow_idx(self.idx, e))

    def inverse(self) -> "FFElem":
        if self.idx == 0:
            raise ZeroDivisionError("inverse of zero in residue field")
        return FFElem(self.field, self.field._pow_idx(self.idx, self.field.q - 2))

    def frobenius(self) -> "FFElem":
        return self ** self.field.p

    def __bool__(self):
        return self.idx != 0

    def is_zero(self) -> bool:
        return self.idx == 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field(other)
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
    respect to the power basis of a monic irreducible modulus.  The modulus
    is verified irreducible at construction by brute-force factor search.

    Arithmetic runs on tables built once, by polynomial arithmetic modulo
    the modulus, for the generator g (the least index of multiplicative
    order q-1): ``exp[j] = g^j``, ``log[g^j] = j`` and the Zech logarithms
    ``zech[j] = log(1 + g^j)``, None where 1 + g^j = 0.  Products and powers
    add or scale logarithms; sums use g^i + g^j = g^i (1 + g^(j-i)).
    """

    def __init__(self, p: int, d: int = 1, modulus: tuple[int, ...] | None = None):
        if p not in _SUPPORTED_P:
            raise ValueError(f"unsupported characteristic {p}; supported: {_SUPPORTED_P}")
        if not 1 <= d <= 6:
            raise ValueError(f"unsupported extension degree {d}; need 1 <= d <= 6")
        self.p = p
        self.d = d
        self.q = p**d
        if modulus is None:
            modulus = _find_irreducible(p, d)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != d + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree d")
        if not _poly_is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is not irreducible over F_{p}")
        self.modulus = modulus
        self.key = (p, d, modulus)
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

    def _add_idx(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        la = self._log[a]
        # a negative difference indexes from the end: that is the reduction mod q-1
        z = self._zech[self._log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def _neg_idx(self, a: int) -> int:
        if a == 0:
            return 0
        return self._exp[self._log[a] + self._half]

    def _mul_idx(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

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

    def zero(self) -> FFElem:
        return FFElem(self, 0)

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
def residue_field(p: int, d: int = 1, modulus: tuple[int, ...] | None = None) -> ResidueField:
    """Cached field factory; reuses the exp/log/Zech tables across calls."""
    return ResidueField(p, d, modulus)


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
    int mod p), ``monomial`` and scalar operands take elements in; ``str``
    hands them out.
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

    def valuation(self):
        """Least exponent with a nonzero coefficient; inf for exact zero."""
        if self.coeffs:
            return min(self.coeffs)
        if self.is_exact:
            return math.inf
        raise PrecisionError("insufficient precision: valuation of imprecise zero")

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentSeries):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("series over different residue fields")
            return other
        if isinstance(other, (int, FFElem)):
            return LaurentSeries(self.field, {0: other})
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        prec = min(self.prec, o.prec)
        f = self.field
        log, exp, zech = f._log, f._exp, f._zech
        out = {e: c for e, c in self.coeffs.items() if e < prec}
        for e, c in o.coeffs.items():
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
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        f = self.field
        log, exp = f._log, f._exp
        if isinstance(other, (int, FFElem)):
            c = f(other).idx
            if c == 0:
                return self._of(f, {}, math.inf)
            lc = log[c]
            return self._of(f, {e: exp[log[x] + lc] for e, x in self.coeffs.items()}, self.prec)
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        # prec = min(val(a) + prec(b), val(b) + prec(a)), with val >= N read
        # for an imprecise zero O(pi^N); exact zero absorbs.
        va = min(self.coeffs) if self.coeffs else self.prec
        vb = min(o.coeffs) if o.coeffs else o.prec
        prec = min(va + o.prec, vb + self.prec)
        # accumulate logarithms: g^c + g^l = g^c (1 + g^(l-c)) = g^(c + zech[l-c]);
        # a pair's log sum reaches 2(q-2), so differences are reduced mod q-1
        zech, m = f._zech, f.q - 1
        out: dict[int, int] = {}
        for ea, ca in self.coeffs.items():
            la = log[ca]
            for eb, cb in o.coeffs.items():
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
        out = LaurentSeries.one(self.field)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

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

    def truncate(self, prec: float) -> "LaurentSeries":
        prec = min(self.prec, prec)
        return self._of(self.field, {e: c for e, c in self.coeffs.items() if e < prec}, prec)

    # -- comparisons and formatting -----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, FFElem)):
            other = self._coerce(other)
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
