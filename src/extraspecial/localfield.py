"""Concrete characteristic-p tower algebras.

K_0 = F_q((pi)) is extended by generators alpha_1..alpha_(2n+1) subject to
alpha_i^p = alpha_i + a_i for i <= 2n and
alpha_top^p = alpha_top + E + a_top, where E is the variant-specific cross
term.  Elements are kept reduced by one accumulator, TowerAlgebra._collect:
every product, sum and Galois image merges its terms there and rewrites
exponents >= p from the top generator down (the relations are triangular).
Valuations are iterated norms, one p-dimensional level at a time, and the
chain certifies the leading term of the norm: the valuation and its
leading coefficient.  Each level's rule is read from the element's shape,
window or not: the closed form N(c alpha + d) = c^p A + d^p - c^(p-1) d on a
level where it is linear, at the bottom level of a ramified alpha_1 the
minimizing monomial, with no norm, and the determinant of the
multiplication matrix (ring_det) only on a nonlinear level.

The tower is exact: its constants, relations and Galois images have exact
series coefficients (prec = inf), and the oracle values only exact
elements.  Only an element built from truncated series carries a window.
The tower drops a coefficient only when the series layer says it is
exactly zero, so an imprecise zero O(pi^N) stays in the element and flows
through the norms under the series rules, and a valuation the window
cannot certify raises PrecisionError.  The module makes one precision
decision, and it never changes an answer: elt_leading_term runs the norm
chain at a capped relative precision first, and falls back to the exact
chain when the cap cannot certify.
"""

from __future__ import annotations

from fractions import Fraction

from .artin_schreier import witt_carry
from .detval import ring_det
from .planner import PlanReport, TowerParams, plan
from .record import Record
from .valuation import INF, FFElem, LaurentSeries, PrecisionError, ResidueField


class PlanRejection(ValueError):
    """A tower build was requested for parameters the planner rejects."""


class ConstructionError(RuntimeError):
    """No candidate automorphism image satisfies the defining relation."""


class TowerAlgebra:
    """K_0[x_0..x_(k-1)] modulo x_i^p = x_i + rel_i with triangular rel_i;
    _collect merges and reduces the terms of every product, sum and image."""

    def __init__(self, field: ResidueField, nvars: int):
        self.field = field
        self.p = field.p
        self.nvars = nvars
        self.relations: list[TowerElement | None] = [None] * nvars
        self._zero_exps = (0,) * nvars
        one = LaurentSeries.one(field)
        self._gens = tuple(TowerElement._of(self, {tuple(int(j == i) for j in range(nvars)): one})
                           for i in range(nvars))
        self._frobenius_map: GaloisMap | None = None

    def set_relation(self, i: int, rhs: "TowerElement"):
        if rhs.algebra is not self:
            raise ValueError("relation from a different algebra")
        if rhs.support_level() > i:
            raise ValueError(f"relation for generator {i} may only involve lower generators")
        self.relations[i] = rhs
        self._frobenius_map = None

    def zero(self) -> "TowerElement":
        return TowerElement._of(self, {})

    def one(self) -> "TowerElement":
        return self.from_series(LaurentSeries.one(self.field))

    def from_series(self, s: LaurentSeries) -> "TowerElement":
        return TowerElement(self, {self._zero_exps: s})

    def from_scalar(self, c) -> "TowerElement":
        return self.from_series(LaurentSeries.monomial(self.field, self.field(c)))

    def gen(self, i: int) -> "TowerElement":
        """alpha_i, built once with the algebra: elements are immutable."""
        return self._gens[i]

    def _collect(self, terms) -> "TowerElement":
        """The reduced sum of (exponents, series) terms, none of them exactly
        zero.  Equal exponents merge, and a merged coefficient that is
        exactly zero is dropped at once; while an exponent of some x_i is
        >= p, i the highest such generator, those terms are rewritten by
        x_i^p = x_i + rel_i and merged again.  rel_i involves only
        generators below i, so i never rises: one sweep per level."""
        acc: dict[tuple[int, ...], LaurentSeries] = {}
        p, i = self.p, self.nvars - 1
        while True:
            for exps, c in terms:
                cur = acc.get(exps)
                if cur is None:
                    acc[exps] = c
                elif (merged := cur + c).is_zero():
                    del acc[exps]
                else:
                    acc[exps] = merged
            if max(map(max, acc), default=0) < p:
                return TowerElement._of(self, acc)
            while not (over := [exps for exps in acc if exps[i] >= p]):
                i -= 1
            rel = self.relations[i]
            if rel is None:
                raise RuntimeError(f"relation for generator {i} not installed")
            terms = []
            for exps in over:
                c = acc.pop(exps)
                # x^base * x_i^p = x^base * (x_i + rel_i)
                base = exps[:i] + (exps[i] - p,) + exps[i + 1:]
                terms.append((exps[:i] + (exps[i] - p + 1,) + exps[i + 1:], c))
                terms += [(tuple(b + r for b, r in zip(base, rexps)), c * rc)
                          for rexps, rc in rel.coeffs.items()]


class TowerElement:
    """An element of a :class:`TowerAlgebra`, reduced, as a map from
    exponent vectors (all entries < p) to Laurent series coefficients that
    are not exactly zero."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: TowerAlgebra, coeffs: dict):
        self.algebra = algebra
        self.coeffs = {e: c for e, c in coeffs.items() if not c.is_zero()}

    @classmethod
    def _of(cls, algebra: TowerAlgebra, coeffs: dict) -> "TowerElement":
        """Internal results: ``coeffs`` already holds no exactly zero coefficient."""
        x = object.__new__(cls)
        x.algebra, x.coeffs = algebra, coeffs
        return x

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        """Exactly zero; an imprecise zero coefficient keeps the element nonzero."""
        return not self.coeffs

    def __bool__(self):
        raise TypeError("a tower element has no truth value: an imprecise zero "
                        "coefficient is neither zero nor nonzero; use is_zero()")

    def support_level(self) -> int:
        """Highest generator index present, plus one; 0 for scalars."""
        level = 0
        for exps in self.coeffs:
            for i in range(self.algebra.nvars - 1, -1, -1):
                if exps[i]:
                    level = max(level, i + 1)
                    break
        return level

    def constant_series(self) -> LaurentSeries:
        for exps in self.coeffs:
            if any(exps):
                raise ValueError("element is not a scalar series")
        return self.coeffs.get(self.algebra._zero_exps, LaurentSeries.zero(self.algebra.field))

    def split_by_var(self, i: int) -> dict:
        """Coordinates with respect to powers of generator i."""
        out: dict[int, dict] = {}
        for exps, c in self.coeffs.items():
            stripped = list(exps)
            e = stripped[i]
            stripped[i] = 0
            out.setdefault(e, {})[tuple(stripped)] = c
        return {e: TowerElement._of(self.algebra, d) for e, d in out.items()}

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TowerElement):
            if other.algebra is not self.algebra:
                raise ValueError("elements of different tower algebras")
            return other
        if isinstance(other, LaurentSeries):
            return self.algebra.from_series(other)
        if isinstance(other, (int, FFElem)):
            return self.algebra.from_scalar(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.algebra._collect([*self.coeffs.items(), *o.coeffs.items()])

    __radd__ = __add__

    def __neg__(self):
        return TowerElement._of(self.algebra, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.algebra._collect([*self.coeffs.items(),
                                      *((e, -c) for e, c in o.coeffs.items())])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, FFElem, LaurentSeries)):
            return TowerElement(self.algebra, {e: x * other for e, x in self.coeffs.items()})
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.algebra._collect([
            (tuple(x + y for x, y in zip(ea, eb)), ca * cb)
            for ea, ca in self.coeffs.items() for eb, cb in o.coeffs.items()])

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers of tower elements are not supported")
        out = self.algebra.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.coeffs == o.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        names = [f"A{i + 1}" for i in range(self.algebra.nvars)]
        parts = []
        for exps in sorted(self.coeffs):
            mono = "*".join(
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(exps) if e
            )
            c = self.coeffs[exps]
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

    def __repr__(self):
        return f"<tower elt {self}>"


class GaloisMap:
    """An automorphism of the tower algebra, given by generator images.

    Construction verifies that every defining relation is respected
    exactly: (sigma(alpha_i))^p - sigma(alpha_i) = sigma(rhs_i), with the
    p-th power taken by :func:`_frobenius`, the one the norm chain takes.
    """

    __slots__ = ("algebra", "images", "_powers")

    def __init__(self, algebra: TowerAlgebra, images, validate: bool = True):
        self.algebra = algebra
        self.images = tuple(images)
        if len(self.images) != algebra.nvars:
            raise ValueError("one image per generator required")
        self._powers = [[img] for img in self.images]
        if validate:
            for i, img in enumerate(self.images):
                lhs = _frobenius(img) - img
                rhs = self.apply(algebra.relations[i])
                if lhs != rhs:
                    raise ConstructionError(
                        f"candidate image for generator {i + 1} violates its relation")

    @classmethod
    def identity(cls, algebra: TowerAlgebra) -> "GaloisMap":
        return cls(algebra, [algebra.gen(i) for i in range(algebra.nvars)], validate=False)

    def _image_power(self, i: int, e: int) -> TowerElement:
        """images[i]^e for e >= 1, kept per map."""
        powers = self._powers[i]
        while len(powers) < e:
            powers.append(powers[-1] * powers[0])
        return powers[e - 1]

    def apply(self, x: TowerElement) -> TowerElement:
        """c alpha^J -> c prod_j images[j]^(J_j), with no product that does
        not change a term: K_0 is fixed, the exact one multiplies nothing, and
        alpha_j maps to images[j] itself (images are reduced results)."""
        if x.algebra is not self.algebra:
            raise ValueError("element of a different algebra")
        if x.coeffs.keys() <= {self.algebra._zero_exps}:
            return x
        one, terms = {0: 1}, []
        for exps, c in x.coeffs.items():
            term = None
            for i, e in enumerate(exps):
                if e:
                    pw = self._image_power(i, e)
                    term = pw if term is None else term * pw
            if term is None:
                terms.append((exps, c))
            elif c.coeffs != one or c.prec != INF:
                terms += [(e, c if t.coeffs == one and t.prec == INF else t * c)
                          for e, t in term.coeffs.items()]
            elif len(x.coeffs) == 1:
                return term
            else:
                terms += term.coeffs.items()
        return self.algebra._collect(terms)

    def compose(self, other: "GaloisMap") -> "GaloisMap":
        """self after other."""
        return GaloisMap(self.algebra, [self.apply(img) for img in other.images],
                         validate=False)

    def is_identity(self) -> bool:
        return all(self.images[i] == self.algebra.gen(i) for i in range(self.algebra.nvars))

    def powers(self) -> list["GaloisMap"]:
        """self^0, self^1, ..., self^(ord-1): the one walk round the cyclic
        group self generates, so its length is the order of self."""
        out = [GaloisMap.identity(self.algebra)]
        acc = self
        while not acc.is_identity():
            out.append(acc)
            if len(out) > self.algebra.p ** self.algebra.nvars:
                raise ConstructionError("runaway order computation")
            acc = self.compose(acc)
        return out

    def __eq__(self, other):
        return isinstance(other, GaloisMap) and self.images == other.images


class Tower(Record):
    """A built tower: the algebra, the concrete constants, and the report
    that certified them."""

    params: TowerParams
    algebra: TowerAlgebra
    omegas: tuple[LaurentSeries, ...]
    a: tuple[LaurentSeries, ...]
    plan_report: PlanReport

    @property
    def p(self) -> int:
        return self.params.p

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def nvars(self) -> int:
        return 2 * self.params.n + 1

    @property
    def field(self) -> ResidueField:
        return self.algebra.field

    def alpha(self, i: int) -> TowerElement:
        """Generator alpha_i, 1-based."""
        return self.algebra.gen(i - 1)


def build_tower(params: TowerParams) -> Tower:
    """Construct the tower algebra for certified characteristic-p parameters.

    The constants are the monomials c = pi^(-r) and
    omega_i = lead_i * pi^(-m_i), so a_i = lead_i^(p^(2n)) pi^(-u_i).
    """
    if params.e0 != INF:
        raise PlanRejection("concrete towers require e0 = inf (characteristic p)")
    report = plan(params, mode="full")
    if not report.certified:
        failed = [c.id for c in report.checks if not c.holds]
        raise PlanRejection(
            f"planner rejects parameters (verdict {report.verdict}; "
            f"failed checks: {failed or 'reduced-constant conditions'})")

    field = params.field
    p, n = params.p, params.n
    k = 2 * n + 1
    pw = p ** (2 * n)
    c = LaurentSeries.monomial(field, 1, -params.r)
    omegas = tuple(
        LaurentSeries.monomial(field, lead, -mi)
        for lead, mi in zip(params.leads, params.m)
    )
    a = tuple(c * (w**pw) for w in omegas)

    algebra = TowerAlgebra(field, k)
    for i in range(2 * n):
        algebra.set_relation(i, algebra.from_series(a[i]))
    # the cross term a_1 alpha_(n+1) + ... + a_n alpha_(2n), then a_top, and
    # in M(n) the carry D(alpha_1, a_1)
    top_rhs = algebra.zero()
    for i in range(n):
        top_rhs = top_rhs + algebra.gen(n + i) * a[i]
    top_rhs = top_rhs + a[k - 1]
    if params.variant == "M":
        top_rhs = top_rhs + witt_carry(algebra.gen(0), algebra.from_series(a[0]), p)
    algebra.set_relation(k - 1, top_rhs)

    return Tower(params=params, algebra=algebra, omegas=omegas, a=a, plan_report=report)


# ---------------------------------------------------------------------------
# Valuations via iterated norms
# ---------------------------------------------------------------------------


def _level_norm(x: TowerElement, i: int) -> TowerElement:
    """Determinant of multiplication-by-x on the basis 1..alpha_i^(p-1) over
    the subalgebra on generators below i.  Requires support(x) <= i.  The
    norm chain takes it only on a level where x is not linear in alpha_i,
    and never at the bottom level of an algebra that meets _bottom_break;
    no element a verify values has such a level."""
    algebra = x.algebra
    p = algebra.p
    gen = algebra.gen(i)
    cols = [x]
    for _ in range(p - 1):
        cols.append(cols[-1] * gen)
    zero = algebra.zero()
    rows = []
    split_cols = [c.split_by_var(i) for c in cols]
    for r in range(p):
        rows.append([sc.get(r, zero) for sc in split_cols])
    return ring_det(rows)


def _frobenius(x: TowerElement) -> TowerElement:
    """x^p by substitution: sum_J c_J^p prod_j (alpha_j + rel_j)^(J_j), since
    x -> x^p is additive in characteristic p and alpha_j^p = alpha_j + rel_j.
    The one p-th power of a tower element: the norm chain and the relation
    check of every GaloisMap take it.  The substitution is a GaloisMap kept
    once per algebra, so the powers of its images are built once; repeated
    squaring would build dense intermediate powers instead."""
    algebra = x.algebra
    if algebra._frobenius_map is None:
        algebra._frobenius_map = GaloisMap(
            algebra, [algebra.gen(j) + rel for j, rel in enumerate(algebra.relations)],
            validate=False)
    return algebra._frobenius_map.apply(
        TowerElement._of(algebra, {e: c.frobenius() for e, c in x.coeffs.items()}))


def _linear_norm(c: TowerElement, d: TowerElement, i: int) -> TowerElement:
    """N(c alpha_i + d) = c^p rel_i + d^p - c^(p-1) d over the subalgebra on
    generators below i, for c and d in it.  It is the product of the
    conjugates c (alpha_i + e) + d, e in F_p, so a ring identity: it equals
    _level_norm whether or not the algebra is a field."""
    p = c.algebra.p
    return _frobenius(c) * c.algebra.relations[i] + _frobenius(d) - c ** (p - 1) * d


def _bottom_break(algebra: TowerAlgebra) -> int | None:
    """u_1 when relation 0 is a scalar a_1 with v_0(a_1) = -u_1 < 0 and p
    not dividing u_1, else None.  Then v_K1(alpha_1) = -u_1, so the
    monomials c_j alpha_1^j, j < p, have valuations distinct mod p."""
    rel = algebra.relations[0]
    if rel is None or rel.support_level():
        return None
    a1 = rel.constant_series()
    if not a1.coeffs:
        return None
    u1 = -min(a1.coeffs)
    return u1 if u1 > 0 and u1 % algebra.p else None


def _leading_term(s: LaurentSeries) -> LaurentSeries:
    """The lowest monomial of a series that is not exactly zero; an
    imprecise zero raises PrecisionError."""
    v = s.valuation()
    return LaurentSeries.monomial(s.field, FFElem(s.field, s.coeffs[v]), v)


def _bottom_leading_term(x: TowerElement, u1: int) -> LaurentSeries:
    """The leading term of N_(K1/K0)(x) for nonzero x = sum_j c_j alpha_1^j,
    under the condition of _bottom_break: a monomial of exponent
    v_K1(x) = min_j (p v_0(c_j) - j u_1).  The monomials' valuations are
    distinct mod p, so one j takes the minimum, and as the norm is
    multiplicative with N(alpha_1) = a_1, the leading term is
    lead(c_j)^p lead(a_1)^j.  A coefficient with a window bounds its term
    below by p prec - j u_1; unless every such bound lies above the
    minimum, the window cannot certify it: PrecisionError."""
    p = x.algebra.p
    terms, bounds = {}, []
    for exps, c in x.coeffs.items():
        j = exps[0]
        if c.coeffs:
            terms[p * min(c.coeffs) - j * u1] = j, c
        if not c.is_exact:
            bounds.append(p * c.prec - j * u1)
    if not terms:
        raise PrecisionError("insufficient precision: bottom level of imprecise zeros")
    v = min(terms)
    if any(b <= v for b in bounds):
        raise PrecisionError("insufficient precision: a window reaches the bottom-level minimum")
    j, c = terms[v]
    a1 = x.algebra.relations[0].constant_series()
    return _leading_term(c).frobenius() * _leading_term(a1) ** j


# The capped chain keeps CAP_START coefficients of relative precision and
# doubles it after a PrecisionError, CAP_TRIES times, before the exact chain.
CAP_START = 8
CAP_TRIES = 7


def _cap(x: TowerElement, w: int) -> TowerElement:
    """x with every coefficient series that reaches w terms above its own
    valuation v cut to O(pi^(v + w)).  Shorter series, exact zeros and
    imprecise zeros are kept as they are, and a cut series keeps its leading
    term, so the cap leaves the element's monomials, and with them each
    level's rule, as they were."""
    out = {}
    for e, c in x.coeffs.items():
        if c.coeffs:
            v = min(c.coeffs)
            if max(c.coeffs) >= v + w:
                c = c.truncate(v + w)
        out[e] = c
    return TowerElement._of(x.algebra, out)


def _norm_valuation(x: TowerElement, w: int | None) -> tuple[Fraction, FFElem]:
    """The leading term of N_(L/K_0)(x) for nonzero x, L the whole algebra:
    v_0(x) and the leading coefficient, through the norm chain, with every
    coefficient capped to relative precision w before each level norm, or
    exact for w None.

    Which norm a level takes is read from the shape of the element, whether
    or not a coefficient has a window: a level where it is linear in alpha_i
    takes the closed form _linear_norm, and in an algebra that meets
    _bottom_break the chain stops at level 1 and reads the leading term of
    the last norm from the minimizing monomial (_bottom_leading_term, which
    bounds the windows).  Only a nonlinear level takes the ring_det of
    _level_norm.  The closed form is a ring identity, so on windowed
    coefficients the series rules carry what the window leaves known.

    The chain ends with N_(K_l/K_0)(x), l the support level of x, and
    N_(L/K_0)(x) is its p^(k-l)-th power, k the generator count; so the
    coefficient the chain ends with is raised to p^(k-l).  Without that,
    elements of different support levels would not share one scale."""
    algebra = x.algebra
    u1 = _bottom_break(algebra)
    level = x.support_level()
    cur = x
    for i in range(level - 1, 0 if u1 else -1, -1):
        if w is not None:
            cur = _cap(cur, w)
        parts = cur.split_by_var(i)
        if parts.keys() <= {0, 1}:
            zero = algebra.zero()
            cur = _linear_norm(parts.get(1, zero), parts.get(0, zero), i)
        else:
            cur = _level_norm(cur, i)
    if cur.is_zero():
        raise ConstructionError("nonzero element has exactly zero norm; algebra is not a domain")
    if u1 and level:
        lead = _bottom_leading_term(cur, u1)
    else:
        lead = _leading_term(cur.constant_series())
    ((v, c),) = lead.coeffs.items()
    p = algebra.p
    return Fraction(v, p**level), FFElem(algebra.field, c) ** p**(algebra.nvars - level)


def elt_leading_term(x: TowerElement) -> tuple[Fraction, FFElem]:
    """The leading term of N_(L/K_0)(x) for nonzero x (_norm_valuation):
    v_0(x) in (1/p^k) * Z, k the generator count of the algebra of x, and
    the leading coefficient of the norm.

    Only the leading term of the last norm is needed, so the chain runs at
    capped relative precision first (the model of Caruso, Roe and Vaccon,
    *Tracking p-adic precision*): before each level norm a coefficient
    keeps w terms above its own valuation, and the series rules track what
    the cut leaves known.  A capped run differs from the exact one only in
    terms it marks unknown, so a leading term it certifies is the exact
    chain's.  On PrecisionError w doubles; after CAP_TRIES capped runs the
    exact chain decides, and its result or PrecisionError is returned
    unchanged.  The cap never changes the answer, only its cost.

    An imprecise zero or a norm whose leading coefficient escapes the
    tracked window raises PrecisionError.
    """
    w = CAP_START
    for _ in range(CAP_TRIES):
        try:
            return _norm_valuation(x, w)
        except PrecisionError:
            w *= 2
    return _norm_valuation(x, None)


def elt_valuation(x: TowerElement) -> Fraction | float:
    """v_0(x), read from elt_leading_term; exact zero maps to INF."""
    return INF if x.is_zero() else elt_leading_term(x)[0]


def top_valuation(v0: Fraction, algebra: TowerAlgebra) -> int:
    """v_top = p^k v_0 as an integer, k the generator count of the algebra
    (2n+1 for a tower)."""
    # v_0 is in (1/p^level) Z, level <= k, so the product is an integer
    return int(v0 * algebra.p**algebra.nvars)


def elt_valuation_top(x: TowerElement) -> int:
    """v_top(x), the top_valuation of elt_valuation(x)."""
    v = elt_valuation(x)
    if v == INF:
        raise ValueError("valuation of zero requested in top normalization")
    return top_valuation(v, x.algebra)


# ---------------------------------------------------------------------------
# Galois generators and group enumeration
# ---------------------------------------------------------------------------


def galois_generators(tower: Tower) -> list[GaloisMap]:
    """The canonical generators sigma_1..sigma_(2n+1).

    sigma_i, i <= 2n, adds 1 to alpha_i and fixes the other alpha_j for
    j <= 2n; its effect on the top generator is the unique exact root
    translate dictated by the variant, with the free F_p summand pinned to 0.
    sigma_top adds 1 to alpha_top and fixes every other alpha_j.  This is
    the shape :func:`word_of` reads: the word of a normal-form product is
    the F_p shifts it makes, and enumerate_group refuses generators of any
    other shape.  Every image is verified against the relations at
    construction; a failure raises ConstructionError.
    """
    algebra = tower.algebra
    n = tower.n
    k = tower.nvars
    one = algebra.one()
    maps = []
    for i in range(k):
        images = [algebra.gen(j) for j in range(k)]
        images[i] = images[i] + one
        top = algebra.gen(k - 1)
        if n <= i < 2 * n:
            # sigma_(n+i) shifts the top generator by alpha_(i-n)
            images[k - 1] = top + algebra.gen(i - n)
        elif i == 0 and tower.params.variant == "M":
            images[k - 1] = top + witt_carry(one, algebra.gen(0), tower.p)
        maps.append(GaloisMap(algebra, images))
    return maps


def _fp_shift(x: TowerElement, y: TowerElement) -> int | None:
    """The e in F_p with x = y + e exactly, or None.  It compares the terms
    of x and y and builds no x - y: every coefficient must be exact, every
    term but the constant one equal in x and y, and the two constant series
    equal in every exponent but 0.  A field index is base p in the
    coordinates, so the pi^0 coefficients a, b differ by an element of F_p
    exactly when a // p == b // p, and then by (a - b) mod p, an index
    below p, which is the F_p element of that value."""
    zero_exps = x.algebra._zero_exps
    zero = LaurentSeries.zero(x.algebra.field)
    for exps in x.coeffs.keys() | y.coeffs.keys():
        a, b = x.coeffs.get(exps, zero), y.coeffs.get(exps, zero)
        if not (a.is_exact and b.is_exact):
            return None
        if exps != zero_exps and a.coeffs != b.coeffs:
            return None
    a = x.coeffs.get(zero_exps, zero).coeffs
    b = y.coeffs.get(zero_exps, zero).coeffs
    ca, cb = a.get(0, 0), b.get(0, 0)
    p = x.algebra.p
    if ca // p != cb // p or {**a, 0: 0} != {**b, 0: 0}:
        return None
    return (ca - cb) % p


def _product(walks: list[list[GaloisMap]], word: tuple[int, ...]) -> GaloisMap:
    """sigma_1^e1 sigma_2^e2 ..., folded left to right over the walk entries
    ``walks[j][e_j]`` with e_j != 0: one map composes nothing, and the word 0
    is the identity."""
    m = None
    for walk, e in zip(walks, word):
        if e:
            m = walk[e] if m is None else m.compose(walk[e])
    return walks[0][0] if m is None else m


def word_of(walks: list[list[GaloisMap]], m: GaloisMap) -> tuple[int, ...]:
    """The word of m, read from its images: e_j = m(alpha_j) - alpha_j for
    j < k, and e_k = m(alpha_k) - T(alpha_k), T the product of the prefix
    (e_1, ..., e_(k-1)) over the power walks.  Each must be an exact
    constant of F_p, or m is no product sigma_1^e1 ... sigma_k^ek:
    ConstructionError."""
    word = tuple(_fp_shift(m.images[j], m.algebra.gen(j)) for j in range(m.algebra.nvars - 1))
    if None not in word:
        word += (_fp_shift(m.images[-1], _product(walks, word).images[-1]),)
    if None in word:
        raise ConstructionError("group is not closed under composition")
    return word


def enumerate_group(tower: Tower, gens: list[GaloisMap]) -> list[list[GaloisMap]]:
    """The power walk of each generator (:meth:`GaloisMap.powers`), once
    each generator reads as its unit word (:func:`word_of`).  The check
    composes no map: a unit prefix reads against its generator itself, and
    sigma_top against alpha_top.  :func:`group_structure` proves that the
    p^k products sigma_1^e1 ... sigma_k^ek, 0 <= e_i < p, are the whole
    group, without building them."""
    k = tower.nvars
    walks = [g.powers() for g in gens]
    for i, g in enumerate(gens):
        if word_of(walks, g) != tuple(int(i == j) for j in range(k)):
            raise ConstructionError(f"generator {i + 1} does not read as its unit word")
    return walks


class GroupReport(Record):
    variant: str
    order: int
    gen_orders: tuple[int, ...]
    commutator_words: dict
    sigma1_p_word: tuple[int, ...]
    metacyclic_w: int | None

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "order": self.order,
            "gen_orders": list(self.gen_orders),
            "commutators": {"-".join(map(str, k)): ",".join(map(str, v))
                            for k, v in sorted(self.commutator_words.items())},
            "sigma1_p": ",".join(map(str, self.sigma1_p_word)),
            "metacyclic_w": self.metacyclic_w,
            "matches_expected": True,  # group_structure raises otherwise
        }


def group_structure(tower: Tower, gens: list[GaloisMap],
                    walks: list[list[GaloisMap]]) -> GroupReport:
    """Measure generator orders, pairwise commutators and sigma_1^p, and
    confirm the presentation of H(n) or M(n); the first relation that fails
    raises ConstructionError.  The orders, the inverses and sigma_1^p are
    read from the power walks of :func:`enumerate_group`.  This check is
    also the one proof that the p^k normal-form products are the whole
    group sigma_1..sigma_k generate, so every report belongs to a confirmed
    presentation.

    The presentation, with k = 2n + 1, s_top = s_k and p odd:
      every s_i has order p, except that in M(n) s_1 has order p^2 and
      s_1^p = s_top^w with w != 0 mod p;
      [s_i, s_(n+i)] = s_top for i <= n, and [s_i, s_j] = 1 for every
      other pair, s_top included.
    It presents a group of order exactly p^k, H(n) or M(n):
    - At most p^k.  Every commutator lies in <s_top>, which is central of
      order p, and so does every s_i^p.  So collecting a word to normal form
      s_1^e_1 ... s_k^e_k, 0 <= e_i < p, moves each letter past another at
      the cost of a central factor and reduces each exponent mod p at the
      cost of another: at most p^k normal forms.
    - At least p^k, by a model of each variant that satisfies every
      relation.  H(n): F_p^n x F_p^n x F_p with (a, b, c)(a', b', c') =
      (a + a', b + b', c + c' - a.b'), the s_i the unit vectors; it has
      exponent p since p is odd.  M(n): N x| F_p^n with
      N = Z/p^2 x F_p^(n-1) generated by s_1..s_n and s_top = s_1^(pw'),
      ww' = 1 mod p; s_(n+j) acts on N by x -> x s_top^(-x_j), x_j the j-th
      coordinate of x mod p, an automorphism of order p that fixes s_top.

    Closure.  When the check passes, the maps satisfy these relations, so
    the group they generate is a quotient of the presented one (von Dyck)
    and has at most p^k elements.  The p^k normal-form products
    s_1^e_1 ... s_k^e_k, 0 <= e_i < p, are pairwise distinct, as each
    generator reads as its unit word: words with different prefixes shift
    some alpha_j, j < k, by different amounts, and words with one prefix
    differ by s_k^d, 0 < d < p, which moves alpha_k by d.  So the products
    fill the group, and it is closed under composition.  The proof reads
    only the generators, their walks, the commutators and sigma_1^p, so it
    holds with none of the other products ever built.  When the check
    fails nothing is proved, and the first failed relation raises
    ConstructionError: the oracle verifies only towers whose group is H(n)
    or M(n).  A commutator or sigma_1^p whose word cannot be read, as it
    shifts some alpha_j by anything but an exact constant of F_p, raises
    ConstructionError too.
    """
    p = tower.p
    n = tower.n
    k = tower.nvars
    variant = tower.params.variant
    gen_orders = tuple(len(walk) for walk in walks)

    commutators = {}
    for i in range(k):
        for j in range(i + 1, k):
            # right to left, so each compose applies a generator or a walk
            # entry whose image powers are already kept
            comm = gens[i].compose(gens[j].compose(walks[i][-1].compose(walks[j][-1])))
            commutators[(i + 1, j + 1)] = word_of(walks, comm)

    sigma1_p_word = word_of(walks, walks[0][p % gen_orders[0]])

    def fail(relation, measured, expected):
        raise ConstructionError(f"{relation} is {measured}, the presentation of "
                                f"{variant}({n}) needs {expected}")

    for i, order in enumerate(gen_orders):
        want = p * p if variant == "M" and i == 0 else p
        if order != want:
            fail(f"the order of sigma_{i + 1}", order, want)
    central = (0,) * (k - 1)
    for (i, j), word in commutators.items():
        # [sigma_i, sigma_(n+i)] is the canonical central generator
        want = central + (int(j == i + n and i <= n),)
        if word != want:
            fail(f"the word of [sigma_{i}, sigma_{j}]", word, want)
    if variant == "H" and any(sigma1_p_word):
        fail(f"the word of sigma_1^{p}", sigma1_p_word, central + (0,))
    if variant == "M" and (sigma1_p_word[:-1] != central or not sigma1_p_word[-1]):
        fail(f"the word of sigma_1^{p}", sigma1_p_word, "sigma_top^w, w != 0 mod p")
    return GroupReport(variant, p**k, gen_orders, commutators, sigma1_p_word,
                       sigma1_p_word[-1] if variant == "M" else None)
