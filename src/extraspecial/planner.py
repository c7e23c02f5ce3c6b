"""Certification of tower parameters: hypothesis checking for the H- and
M-variant constructions, the scaffold precision they guarantee, and the
Galois-module verdict that precision supports.

Everything here is inequality arithmetic over ints and Fractions extended
by INF = +infinity; e0 = INF encodes a base field of characteristic p, where
every e0-inequality is vacuous and the e0 term drops out of the precision
minimum.
"""

from __future__ import annotations

from fractions import Fraction

from .artin_schreier import ASConstantSpec, ASReport, validate_reduced_AS
from .ramification import upper_to_lower
from .record import Record
from .valuation import (FFElem, ResidueField, extended_json, field_degree, is_extended,
                        residue_field)

_VARIANTS = ("H", "M")


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    return all(p % f for f in range(3, int(p**0.5) + 1, 2))


class TowerParams(Record):
    """Input data for one tower: a_i = c * omega_i^(p^(2n)) with
    r = -v_0(c), m_i = -v_0(omega_i), and the residue leading coefficients
    of the omega_i.  Then u_i = -v_0(a_i) = r + p^(2n) m_i."""

    p: int
    n: int
    variant: str
    e0: int | Fraction | float  # INF or positive
    r: int
    m: tuple[int, ...]
    leads: tuple[FFElem, ...]
    field: ResidueField

    def __post_init__(self):
        if not _is_odd_prime(self.p):
            raise ValueError(f"p = {self.p} is not an odd prime")
        if self.field.p != self.p:
            raise ValueError("residue field characteristic does not match p")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}")
        if self.r < 1:
            raise ValueError("r must be a positive integer")
        if self.r % self.p == 0:
            raise ValueError(f"p divides u_1 = r = {self.r}")
        k = 2 * self.n + 1
        if len(self.m) != k:
            raise ValueError(f"need {k} exponents m_i, got {len(self.m)}")
        if any(x < 0 for x in self.m):
            raise ValueError("exponents m_i must be nonnegative")
        if any(self.m[i] > self.m[i + 1] for i in range(k - 1)):
            raise ValueError("exponents m_i must be nondecreasing")
        if len(self.leads) != k:
            raise ValueError(f"need {k} leading coefficients, got {len(self.leads)}")
        if any(not x for x in self.leads):
            raise ValueError("leading coefficients must be nonzero")
        if any(x.field != self.field for x in self.leads):
            raise ValueError("leading coefficients from a different residue field")
        if self.field.q < self.p ** (2 * self.n):
            raise ValueError(
                f"residue cardinality q = {self.field.q} < p^(2n) = {self.p ** (2 * self.n)}")
        if not is_extended(self.e0):
            raise ValueError(f"e0 = {self.e0!r} is neither INF nor an int or Fraction")
        if not self.e0 > 0:
            raise ValueError("e0 must be positive")

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def u(self) -> tuple[int, ...]:
        pw = self.p ** (2 * self.n)
        return tuple(self.r + pw * mi for mi in self.m)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "variant": self.variant,
            "e0": extended_json(self.e0),
            "r": self.r,
            "m": list(self.m),
            "leads": [self.field.format_element(x) for x in self.leads],
            "q": self.q,
        }


class Check(Record):
    """One hypothesis inequality with its slack (rhs - lhs)."""

    id: str
    text: str
    holds: bool
    slack: int | Fraction | float
    strict: bool = True

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "text": self.text,
            "holds": self.holds,
            "slack": extended_json(self.slack),
            "strict": self.strict,
        }


class PlanReport(Record):
    params: TowerParams
    mode: str
    u: tuple[int, ...]
    b: tuple[int, ...]
    as_report: ASReport
    checks: tuple[Check, ...]
    cfrak: int | Fraction | None
    verdict: str            # scaffold-certified | hypotheses-fail
    gms: str                # free | free-and-hopf | no-conclusion
    notes: tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        return self.verdict == "scaffold-certified"

    def to_dict(self) -> dict:
        d = {"schema": 1}
        d.update(self.params.to_dict())
        d["mode"] = self.mode
        d["u"] = list(self.u)
        d["b"] = list(self.b)
        d["as_conditions"] = self.as_report.to_dict()
        d["checks"] = [c.to_dict() for c in self.checks]
        d["cfrak"] = extended_json(self.cfrak) if self.cfrak is not None else "not-applicable"
        d["verdict"] = self.verdict
        d["gms"] = self.gms
        d["notes"] = list(self.notes)
        return d


def _check(cid: str, text: str, lhs, rhs, strict: bool = True) -> Check:
    """Build a check for lhs < rhs (or <= when not strict).

    lhs is always finite here; rhs may be INF, in which case the check is
    vacuously true with slack INF.
    """
    slack = rhs - lhs
    holds = slack > 0 if strict else slack >= 0
    return Check(cid, text, holds, slack, strict)


def plan(params: TowerParams, mode: str = "full") -> PlanReport:
    """Evaluate the variant's hypothesis system and, when it holds, the
    scaffold precision and Galois-module verdict.

    ``full`` evaluates the complete inequality system; ``simple`` replaces
    the e0-involving inequalities with the single bound u_(2n+1) <= e0 while
    retaining the inequalities against b_(2n+1) (whose role is load-bearing
    in both variants), and uses the correspondingly simplified precision.
    """
    if mode not in ("full", "simple"):
        raise ValueError(f"mode must be 'full' or 'simple', not {mode!r}")
    p, n = params.p, params.n
    u = params.u
    b_fracs = upper_to_lower(p, u)
    b = tuple(int(x) for x in b_fracs)
    top = 2 * n + 1
    pn2 = p ** (2 * n)      # p^(2n)
    pn2t = p ** (2 * n + 1)  # p^(2n+1)

    u1, un, u2n, utop = u[0], u[n - 1], u[2 * n - 1], u[top - 1]
    btop = b[top - 1]
    e0 = params.e0

    # a_i leads are omega_i leads under Frobenius^(2n), an F_p-linear bijection: same rank
    as_spec = ASConstantSpec(
        params.field, e0,
        tuple((-u[i], lead) for i, lead in enumerate(params.leads[:2 * n])),
    )
    as_report = validate_reduced_AS(as_spec)

    checks: list[Check] = []
    notes: list[str] = []
    qp = Fraction(1, p)
    v = params.variant
    if mode == "full":
        checks.append(_check(f"{v}1", "u_n + (1-1/p) u_2n < e0", un + (1 - qp) * u2n, e0))
        checks.append(_check(f"{v}2", "u_n/p + u_2n/p^2 + (1-1/p) u_top < e0",
                             qp * un + qp**2 * u2n + (1 - qp) * utop, e0))
        if v == "M":
            checks.append(_check("M6", "(1-1/p+1/p^2) u_1 + (1-1/p) u_top < e0",
                                 (1 - qp + qp**2) * u1 + (1 - qp) * utop, e0))
        checks.append(_check(f"{v}3", "u_2n < e0", u2n, e0))
        checks.append(_check(f"{v}5", "u_top - b_top/p^(2n+1) < e0",
                             utop - Fraction(btop, pn2t), e0))
    else:
        checks.append(_check(f"{v}simple", "u_top <= e0", utop, e0, strict=False))
        retained = ("inequalities M4 and M7; their role is" if v == "M"
                    else "inequality H4; its role is")
        notes.append(f"simple mode retains the b_top {retained} "
                     "load-bearing in the full system")
    checks.append(_check(f"{v}4", "p^(2n) u_n + p^(2n) u_2n < b_top",
                         pn2 * un + pn2 * u2n, btop))
    if v == "M":
        checks.append(_check("M7", "p^(2n+1) u_1 < b_top", pn2t * u1, btop))

    all_hold = all(c.holds for c in checks) and as_report.ok

    cfrak = None
    if all(c.holds for c in checks):
        base = btop - pn2 * un - pn2 * u2n
        if params.variant == "H":
            terms = [base]
        else:
            terms = [btop - pn2t * u1, base]
        if mode == "full":
            terms.append(pn2t * e0 - pn2t * utop + btop)
        cfrak = min(terms)

    certified = all_hold and cfrak is not None and cfrak >= 1
    verdict = "scaffold-certified" if certified else "hypotheses-fail"
    gms = gms_verdict(p, n, cfrak, u1) if certified else "no-conclusion"
    return PlanReport(params, mode, u, b, as_report, tuple(checks),
                      cfrak, verdict, gms, tuple(notes))


def gms_verdict(p: int, n: int, cfrak, u1: int) -> str:
    """Galois-module verdict supported by a scaffold of precision cfrak.

    With rho the least nonnegative residue of u_1 mod p^(2n+1):
    'free-and-hopf' when cfrak >= 2 p^(2n+1) - 1 and rho = p^(2n+1) - 1;
    otherwise 'free' when cfrak >= rho and rho divides p^m - 1 for some
    1 <= m <= 2n+1; otherwise 'no-conclusion' (the criterion is
    sufficient-only, so this is never a failure).
    """
    if cfrak < 1:
        raise ValueError("gms_verdict requires cfrak >= 1")
    if u1 < 1:
        raise ValueError(f"u_1 = {u1} is not a positive upper ramification number")
    if u1 % p == 0:
        raise ValueError(f"p divides u_1 = {u1}")
    pn2t = p ** (2 * n + 1)
    rho = u1 % pn2t
    if rho == pn2t - 1 and cfrak >= 2 * pn2t - 1:
        return "free-and-hopf"
    if cfrak >= rho and any(pow(p, m, rho) == 1 % rho for m in range(1, 2 * n + 2)):
        return "free"
    return "no-conclusion"


def default_leads(field: ResidueField, n: int) -> tuple[FFElem, ...]:
    """A fixed F_p-independent tuple 1, g, ..., g^(2n-1) for omega_1..omega_2n
    (powers of the field generator span when q >= p^(2n)), topped by 1."""
    g = field.gen()
    return tuple(g**i for i in range(2 * n)) + (field.one(),)


def family_field(p: int, n: int, q: int | None) -> ResidueField:
    """The residue field F_q of a tower, q = p^(2n) when None."""
    return residue_field(p, 2 * n if q is None else field_degree(p, q))


def family_params(variant: str, p: int, n: int, u: int, t: int, e0: int | Fraction | float,
                  q: int | None) -> TowerParams:
    """The standard family r = u, m = (0, ..., 0, t) with the default leads
    over family_field(p, n, q); validated by TowerParams alone."""
    field = family_field(p, n, q)
    return TowerParams(p=p, n=n, variant=variant, e0=e0, r=u, m=(0,) * (2 * n) + (t,),
                       leads=default_leads(field, n), field=field)


def example_family(p: int, n: int, u: int, t: int, variant: str) -> PlanReport:
    """The one-parameter-pair families r = u, m = (0, ..., 0, t).

    Then u_i = b_i = u for i <= 2n, u_top = t p^(2n) + u and
    b_top = t p^(4n) + u.  Planned in simple mode at the minimal certified
    e0 = u_top; when certification succeeds the precision must equal the
    closed form t p^(4n) + u - 2u p^(2n) (H) or t p^(4n) + u - u p^(2n+1)
    (M), which is asserted.
    """
    if u < 1 or t < 1:
        raise ValueError("u and t must be positive integers")
    if u % p == 0:
        raise ValueError(f"p divides u = {u}")
    params = family_params(variant, p, n, u, t, u + t * p ** (2 * n), None)
    report = plan(params, mode="simple")
    if report.certified:
        if variant == "H":
            closed = t * p ** (4 * n) + u - 2 * u * p ** (2 * n)
        else:
            closed = t * p ** (4 * n) + u - u * p ** (2 * n + 1)
        if report.cfrak != closed:
            raise RuntimeError(
                f"closed-form precision {closed} disagrees with general formula {report.cfrak}")
    return report
