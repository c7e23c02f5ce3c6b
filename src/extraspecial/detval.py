"""The one determinant of the package (``ring_det``, which every norm and
twist expands), Frobenius-twist matrices: Moore determinants, the
closed-form valuation of det(phi^(j-1)(beta_i)), cofactor valuations for
the tower generator, and the exact char-p Frobenius/determinant
commutation check.
"""

from __future__ import annotations

import itertools

from .artin_schreier import first_dependent_run
from .record import Record
from .valuation import ExtRational, FFElem, LaurentSeries


class TwistHypothesisError(ValueError):
    """The matrix violates the sorted-valuation / independence hypothesis."""


class _Minor:
    """The minor of ``full`` on the rows ``keep`` and its last len(keep)
    columns, with the memo shared by every minor of one determinant."""

    __slots__ = ("full", "keep", "memo")

    def __init__(self, full, keep: tuple[int, ...], memo: dict):
        self.full = full
        self.keep = keep
        self.memo = memo


def ring_det(rows):
    """Determinant over any commutative ring, by expansion along the first
    column with each minor expanded once.

    Columns are used left to right, so a minor is fixed by the rows it
    keeps.  Each minor is expanded once, through this function by name, and
    remembered for the rest of the call: a k x k matrix makes at most
    k 2^(k-1) entry products.  An entry that is exactly zero (``is_zero()``)
    makes none; an imprecise zero O(pi^N) is multiplied, since its product
    carries precision.
    """
    if isinstance(rows, _Minor):
        full, keep, memo = rows.full, rows.keep, rows.memo
    else:
        k = len(rows)
        if k == 0 or any(len(r) != k for r in rows):
            raise ValueError("matrix must be square and nonempty")
        full, keep, memo = rows, tuple(range(k)), {}
    col = len(full) - len(keep)
    if len(keep) == 1:
        return full[keep[0]][col]
    total = None
    for pos, i in enumerate(keep):
        entry = full[i][col]
        if entry.is_zero():
            continue
        sub = keep[:pos] + keep[pos + 1:]
        minor = memo.get(sub)
        if minor is None:
            minor = memo[sub] = ring_det(_Minor(full, sub, memo))
        term = entry * minor
        if pos % 2:
            term = -term
        total = term if total is None else total + term
    # every entry of the column is exactly zero, and so is the determinant
    return full[keep[0]][col] if total is None else total


def frobenius_matrix(betas: list) -> list[list]:
    """The k x k matrix with entry (i, j) = phi^(j-1)(beta_i), for series or
    residue field elements beta_i."""
    out = []
    for b in betas:
        row = [b]
        for _ in range(len(betas) - 1):
            row.append(row[-1].frobenius())
        out.append(row)
    return out


class FrobMatrix(Record, frozen=True):
    """Rows beta_1..beta_k with r_i = -val(beta_i) nondecreasing and, within
    each run of equal r_i, F_p-independent leading coefficients."""

    betas: tuple[LaurentSeries, ...]

    def __post_init__(self):
        if not self.betas:
            raise ValueError("empty matrix")
        rs = self.r_values
        if any(rs[i] > rs[i + 1] for i in range(len(rs) - 1)):
            raise TwistHypothesisError("row valuations -val(beta_i) must be nondecreasing")
        run = first_dependent_run(self.betas[0].field, rs, [b.leading() for b in self.betas])
        if run is not None:
            i, j = run
            raise TwistHypothesisError(
                f"rows {i + 1}..{j + 1} share valuation -{rs[i]} but their leading "
                "coefficients are F_p-dependent")

    @property
    def k(self) -> int:
        return len(self.betas)

    @property
    def r_values(self) -> tuple[int, ...]:
        return tuple(-b.valuation() for b in self.betas)

    def matrix(self) -> "list[list[LaurentSeries]]":
        return frobenius_matrix(list(self.betas))


def _twist_valuation(p: int, rs) -> int:
    """-(r_1 + p r_2 + ... + p^(k-1) r_k): the valuation of the twist
    determinant on rows of valuation -r_1, ..., -r_k."""
    return -sum(r * p**j for j, r in enumerate(rs))


def tval_valuation(fm: FrobMatrix, cross_check: bool = False) -> ExtRational:
    """Valuation of det(phi^(j-1)(beta_i)) without computing the determinant:
    -(r_1 + p r_2 + ... + p^(k-1) r_k).

    With ``cross_check`` the determinant is also expanded over the series
    ring and its valuation compared; a mismatch raises RuntimeError.
    """
    val = _twist_valuation(fm.betas[0].field.p, fm.r_values)
    if cross_check:
        det = ring_det(fm.matrix())
        brute = det.valuation()
        if brute != val:
            raise RuntimeError(
                f"twist valuation formula {val} disagrees with brute-force determinant {brute}")
    return ExtRational(val)


def moore_det(mus: "list[FFElem]") -> FFElem:
    """det(mu_i^(p^(j-1))) over F_q; nonzero exactly when the mu_i are
    linearly independent over F_p."""
    return ring_det(frobenius_matrix(mus))


class TiValuations(Record, frozen=True):
    """Cofactor valuations of the tower generator determinant.

    v0[i-1] = v_0(t_i) = -(m_1 + p m_2 + ... + p^(i-2) m_(i-1)
                          + p^(i-1) m_(i+1) + ... + p^(2n-1) m_(2n+1)),
    i.e. the twist-valuation formula applied to the omega rows with row i
    removed.  Differences scale to lower ramification number differences:
    p^(2n+1) (v_0(t_j) - v_0(t_i)) = b_j - b_i.
    """

    p: int
    n: int
    m: tuple[int, ...]
    v0: tuple[int, ...]

    def vtop(self, i: int) -> int:
        """v_(2n+1)(t_i) for 1-based i."""
        return self.p ** (2 * self.n + 1) * self.v0[i - 1]

    def vtop_difference(self, j: int, i: int) -> int:
        """v_(2n+1)(t_j) - v_(2n+1)(t_i); equals b_j - b_i (1-based)."""
        return self.vtop(j) - self.vtop(i)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "m": list(self.m),
            "v0": list(self.v0),
            "vtop": [self.vtop(i) for i in range(1, 2 * self.n + 2)],
        }


def ti_valuations(p: int, n: int, m) -> TiValuations:
    """Evaluate the cofactor valuation formula for all 2n+1 rows."""
    m = tuple(int(x) for x in m)
    if len(m) != 2 * n + 1:
        raise ValueError(f"need 2n+1 = {2 * n + 1} exponents, got {len(m)}")
    if any(x < 0 for x in m):
        raise ValueError("exponents must be nonnegative")
    if any(m[i] > m[i + 1] for i in range(len(m) - 1)):
        raise ValueError("exponents must be nondecreasing")
    v0 = tuple(_twist_valuation(p, m[:i] + m[i + 1:]) for i in range(2 * n + 1))
    return TiValuations(p, n, m, v0)


class PhidetReport(Record, frozen=True):
    k: int
    equal: bool
    det_valuation: ExtRational
    gamma_valuation: ExtRational
    gamma_permutation: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "equal": self.equal,
            "det_valuation": self.det_valuation.to_json(),
            "gamma_valuation": self.gamma_valuation.to_json(),
            "gamma_permutation": list(self.gamma_permutation),
        }


def phidet_check(rows: "list[list[LaurentSeries]]") -> PhidetReport:
    """Verify det(phi(A)) = phi(det(A)) exactly.

    In characteristic p the Frobenius is a ring homomorphism, so the two
    sides agree on the nose; the congruence modulus that matters in mixed
    characteristic degenerates.  The report also identifies the gamma term:
    the minimum-valuation product in the Leibniz expansion.
    """
    k = len(rows)
    if k > 4:
        raise ValueError("phidet_check is restricted to k <= 4")
    if any(len(r) != k for r in rows):
        raise ValueError("matrix must be square")
    det = ring_det(rows)
    phi_of_det = det.frobenius()
    det_of_phi = ring_det([[x.frobenius() for x in r] for r in rows])
    equal = det_of_phi == phi_of_det

    best_val = None
    best_perm: tuple[int, ...] = ()
    for perm in itertools.permutations(range(k)):
        val = 0
        dead = False
        for i, j in enumerate(perm):
            v = rows[i][j].valuation()
            if v == float("inf"):
                dead = True
                break
            val += v
        if dead:
            continue
        if best_val is None or val < best_val:
            best_val = val
            best_perm = perm
    gamma_val = ExtRational(None) if best_val is None else ExtRational(best_val)
    dv = det.valuation()
    det_val = ExtRational(None) if dv == float("inf") else ExtRational(dv)
    return PhidetReport(k, equal, det_val, gamma_val, best_perm)
