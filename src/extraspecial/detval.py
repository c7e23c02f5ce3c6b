"""The one determinant of the package (``ring_det``: the twist determinant
of the tower generator, and the level norms that have no closed form),
Frobenius-twist matrices, and the closed-form valuations of the twist
determinant's cofactors that certify the tower generator.
"""

from __future__ import annotations


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
    column with each minor expanded once.  It expands the twist determinant
    Y and the level norms of localfield._level_norm: every level of an
    element with a window, which no oracle stage builds, and the nonlinear
    levels of exact elements.  Linear levels and the bottom level of exact
    elements have closed forms.

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


def _twist_valuation(p: int, rs) -> int:
    """-(r_1 + p r_2 + ... + p^(k-1) r_k): the valuation of the twist
    determinant on rows of valuation -r_1, ..., -r_k."""
    return -sum(r * p**j for j, r in enumerate(rs))


def ti_valuations(p: int, n: int, m) -> tuple[int, ...]:
    """Cofactor valuations of the tower generator determinant, given the
    exponents m_1 <= ... <= m_(2n+1) of the omega constants:

    v0[i-1] = v_0(t_i) = -(m_1 + p m_2 + ... + p^(i-2) m_(i-1)
                          + p^(i-1) m_(i+1) + ... + p^(2n-1) m_(2n+1)),

    the twist-valuation sum on the omega rows with row i removed.
    Differences scale to lower ramification number differences:
    p^(2n+1) (v_0(t_j) - v_0(t_i)) = b_j - b_i.
    """
    return tuple(_twist_valuation(p, m[:i] + m[i + 1:]) for i in range(2 * n + 1))
