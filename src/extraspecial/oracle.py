"""End-to-end verification of built towers: the generator determinant and
its valuation, the measured ramification filtration, scaffold row bounds,
and the elementary-layer breaks, all compared against planner predictions.

Everything is computed by brute force in exact arithmetic over F_q((pi)):
the filtration from first definitions (valuations of sigma(pi_L) - pi_L,
which are constant on each class of cyclic subgroups, so measured once per
class: the group stage confirms the presentation of H(n) or M(n) that
makes the classes, or stops the verify), the valuations through iterated
norm determinants.  The one truncated step is the scaffold stage's
t_top^(-1), taken in a series window that owns the precision retry.
"""

from __future__ import annotations

from .detval import frobenius_matrix, ring_det, ti_valuations
from .localfield import (GaloisMap, GroupReport, GroupTable, Tower, TowerAlgebra,
                         TowerElement, TowerParams, build_tower, elt_valuation_top,
                         enumerate_group, galois_generators, group_structure)
from .planner import PlanReport, family_params
from .ramification import lower_to_upper, upper_to_lower
from .record import Record
from .valuation import INF, ExtRational, LaurentSeries, PrecisionError, exact_log


class OracleMismatch(RuntimeError):
    """A measured quantity disagrees with its predicted value."""


def _plog(ratio: int, p: int) -> int:
    """Exact base-p logarithm; OracleMismatch when ratio is not a p-power."""
    out = exact_log(p, ratio)
    if out is None:
        raise OracleMismatch(f"{ratio} is not a power of p = {p}")
    return out


def _jump_multiset(jumps: list, sizes: list[int], p: int, what: str) -> list:
    """Each jump repeated log_p(sizes[i] / sizes[i+1]) times: ``sizes[i]`` is
    the order of the subgroup at ``jumps[i]``, trivial past the last jump."""
    sizes = sizes + [1]
    out: list = []
    for jump, at, after in zip(jumps, sizes, sizes[1:]):
        if at % after:
            raise OracleMismatch(f"{what} sizes {at}/{after} not nested")
        out.extend([jump] * _plog(at // after, p))
    return out


# ---------------------------------------------------------------------------
# The generator determinant
# ---------------------------------------------------------------------------


class GeneratorData(Record):
    """The tower generator sum(t_i alpha_i) built from the twist determinant
    of the alpha column against Frobenius powers of the omega column."""

    element: TowerElement
    cofactors: tuple[LaurentSeries, ...]
    v0_cofactors: tuple[int, ...]
    vtop: int
    vtop_predicted: int

    def to_dict(self) -> dict:
        return {
            "v0_cofactors": list(self.v0_cofactors),
            "vtop": self.vtop,
            "vtop_predicted": self.vtop_predicted,
        }


def construct_generator(tower: Tower) -> GeneratorData:
    """Build Y as the twist determinant and certify its valuation.

    Asserts the cofactor valuations against the closed formula, and the
    total valuation against -b_1 + v_top(t_1); failure of either raises
    OracleMismatch.  p never divides the resulting valuation, which is what
    makes the element a field generator.
    """
    k = tower.nvars
    p = tower.p
    # Y = det(alpha_i | phi^(j-1)(omega_i), j < k): expanding along the alpha
    # column makes t_i, the alpha_i coefficient, the signed omega-twist minor
    twist = frobenius_matrix(list(tower.omegas))
    y = ring_det([[tower.alpha(i + 1)] + row[:k - 1] for i, row in enumerate(twist)])
    zero = tower.algebra.zero()
    cofactors = [y.split_by_var(i).get(1, zero).constant_series() for i in range(k)]
    formula = ti_valuations(p, tower.n, tower.params.m)
    v0 = []
    for i, t in enumerate(cofactors):
        v = t.valuation()
        if v != formula[i]:
            raise OracleMismatch(
                f"cofactor {i + 1} has valuation {v}, formula gives {formula[i]}")
        v0.append(v)

    vtop = elt_valuation_top(y)
    b1 = tower.plan_report.b[0]
    predicted = -b1 + p**k * v0[0]
    if vtop != predicted:
        raise OracleMismatch(f"generator valuation {vtop} != predicted {predicted}")
    if vtop % p == 0:
        raise OracleMismatch(f"generator valuation {vtop} is divisible by p")
    return GeneratorData(y, tuple(cofactors), tuple(v0), vtop, predicted)


# ---------------------------------------------------------------------------
# Ramification filtration by brute force
# ---------------------------------------------------------------------------


def _uniformizer_exponents(vtop: int, pk: int) -> tuple[int, int]:
    """Minimal-|x| solution of x*vtop + y*pk = 1."""
    inv = pow(vtop, -1, pk)
    x = inv if inv <= pk // 2 else inv - pk
    y = (1 - x * vtop) // pk
    return x, y


def _shift_valuation(sigma: GaloisMap, y_elem: TowerElement, vtop: int) -> int:
    """v_top((sigma - 1) pi_L) = 1 + v_top(sigma(Y) - Y) - vtop, for any
    uniformizer pi_L = Y^x pi^y (x vtop + y p^k = 1, p^k the degree of the
    algebra of Y), where vtop = v_top(Y).

    With delta = sigma(Y) - Y, (sigma - 1) pi_L = pi_L ((1 + delta/Y)^x - 1).
    When v(delta) > v(Y), the binomial term x delta/Y dominates strictly (p
    never divides x, which is invertible mod p^k), for either sign of x; so
    the valuation is v(pi_L) + v(delta) - v(Y) = 1 + v(delta) - vtop >= 2.
    The dominance always holds in a totally ramified p-extension: every
    sigma != 1 lies in G_1, so sigma(Y)/Y is a principal unit.  A
    measurement without it is an OracleMismatch, not a fallback.
    """
    delta = sigma.apply(y_elem) - y_elem
    if delta.is_zero():
        raise OracleMismatch("a nontrivial automorphism fixes the generator")
    v_delta = elt_valuation_top(delta)
    if v_delta <= vtop:
        raise OracleMismatch(
            f"v_top(sigma(Y) - Y) = {v_delta} <= v_top(Y) = {vtop}: sigma is not in G_1")
    return 1 + v_delta - vtop


class FiltrationReport(Record):
    ivals: dict
    lower_multiset: tuple[int, ...]
    different_val: int
    hilbert_sum: int
    uniformizer: tuple[int, int]

    @property
    def consistent(self) -> bool:
        return self.different_val == self.hilbert_sum

    def to_dict(self) -> dict:
        return {
            "ivals": {",".join(map(str, w)): v for w, v in sorted(self.ivals.items())},
            "lower_multiset": list(self.lower_multiset),
            "different_val": self.different_val,
            "hilbert_sum": self.hilbert_sum,
            "uniformizer": {"x": self.uniformizer[0], "y": self.uniformizer[1]},
            "consistent": self.consistent,
        }


def _cyclic_class(word: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The representative of the class of cyclic subgroups holding the
    nontrivial normal-form word ``word`` of H(n) or M(n): (P / c, 0) for a
    prefix P != 0 whose first nonzero entry is c, and (0, ..., 0, 1) for a
    central word."""
    prefix = word[:-1]
    lead = next((e for e in prefix if e), 0)
    if not lead:
        return prefix + (1,)
    inverse = pow(lead, -1, p)
    return tuple(e * inverse % p for e in prefix) + (0,)


def ramification_filtration(tower: Tower, gen_data: GeneratorData,
                            table: GroupTable) -> FiltrationReport:
    """Find i(sigma) = v_L(sigma(pi_L) - pi_L) for every nontrivial group
    element and derive the lower ramification multiset from the jumps.

    The reported uniformizer is pi_L = Y^x pi^y with x vtop(Y) + y p^(2n+1)
    = 1 and |x| minimal; the filtration does not depend on this choice.  The
    Hilbert sum recomputed from the multiset must match the direct sum of
    the i(sigma).

    The table's group must be one that :func:`group_structure` confirmed as
    H(n) or M(n).  One element per class of cyclic subgroups is measured and
    its value fills the class: (p^(2n) - 1)/(p - 1) + 1 measurements for
    p^(2n+1) - 1 elements.  This is exact:
    - i(sigma) >= m + 1 exactly when sigma is in G_m, a normal subgroup.
      So i is a class function, i(tau sigma tau^(-1)) = i(sigma) (Serre,
      Local Fields IV 1), and is constant on the generators of one cyclic
      subgroup, since sigma is in G_m exactly when <sigma> is.
    - The presentation makes G/Z = F_p^(2n), Z = <s_top> the center, with
      the word prefix (e_1, ..., e_2n) as coordinates; in M(n), s_1^p is in
      Z.  A noncentral sigma of prefix P has the conjugacy class sigma Z
      (Z is the commutator subgroup and [sigma, G] = Z), and sigma^j, j
      prime to p, has prefix jP.  So the words of prefix in F_p^* P make up
      the classes of the generators of <sigma>, with the representative
      (P / c, 0), c the first nonzero entry of P.  The p - 1 central words
      generate Z and share (0, ..., 0, 1).
    - The checks on a measurement give the same outcome across its class:
      sigma fixes Y only if sigma = 1, since Y generates L (p does not
      divide v_top(Y)), and v_top(sigma(Y) - Y) > v_top(Y) says sigma is in
      G_1, which is normal.
    """
    p = tower.p
    k = tower.nvars
    measured: dict[tuple[int, ...], int] = {}
    ivals: dict[tuple[int, ...], int] = {}
    for word in table.words[1:]:
        rep = _cyclic_class(word, p)
        if rep not in measured:
            measured[rep] = _shift_valuation(table[rep], gen_data.element, gen_data.vtop)
        ivals[word] = measured[rep]

    breaks = sorted({v - 1 for v in ivals.values()})
    sizes = [1 + sum(1 for v in ivals.values() if v - 1 >= b) for b in breaks]
    multiset = _jump_multiset(breaks, sizes, p, "filtration")
    if len(multiset) != k:
        raise OracleMismatch(f"derived {len(multiset)} breaks, expected {k}")

    different_val = sum(ivals.values())
    hilbert = _hilbert_sum(p, multiset)
    return FiltrationReport(ivals, tuple(multiset), different_val, hilbert,
                            _uniformizer_exponents(gen_data.vtop, p**k))


def _hilbert_sum(p: int, multiset) -> int:
    """Hilbert's formula for the different exponent from the lower breaks:
    sum over i = 0..max(b) of p^#{b >= i} - 1.  The count is constant for i
    in (d', d], d' < d consecutive distinct breaks (d' = -1 below the
    first), so each run adds its length times one term.  Breaks are >= 0.
    """
    total, prev = 0, -1
    for d in sorted(set(multiset)):
        total += (d - prev) * (p ** sum(1 for b in multiset if b >= d) - 1)
        prev = d
    return total


# ---------------------------------------------------------------------------
# Scaffold rows
# ---------------------------------------------------------------------------


class ScaffoldRow(Record):
    index: int                # generator number, 1-based
    mu_vtop: int              # = b_i - b_top
    eps_gap: ExtRational      # v(eps) - v(mu); inf when eps = 0 exactly
    bound: ExtRational        # proof row bound (e0 terms are inf here)
    contribution: ExtRational  # gap - p^(2n) u_i + b_i
    holds: bool

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "mu_vtop": self.mu_vtop,
            "eps_gap": self.eps_gap.to_json(),
            "bound": self.bound.to_json(),
            "contribution": self.contribution.to_json(),
            "holds": self.holds,
        }


class ScaffoldReport(Record):
    x_vtop: int
    rows: tuple[ScaffoldRow, ...]
    min_contribution: ExtRational
    cfrak: ExtRational
    ok: bool

    def to_dict(self) -> dict:
        return {
            "x_vtop": self.x_vtop,
            "rows": [r.to_dict() for r in self.rows],
            "min_contribution": self.min_contribution.to_json(),
            "cfrak": self.cfrak.to_json(),
            "ok": self.ok,
        }


def default_window(params: TowerParams) -> int:
    """The scaffold stage's first series window for t_top^(-1): proportional
    to the largest ramification number in play."""
    u = params.u
    b_top = int(upper_to_lower(params.p, u)[-1])
    return max(64, 4 * max(u[-1], b_top))


def scaffold_row_check(tower: Tower, gen_data: GeneratorData,
                       gens: list[GaloisMap], window: int) -> ScaffoldReport:
    """Check the top-row scaffold bounds on X = t_top^(-1) Y, with t_top^(-1)
    taken to the series window ``window``.

    For each generator, (sigma_i - 1)X = mu_i + eps_i with
    mu_i = t_top^(-1) t_i; the gap v(eps) - v(mu) equals
    v_top(sigma_i(Y) - Y - t_i) - v_top(t_i), which is exact.  Rows whose
    only bound involves e0 are vacuous in characteristic p and must have
    eps = 0 exactly.  The minimum row contribution must dominate the
    planner precision.
    """
    p = tower.p
    n = tower.n
    k = tower.nvars
    plan_report = tower.plan_report
    u = plan_report.u
    b = plan_report.b
    btop = b[-1]
    pn2 = p ** (2 * n)

    t = gen_data.cofactors
    v0 = gen_data.v0_cofactors

    # X itself, through the tracked-precision inverse
    x_elem = gen_data.element * t[-1].inverse(window=window)
    x_vtop = elt_valuation_top(x_elem)
    if x_vtop != -btop:
        raise OracleMismatch(f"v_top(X) = {x_vtop}, expected {-btop}")

    rows = []
    contributions = []
    for i in range(1, k + 1):
        sigma = gens[i - 1]
        mu_vtop = p**k * (v0[i - 1] - v0[-1])
        if mu_vtop != b[i - 1] - btop:
            raise OracleMismatch(
                f"v_top(mu_{i}) = {mu_vtop} != b_{i} - b_top = {b[i - 1] - btop}")
        w = sigma.apply(gen_data.element) - gen_data.element - t[i - 1]
        if w.is_zero():
            gap = INF
        else:
            gap = ExtRational(elt_valuation_top(w) - p**k * v0[i - 1])

        if n < i <= 2 * n:
            bound = ExtRational(btop - b[i - 1] - pn2 * u[i - n - 1])
        elif i == 1 and tower.params.variant == "M":
            bound = ExtRational(btop - b[0] - (p - 1) * pn2 * u[0])
        else:
            bound = INF  # the only bound on this row carries an e0 term
        contribution = gap - pn2 * u[i - 1] + b[i - 1] if not gap.is_infinite else INF
        holds = gap >= bound
        rows.append(ScaffoldRow(i, mu_vtop, gap, bound, contribution, holds))
        contributions.append(contribution)

    min_contribution = min(contributions)
    cfrak = plan_report.cfrak
    ok = all(r.holds for r in rows) and min_contribution >= cfrak
    return ScaffoldReport(x_vtop, tuple(rows), min_contribution, cfrak, ok)


# ---------------------------------------------------------------------------
# Elementary layers
# ---------------------------------------------------------------------------


class LayerCheck(Record):
    index: int
    expected_break: int
    measured_break: int

    @property
    def ok(self) -> bool:
        return self.expected_break == self.measured_break

    def to_dict(self) -> dict:
        return {"index": self.index, "expected": self.expected_break,
                "measured": self.measured_break, "ok": self.ok}


class LayersReport(Record):
    layers: tuple[LayerCheck, ...]
    sub_upper_expected: tuple[int, ...]
    sub_upper_measured: tuple[int, ...]
    sub_lower_measured: tuple[int, ...]
    ok: bool

    def to_dict(self) -> dict:
        return {
            "degree_p_layers": [c.to_dict() for c in self.layers],
            "sub_upper_expected": list(self.sub_upper_expected),
            "sub_upper_measured": list(self.sub_upper_measured),
            "sub_lower_measured": list(self.sub_lower_measured),
            "ok": self.ok,
        }


def _cp_break(tower: Tower, i: int) -> int:
    """Measured ramification break of the degree-p algebra on alpha_i alone,
    from first definitions in a one-generator quotient algebra."""
    mini = TowerAlgebra(tower.field, 1)
    mini.set_relation(0, mini.from_series(tower.a[i - 1]))
    alpha = mini.gen(0)
    vtop = elt_valuation_top(alpha)
    sigma = GaloisMap(mini, [alpha + mini.one()])
    breaks = {_shift_valuation(s, alpha, vtop) - 1 for s in sigma.powers()[1:]}
    if len(breaks) != 1:
        raise OracleMismatch(f"degree-p layer {i} has inconsistent breaks {breaks}")
    return breaks.pop()


def verify_elementary_layers(tower: Tower, filtration: FiltrationReport) -> LayersReport:
    """Confirm the break of each degree-p layer K_0(alpha_i)/K_0 and the
    upper-number multiset of the elementary abelian floor K_(2n)/K_0.

    The floor multiset is read off the measured filtration through the
    quotient rule for upper numbering: the subgroup fixing the floor is
    factored out and the surviving jumps counted.

    That subgroup is {sigma_top^e : e < p}, the words of prefix 0.  The
    unit words :func:`enumerate_group` checked carry the proof, so no map is
    read here: sigma_i shifts alpha_j, j <= 2n, by 1 if i = j and by 0
    otherwise, and such shifts add under composition, since
    sigma(alpha_j + c) = sigma(alpha_j) + c for a constant c.  So the map of
    word w shifts alpha_j by e_j, and it fixes the floor exactly when the
    prefix of w is 0.  sigma_top adds 1 to alpha_top, so in characteristic
    p its order is p."""
    p = tower.p
    n = tower.n
    k = tower.nvars
    u = tower.plan_report.u
    layers = tuple(LayerCheck(i, u[i - 1], _cp_break(tower, i)) for i in range(1, 2 * n + 1))

    # m sigma_top^e moves only m's last exponent: m Fix is the words sharing m's prefix
    def coset_count(lower_value) -> int:
        return len({w[:-1] for w, v in filtration.ivals.items() if v - 1 >= lower_value}
                   | {(0,) * (k - 1)})

    # Herbrand's function is increasing: the i-th distinct lower and upper jumps match
    distinct_upper = sorted(set(lower_to_upper(p, filtration.lower_multiset)))
    sizes = [coset_count(b) for b in sorted(set(filtration.lower_multiset))]
    measured = _jump_multiset(distinct_upper, sizes, p, "quotient filtration")

    expected = tuple(sorted(u[:2 * n]))
    measured_t = tuple(int(x) for x in measured)
    lower_meas = tuple(int(x) for x in upper_to_lower(p, measured)) if measured else ()
    ok = all(c.ok for c in layers) and measured_t == expected
    return LayersReport(layers, expected, measured_t, lower_meas, ok)


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


class OracleReport(Record):
    params: TowerParams
    prec: int
    plan: PlanReport
    group: GroupReport
    generator: GeneratorData
    filtration: FiltrationReport
    scaffold: ScaffoldReport
    layers: LayersReport
    b_match: bool
    passed: bool

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "params": self.params.to_dict(),
            "prec": self.prec,
            "plan": self.plan.to_dict(),
            "group": self.group.to_dict(),
            "generator": self.generator.to_dict(),
            "filtration": self.filtration.to_dict(),
            "scaffold": self.scaffold.to_dict(),
            "layers": self.layers.to_dict(),
            "predicted_b": list(self.plan.b),
            "measured_b": list(self.filtration.lower_multiset),
            "b_match": self.b_match,
            "passed": self.passed,
        }


def verify_tower(params: TowerParams, prec: int | None = None) -> OracleReport:
    """Build the tower and run the whole verification battery.

    The exact stages run once; a group presentation that fails stops the
    verify with ConstructionError.  On a precision failure the scaffold
    stage's window (``prec``, default :func:`default_window`) is doubled and
    that stage retried, up to three attempts; the window that certified X is
    the report's ``prec``.
    """
    if prec is not None and prec < 1:
        raise ValueError(f"precision window prec = {prec} must be positive")
    window = prec if prec is not None else default_window(params)
    tower = build_tower(params)
    gens = galois_generators(tower)
    table = enumerate_group(tower, gens)
    group = group_structure(tower, gens, table)
    gen_data = construct_generator(tower)
    filtration = ramification_filtration(tower, gen_data, table)
    for attempt in range(3):
        try:
            scaffold = scaffold_row_check(tower, gen_data, gens, window)
            break
        except PrecisionError:
            if attempt == 2:
                raise
            window *= 2
    layers = verify_elementary_layers(tower, filtration)
    b_match = tuple(filtration.lower_multiset) == tuple(tower.plan_report.b)
    passed = b_match and filtration.consistent and scaffold.ok and layers.ok
    return OracleReport(params, window, tower.plan_report, group, gen_data,
                        filtration, scaffold, layers, b_match, passed)


def verify_family(variant: str, p: int, n: int, u: int, t: int,
                  q: int | None = None, prec: int | None = None) -> OracleReport:
    """Verify the standard family r = u, m = (0,...,0,t) over F_q((pi))."""
    return verify_tower(family_params(variant, p, n, u, t, INF, q), prec)
