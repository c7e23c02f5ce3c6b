"""End-to-end verification of built towers: the generator determinant and
its valuation, the measured ramification filtration, scaffold row bounds,
and the elementary-layer breaks, all compared against planner predictions.

Everything is computed by brute force in exact arithmetic over F_q((pi)):
the filtration from first definitions (valuations of sigma(pi_L) - pi_L
and their leading coefficients, Serre's theta, measured on the 2n + 1
generators; the group stage confirms the presentation of H(n) or M(n)
that fills every other element from them, or stops the verify), the
valuations through iterated norms.  Every element a verify values is
exact: the scaffold stage reads v_top(X) of X = t_top^(-1) Y from v_top(Y)
and v_0(t_top), and builds no X.
"""

from __future__ import annotations

from fractions import Fraction

from .artin_schreier import fp_rank
from .detval import frobenius_matrix, ring_det, ti_valuations
from .localfield import (GaloisMap, GroupReport, Tower, TowerAlgebra, TowerElement,
                         TowerParams, build_tower, elt_leading_term, elt_valuation_top,
                         enumerate_group, galois_generators, group_structure,
                         top_valuation)
from .planner import PlanReport, family_params
from .ramification import lower_to_upper, upper_to_lower
from .record import Record
from .valuation import INF, FFElem, LaurentSeries, extended_json


class OracleMismatch(RuntimeError):
    """A measured quantity disagrees with its predicted value."""


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
    makes the element a field generator: b_1 = u_1 = r + p^(2n) m_1, and
    TowerParams refuses p | r.
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


def _shift_valuation(delta: TowerElement, vtop: int) -> tuple[int, FFElem]:
    """i(sigma) = v_top((sigma - 1) pi_L) = 1 + v_top(delta) - vtop, for
    delta = sigma(Y) - Y and any uniformizer pi_L = Y^x pi^y (x vtop + y p^k
    = 1, p^k the degree of the algebra of Y), where vtop = v_top(Y); and
    theta, the leading coefficient of N_(L/K_0)(delta).

    (sigma - 1) pi_L = pi_L ((1 + delta/Y)^x - 1).  When v(delta) > v(Y),
    the binomial term x delta/Y dominates strictly (p never divides x, which
    is invertible mod p^k), for either sign of x; so the valuation is
    v(pi_L) + v(delta) - v(Y) = 1 + v(delta) - vtop >= 2.  The dominance
    always holds in a totally ramified p-extension: every sigma != 1 lies
    in G_1, so sigma(Y)/Y is a principal unit.  A measurement without it is
    an OracleMismatch, not a fallback.

    So sigma(pi_L)/pi_L - 1 and x delta/Y share their leading coefficient,
    which is Serre's theta(sigma) in U^m/U^(m+1) = F_q, m = i(sigma) - 1
    (Local Fields IV 2, Prop. 7).  The norm of an element c pi_L^v (1 + ...)
    has the leading coefficient c^(p^k) N(pi_L)^v, so among the sigma of one
    value i(sigma) the returned theta is s(theta(sigma)) for one F_p-linear
    bijection s of F_q.
    """
    if delta.is_zero():
        raise OracleMismatch("a nontrivial automorphism fixes the generator")
    v0, theta = elt_leading_term(delta)
    v_delta = top_valuation(v0, delta.algebra)
    if v_delta <= vtop:
        raise OracleMismatch(
            f"v_top(sigma(Y) - Y) = {v_delta} <= v_top(Y) = {vtop}: sigma is not in G_1")
    return 1 + v_delta - vtop, theta


class FiltrationReport(Record):
    p: int
    gen_ivals: tuple[int, ...]  # i(sigma_1), ..., i(sigma_2n), i(sigma_top)
    lower_multiset: tuple[int, ...]
    different_val: int
    uniformizer: tuple[int, int]

    @classmethod
    def from_generators(cls, p: int, gen_ivals: tuple[int, ...],
                        uniformizer: tuple[int, int]) -> "FiltrationReport":
        """The filtration that :meth:`to_dict` fills from the generator values:
        |G_b| = p^(1 + #{j : i(sigma_j) - 1 >= b}) for b < i(sigma_top), so
        the lower breaks are the i(sigma_j) - 1; a noncentral value above
        i(sigma_top) is an OracleMismatch.  The different, the sum of i(w)
        over w != 1, is Hilbert's sum over those breaks (_hilbert_sum)."""
        noncentral, top = gen_ivals[:-1], gen_ivals[-1]
        for j, i in enumerate(noncentral):
            if i > top:
                raise OracleMismatch(f"i(sigma_{j + 1}) = {i} > i(sigma_top) = {top}: "
                                     f"sigma_{j + 1} lies deeper than the center")
        lower = tuple(sorted(i - 1 for i in gen_ivals))
        return cls(p, gen_ivals, lower, _hilbert_sum(p, lower), uniformizer)

    def to_dict(self) -> dict:
        """``ivals`` is i(w), w != 1, keyed "e_1,...,e_k" in itertools.product
        order: the fill.  Prefix 0 takes i(sigma_top), any other the least
        i(sigma_j) over its e_j != 0; so each prefix is built one generator
        at a time, with its key head and value, and gives p words."""
        p, top = self.p, self.gen_ivals[-1]
        digits = [f"{e}," for e in range(p)]
        prefixes = [("", top)]
        for v in self.gen_ivals[:-1]:
            prefixes = [(head + d, i if d == "0," else min(i, v))
                        for head, i in prefixes for d in digits]
        ends = [str(e) for e in range(p)]
        ivals = {head + end: i for head, i in prefixes for end in ends}
        del ivals[prefixes[0][0] + "0"]  # the identity
        return {
            "ivals": ivals,
            "lower_multiset": list(self.lower_multiset),
            "different_val": self.different_val,
            "hilbert_sum": self.different_val,  # the different is Hilbert's sum
            "uniformizer": {"x": self.uniformizer[0], "y": self.uniformizer[1]},
            "consistent": True,  # so the two keys above agree
        }


def ramification_filtration(tower: Tower, gen_data: GeneratorData,
                            deltas: list[TowerElement]) -> FiltrationReport:
    """Find i(sigma) = v_L(sigma(pi_L) - pi_L) on the 2n + 1 generators from
    ``deltas``, their sigma(Y) - Y, and read the filtration from them
    (:meth:`FiltrationReport.from_generators`).

    The reported uniformizer is pi_L = Y^x pi^y with x vtop(Y) + y p^(2n+1)
    = 1 and |x| minimal; the filtration does not depend on this choice.

    The generators must generate a group whose presentation
    :func:`group_structure` confirmed as H(n) or M(n).  Only they are
    measured, each with its theta (:func:`_shift_valuation`); every word is
    filled from them (:meth:`FiltrationReport.to_dict`).  This is exact
    when, in each run of equal noncentral values below i(sigma_top), the
    thetas are F_p-independent; a dependent run is an OracleMismatch.
    - i(sigma) >= m + 1 exactly when sigma is in G_m, a normal subgroup.
      Every nontrivial normal subgroup of a p-group meets the center, and
      Z = <sigma_top> has order p, so every nontrivial G_m contains Z.  So
      no element goes deeper than sigma_top, the p - 1 central words, which
      generate Z, share i(sigma_top), and G_m/Z is a subspace of
      G/Z = F_p^(2n), the word prefix (e_1, ..., e_2n) as coordinates; in
      M(n), s_1^p is in Z.
    - A word w with a nonzero prefix lies in G_(m-1), m the least i(sigma_j)
      over its support, since every sigma_j there and Z do.  theta_(m-1):
      G_(m-1)/G_m -> F_q is an injective homomorphism (Serre, Local Fields
      IV 2, Prop. 7), so theta(w) is the sum of e_j theta(sigma_j) over the
      j of the run at value m; the other sigma_j and Z lie in G_m, or, for
      m = i(sigma_top), w can go no deeper.  With the run's thetas
      independent, theta(w) != 0: w is not in G_m, and i(w) = m.
    - The returned thetas are one F_p-linear bijection of the true ones
      within a run, so their F_p-rank (artin_schreier.fp_rank) is the
      run's.
    """
    p = tower.p
    k = tower.nvars
    measured = [_shift_valuation(delta, gen_data.vtop) for delta in deltas]
    gen_ivals = tuple(i for i, _ in measured)
    top = gen_ivals[-1]
    for m in sorted({i for i in gen_ivals[:-1] if i < top}):
        run = [j for j in range(k - 1) if gen_ivals[j] == m]
        rank = fp_rank(tower.field, [measured[j][1] for j in run])
        if rank < len(run):
            names = ", ".join(f"sigma_{j + 1}" for j in run)
            raise OracleMismatch(f"the thetas of {names} at i = {m} have F_p-rank {rank}: "
                                 "a combination lies deeper")
    return FiltrationReport.from_generators(p, gen_ivals,
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
    eps_gap: int | float      # v(eps) - v(mu); INF when eps = 0 exactly
    bound: int | float        # proof row bound (e0 terms are INF here)
    contribution: int | float  # gap - p^(2n) u_i + b_i
    holds: bool

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "mu_vtop": self.mu_vtop,
            "eps_gap": extended_json(self.eps_gap),
            "bound": extended_json(self.bound),
            "contribution": extended_json(self.contribution),
            "holds": self.holds,
        }


class ScaffoldReport(Record):
    x_vtop: int
    rows: tuple[ScaffoldRow, ...]
    min_contribution: int | float
    cfrak: int
    ok: bool

    def to_dict(self) -> dict:
        return {
            "x_vtop": self.x_vtop,
            "rows": [r.to_dict() for r in self.rows],
            "min_contribution": extended_json(self.min_contribution),
            "cfrak": extended_json(self.cfrak),
            "ok": self.ok,
        }


def default_window(params: TowerParams) -> int:
    """The report's ``prec`` when none is given: proportional to the largest
    ramification number in play.  No stage of a verify takes a window."""
    u = params.u
    b_top = int(upper_to_lower(params.p, u)[-1])
    return max(64, 4 * max(u[-1], b_top))


def scaffold_row_check(tower: Tower, gen_data: GeneratorData,
                       deltas: list[TowerElement]) -> ScaffoldReport:
    """Check the top-row scaffold bounds on X = t_top^(-1) Y, from the
    differences ``deltas``, sigma_i(Y) - Y for each generator.

    X is not built: the valuation is multiplicative and t_top lies in K_0,
    so v_top(X) = v_top(Y) - p^k v_0(t_top), both terms certified by
    construct_generator.  For each generator, (sigma_i - 1)X = mu_i + eps_i
    with mu_i = t_top^(-1) t_i; the gap v(eps) - v(mu) equals
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

    x_vtop = gen_data.vtop - p**k * v0[-1]
    if x_vtop != -btop:
        raise OracleMismatch(f"v_top(X) = {x_vtop}, expected {-btop}")

    rows = []
    contributions = []
    for i in range(1, k + 1):
        mu_vtop = p**k * (v0[i - 1] - v0[-1])
        if mu_vtop != b[i - 1] - btop:
            raise OracleMismatch(
                f"v_top(mu_{i}) = {mu_vtop} != b_{i} - b_top = {b[i - 1] - btop}")
        w = deltas[i - 1] - t[i - 1]
        if w.is_zero():
            gap = INF
        else:
            gap = elt_valuation_top(w) - p**k * v0[i - 1]

        if n < i <= 2 * n:
            bound = btop - b[i - 1] - pn2 * u[i - n - 1]
        elif i == 1 and tower.params.variant == "M":
            bound = btop - b[0] - (p - 1) * pn2 * u[0]
        else:
            bound = INF  # the only bound on this row carries an e0 term
        contribution = gap - pn2 * u[i - 1] + b[i - 1]
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
    sub_upper_measured: tuple[Fraction, ...]  # exact: a non-integral jump fails
    sub_lower_measured: tuple[int, ...]
    ok: bool

    def to_dict(self) -> dict:
        return {
            "degree_p_layers": [c.to_dict() for c in self.layers],
            "sub_upper_expected": list(self.sub_upper_expected),
            "sub_upper_measured": [extended_json(x) for x in self.sub_upper_measured],
            "sub_lower_measured": list(self.sub_lower_measured),
            "ok": self.ok,
        }


def _cp_break(tower: Tower, i: int) -> int:
    """Measured ramification break of the degree-p algebra on alpha_i alone,
    from first definitions in a one-generator quotient algebra, measured
    once, on sigma: alpha -> alpha + 1.  Each power sigma^j moves alpha by
    the constant j, so every power has the same break."""
    mini = TowerAlgebra(tower.field, 1)
    mini.set_relation(0, mini.from_series(tower.a[i - 1]))
    alpha = mini.gen(0)
    sigma = GaloisMap(mini, [alpha + mini.one()])
    return _shift_valuation(sigma.apply(alpha) - alpha, elt_valuation_top(alpha))[0] - 1


def verify_elementary_layers(tower: Tower, filtration: FiltrationReport) -> LayersReport:
    """Confirm the break of each degree-p layer K_0(alpha_i)/K_0 and the
    upper-number multiset of the elementary abelian floor K_(2n)/K_0.

    The floor multiset is read off the measured filtration through the
    quotient rule for upper numbering: the floor's group is G/Z, Z the
    subgroup fixing the floor, and its upper filtration is G^v Z/Z.

    Z is {sigma_top^e : e < p}, the words of prefix 0.  The unit words
    :func:`enumerate_group` checked carry the proof, so no map is read
    here: sigma_i shifts alpha_j, j <= 2n, by 1 if i = j and by 0
    otherwise, and such shifts add under composition, since
    sigma(alpha_j + c) = sigma(alpha_j) + c for a constant c.  So the map of
    word w shifts alpha_j by e_j, and it fixes the floor exactly when the
    prefix of w is 0.  sigma_top adds 1 to alpha_top, so in characteristic
    p its order is p.

    G^v = G_b, b = psi(v), and by the fill (:meth:`FiltrationReport.to_dict`)
    G_b Z/Z is spanned by the sigma_j, j <= 2n, with i(sigma_j) - 1 >= b.
    So the floor's upper jumps are the phi(i(sigma_j) - 1), j <= 2n: the
    upper numbers of the lower multiset but the last, phi(i(sigma_top) - 1),
    as phi is increasing, and the floor's lower numbers are that multiset
    but the last, as lower_to_upper converts prefix by prefix.  The jumps
    are compared with u exactly: a non-integral one fails the check."""
    p = tower.p
    n = tower.n
    u = tower.plan_report.u
    layers = tuple(LayerCheck(i, u[i - 1], _cp_break(tower, i)) for i in range(1, 2 * n + 1))
    measured = lower_to_upper(p, filtration.lower_multiset)[:-1]
    expected = tuple(sorted(u[:2 * n]))
    ok = all(c.ok for c in layers) and measured == expected
    return LayersReport(layers, expected, measured, filtration.lower_multiset[:-1], ok)


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

    Every stage runs once on exact elements; a group presentation that
    fails stops the verify with ConstructionError.  No stage takes a
    window: ``prec`` is only checked and echoed into the report, which
    reads :func:`default_window` when it is None.
    """
    if prec is None:
        prec = default_window(params)
    elif prec < 1:
        raise ValueError(f"precision window prec = {prec} must be positive")
    tower = build_tower(params)
    gens = galois_generators(tower)
    walks = enumerate_group(tower, gens)
    group = group_structure(tower, gens, walks)
    gen_data = construct_generator(tower)
    deltas = [sigma.apply(gen_data.element) - gen_data.element for sigma in gens]
    filtration = ramification_filtration(tower, gen_data, deltas)
    scaffold = scaffold_row_check(tower, gen_data, deltas)
    layers = verify_elementary_layers(tower, filtration)
    b_match = tuple(filtration.lower_multiset) == tuple(tower.plan_report.b)
    passed = b_match and scaffold.ok and layers.ok
    return OracleReport(params, prec, tower.plan_report, group, gen_data,
                        filtration, scaffold, layers, b_match, passed)


def verify_family(variant: str, p: int, n: int, u: int, t: int,
                  q: int | None = None, prec: int | None = None) -> OracleReport:
    """Verify the standard family r = u, m = (0,...,0,t) over F_q((pi))."""
    return verify_tower(family_params(variant, p, n, u, t, INF, q), prec)
