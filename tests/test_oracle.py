import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extraspecial import (INF, ConstructionError, GaloisMap, LaurentSeries, OracleMismatch,
                          PrecisionError, TowerAlgebra, TowerElement, TowerParams,
                          build_tower, construct_generator, default_leads, default_window,
                          elt_valuation, elt_valuation_top, enumerate_group,
                          galois_generators, group_structure, lower_to_upper,
                          ramification_filtration, residue_field, ring_det,
                          scaffold_row_check, verify_elementary_layers,
                          verify_family, verify_tower)
from extraspecial import localfield
from extraspecial.detval import _twist_valuation, frobenius_matrix
from extraspecial.oracle import (FiltrationReport, _cp_break, _cyclic_class, _hilbert_sum,
                                 _jump_multiset, _shift_valuation, _uniformizer_exponents)
from extraspecial.planner import family_params, plan
from conftest import random_elem
from test_localfield import (TIER1_TOWERS, as_other_variant, eager_products, exact_chain,
                             make_tower, map_key, valuation_outcome)


@pytest.fixture(scope="module")
def h_setup():
    tower = make_tower("H")
    gens = galois_generators(tower)
    table = enumerate_group(tower, gens)
    group_structure(tower, gens, table)
    gen_data = construct_generator(tower)
    filtration = ramification_filtration(tower, gen_data, table)
    return tower, gens, table, gen_data, filtration


@pytest.fixture(scope="module")
def m_setup():
    tower = make_tower("M")
    gens = galois_generators(tower)
    table = enumerate_group(tower, gens)
    group_structure(tower, gens, table)
    gen_data = construct_generator(tower)
    filtration = ramification_filtration(tower, gen_data, table)
    return tower, gens, table, gen_data, filtration


class TestGenerator:
    def test_cofactor_valuations(self, h_setup):
        _, _, _, gen_data, _ = h_setup
        assert gen_data.v0_cofactors == (-3, -3, 0)

    def test_generator_valuation(self, h_setup):
        _, _, _, gen_data, _ = h_setup
        assert gen_data.vtop == -82
        assert gen_data.vtop == gen_data.vtop_predicted

    def test_valuation_congruent_to_minus_b1(self, h_setup):
        tower, _, _, gen_data, _ = h_setup
        b1 = tower.plan_report.b[0]
        assert (gen_data.vtop + b1) % 27 == 0

    def test_top_cofactor_is_twist_minor(self, h_setup):
        tower, _, _, gen_data, _ = h_setup
        # t_top is the 2x2 twist determinant on the unit rows omega_1, omega_2
        betas = list(tower.omegas[:2])
        assert ring_det(frobenius_matrix(betas)).valuation() == \
            _twist_valuation(3, [-b.valuation() for b in betas]) == 0
        assert gen_data.cofactors[2].valuation() == 0

    def test_m_variant_same_valuation(self, m_setup):
        _, _, _, gen_data, _ = m_setup
        assert gen_data.vtop == -82

    @pytest.mark.parametrize("variant", ["H", "M"])
    def test_cofactors_are_signed_twist_minors(self, variant, h_setup, m_setup):
        # reference: one ring_det per minor of the omega twist matrix with
        # row i removed, signed (-1)^i, and Y summed as alpha_i t_i
        tower, _, _, gen_data, _ = h_setup if variant == "H" else m_setup
        k = tower.nvars
        twist = [row[:k - 1] for row in frobenius_matrix(list(tower.omegas))]
        y = tower.algebra.zero()
        for i in range(k):
            det = ring_det([row for r, row in enumerate(twist) if r != i])
            t = det if i % 2 == 0 else -det
            assert gen_data.cofactors[i] == t
            y = y + tower.alpha(i + 1) * t
        assert gen_data.element == y


class TestFiltration:
    def test_uniformizer_exponents(self):
        x, y = _uniformizer_exponents(-82, 27)
        assert x * (-82) + y * 27 == 1
        assert (x, y) == (-1, -3)

    def test_lower_multiset(self, h_setup):
        _, _, _, _, filtration = h_setup
        assert filtration.lower_multiset == (1, 1, 82)

    def test_shift_value_distribution(self, h_setup):
        _, _, _, _, filtration = h_setup
        counts = {}
        for v in filtration.ivals.values():
            counts[v] = counts.get(v, 0) + 1
        assert counts == {2: 24, 83: 2}

    def test_central_elements_have_big_shift(self, h_setup):
        _, _, _, _, filtration = h_setup
        assert filtration.ivals[(0, 0, 1)] == 83
        assert filtration.ivals[(0, 0, 2)] == 83

    def test_identity_excluded_and_wild(self, h_setup):
        _, _, _, _, filtration = h_setup
        assert (0, 0, 0) not in filtration.ivals
        assert len(filtration.ivals) == 26
        assert all(v > 1 for v in filtration.ivals.values())

    def test_different_cross_check(self, h_setup):
        _, _, _, _, filtration = h_setup
        assert filtration.different_val == 214
        assert filtration.hilbert_sum == 214
        assert filtration.consistent

    def test_breaks_reconstruct_shift_values(self, h_setup):
        _, _, _, _, filtration = h_setup
        multiset = set(filtration.lower_multiset)
        for word, v in filtration.ivals.items():
            assert v - 1 in multiset

    def test_m_variant_multiset(self, m_setup):
        tower, _, _, _, filtration = m_setup
        assert filtration.lower_multiset == tuple(tower.plan_report.b)

    def test_shift_shortcut_matches_explicit_powers(self, h_setup):
        # the dominance shortcut must agree with literally expanding
        # sigma(Y)^x - Y^x; x = -1 here so the expansion is cheap
        tower, _, table, gen_data, filtration = h_setup
        pk = 27
        x, y = _uniformizer_exponents(gen_data.vtop, pk)
        assert x == -1
        for word in table.words[1:]:
            sy = table[word].apply(gen_data.element)
            direct = y * pk + elt_valuation_top(gen_data.element - sy) \
                - 2 * gen_data.vtop
            assert filtration.ivals[word] == direct


def full_filtration(tower, gen_data, table) -> FiltrationReport:
    """Reference: the per-element loop the class shortcut replaced, which
    measures i(sigma) on every nontrivial element."""
    p = tower.p
    k = tower.nvars
    x, y = _uniformizer_exponents(gen_data.vtop, p**k)
    ivals = {}
    for word in table.words[1:]:
        ivals[word] = _shift_valuation(table[word], gen_data.element, gen_data.vtop)
        assert ivals[word] >= 2

    breaks = sorted({v - 1 for v in ivals.values()})
    sizes = [1 + sum(1 for v in ivals.values() if v - 1 >= b) for b in breaks]
    multiset = _jump_multiset(breaks, sizes, p, "filtration")
    if len(multiset) != k:
        raise OracleMismatch(f"derived {len(multiset)} breaks, expected {k}")
    hilbert = loop_hilbert_sum(p, multiset)
    return FiltrationReport(ivals, tuple(multiset), sum(ivals.values()), hilbert, (x, y))


def loop_hilbert_sum(p, multiset) -> int:
    """Reference: the loop over every i = 0..max(b) that _hilbert_sum's
    run-by-run sum replaced."""
    hilbert = 0
    for i in range(0, max(multiset) + 1):
        hilbert += p ** sum(1 for b in multiset if b >= i) - 1
    return hilbert


LADDER = [(v, p, n) for p, n in [(3, 1), (3, 2), (5, 1), (7, 1), (5, 2)] for v in "HM"]


class TestHilbertSum:
    @pytest.mark.parametrize("variant, p, n", LADDER)
    def test_matches_the_loop_on_the_ladder(self, variant, p, n):
        lower = plan(family_params(variant, p, n, 1, 1, INF, None)).b
        assert _hilbert_sum(p, lower) == loop_hilbert_sum(p, lower)

    @given(st.sampled_from([3, 5, 7]),
           st.lists(st.integers(0, 300), min_size=1, max_size=7).map(sorted))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_loop(self, p, lower):
        assert _hilbert_sum(p, lower) == loop_hilbert_sum(p, lower)


def _staged(params):
    tower = build_tower(params)
    gens = galois_generators(tower)
    table = enumerate_group(tower, gens)
    group_structure(tower, gens, table)
    return tower, table, construct_generator(tower)


def _count_measurements(monkeypatch, run) -> tuple:
    """run() and the number of _shift_valuation calls it made."""
    import extraspecial.oracle as oracle_mod
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _shift_valuation(*args)

    monkeypatch.setattr(oracle_mod, "_shift_valuation", counted)
    report = run()
    return report, calls


# the standard towers, and m = (0, 1, 2), whose noncentral classes have two values
CLASS_TOWERS = [family_params(v, p, n, 1, 1, INF, None)
                for p, n in [(3, 1), (3, 2), (5, 1), (7, 1)] for v in "HM"]
CLASS_TOWERS += [family_params("H", 3, 3, 1, 1, INF, None),
                 CLASS_TOWERS[0].replace(m=(0, 1, 2))]


def _tower_id(params) -> str:
    return f"{params.variant}-{params.p}-{params.n}-m{''.join(map(str, params.m))}"


class TestCyclicClasses:
    """The filtration measures one element per class of cyclic subgroups of
    the group whose presentation group_structure confirmed."""

    @pytest.fixture(scope="class", params=CLASS_TOWERS, ids=_tower_id)
    def staged(self, request):
        return _staged(request.param)

    def test_matches_full_filtration(self, staged, monkeypatch):
        tower, table, gen_data = staged
        p, n = tower.p, tower.n
        shortcut, calls = _count_measurements(
            monkeypatch, lambda: ramification_filtration(tower, gen_data, table))
        assert calls == (p**(2 * n) - 1) // (p - 1) + 1
        assert shortcut == full_filtration(tower, gen_data, table)
        # on m = (0, 1, 2) the noncentral words take two values, so a class
        # map that merged noncentral classes would show there
        noncentral = {v for w, v in shortcut.ivals.items() if any(w[:-1])}
        assert len(noncentral) == (2 if tower.params.m == (0, 1, 2) else 1)

    @staticmethod
    def _tables(monkeypatch) -> list:
        """The group tables verify_tower builds, in order."""
        import extraspecial.oracle as oracle_mod
        tables = []
        real = oracle_mod.enumerate_group
        monkeypatch.setattr(oracle_mod, "enumerate_group",
                            lambda *args: tables.append(real(*args)) or tables[-1])
        return tables

    @pytest.mark.parametrize("params", CLASS_TOWERS[:8], ids=_tower_id)
    def test_confirmed_verify_builds_the_class_representatives(self, params, monkeypatch):
        tables = self._tables(monkeypatch)
        assert verify_tower(params).passed
        (table,) = tables
        p, k = params.p, 2 * params.n + 1
        reps = {_cyclic_class(w, p) for w in table.words[1:]}
        assert len(reps) == (p**(k - 1) - 1) // (p - 1) + 1
        assert set(table.built) == reps | {table.words[0]}

    @pytest.mark.parametrize("params", CLASS_TOWERS[:8], ids=_tower_id)
    def test_failed_presentation_stops_verify(self, params, monkeypatch):
        # a tower read against the other variant's presentation: verify_tower
        # raises before the filtration measures a class or builds a product
        import extraspecial.oracle as oracle_mod
        tables = self._tables(monkeypatch)
        real = oracle_mod.group_structure

        def read_as_other(tower, gens, table):
            return real(as_other_variant(tower), gens, table)

        measured = []
        monkeypatch.setattr(oracle_mod, "group_structure", read_as_other)
        monkeypatch.setattr(oracle_mod, "_shift_valuation", lambda *args: measured.append(args))
        with pytest.raises(ConstructionError, match="^the order of sigma_1 is "):
            verify_tower(params)
        assert measured == []
        (table,) = tables
        k = 2 * params.n + 1
        assert set(table.built) == {tuple(int(i == j) for j in range(k))
                                    for i in range(-1, k - 1)}

    def test_class_representatives(self):
        assert _cyclic_class((2, 4, 3), 5) == (1, 2, 0)
        assert _cyclic_class((0, 3, 1, 4, 2), 5) == (0, 1, 2, 3, 0)
        assert _cyclic_class((0, 0, 3), 5) == (0, 0, 1)
        assert _cyclic_class((0, 0, 0, 0, 1), 3) == (0, 0, 0, 0, 1)
        # each class holds the p - 1 multiples of a prefix, with any last entry
        p, k = 3, 5
        words = [w for w in itertools.product(range(p), repeat=k) if any(w)]
        classes = {}
        for w in words:
            classes.setdefault(_cyclic_class(w, p), []).append(w)
        assert len(classes) == (p**(k - 1) - 1) // (p - 1) + 1
        assert len(classes[(0,) * (k - 1) + (1,)]) == p - 1
        assert all(len(ws) == (p - 1) * p for rep, ws in classes.items() if any(rep[:-1]))


class TestScaffold:
    def test_h_rows(self, h_setup):
        tower, gens, _, gen_data, _ = h_setup
        rep = scaffold_row_check(tower, gen_data, gens, default_window(tower.params))
        assert rep.x_vtop == -82
        assert rep.ok
        by_index = {r.index: r for r in rep.rows}
        # row sigma_2: gap = b3 - b2 - p^2 u_1 = 72, met with equality
        assert by_index[2].eps_gap == 72
        assert by_index[2].bound == 72
        # rows whose bound carries only the e0 term are exactly zero here
        assert by_index[1].eps_gap.is_infinite
        assert by_index[3].eps_gap.is_infinite
        assert rep.min_contribution == 64
        assert rep.cfrak == 64

    def test_m_rows(self, m_setup):
        tower, gens, _, gen_data, _ = m_setup
        rep = scaffold_row_check(tower, gen_data, gens, default_window(tower.params))
        assert rep.ok
        by_index = {r.index: r for r in rep.rows}
        # sigma_1 row: gap = b3 - b1 - (p-1) p^2 u_1 = 82 - 1 - 18 = 63
        assert by_index[1].eps_gap == 63
        assert by_index[1].bound == 63
        assert rep.min_contribution == 55
        assert rep.cfrak == 55

    def test_mu_valuations_are_break_differences(self, h_setup):
        tower, gens, _, gen_data, _ = h_setup
        rep = scaffold_row_check(tower, gen_data, gens, default_window(tower.params))
        b = tower.plan_report.b
        for row in rep.rows:
            assert row.mu_vtop == b[row.index - 1] - b[-1]


class TestElementaryLayers:
    def test_h_layers(self, h_setup):
        tower, _, _, _, filtration = h_setup
        rep = verify_elementary_layers(tower, filtration)
        assert rep.ok
        assert [c.measured_break for c in rep.layers] == [1, 1]
        assert rep.sub_upper_measured == (1, 1)
        assert rep.sub_lower_measured == (1, 1)

    def test_m_layers(self, m_setup):
        tower, _, _, _, filtration = m_setup
        rep = verify_elementary_layers(tower, filtration)
        assert rep.ok

    def test_coset_counts_match_composition(self):
        # reference: count the cosets m Fix of each G_b by composing every
        # m with the floor-fixing subgroup Fix, as the maps themselves
        for variant, p, m in [("H", 3, (0, 0, 1)), ("M", 3, (0, 0, 1)),
                              ("H", 5, (0, 0, 1)), ("H", 3, (0, 1, 2))]:
            field = residue_field(p, 2)
            params = TowerParams(p=p, n=1, variant=variant, e0=INF, r=1, m=m,
                                 leads=default_leads(field, 1), field=field)
            tower = build_tower(params)
            gens = galois_generators(tower)
            table = enumerate_group(tower, gens)
            group_structure(tower, gens, table)
            filtration = ramification_filtration(tower, construct_generator(tower), table)
            fixing = [g for g in map(table.__getitem__, table.words)
                      if all(g.images[j] == g.algebra.gen(j) for j in range(2))]
            sizes = []
            for b in sorted(set(filtration.lower_multiset)):
                group = [table[w] for w, v in filtration.ivals.items() if v - 1 >= b]
                group.append(GaloisMap.identity(tower.algebra))
                sizes.append(len({frozenset(map_key(g.compose(h)) for h in fixing)
                                  for g in group}))
            upper = sorted(set(lower_to_upper(p, filtration.lower_multiset)))
            composed = tuple(int(x) for x in _jump_multiset(upper, sizes, p, "reference"))
            rep = verify_elementary_layers(tower, filtration)
            assert rep.sub_upper_measured == composed == tuple(sorted(tower.plan_report.u[:2]))

    def test_layer_stages_reuse_the_table(self, m_setup, monkeypatch):
        # group_structure reads the power walks enumerate_group kept, and the
        # coset counts compose no map of the tower (only _cp_break walks its
        # own one-generator algebra)
        tower, gens, table, _, filtration = m_setup
        calls = {"compose": 0, "powers": 0}
        compose, powers = GaloisMap.compose, GaloisMap.powers

        def counting_compose(self, other):
            calls["compose"] += self.algebra is tower.algebra
            return compose(self, other)

        def counting_powers(self):
            calls["powers"] += 1
            return powers(self)

        monkeypatch.setattr(GaloisMap, "compose", counting_compose)
        monkeypatch.setattr(GaloisMap, "powers", counting_powers)
        assert verify_elementary_layers(tower, filtration).ok
        assert calls["compose"] == 0
        calls["powers"] = 0
        group_structure(tower, gens, table)
        assert calls["powers"] == 0
        # enumerate_group: one walk per generator, and one product for each
        # unit word sigma_1..sigma_2n its check reads; closure is proved by
        # the presentation, not composed, and no other product is built
        calls["compose"] = 0
        rebuilt = enumerate_group(tower, gens)
        walks = sum(len(pw) - 1 for pw in rebuilt.powers)
        assert calls["compose"] == walks + tower.nvars - 1
        assert len(rebuilt.built) == tower.nvars

    @pytest.mark.parametrize("variant, p, n", TIER1_TOWERS)
    def test_floor_fixing_set_from_every_image(self, variant, p, n):
        # reference for the unit-word proof verify_elementary_layers relies on:
        # the words whose maps fix alpha_1..alpha_2n, read from the images of
        # every product, are the p powers of sigma_top
        tower = make_tower(variant, p, n)
        gens = galois_generators(tower)
        k = tower.nvars
        eager = eager_products(tower, enumerate_group(tower, gens).powers)
        fixing = {w for w, m in eager.items()
                  if all(m.images[j] == m.algebra.gen(j) for j in range(k - 1))}
        assert fixing == {(0,) * (k - 1) + (e,) for e in range(p)}

    def test_layer_break_is_read_from_the_algebra(self, h_setup):
        # alpha^3 - alpha = pi^-2 has break 2, whatever the plan says
        tower = h_setup[0]
        assert tower.plan_report.u[0] == 1
        steeper = LaurentSeries.monomial(tower.field, 1, -2)
        changed = tower.replace(a=(steeper,) + tower.a[1:])
        assert _cp_break(tower, 1) == 1
        assert _cp_break(changed, 1) == 2

    def test_shift_valuation_refuses_sigma_outside_g1(self):
        # alpha^3 - alpha = 1 is unramified over F_9((pi)): sigma(alpha) - alpha
        # = 1 has the valuation of alpha, so no break can be measured
        field = residue_field(3, 2)
        algebra = TowerAlgebra(field, 1)
        algebra.set_relation(0, algebra.one())
        alpha = algebra.gen(0)
        sigma = GaloisMap(algebra, [alpha + algebra.one()])
        assert elt_valuation_top(alpha) == 0
        with pytest.raises(OracleMismatch, match="not in G_1"):
            _shift_valuation(sigma, alpha, 0)


class TestVerifyFamily:
    def test_h_full_run(self):
        rep = verify_family("H", 3, 1, 1, 1)
        assert rep.passed
        assert rep.b_match
        assert rep.to_dict()["group"]["matches_expected"] is True

    def test_m_full_run(self):
        rep = verify_family("M", 3, 1, 1, 1)
        assert rep.passed
        assert rep.group.gen_orders[0] == 9
        assert rep.group.metacyclic_w in (1, 2)

    @pytest.mark.parametrize("variant", ["H", "M"])
    def test_wider_field(self, variant):
        # same tower over F_27: cardinality above the minimum is fine, and
        # the generators still shift by constants of F_3
        rep = verify_family(variant, 3, 1, 1, 1, q=27)
        assert rep.passed
        tower = build_tower(family_params(variant, 3, 1, 1, 1, INF, 27))
        assert tower.field.q == 27
        gens = galois_generators(tower)
        table = enumerate_group(tower, gens)
        assert [table.word_of(g) for g in gens] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_second_family_member(self):
        # u = 2, t = 1: u = (2, 2, 11), b = (2, 2, 83)
        rep = verify_family("H", 3, 1, 2, 1)
        assert rep.passed
        assert rep.filtration.lower_multiset == (2, 2, 83)

    def test_report_dict_shape(self):
        d = verify_family("H", 3, 1, 1, 1).to_dict()
        assert d["schema"] == 1
        assert d["passed"] is True
        assert d["predicted_b"] == [1, 1, 82]
        assert d["measured_b"] == [1, 1, 82]

    def test_n2_h_tower(self):
        # degree 3^5 over F_81: commuting pairs (1,3) and (2,4) hit the center
        rep = verify_family("H", 3, 2, 1, 1)
        assert rep.passed
        assert rep.group.order == 243
        assert rep.filtration.lower_multiset == (1, 1, 1, 1, 6562)
        assert rep.group.commutator_words[(1, 3)] == (0, 0, 0, 0, 1)
        assert rep.group.commutator_words[(2, 4)] == (0, 0, 0, 0, 1)
        assert rep.group.commutator_words[(1, 2)] == (0, 0, 0, 0, 0)

    @pytest.mark.parametrize("variant, p, n", [("H", 3, 3), ("M", 3, 3), ("H", 5, 2),
                                               ("M", 5, 2)])
    def test_large_tower_closed_forms(self, variant, p, n):
        # orders 3^7 over F_729 (residue degree 6) and 5^5 over F_625; the
        # closed forms of u = t = 1 are those of bench/bench_gate.py:
        # b = (1, ..., 1, p^(4n) + 1) and the Hilbert sum of the different
        rep = verify_family(variant, p, n, 1, 1)
        assert rep.passed
        assert rep.group.order == p**(2 * n + 1)
        lower = [1] * (2 * n) + [p**(4 * n) + 1]
        assert list(rep.filtration.lower_multiset) == lower
        assert rep.filtration.different_val == rep.filtration.hilbert_sum \
            == loop_hilbert_sum(p, lower)

    def test_n2_m_tower(self):
        rep = verify_family("M", 3, 2, 1, 1)
        assert rep.passed
        assert rep.group.gen_orders == (9, 3, 3, 3, 3)
        assert rep.group.metacyclic_w == 1


# (p, n, residue degree d): the least field p^(2n) of each (p, n), and wider
# fields at n = 1
SWEEP_FIELDS = [(3, 1, 2), (3, 1, 3), (5, 1, 2), (5, 1, 3), (7, 1, 2), (7, 1, 3), (3, 2, 4)]
SWEEP_SEED, SWEEP_COUNT = 13, 120


def sweep_draws(seed: int, count: int):
    """``count`` seeded TowerParams over SWEEP_FIELDS, both variants, random
    r < 3p prime to p, m and leads; the planner decides which are certified.
    m is k sorted draws from {0, 0, 1, 2}, at every (p, n); when m_top comes
    out 0 it is drawn again from {1, 2}: without that redraw no H(3, 2)
    draw of the test's seed is certified.  Nonzero floor exponents
    m_1..m_2n at p = 7 or n = 2 need no exact norm chain
    (``test_certified_tower_needs_no_exact_fallback``)."""
    rng = random.Random(seed)
    for _ in range(count):
        p, n, d = rng.choice(SWEEP_FIELDS)
        field = residue_field(p, d)
        k = 2 * n + 1
        r = rng.choice([x for x in range(1, 3 * p) if x % p])
        m = sorted(rng.choice([0, 0, 1, 2]) for _ in range(k))
        if m[-1] == 0:
            m[-1] = rng.choice([1, 2])
        m = tuple(m)
        leads = tuple(random_elem(field, rng, nonzero=True) for _ in range(k))
        yield TowerParams(p=p, n=n, variant=rng.choice("HM"), e0=INF, r=r, m=m,
                          leads=leads, field=field)


class ExactChainFallback(Exception):
    """Raised in place of the exact norm chain that ends elt_valuation."""


class TestGeneralParameters:
    def test_three_distinct_breaks(self):
        # m = (0, 1, 2) gives u = (1, 10, 19), b = (1, 28, 109): the floor
        # multiset {1, 10} -> {1, 28} exercises the quotient filtration on
        # more than one jump
        import extraspecial as xs
        field = xs.residue_field(3, 2)
        params = xs.TowerParams(p=3, n=1, variant="H", e0=xs.INF, r=1, m=(0, 1, 2),
                                leads=xs.default_leads(field, 1), field=field)
        rep = xs.verify_tower(params)
        assert rep.plan.b == (1, 28, 109)
        assert rep.filtration.lower_multiset == (1, 28, 109)
        assert rep.layers.sub_upper_measured == (1, 10)
        assert rep.layers.sub_lower_measured == (1, 28)
        assert [c.measured_break for c in rep.layers.layers] == [1, 10]
        assert rep.passed

    def test_random_certified_instances(self):
        # every certified parameter set the seeded sweep draws must verify end
        # to end, over every (p, n) and residue field it draws from
        seen = set()
        for params in sweep_draws(SWEEP_SEED, SWEEP_COUNT):
            if not plan(params).certified:
                continue
            assert verify_tower(params).passed, params
            seen.add((params.variant, params.p, params.n, params.field.q))
        assert seen == {(v, p, n, p**d) for v in "HM" for p, n, d in SWEEP_FIELDS}

    @pytest.mark.parametrize("p, n, d, r, m", [(3, 2, 4, 2, (0, 0, 1, 1, 2)),
                                               (7, 1, 2, 3, (0, 1, 2))])
    def test_certified_tower_needs_no_exact_fallback(self, monkeypatch, p, n, d, r, m):
        # certified H towers with nonzero floor exponents, whose generator
        # stage (3,2) and scaffold stage (7,1) need more than three capped
        # tries; the exact chain would take minutes there, so the patched
        # fallback raises at once instead of running it
        real = localfield._norm_valuation

        def capped_only(x, w):
            if w is None:
                raise ExactChainFallback
            return real(x, w)

        monkeypatch.setattr(localfield, "_norm_valuation", capped_only)
        field = residue_field(p, d)
        params = TowerParams(p=p, n=n, variant="H", e0=INF, r=r, m=m,
                             leads=default_leads(field, n), field=field)
        assert plan(params).certified
        assert verify_tower(params).passed


class TestPrecisionRetry:
    """Only the scaffold stage takes a window: a precision failure retries
    that stage with a doubled window and never rebuilds the exact stages."""

    @staticmethod
    def _count_stages(monkeypatch, oracle_mod):
        runs = {}
        for name in ("build_tower", "enumerate_group", "construct_generator"):
            real = getattr(oracle_mod, name)

            def counted(*args, _real=real, _name=name):
                runs[_name] = runs.get(_name, 0) + 1
                return _real(*args)

            monkeypatch.setattr(oracle_mod, name, counted)
        return runs

    def test_verify_tower_doubles_on_precision_failure(self, monkeypatch):
        import extraspecial.oracle as oracle_mod
        from extraspecial import PrecisionError
        runs = self._count_stages(monkeypatch, oracle_mod)
        windows = []
        real = oracle_mod.scaffold_row_check

        def flaky(tower, gen_data, gens, window):
            windows.append(window)
            if len(windows) < 3:
                raise PrecisionError("forced")
            return real(tower, gen_data, gens, window)

        monkeypatch.setattr(oracle_mod, "scaffold_row_check", flaky)
        rep = oracle_mod.verify_family("H", 3, 1, 1, 1, prec=100)
        assert rep.passed
        assert windows == [100, 200, 400]
        assert rep.prec == 400
        assert runs == {"build_tower": 1, "enumerate_group": 1, "construct_generator": 1}

    def test_window_one_retries_on_real_arithmetic(self, monkeypatch):
        # no forced failure: window 1 cannot certify v_top(X), window 2 can
        import extraspecial.oracle as oracle_mod
        runs = self._count_stages(monkeypatch, oracle_mod)
        windows = []
        real = oracle_mod.scaffold_row_check

        def spy(tower, gen_data, gens, window):
            windows.append(window)
            return real(tower, gen_data, gens, window)

        monkeypatch.setattr(oracle_mod, "scaffold_row_check", spy)
        rep = oracle_mod.verify_family("H", 3, 1, 1, 1, prec=1)
        assert rep.passed
        assert windows == [1, 2]
        assert rep.prec == 2
        assert runs == {"build_tower": 1, "enumerate_group": 1, "construct_generator": 1}

    def test_verify_tower_gives_up_after_three(self, monkeypatch):
        import extraspecial.oracle as oracle_mod
        from extraspecial import PrecisionError
        runs = self._count_stages(monkeypatch, oracle_mod)
        errors = []

        def always_fail(tower, gen_data, gens, window):
            errors.append(PrecisionError(f"forced at {window}"))
            raise errors[-1]

        monkeypatch.setattr(oracle_mod, "scaffold_row_check", always_fail)
        with pytest.raises(PrecisionError) as info:
            oracle_mod.verify_family("H", 3, 1, 1, 1, prec=64)
        assert [str(e) for e in errors] == ["forced at 64", "forced at 128", "forced at 256"]
        assert info.value is errors[-1]
        assert runs == {"build_tower": 1, "enumerate_group": 1, "construct_generator": 1}

    def test_cli_reports_precision_failure(self, monkeypatch, capsys):
        import extraspecial.oracle as oracle_mod
        from extraspecial import PrecisionError
        from extraspecial.cli import main

        def always_fail(tower, gen_data, gens, window):
            raise PrecisionError("forced")

        monkeypatch.setattr(oracle_mod, "scaffold_row_check", always_fail)
        code = main(["oracle", "verify", "--variant", "H", "--p", "3", "--n", "1",
                     "--u", "1", "--t", "1"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith("precision failure:")


class TestExactness:
    """Everything before the scaffold stage's inverse is exact arithmetic."""

    @pytest.mark.parametrize("setup", ["h_setup", "m_setup"])
    def test_tower_and_generator_series_are_exact(self, request, setup):
        tower, _, table, gen_data, _ = request.getfixturevalue(setup)
        y = gen_data.element
        elements = [rel for rel in tower.algebra.relations] + [y]
        elements += [table[w].apply(y) - y for w in table.words]
        series = [c for x in elements for c in x.coeffs.values()]
        series += list(gen_data.cofactors) + list(tower.omegas) + list(tower.a)
        assert series
        assert all(s.prec == math.inf for s in series)

    def test_x_carries_the_window_and_refuses_at_one(self, h_setup):
        tower, gens, _, gen_data, _ = h_setup
        x_elem = gen_data.element * gen_data.cofactors[-1].inverse(window=64)
        assert any(c.prec < math.inf for c in x_elem.coeffs.values())
        with pytest.raises(PrecisionError):
            scaffold_row_check(tower, gen_data, gens, 1)
        rep = scaffold_row_check(tower, gen_data, gens, 2)
        assert rep.ok and rep.x_vtop == -82


def _fill(x: TowerElement, window: int, rng: random.Random) -> TowerElement:
    """x with every coefficient cut to O(pi^window) and its unknown tail
    filled with exact random terms at exponents window..window+3."""
    field = x.algebra.field
    return TowerElement(x.algebra, {
        e: c.truncate(window) + LaurentSeries(
            field, {window + j: random_elem(field, rng) for j in range(4)})
        for e, c in x.coeffs.items()})


class TestWindowSoundness:
    """A valuation read from truncated coefficients is certified: any
    filling of the unknown tails has that same valuation, and the capped
    norm chain gives the exact chain's value or refusal."""

    @pytest.mark.parametrize("setup", ["h_setup", "m_setup"])
    def test_certified_valuation_holds_for_every_filling(self, request, setup):
        tower, gens, _, gen_data, _ = request.getfixturevalue(setup)
        y = gen_data.element
        deltas = [sigma.apply(y) - y for sigma in gens]
        elements = [y, y * y, y + tower.alpha(1)] + deltas
        elements += [d - t for d, t in zip(deltas, gen_data.cofactors)]
        elements += [d * y for d in deltas]
        rng = random.Random(7)
        refused = certified = 0
        for x in elements:
            if x.is_zero():
                continue
            exps = [e for c in x.coeffs.values() for e in c.coeffs]
            for window in range(min(exps), max(exps) + 2):
                truncated = TowerElement(x.algebra, {e: c.truncate(window)
                                                     for e, c in x.coeffs.items()})
                assert valuation_outcome(elt_valuation, truncated) == \
                    valuation_outcome(exact_chain, truncated)
                try:
                    v = elt_valuation(truncated)
                except PrecisionError:
                    refused += 1
                    continue
                certified += 1
                assert v == elt_valuation(x)
                assert v == elt_valuation(_fill(x, window, rng))
                assert v == elt_valuation(_fill(x, window, rng))
        assert refused and certified


class TestP5:
    def test_h_p5(self):
        rep = verify_family("H", 5, 1, 1, 1)
        assert rep.passed
        assert rep.filtration.lower_multiset == (1, 1, 626)

    def test_m_p5(self):
        rep = verify_family("M", 5, 1, 1, 1)
        assert rep.passed
        assert rep.group.gen_orders[0] == 25


class TestP7:
    def test_h_p7(self):
        rep = verify_family("H", 7, 1, 1, 1)
        assert rep.passed
        assert rep.filtration.lower_multiset == (1, 1, 2402)
        assert rep.group.gen_orders == (7, 7, 7)

    def test_m_p7(self):
        rep = verify_family("M", 7, 1, 1, 1)
        assert rep.passed
        assert rep.filtration.lower_multiset == (1, 1, 2402)
        assert rep.group.gen_orders[0] == 49
