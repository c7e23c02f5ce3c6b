import functools
import hashlib
import itertools
import json
import math
import random
import re
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

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
from extraspecial import oracle as oracle_mod
from extraspecial.detval import _twist_valuation, frobenius_matrix
from extraspecial.oracle import (FiltrationReport, _cp_break, _hilbert_sum, _shift_valuation,
                                 _uniformizer_exponents)
from extraspecial.planner import family_params, plan
from extraspecial.ramification import upper_to_lower
from extraspecial.valuation import exact_log
from conftest import random_elem
from test_localfield import (TIER1_TOWERS, as_other_variant, count_composes, eager_products,
                             exact_chain, make_tower, map_key, valuation_outcome,
                             walk_composes)


@pytest.fixture(scope="module")
def h_setup():
    tower = make_tower("H")
    gens = galois_generators(tower)
    walks = enumerate_group(tower, gens)
    group_structure(tower, gens, walks)
    gen_data = construct_generator(tower)
    filtration = ramification_filtration(tower, gen_data, gens)
    return tower, gens, walks, gen_data, filtration


@pytest.fixture(scope="module")
def m_setup():
    tower = make_tower("M")
    gens = galois_generators(tower)
    walks = enumerate_group(tower, gens)
    group_structure(tower, gens, walks)
    gen_data = construct_generator(tower)
    filtration = ramification_filtration(tower, gen_data, gens)
    return tower, gens, walks, gen_data, filtration


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
        # Hilbert's sum over the breaks against the sum of i(w) over the
        # filled map; the report writes the one value under both keys
        _, _, _, _, filtration = h_setup
        assert filtration.different_val == sum(filtration.ivals.values()) == 214
        d = filtration.to_dict()
        assert (d["different_val"], d["hilbert_sum"], d["consistent"]) == (214, 214, True)

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
        tower, _, walks, gen_data, filtration = h_setup
        pk = 27
        x, y = _uniformizer_exponents(gen_data.vtop, pk)
        assert x == -1
        for word, m in list(eager_products(walks).items())[1:]:
            sy = m.apply(gen_data.element)
            direct = y * pk + elt_valuation_top(gen_data.element - sy) \
                - 2 * gen_data.vtop
            assert filtration.ivals[word] == direct


def _jump_multiset(jumps: list, sizes: list[int], p: int) -> list:
    """Reference: each jump repeated log_p(sizes[i] / sizes[i+1]) times,
    ``sizes[i]`` the order of the subgroup at ``jumps[i]``, trivial past the
    last jump; each ratio must be a power of p."""
    sizes = sizes + [1]
    out: list = []
    for jump, at, after in zip(jumps, sizes, sizes[1:]):
        log = exact_log(p, at // after)
        assert at % after == 0 and log is not None, f"sizes {at}/{after} not p-power nested"
        out.extend([jump] * log)
    return out


def per_word_report(p: int, ivals: dict, uniformizer) -> FiltrationReport:
    """Reference: the filtration read from i(sigma) of every word, the way
    it was before the closed forms: the breaks and their multiplicities from
    the orders |G_b| through _jump_multiset, the different as the sum of
    the i(sigma), and the generator values from the unit words."""
    k = len(next(iter(ivals)))
    breaks = sorted({v - 1 for v in ivals.values()})
    sizes = [1 + sum(1 for v in ivals.values() if v - 1 >= b) for b in breaks]
    multiset = _jump_multiset(breaks, sizes, p)
    assert len(multiset) == k, f"derived {len(multiset)} breaks, expected {k}"
    gen_ivals = tuple(ivals[tuple(int(i == j) for j in range(k))] for i in range(k))
    return FiltrationReport(p, gen_ivals, tuple(multiset), sum(ivals.values()), uniformizer)


def floor_upper_by_cosets(p: int, filtration: FiltrationReport) -> list:
    """Reference: the floor's upper jumps by the coset count the closed form
    replaced: each distinct upper jump of G repeated log_p of the ratio of
    the numbers of prefixes, the cosets m Z of the floor-fixing Z, that G_b
    meets at consecutive distinct lower breaks b."""
    k = len(filtration.gen_ivals)
    ivals = filtration.ivals
    sizes = [len({w[:-1] for w, v in ivals.items() if v - 1 >= b} | {(0,) * (k - 1)})
             for b in sorted(set(filtration.lower_multiset))]
    return _jump_multiset(sorted(set(lower_to_upper(p, filtration.lower_multiset))), sizes, p)


def full_filtration(tower, gen_data, walks) -> tuple[FiltrationReport, dict]:
    """Reference: the per-element loop the class shortcut replaced, which
    measures i(sigma) on every nontrivial product of the walks; the report
    and the measured map.  The measured different obeys Hilbert's formula,
    summed over every i by the reference loop."""
    p = tower.p
    ivals = {}
    for word, m in list(eager_products(walks).items())[1:]:
        ivals[word] = _shift_valuation(m, gen_data.element, gen_data.vtop)[0]
        assert ivals[word] >= 2
    report = per_word_report(p, ivals, _uniformizer_exponents(gen_data.vtop, p**tower.nvars))
    assert report.different_val == loop_hilbert_sum(p, report.lower_multiset)
    return report, ivals


def _cyclic_class(word: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The representative of the class of cyclic subgroups holding the
    nontrivial normal-form word ``word`` of H(n) or M(n): (P / c, 0) for a
    prefix P != 0 whose first nonzero entry is c, and (0, ..., 0, 1) for a
    central word."""
    prefix = word[:-1]
    lead = next((e for e in prefix if e), 0)
    if not lead:
        return prefix + (1,)
    scale = pow(lead, -1, p)
    return tuple(e * scale % p for e in prefix) + (0,)


def class_filtration(tower, gen_data, walks) -> tuple[FiltrationReport, dict]:
    """Reference: the class loop that the generator measurements replaced.
    i(sigma) is a class function and constant on the generators of one
    cyclic subgroup, so it measures one representative per class of cyclic
    subgroups, (p^(2n) - 1)/(p - 1) + 1 of them, and fills the class; the
    report and the measured map."""
    p = tower.p
    measured, ivals = {}, {}
    for word in itertools.islice(itertools.product(range(p), repeat=tower.nvars), 1, None):
        rep = _cyclic_class(word, p)
        if rep not in measured:
            sigma = localfield._product(walks, rep)
            measured[rep] = _shift_valuation(sigma, gen_data.element, gen_data.vtop)[0]
        ivals[word] = measured[rep]
    uniformizer = _uniformizer_exponents(gen_data.vtop, p**tower.nvars)
    return per_word_report(p, ivals, uniformizer), ivals


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


@st.composite
def generator_values(draw):
    """p and i(sigma_1), ..., i(sigma_2n), i(sigma_top): every value >= 2,
    none above i(sigma_top), and often equal to it.  p^(2n+1) <= 3125 keeps
    the per-word reference small."""
    p, n = draw(st.sampled_from([(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]))
    top = draw(st.integers(2, 40))
    noncentral = draw(st.lists(st.integers(2, top) | st.just(top),
                               min_size=2 * n, max_size=2 * n))
    return p, tuple(noncentral) + (top,)


class TestClosedForms:
    """The lower multiset, the different and the floor's upper jumps read
    from the 2n + 1 generator values, against the per-word reference on the
    filled map; no tower is built."""

    @given(generator_values())
    @settings(max_examples=150, deadline=None)
    def test_match_the_per_word_reference(self, drawn):
        p, gen_ivals = drawn
        n = (len(gen_ivals) - 1) // 2
        report = FiltrationReport.from_generators(p, gen_ivals, (1, 0))
        assert report == per_word_report(p, report.ivals, (1, 0))
        floor = floor_upper_by_cosets(p, report)
        # the layer stage reads only p, n and u of the tower besides _cp_break
        tower = SimpleNamespace(p=p, n=n, plan_report=SimpleNamespace(u=(1,) * (2 * n)))
        with mock.patch.object(oracle_mod, "_cp_break", lambda tower, i: 1):
            layers = verify_elementary_layers(tower, report)
        assert layers.sub_upper_measured == tuple(floor)
        assert layers.sub_lower_measured == upper_to_lower(p, floor)

    def test_a_non_integral_floor_jump_fails(self):
        # the lower breaks (1, 2, 4) at p = 3 give the floor the upper jumps 1
        # and 4/3, which no integral u matches; truncated they read as (1, 1)
        report = FiltrationReport.from_generators(3, (2, 3, 5), (1, 0))
        tower = SimpleNamespace(p=3, n=1, plan_report=SimpleNamespace(u=(1, 1)))
        with mock.patch.object(oracle_mod, "_cp_break", lambda tower, i: 1):
            layers = verify_elementary_layers(tower, report)
        assert layers.sub_upper_measured == (1, Fraction(4, 3))
        assert all(c.ok for c in layers.layers)
        assert not layers.ok
        assert layers.to_dict()["sub_upper_measured"] == [1, "4/3"]

    @given(generator_values(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_a_value_above_the_center_is_refused(self, drawn, data):
        # the per-word orders |G_b| stop being nested powers of p exactly
        # when some noncentral value exceeds i(sigma_top)
        p, gen_ivals = drawn
        j = data.draw(st.integers(0, len(gen_ivals) - 2))
        deeper = list(gen_ivals)
        deeper[j] = gen_ivals[-1] + data.draw(st.integers(1, 5))
        deeper = tuple(deeper)
        with pytest.raises(OracleMismatch, match=f"^i\\(sigma_{j + 1}\\) = {deeper[j]} > "):
            FiltrationReport.from_generators(p, deeper, (1, 0))
        filled = FiltrationReport.from_generators(p, gen_ivals, (1, 0)).replace(gen_ivals=deeper)
        with pytest.raises(AssertionError, match="not p-power nested"):
            per_word_report(p, filled.ivals, (1, 0))


def _staged(params):
    tower = build_tower(params)
    gens = galois_generators(tower)
    walks = enumerate_group(tower, gens)
    group_structure(tower, gens, walks)
    return tower, gens, walks, construct_generator(tower)


def _count_measurements(monkeypatch, run) -> tuple:
    """run() and the number of _shift_valuation calls it made."""
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
    """The filtration measures the 2n + 1 generators of the group whose
    presentation group_structure confirmed, with their thetas, and fills
    every word from them; the class loop over the cyclic subgroups, and the
    loop over every element, are its references."""

    @pytest.fixture(scope="class", params=CLASS_TOWERS, ids=_tower_id)
    def staged(self, request):
        return _staged(request.param)

    def test_matches_full_filtration(self, staged, monkeypatch):
        tower, gens, walks, gen_data = staged
        (filled, calls), composed = count_composes(monkeypatch, lambda: _count_measurements(
            monkeypatch, lambda: ramification_filtration(tower, gen_data, gens)))
        assert (calls, composed) == (tower.nvars, 0)
        assert (filled, filled.ivals) == full_filtration(tower, gen_data, walks)
        # the report writes the fill in its own order, which is the sorted one
        assert list(filled.ivals) == sorted(filled.ivals)
        # on m = (0, 1, 2) the noncentral words take two values, so a fill
        # that ignored the generators' values would show there
        noncentral = {v for w, v in filled.ivals.items() if any(w[:-1])}
        assert len(noncentral) == (2 if tower.params.m == (0, 1, 2) else 1)

    @pytest.mark.parametrize("params", [CLASS_TOWERS[i] for i in (0, 1, 2, 3, 7, 9)],
                             ids=_tower_id)
    def test_thetas_add_within_a_break(self, params):
        # theta_m is a homomorphism on G_m / G_(m+1), so the theta of every
        # word, read from its own sigma(Y) - Y, is the F_q-sum of e_j theta_j
        # over the generators of its value; the norm's p^(k-l) twist puts the
        # thetas of elements of different support levels on one scale
        tower, gens, walks, gen_data = _staged(params)
        y, vtop, f = gen_data.element, gen_data.vtop, tower.field
        measured = [_shift_valuation(sigma, y, vtop) for sigma in gens]
        for word, m in list(eager_products(walks).items())[1:]:
            i, theta = _shift_valuation(m, y, vtop)
            total = sum((LaurentSeries.monomial(f, t) * e
                         for e, (i_j, t) in zip(word, measured) if e and i_j == i),
                        LaurentSeries.zero(f))
            assert total == LaurentSeries.monomial(f, theta), word

    def test_matches_the_class_loop_on_the_sweep(self):
        draws = 0
        for params in sweep_draws(SWEEP_SEED, SWEEP_COUNT):
            if not plan(params).certified:
                continue
            tower, gens, walks, gen_data = _staged(params)
            filled = ramification_filtration(tower, gen_data, gens)
            assert (filled, filled.ivals) == class_filtration(tower, gen_data, walks), params
            draws += 1
        assert draws > 20

    @pytest.mark.parametrize("variant", ["H", "M"])
    def test_matches_the_class_loop_at_7_2(self, variant):
        tower, gens, walks, gen_data = _staged(family_params(variant, 7, 2, 1, 1, INF, None))
        filled = ramification_filtration(tower, gen_data, gens)
        assert (filled, filled.ivals) == class_filtration(tower, gen_data, walks)

    @staticmethod
    def _walks(monkeypatch) -> list:
        """The power walks of each enumerate_group call of verify_tower, in order."""
        walks = []
        real = oracle_mod.enumerate_group
        monkeypatch.setattr(oracle_mod, "enumerate_group",
                            lambda *args: walks.append(real(*args)) or walks[-1])
        return walks

    @pytest.mark.parametrize("params", CLASS_TOWERS[:8], ids=_tower_id)
    def test_confirmed_verify_builds_no_product(self, params, monkeypatch):
        recorded = self._walks(monkeypatch)
        (report, calls), composed = count_composes(
            monkeypatch, lambda: _count_measurements(monkeypatch, lambda: verify_tower(params)))
        assert report.passed
        (walks,) = recorded
        k = 2 * params.n + 1
        # 2n + 1 generators, and one generator per degree-p layer
        assert calls == k + 2 * params.n
        # the power walks, and three compositions per commutator
        assert composed == walk_composes(walks) + 3 * k * (k - 1) // 2

    @pytest.mark.parametrize("params", CLASS_TOWERS[:8], ids=_tower_id)
    def test_failed_presentation_stops_verify(self, params, monkeypatch):
        # a tower read against the other variant's presentation: verify_tower
        # raises before the filtration measures a generator, and builds no
        # product
        recorded = self._walks(monkeypatch)
        real = oracle_mod.group_structure

        def read_as_other(tower, gens, walks):
            return real(as_other_variant(tower), gens, walks)

        measured, composed = [], []
        compose = GaloisMap.compose
        monkeypatch.setattr(oracle_mod, "group_structure", read_as_other)
        monkeypatch.setattr(oracle_mod, "_shift_valuation", lambda *args: measured.append(args))
        monkeypatch.setattr(GaloisMap, "compose",
                            lambda *args: composed.append(args) or compose(*args))
        with pytest.raises(ConstructionError, match="^the order of sigma_1 is "):
            verify_tower(params)
        assert measured == []
        (walks,) = recorded
        k = 2 * params.n + 1
        assert len(composed) == walk_composes(walks) + 3 * k * (k - 1) // 2

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
        rep = scaffold_row_check(tower, gen_data, gens)
        assert rep.x_vtop == -82
        assert rep.ok
        by_index = {r.index: r for r in rep.rows}
        # row sigma_2: gap = b3 - b2 - p^2 u_1 = 72, met with equality
        assert by_index[2].eps_gap == 72
        assert by_index[2].bound == 72
        # rows whose bound carries only the e0 term are exactly zero here
        assert by_index[1].eps_gap == INF
        assert by_index[3].eps_gap == INF
        assert rep.min_contribution == 64
        assert rep.cfrak == 64

    def test_m_rows(self, m_setup):
        tower, gens, _, gen_data, _ = m_setup
        rep = scaffold_row_check(tower, gen_data, gens)
        assert rep.ok
        by_index = {r.index: r for r in rep.rows}
        # sigma_1 row: gap = b3 - b1 - (p-1) p^2 u_1 = 82 - 1 - 18 = 63
        assert by_index[1].eps_gap == 63
        assert by_index[1].bound == 63
        assert rep.min_contribution == 55
        assert rep.cfrak == 55

    def test_mu_valuations_are_break_differences(self, h_setup):
        tower, gens, _, gen_data, _ = h_setup
        rep = scaffold_row_check(tower, gen_data, gens)
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
            walks = enumerate_group(tower, gens)
            group_structure(tower, gens, walks)
            filtration = ramification_filtration(tower, construct_generator(tower), gens)
            products = eager_products(walks)
            fixing = [g for g in products.values()
                      if all(g.images[j] == g.algebra.gen(j) for j in range(2))]
            sizes = []
            for b in sorted(set(filtration.lower_multiset)):
                group = [products[w] for w, v in filtration.ivals.items() if v - 1 >= b]
                group.append(GaloisMap.identity(tower.algebra))
                sizes.append(len({frozenset(map_key(g.compose(h)) for h in fixing)
                                  for g in group}))
            upper = sorted(set(lower_to_upper(p, filtration.lower_multiset)))
            composed = tuple(int(x) for x in _jump_multiset(upper, sizes, p))
            rep = verify_elementary_layers(tower, filtration)
            assert rep.sub_upper_measured == composed == tuple(sorted(tower.plan_report.u[:2]))

    def test_layer_stages_reuse_the_walks(self, m_setup, monkeypatch):
        # group_structure reads the power walks enumerate_group kept, and the
        # layer stage walks no power: the coset counts compose no map of the
        # tower, and _cp_break measures each layer's generator once
        tower, gens, walks, _, filtration = m_setup
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
        report, measured = _count_measurements(
            monkeypatch, lambda: verify_elementary_layers(tower, filtration))
        assert report.ok
        assert calls == {"compose": 0, "powers": 0}
        assert measured == 2 * tower.n
        group_structure(tower, gens, walks)
        assert calls["powers"] == 0
        # enumerate_group: one walk per generator, and its unit check builds
        # no product; closure is proved by the presentation, not composed
        calls["compose"] = 0
        rebuilt = enumerate_group(tower, gens)
        assert calls == {"compose": walk_composes(rebuilt), "powers": tower.nvars}

    @pytest.mark.parametrize("variant, p, n", TIER1_TOWERS)
    def test_floor_fixing_set_from_every_image(self, variant, p, n):
        # reference for the unit-word proof verify_elementary_layers relies on:
        # the words whose maps fix alpha_1..alpha_2n, read from the images of
        # every product, are the p powers of sigma_top
        tower = make_tower(variant, p, n)
        gens = galois_generators(tower)
        k = tower.nvars
        eager = eager_products(enumerate_group(tower, gens))
        fixing = {w for w, m in eager.items()
                  if all(m.images[j] == m.algebra.gen(j) for j in range(k - 1))}
        assert fixing == {(0,) * (k - 1) + (e,) for e in range(p)}

    def test_layer_break_is_read_from_the_algebra(self, h_setup):
        # alpha^3 - alpha = pi^-2 has break 2, whatever the plan says
        tower = h_setup[0]
        assert tower.plan_report.u[0] == 1
        steeper = LaurentSeries.monomial(tower.field, 1, -2)
        changed = tower.replace(a=(steeper,) + tower.a[1:])
        assert _cp_break(tower, 1) == every_power_break(tower, 1) == 1
        assert _cp_break(changed, 1) == every_power_break(changed, 1) == 2

    @pytest.mark.parametrize("variant, p, n", TIER1_TOWERS)
    def test_layer_break_matches_every_power(self, variant, p, n):
        tower = make_tower(variant, p, n)
        for i in range(1, 2 * n + 1):
            assert _cp_break(tower, i) == every_power_break(tower, i) == tower.plan_report.u[i - 1]

    def test_shift_valuation_refuses_sigma_outside_g1(self):
        sigma, alpha = unramified_layer()
        assert elt_valuation_top(alpha) == 0
        with pytest.raises(OracleMismatch, match="not in G_1"):
            _shift_valuation(sigma, alpha, 0)


def every_power_break(tower, i) -> int:
    """Reference: the per-power loop that _cp_break's one measurement
    replaced.  It measures every nontrivial power of the generator of the
    degree-p layer on alpha_i and requires them to agree."""
    mini = TowerAlgebra(tower.field, 1)
    mini.set_relation(0, mini.from_series(tower.a[i - 1]))
    alpha = mini.gen(0)
    vtop = elt_valuation_top(alpha)
    sigma = GaloisMap(mini, [alpha + mini.one()])
    breaks = {_shift_valuation(s, alpha, vtop)[0] - 1 for s in sigma.powers()[1:]}
    assert len(breaks) == 1, breaks
    return breaks.pop()


def unramified_layer():
    """sigma and alpha of alpha^3 - alpha = 1, unramified over F_9((pi)):
    sigma(alpha) - alpha = 1 has the valuation of alpha, so no break can be
    measured."""
    algebra = TowerAlgebra(residue_field(3, 2), 1)
    algebra.set_relation(0, algebra.one())
    alpha = algebra.gen(0)
    return GaloisMap(algebra, [alpha + algebra.one()]), alpha


# ---------------------------------------------------------------------------
# Every check fires: one trip per `raise OracleMismatch` in oracle.py
# (test_hygiene.test_every_oracle_check_fires holds the table to that)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _h31():
    """H(3,1), its generators and Y, built once for the trips."""
    tower = make_tower("H")
    return tower, galois_generators(tower), construct_generator(tower)


def _moved_b(tower, first=0, last=0):
    """``tower`` with the planner's b_1 moved by ``first`` and b_top by ``last``."""
    b = tower.plan_report.b
    moved = (b[0] + first,) + b[1:-1] + (b[-1] + last,)
    return tower.replace(plan_report=tower.plan_report.replace(b=moved))


def _trip_cofactor():
    real = oracle_mod.ti_valuations
    with mock.patch.object(oracle_mod, "ti_valuations",
                           lambda *args: tuple(v + 1 for v in real(*args))):
        construct_generator(_h31()[0])


def _trip_fixed_generator():
    tower, _, gen_data = _h31()
    _shift_valuation(GaloisMap.identity(tower.algebra), gen_data.element, gen_data.vtop)


def _trip_dependent_run():
    # sigma_1 and sigma_2 share i = 2 < i(sigma_top) = 83; fed equal thetas,
    # their run is F_p-dependent
    tower, gens, gen_data = _h31()
    real = oracle_mod._shift_valuation
    one = tower.field.one()
    with mock.patch.object(oracle_mod, "_shift_valuation",
                           lambda *args: (real(*args)[0], one)):
        ramification_filtration(tower, gen_data, gens)


def _trip_deeper_than_center():
    # sigma_1 reads one above i(sigma_top) = 83
    tower, gens, gen_data = _h31()
    real = oracle_mod._shift_valuation

    def deeper(sigma, *args):
        i, theta = real(sigma, *args)
        return (84 if sigma is gens[0] else i), theta

    with mock.patch.object(oracle_mod, "_shift_valuation", deeper):
        ramification_filtration(tower, gen_data, gens)


def _trip_scaffold(first, last):
    tower, gens, gen_data = _h31()
    scaffold_row_check(_moved_b(tower, first, last), gen_data, gens)


# name -> (a call that trips one check, the message it must raise); on
# H(3,1) v_0 of the cofactors is (-3, -3, 0), v_top(Y) = -82 and b = (1, 1, 82)
MISMATCH_TRIPS = {
    "cofactor": (_trip_cofactor, "cofactor 1 has valuation -3, formula gives -2"),
    "generator": (lambda: construct_generator(_moved_b(_h31()[0], first=1)),
                  "generator valuation -82 != predicted -83"),
    "fixed_generator": (_trip_fixed_generator, "a nontrivial automorphism fixes the generator"),
    "outside_g1": (lambda: _shift_valuation(*unramified_layer(), 0),
                   "v_top(sigma(Y) - Y) = 0 <= v_top(Y) = 0: sigma is not in G_1"),
    "dependent_run": (_trip_dependent_run, "the thetas of sigma_1, sigma_2 at i = 2 have "
                      "F_p-rank 1: a combination lies deeper"),
    "deeper_than_center": (_trip_deeper_than_center, "i(sigma_1) = 84 > i(sigma_top) = 83: "
                           "sigma_1 lies deeper than the center"),
    "x_valuation": (lambda: _trip_scaffold(0, 1), "v_top(X) = -82, expected -83"),
    "mu_row": (lambda: _trip_scaffold(1, 0), "v_top(mu_1) = -81 != b_1 - b_top = -80"),
}


@pytest.mark.parametrize("name", MISMATCH_TRIPS)
def test_check_fires(name):
    trip, message = MISMATCH_TRIPS[name]
    with pytest.raises(OracleMismatch, match=f"^{re.escape(message)}$"):
        trip()


# SHA-256 of the JSON report of each large tower at u = t = 1, which the
# 173 digests (at most 343 words) do not reach; never re-recorded
LARGE_TOWER_SHA256 = {
    ("H", 3, 3): "afb82980acbb2ecc7042538a61b4a7f4fdc204e093ea99f98b1240640e18127d",
    ("M", 3, 3): "ca5189bdc02d50ce4b0b400067f913a4730b1e5cf1e3370d03a1d9bf05792445",
    ("H", 5, 2): "e36bc5d3e18125a77859bb1c883ef8ca3f34248874ac91887c0a80c57dba7a5b",
    ("M", 5, 2): "f15b57657f0ffe1b3dcb2e0e6d49beb5c63d280757b8dc20061cfe4db48f9f90",
    ("H", 7, 2): "39d61a34090addd98c93f52db957dde15bef910f6e18ec926aa7492c575a0d79",
    ("M", 7, 2): "a099a57286b06350400753b60da769ffa9a3c1f1bd5fc40f22cd48fc517b78e2",
    ("H", 5, 3): "164888a46c927dcb5bbe346499341d5377da9923c6176e5132b01f8034d52289",
    ("M", 5, 3): "fb1213c8c94ce76d9ddad12761532bddb7f0a0b091994aab6e4914098ab3430d",
}


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
        walks = enumerate_group(tower, gens)
        assert [localfield.word_of(walks, g) for g in gens] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

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

    @pytest.mark.parametrize("variant, p, n", LARGE_TOWER_SHA256)
    def test_large_tower_closed_forms(self, variant, p, n):
        # orders 3^7 over F_729 (residue degree 6), 5^5 over F_625, 7^5
        # over F_2401 and 5^7 over F_15625; the closed forms of u = t = 1 are those of
        # bench/bench_gate.py: b = (1, ..., 1, p^(4n) + 1), and Hilbert's sum
        # of the different, p^(2n+1) - 1 at i = 0 and 1 and p - 1 at each of
        # the p^(4n) values i = 2..b_top (looping over them takes seconds at
        # (7,2))
        rep = verify_family(variant, p, n, 1, 1)
        assert rep.passed
        assert rep.group.order == p**(2 * n + 1)
        lower = [1] * (2 * n) + [p**(4 * n) + 1]
        assert list(rep.filtration.lower_multiset) == lower
        assert rep.filtration.different_val == 2 * (p**(2 * n + 1) - 1) + (p - 1) * p**(4 * n)
        # the report byte for byte: this string is the stdout of
        # `oracle verify ... --output json`
        text = json.dumps(rep.to_dict(), indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == LARGE_TOWER_SHA256[variant, p, n]

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
        # certified H towers with nonzero floor exponents; the generator
        # stage of (3,2) needs three capped tries, and the exact chain would
        # take minutes there, so the patched fallback raises at once instead
        # of running it
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


def windowed_x_vtop(report) -> int:
    """v_top(X) the way the scaffold stage once measured it, kept as the
    test oracle of reading it from v_top(Y) and v_0(t_top): X = Y t_top^(-1)
    with the inverse taken to a series window, from default_window up,
    doubled on PrecisionError, for at most three windows."""
    gen_data = report.generator
    window = default_window(report.params)
    for attempt in range(3):
        try:
            return elt_valuation_top(gen_data.element * gen_data.cofactors[-1].inverse(window))
        except PrecisionError:
            if attempt == 2:
                raise
            window *= 2


class TestNoWindow:
    """No stage of a verify takes a window: X's valuation is read from Y's
    and t_top's, ``prec`` is only echoed, and a PrecisionError from any
    stage is still the CLI's exit 3."""

    @pytest.mark.parametrize("variant, p, n", TIER1_TOWERS)
    def test_x_vtop_matches_the_windowed_x(self, variant, p, n):
        rep = verify_family(variant, p, n, 1, 1)
        assert rep.passed
        assert rep.scaffold.x_vtop == windowed_x_vtop(rep) == -rep.plan.b[-1]

    @pytest.mark.parametrize("p, n, d, r, m", [(3, 1, 2, 1, (0, 1, 2)), (7, 1, 2, 3, (0, 1, 2)),
                                               (3, 2, 4, 2, (0, 0, 1, 1, 2))])
    def test_x_vtop_with_t_top_off_the_units(self, p, n, d, r, m):
        # nonzero floor exponents make v_0(t_top) < 0, which the standard
        # family's m = (0, ..., 0, t) never does
        field = residue_field(p, d)
        rep = verify_tower(TowerParams(p=p, n=n, variant="H", e0=INF, r=r, m=m,
                                       leads=default_leads(field, n), field=field))
        assert rep.passed
        assert rep.generator.v0_cofactors[-1] < 0
        assert rep.scaffold.x_vtop == windowed_x_vtop(rep) == -rep.plan.b[-1]

    def test_cli_reports_precision_failure(self, monkeypatch, capsys):
        from extraspecial.cli import main

        def always_fail(tower, gen_data, gens):
            raise PrecisionError("forced")

        monkeypatch.setattr(oracle_mod, "scaffold_row_check", always_fail)
        code = main(["oracle", "verify", "--variant", "H", "--p", "3", "--n", "1",
                     "--u", "1", "--t", "1"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith("precision failure:")


class TestExactness:
    """A verify is exact arithmetic from end to end: it values only exact
    elements, and takes no inverse and no determinant level norm."""

    @pytest.mark.parametrize("setup", ["h_setup", "m_setup"])
    def test_tower_and_generator_series_are_exact(self, request, setup):
        tower, _, walks, gen_data, _ = request.getfixturevalue(setup)
        y = gen_data.element
        elements = [rel for rel in tower.algebra.relations] + [y]
        elements += [m.apply(y) - y for m in eager_products(walks).values()]
        series = [c for x in elements for c in x.coeffs.values()]
        series += list(gen_data.cofactors) + list(tower.omegas) + list(tower.a)
        assert series
        assert all(s.prec == math.inf for s in series)

    @pytest.mark.parametrize("variant, p, n", TIER1_TOWERS)
    def test_verify_values_only_exact_elements(self, monkeypatch, variant, p, n):
        valued, calls = [], {"inverse": 0, "level_norm": 0}
        real_valuation = localfield.elt_leading_term
        real_inverse = LaurentSeries.inverse
        real_level_norm = localfield._level_norm

        def valuation_spy(x):
            valued.append(all(c.is_exact for c in x.coeffs.values()))
            return real_valuation(x)

        def inverse_spy(self, *args, **kwargs):
            calls["inverse"] += 1
            return real_inverse(self, *args, **kwargs)

        def level_norm_spy(x, i):
            calls["level_norm"] += 1
            return real_level_norm(x, i)

        # every valuation and leading term of a verify runs elt_leading_term
        monkeypatch.setattr(localfield, "elt_leading_term", valuation_spy)
        monkeypatch.setattr(oracle_mod, "elt_leading_term", valuation_spy)
        monkeypatch.setattr(LaurentSeries, "inverse", inverse_spy)
        monkeypatch.setattr(localfield, "_level_norm", level_norm_spy)
        assert verify_family(variant, p, n, 1, 1).passed
        assert valued and all(valued)
        assert calls == {"inverse": 0, "level_norm": 0}


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
