"""Pair decoherence exponents, analytic correlator, and derived quantities."""

import math
from dataclasses import replace

import numpy as np
import pytest

from shotcorr import correlator
from shotcorr.correlator import (
    ChiPlan,
    EvolutionPair,
    QubitParams,
    autocorrelation_analytic,
    autocorrelation_linearized,
    chi_minus,
    chi_minus_approx,
    chi_pair,
    chi_plus,
    correct_fidelity,
    filter_F,
    phase_cross_correlation,
    phase_variance,
    t2_star,
)
from shotcorr.numerics import QuadratureSpec, integrate_spectral
from shotcorr.spectra import (
    OverhauserModel,
    PowerLawModel,
    SpectrumModel,
    TabulatedModel,
    WhiteModel,
    beta_autocorrelation,
    coupling_from_g,
    evaluate,
    variance,
    window_top,
)

import oracles

WL = 2.0 * math.pi * 0.1
WE = 2.0 * math.pi * 1.0e4
COUPLING = coupling_from_g(-0.44)


def reference_model(gamma=1.0, rms=7.0e-3, omega_e=WE):
    return OverhauserModel.from_rms(rms, WL, omega_e, gamma, COUPLING)


def small_zoo():
    return [
        WhiteModel(level=2.0e3, omega_high=1.0e6),
        OverhauserModel(s0=1.0e-4, omega_l=0.6, omega_e=6.0e4, gamma=1.0, coupling_c=2.0e4),
        OverhauserModel(s0=1.0e-4, omega_l=0.6, omega_e=6.0e4, gamma=2.0, coupling_c=2.0e4),
        PowerLawModel(amplitude=4.0e4, alpha=1.5, omega_low=1.0e-2, omega_high=1.0e5),
    ]


class TestFilterF:
    def test_trivial_points(self):
        pair = EvolutionPair(tau=1.0, delta_t=2.0)
        assert filter_F(0.0, pair) == 0.0
        # omega tau = pi and omega delta_t = 2 pi hits the +4 extremum
        assert filter_F(math.pi, pair) == pytest.approx(4.0, rel=1e-12)
        pair2 = EvolutionPair(tau=1.0, delta_t=1.0)
        assert filter_F(math.pi, pair2) == pytest.approx(-4.0, rel=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(3)
        pair = EvolutionPair(tau=2.7e-4, delta_t=8.1e-3)
        w = 10.0 ** rng.uniform(-3, 6, size=2_000)
        assert np.all(np.abs(filter_F(w, pair)) <= 4.0 + 1e-12)


class TestPhaseVariance:
    def test_white_linear_in_tau(self):
        # the wide-band linear law holds once omega_h tau >> 1; the exact
        # banded closed form pins the residual band correction
        m = WhiteModel(level=2.0e3, omega_high=1.0e6)
        for tau in (2.0e-4, 1.0e-3, 5.0e-3):
            assert phase_variance(m, tau) == pytest.approx(2.0e3 * tau, rel=1e-2)
        for tau in (1.0e-5, 1.0e-4, 1.0e-3):
            exact = oracles.white_phase_variance_banded(2.0e3, 1.0e6, tau)
            assert phase_variance(m, tau) == pytest.approx(exact, rel=1e-6)

    def test_short_window_quadratic_limit(self):
        m = OverhauserModel(s0=1e-4, omega_l=0.6, omega_e=6e4, gamma=1.0, coupling_c=2.0e4)
        var = variance(m)
        tau = 1e-3 / 6e4
        assert phase_variance(m, tau) == pytest.approx(tau**2 * var, rel=1e-4)

    def test_against_dense_trapezoid(self):
        m = reference_model()
        for tau in (5.0e-8, 5.0e-6, 5.0e-4):
            ref = oracles.phase_variance_trapezoid(
                lambda w: np.asarray(evaluate(m, w)), tau, 1e-6, 1e7, 600_000
            )
            assert phase_variance(m, tau) == pytest.approx(ref, rel=1e-4)


class TestChiPair:
    def test_one_filon_call_per_region(self, monkeypatch):
        # tau = 1e-4 and dt = 1e-2 reach both the middle region and the
        # five-cosine tail; each region is one multi-time Filon call
        calls = []

        def counted(f, times, window, spec, **kw):
            calls.append(tuple(times))
            return original(f, times, window, spec, **kw)

        original = correlator.filon_cos_integral
        monkeypatch.setattr(correlator, "filon_cos_integral", counted)
        m = OverhauserModel(s0=1.0e-4, omega_l=0.6, omega_e=6.0e4, gamma=1.0, coupling_c=2.0e4)
        chi_pair(m, EvolutionPair(tau=1.0e-4, delta_t=1.0e-2))
        assert calls == [(0.0, 1.0e-2), (0.0, 1.0e-4, 1.0e-2, 1.0e-2 + 1.0e-4, 1.0e-2 - 1.0e-4)]

    def test_delta_t_zero(self):
        for m in small_zoo():
            pair = EvolutionPair(tau=3.0e-4, delta_t=0.0)
            cm, cp = chi_pair(m, pair)
            assert cm == 0.0
            assert cp == pytest.approx(4.0 * phase_variance(m, 3.0e-4), rel=1e-8)

    def test_closure_identity(self):
        # chi_minus + chi_plus must equal 4 * phase_variance regardless of
        # delta_t; 20 random cases over the model zoo
        rng = np.random.default_rng(21)
        zoo = small_zoo()
        for _ in range(20):
            m = zoo[rng.integers(len(zoo))]
            tau = 10.0 ** rng.uniform(-7, -3)
            dt = 10.0 ** rng.uniform(-7, -1)
            cm, cp = chi_pair(m, EvolutionPair(tau, dt))
            pv = phase_variance(m, tau)
            assert cm + cp == pytest.approx(4.0 * pv, rel=1e-6)

    def test_echo_identity(self):
        # at delta_t = tau the pair exponent reduces to the echo integral
        rng = np.random.default_rng(22)
        zoo = small_zoo()
        quad = QuadratureSpec(rel_tol=1e-9)
        for _ in range(5):
            m = zoo[rng.integers(len(zoo))]
            tau = 10.0 ** rng.uniform(-6, -3)
            got = chi_minus(m, EvolutionPair(tau, tau))

            def echo_integrand(w, m=m, tau=tau):
                w = np.asarray(w)
                out = np.zeros_like(w)
                nz = w > 0.0
                out[nz] = (
                    (16.0 / math.pi)
                    * np.asarray(evaluate(m, w[nz]))
                    * np.sin(0.5 * w[nz] * tau) ** 4
                    / w[nz] ** 2
                )
                return out

            hi = 1.0e7 if not isinstance(m, WhiteModel) else m.omega_high
            ref = integrate_spectral(
                echo_integrand,
                2.0 * math.pi / tau,
                (0.0, hi),
                QuadratureSpec(rel_tol=1e-9),
            )
            assert got == pytest.approx(ref.value, rel=1e-6)

    def test_white_closed_form(self):
        m = WhiteModel(level=2.0e3, omega_high=1.0e6)
        for tau, dt in ((2.0e-4, 1.0e-3), (2.0e-4, 2.0e-4), (5.0e-4, 2.0e-2)):
            cm, cp = chi_pair(m, EvolutionPair(tau, dt))
            expect = oracles.white_chi_closed(2.0e3, tau, dt)
            assert cm == pytest.approx(expect, rel=1e-2)
            assert cp == pytest.approx(expect, rel=1e-2)

    def test_white_banded_trapezoid(self):
        m = WhiteModel(level=2.0e3, omega_high=1.0e5)
        tau, dt = 2.0e-4, 1.0e-3
        ref = oracles.chi_pair_trapezoid(
            lambda w: np.asarray(evaluate(m, w)), tau, dt, 1e-8, 1.0e5, 2_000_000
        )
        cm, cp = chi_pair(m, EvolutionPair(tau, dt))
        assert cm == pytest.approx(ref[0], rel=2e-5)
        assert cp == pytest.approx(ref[1], rel=2e-5)

    def test_reference_model_against_trapezoid(self):
        m = reference_model()
        tau = 5.0e-8
        for dt in (1.0e-6, 3.0e-5, 1.0e-3):
            cm, cp = chi_pair(m, EvolutionPair(tau, dt))
            ref_cm, ref_cp = oracles.chi_pair_trapezoid(
                lambda w: np.asarray(evaluate(m, w)), tau, dt, 1e-8, 1.0e7, 2_000_000
            )
            assert cm == pytest.approx(ref_cm, rel=1e-4)
            assert cp == pytest.approx(ref_cp, rel=1e-4)

    def test_pure_one_over_f_shape(self):
        amp = 3.0e3
        m = PowerLawModel(amplitude=amp, alpha=1.0, omega_low=1.0e-6, omega_high=1.0e8)
        tau = 1.0e-3
        for rho in (1.0, 1.5, 4.0, 32.0, 1000.0):
            got = chi_minus(m, EvolutionPair(tau, rho * tau))
            expect = amp * tau**2 * oracles.oneoverf_shape_closed(rho)
            assert got == pytest.approx(expect, rel=2e-5)

    def test_swap_symmetry(self):
        m = reference_model()
        a = chi_minus(m, EvolutionPair(3.0e-4, 1.0e-5))
        b = chi_minus(m, EvolutionPair(1.0e-5, 3.0e-4))
        assert a == pytest.approx(b, rel=1e-8)

    def test_cross_correlation_identity(self):
        # the cross term is (chi_plus - chi_minus) / 4 by construction
        rng = np.random.default_rng(23)
        zoo = small_zoo()
        for _ in range(8):
            m = zoo[rng.integers(len(zoo))]
            tau = 10.0 ** rng.uniform(-6, -3)
            dt = 10.0 ** rng.uniform(-6, -1)
            cm, cp = chi_pair(m, EvolutionPair(tau, dt))
            cross = phase_cross_correlation(m, EvolutionPair(tau, dt))
            assert cross == pytest.approx((cp - cm) / 4.0, rel=1e-6, abs=1e-12)

    def test_cross_correlation_zero_delay(self):
        m = small_zoo()[1]
        tau = 2.0e-4
        cross = phase_cross_correlation(m, EvolutionPair(tau, 0.0))
        assert cross == pytest.approx(phase_variance(m, tau), rel=1e-8)

    def test_zero_delay_is_the_phase_variance(self):
        # the phase variance is the cross correlation at delta_t = 0, and
        # chi_pair there is (0, 4 phase variances), bit for bit
        for m in small_zoo():
            for tau in (1.0e-6, 3.0e-4):
                pair = EvolutionPair(tau, 0.0)
                pv = phase_variance(m, tau)
                assert phase_cross_correlation(m, pair) == pv
                assert chi_pair(m, pair) == (0.0, 4.0 * pv)

    def test_low_frequency_spike_negligible(self):
        # a spectral spike far below 1/delta_t contributes to chi_minus
        # at most 1e-4 of its phase-variance weight
        dt = 1.0e-2
        w0 = 1.0e-3 / dt
        w = np.array([w0 * 0.995, w0 * 1.005])
        spike = TabulatedModel(np.column_stack([w, [1.0e6, 1.0e6]]))
        tau = 1.0e-3
        cm = chi_minus(spike, EvolutionPair(tau, dt))
        pv = phase_variance(spike, tau)
        assert cm <= 1e-4 * 4.0 * pv

    def test_unphysical_pair_flagged_but_computable(self):
        pair = EvolutionPair(tau=1.0e-3, delta_t=1.0e-5)
        assert not pair.is_physical
        assert EvolutionPair(tau=1.0e-5, delta_t=1.0e-3).is_physical
        cm = chi_minus(small_zoo()[0], pair)
        assert math.isfinite(cm) and cm >= 0.0


# delta_t > tau (the middle region and the five-cosine tail both reached),
# delta_t < tau, delta_t = tau (no middle region, and the tail's
# delta_t - tau repeats t = 0), delta_t = 2 tau (delta_t - tau repeats tau)
# and delta_t = 0
PLAN_PAIRS = (
    EvolutionPair(tau=1.0e-4, delta_t=1.0e-2),
    EvolutionPair(tau=2.0e-5, delta_t=3.0e-5),
    EvolutionPair(tau=3.0e-4, delta_t=1.0e-4),
    EvolutionPair(tau=1.0e-4, delta_t=1.0e-4),
    EvolutionPair(tau=1.0e-4, delta_t=2.0e-4),
    EvolutionPair(tau=3.0e-4, delta_t=0.0),
)


class _NarrowLine(SpectrumModel):
    """A smooth but narrow Gaussian line at 1e4 rad/s, far finer than a plan's panels."""

    def evaluate(self, omega):
        return np.exp(-(((np.asarray(omega, dtype=float) - 1.0e4) / 100.0) ** 2))

    @property
    def knee(self):
        return 1.0e4

    def suggested_omega_max(self, floor=1e-18):
        return 2.0e4


_PLAN_MODELS = pytest.mark.parametrize(
    "model",
    [
        OverhauserModel(s0=1.0e-4, omega_l=0.6, omega_e=6.0e4, gamma=1.0, coupling_c=2.0e4),
        OverhauserModel(s0=1.0e-4, omega_l=0.6, omega_e=6.0e4, gamma=2.0, coupling_c=2.0e4),
        OverhauserModel(s0=1.0e-4, omega_l=0.6, omega_e=math.inf, gamma=1.0, coupling_c=2.0e4),
        WhiteModel(level=2.0e3, omega_high=1.0e6),
        PowerLawModel(amplitude=4.0e4, alpha=1.5, omega_low=1.0e2, omega_high=1.0e7),
    ],
    ids=["gamma1", "gamma2", "no_cutoff", "white", "power_law"],
)


class _Spy(SpectrumModel):
    """``model``, recording every omega array that ``evaluate`` is asked for."""

    def __init__(self, model):
        self.model, self.asked = model, []

    def evaluate(self, omega):
        self.asked.append(np.array(omega, dtype=float))
        return self.model.evaluate(omega)

    knee = property(lambda self: self.model.knee)
    hard_max = property(lambda self: self.model.hard_max)
    zero_above = property(lambda self: self.model.zero_above)

    def breakpoints(self):
        return self.model.breakpoints()

    def suggested_omega_max(self, floor=1e-18):
        return self.model.suggested_omega_max(floor)


def _live_nodes(plan, spectrum):
    """Indices of the nodes ``plan.live(spectrum)`` names, in order."""
    return np.concatenate([np.arange(p.start, p.stop) for p in plan.live(spectrum)])


def _model_plan(model):
    """A window twice the model's own and its kinks as plan edges (the
    power law's omega_low, and the hard top of the band models)."""
    top = 2.0 * window_top(model)
    kinks = {*model.breakpoints(), model.hard_max} - {math.inf}
    return ChiPlan(PLAN_PAIRS, top, kinks)


class TestChiPlan:
    @_PLAN_MODELS
    def test_matches_chi_pair(self, model):
        plan = _model_plan(model)
        chi_m, chi_p = plan.apply(model)
        assert plan.fallbacks == 0
        for pair, cm, cp in zip(PLAN_PAIRS, chi_m, chi_p):
            ref_m, ref_p = chi_pair(model, pair)
            assert cm == pytest.approx(ref_m, rel=1e-8, abs=0.0)
            assert cp == pytest.approx(ref_p, rel=1e-8, abs=0.0)
        assert chi_m[-1] == 0.0

    @_PLAN_MODELS
    def test_given_values_keep_the_bits(self, model):
        # S handed in on the plan's nodes gives what apply evaluates itself,
        # and so does the knee times cutoff product discriminate_gamma hands in
        plan = _model_plan(model)
        ref = np.stack(plan.apply(model))
        given = np.stack(plan.apply(model, model.evaluate(plan.nodes)))
        assert given.tobytes() == ref.tobytes()
        if isinstance(model, OverhauserModel):
            values = model.cutoff_factor(plan.nodes)
            values *= model.knee_factor(plan.nodes)
            assert np.stack(plan.apply(model, values)).tobytes() == ref.tobytes()
        assert plan.fallbacks == 0

    @_PLAN_MODELS
    def test_design_of_s_is_apply(self, model):
        # the plan's chi is linear in S: its sums with S in place of a
        # derivative are apply's values, bit for bit
        plan = _model_plan(model)
        ref = np.stack(plan.apply(model))
        assert len(plan.sent) == 0
        assert np.stack(plan.design(model, model.evaluate(plan.nodes))).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0])
    def test_reads_s_only_below_the_zero_edge(self, gamma):
        # a plan built for a hundredfold cutoff reaches past the zero edge
        # of this one; S is read only below it, with evaluate's bits, and
        # is exactly 0 on every node past it
        model = OverhauserModel(s0=1.0e-4, omega_l=0.6, omega_e=6.0e4, gamma=gamma, coupling_c=2.0e4)
        plan = ChiPlan.covering(PLAN_PAIRS, [replace(model, omega_e=6.0e6)])
        spy = _Spy(model)
        chi = np.stack(plan.apply(spy))
        (asked,) = spy.asked
        at = _live_nodes(plan, model)
        assert asked.tobytes() == plan.nodes[at].tobytes()
        assert len(asked) < len(plan.nodes)
        full = model.evaluate(plan.nodes)
        assert model.evaluate(asked).tobytes() == full[at].tobytes()
        dead = np.ones(len(plan.nodes), dtype=bool)
        dead[at] = False
        assert dead.any() and np.all(full[dead] == 0.0)
        assert np.all(plan.nodes[dead] > model.zero_above)
        assert np.all(plan.nodes[at] <= model.zero_above)
        assert chi.tobytes() == np.stack(plan.apply(model, full)).tobytes()
        for pair, cm, cp in zip(PLAN_PAIRS, *chi):
            ref_m, ref_p = chi_pair(model, pair)
            assert cm == pytest.approx(ref_m, rel=1e-8, abs=0.0)
            assert cp == pytest.approx(ref_p, rel=1e-8, abs=0.0)
        assert plan.fallbacks == 0

    def test_live_cuts_the_blocks_once_per_edge(self):
        # discriminate_gamma writes S on live(spectrum) and then calls apply,
        # which asks for the same edge: the blocks are cut once for both
        wide = reference_model(2.0, omega_e=100.0 * WE)
        narrow = replace(wide, omega_e=WE)
        plan = ChiPlan.covering(PLAN_PAIRS, [wide])
        first = plan.live(narrow)
        assert plan.live(replace(narrow, s0=2.0 * narrow.s0)) is first
        other = plan.live(wide)
        assert other is not first and other != first
        assert plan.live(narrow) == first

    def test_infinite_edge_reads_every_node(self):
        model = OverhauserModel(s0=1.0e-4, omega_l=0.6, omega_e=math.inf, gamma=1.0, coupling_c=2.0e4)
        plan = _model_plan(model)
        spy = _Spy(model)
        plan.apply(spy)
        (asked,) = spy.asked
        assert asked.tobytes() == plan.nodes.tobytes()

    def test_short_separation_block_ascends(self):
        # a 0 < delta_t < tau pair joins the swapped pair's regions and the
        # phase variance's, two rising runs, sorted once into one block
        pairs = [EvolutionPair(tau=3.0e-4, delta_t=1.0e-4), EvolutionPair(tau=2.0e-4, delta_t=5.0e-5)]
        wide, narrow = (reference_model(2.0, omega_e=we) for we in (100.0 * WE, WE))
        plan = ChiPlan.covering(pairs, [wide])
        blocks = plan.live(replace(wide, omega_e=math.inf))
        assert len(blocks) == 2 * len(pairs)
        assert sum(p.stop - p.start for p in blocks) == len(plan.nodes)
        assert all(np.all(np.diff(plan.nodes[p]) >= 0.0) for p in blocks)
        for model in (wide, narrow):
            chi_m, chi_p = plan.apply(model)
            for pair, cm, cp in zip(pairs, chi_m, chi_p):
                ref_m, ref_p = chi_pair(model, pair)
                assert cm == pytest.approx(ref_m, rel=1e-8, abs=0.0)
                assert cp == pytest.approx(ref_p, rel=1e-8, abs=0.0)
        assert len(_live_nodes(plan, narrow)) < len(plan.nodes)
        assert plan.fallbacks == 0

    def test_each_distinct_time_once(self, monkeypatch):
        # a time a region lists twice gets one Filon weight row per level,
        # as chi_pair integrates it once
        asked = []

        def spy(window, spec, breakpoints, period, level, times=None):
            asked.append(times)
            return original(window, spec, breakpoints, period, level, times)

        original = correlator.level_weights
        monkeypatch.setattr(correlator, "level_weights", spy)
        _model_plan(
            OverhauserModel(s0=1.0e-4, omega_l=0.6, omega_e=6.0e4, gamma=1.0, coupling_c=2.0e4)
        )
        filon = [t for t in asked if t is not None]
        assert filon and all(len(set(t)) == len(t) for t in filon)
        # the tails of delta_t = tau, 2 tau and 0 each repeat a time
        for p in PLAN_PAIRS[3:]:
            tail = (0.0, p.tau, p.delta_t, p.delta_t + p.tau, abs(p.delta_t - p.tau))
            assert tuple(dict.fromkeys(tail)) in filon

    def test_covering_serves_every_spectrum(self):
        models = [reference_model(g, omega_e=we) for g in (1.0, 2.0) for we in (WE, 10.0 * WE)]
        plan = ChiPlan.covering(PLAN_PAIRS[:2], models)
        for m in models:
            chi_m, chi_p = plan.apply(m)
            ref = np.array([chi_pair(m, pair) for pair in PLAN_PAIRS[:2]]).T
            np.testing.assert_allclose(chi_m, ref[0], rtol=1e-8, atol=0.0)
            np.testing.assert_allclose(chi_p, ref[1], rtol=1e-8, atol=0.0)
        assert plan.fallbacks == 0

    @pytest.mark.parametrize(
        "make",
        [
            lambda top: TabulatedModel(np.array([[1.0e1, 3.0], [1.0e3, 2.0], [1.0e5, 1.0e-3]])),
            lambda top: OverhauserModel(
                s0=1.0e-4, omega_l=0.6, omega_e=6.0e6, gamma=1.0, coupling_c=2.0e4
            ),
            lambda top: _NarrowLine(),
            # flat on both sides of omega_low, so only the rule on
            # breakpoints can tell, and a hard top inside the window
            lambda top: PowerLawModel(amplitude=1.0, alpha=0.0, omega_low=1.0e2, omega_high=top),
            lambda top: WhiteModel(level=2.0e3, omega_high=1.0e6),
        ],
        ids=["tabulated", "window_exceeds", "too_sharp", "undeclared_kink", "hard_top_inside"],
    )
    def test_fallback_counted(self, make):
        base = OverhauserModel(s0=1.0e-4, omega_l=0.6, omega_e=6.0e4, gamma=1.0, coupling_c=2.0e4)
        plan = ChiPlan.covering(PLAN_PAIRS, [base])
        plan.apply(base)
        assert plan.fallbacks == 0
        model = make(plan.omega_max)
        chi_m, chi_p = plan.apply(model)
        # every point goes through chi_pair, values and all
        assert plan.fallbacks == len(PLAN_PAIRS)
        for pair, cm, cp in zip(PLAN_PAIRS, chi_m, chi_p):
            assert (cm, cp) == chi_pair(model, pair)


class TestCorrelator:
    def test_zero_delay_moment(self):
        for m in small_zoo():
            tau = 2.0e-4
            pv = phase_variance(m, tau)
            got = autocorrelation_analytic(m, EvolutionPair(tau, 0.0))
            assert got == pytest.approx(0.5 * (1.0 + math.exp(-2.0 * pv)), rel=1e-8)

    def test_long_delay_limit(self):
        m = reference_model()
        tau = 5.0e-8
        pv = phase_variance(m, tau)
        got = autocorrelation_analytic(m, EvolutionPair(tau, 500.0))
        assert got == pytest.approx(math.exp(-pv), rel=1e-6)

    def test_bounds(self):
        m = reference_model()
        for dt in np.geomspace(1e-6, 10.0, 25):
            v = autocorrelation_analytic(m, EvolutionPair(5.0e-8, dt))
            assert 0.0 <= v <= 1.0

    def test_detuning_quarter_period_isolates_minus_branch(self):
        # with 2 omega_q tau = pi/2 the cos(2 omega_q tau) factor kills the
        # chi_plus term, leaving exp(-chi_minus/2)/2
        m = small_zoo()[1]
        tau, dt = 2.0e-4, 5.0e-3
        qubit = QubitParams(omega_q=math.pi / (4.0 * tau))
        got = autocorrelation_analytic(m, EvolutionPair(tau, dt), qubit)
        cm = chi_minus(m, EvolutionPair(tau, dt))
        assert got == pytest.approx(0.5 * math.exp(-cm / 2.0), rel=1e-9, abs=1e-12)

    def test_detuning_leaves_minus_term_invariant(self):
        # sweeping omega_q changes only the oscillatory chi_plus term; the
        # correlation minus its chi_plus part must be detuning independent
        m = small_zoo()[1]
        tau, dt = 2.0e-4, 5.0e-3
        cm, cp = chi_pair(m, EvolutionPair(tau, dt))
        for wq in (0.0, 1.0e3, 7.7e3):
            got = autocorrelation_analytic(
                m, EvolutionPair(tau, dt), QubitParams(omega_q=wq)
            )
            expect = 0.5 * math.cos(2.0 * wq * tau) * math.exp(
                -cp / 2.0
            ) + 0.5 * math.exp(-cm / 2.0)
            assert got == pytest.approx(expect, rel=1e-10, abs=1e-14)

    def test_readout_error_not_applied_to_ideal_correlator(self):
        # the analytic correlator is the ideal one; instrument attenuation
        # lives in correct_fidelity / the Monte Carlo sampler only
        m = small_zoo()[1]
        pair = EvolutionPair(2.0e-4, 5.0e-3)
        ideal = autocorrelation_analytic(m, pair)
        with_flips = autocorrelation_analytic(
            m, pair, QubitParams(readout_flip_prob=0.2)
        )
        assert with_flips == ideal


class TestT2Star:
    def test_white_closed_form(self):
        m = WhiteModel(level=2.0e3, omega_high=1.0e6)
        assert t2_star(m) == pytest.approx(1.0 / 2.0e3, rel=1e-2)

    def test_white_level_scaling(self):
        base = t2_star(WhiteModel(level=2.0e3, omega_high=1.0e6))
        quad = t2_star(WhiteModel(level=8.0e3, omega_high=1.0e6))
        assert quad == pytest.approx(base / 4.0, rel=1e-2)

    def test_quasistatic_limit(self):
        # when the noise is frozen on the window scale, the unity-variance
        # time is 1 / (coupling times rms field)
        m = reference_model()
        rms_rate = COUPLING * 7.0e-3
        assert t2_star(m) == pytest.approx(1.0 / rms_rate, rel=1e-3)

    @pytest.mark.parametrize(
        "model", [WhiteModel(level=2.0e3, omega_high=1.0e6), reference_model()], ids=["white", "overhauser"]
    )
    def test_bisected_once_per_tau(self, monkeypatch, model):
        # the bracket ends are evaluated once, and the root is bisected to 1e-10
        taus = []

        def counted(spectrum, tau, quad=None):
            taus.append(tau)
            return phase_variance(spectrum, tau, quad)

        monkeypatch.setattr(correlator, "phase_variance", counted)
        t2 = t2_star(model)
        assert len(set(taus)) == len(taus)
        below, above = max(t for t in taus if t <= t2), min(t for t in taus if t >= t2)
        assert above / below - 1.0 <= 1e-10
        assert phase_variance(model, t2) == pytest.approx(1.0, rel=1e-9)

    def test_zero_spectrum_error(self):
        z = TabulatedModel(np.array([[1.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            t2_star(z)


class TestChiMinusApprox:
    def test_quadratic_branch_value(self):
        m = reference_model(gamma=1.0)
        tau = 5.0e-8
        dt = 1.0e-2 / WE
        res = chi_minus_approx(m, EvolutionPair(tau, dt))
        assert res.branch == "quadratic"
        # a = Gamma(1/gamma + 1) = 1 for gamma = 1
        expect = (1.0 / math.pi) * COUPLING**2 * m.s0 * WE * WL**2 * tau**2 * dt**2
        assert res.value == pytest.approx(expect, rel=1e-10)

    def test_quadratic_branch_gamma2_constant(self):
        m = reference_model(gamma=2.0)
        tau = 5.0e-8
        dt = 1.0e-2 / WE
        res = chi_minus_approx(m, EvolutionPair(tau, dt))
        expect = (
            (math.sqrt(math.pi) / 2.0)
            / math.pi
            * COUPLING**2
            * m.s0
            * WE
            * WL**2
            * tau**2
            * dt**2
        )
        assert res.value == pytest.approx(expect, rel=1e-10)

    def test_linear_branch_value(self):
        m = reference_model(gamma=1.0)
        tau = 5.0e-8
        dt = math.sqrt((10.0 / WE) * (0.1 / WL))
        res = chi_minus_approx(m, EvolutionPair(tau, dt))
        assert res.branch == "linear"
        expect = COUPLING**2 * m.s0 * WL**2 * tau**2 * dt
        assert res.value == pytest.approx(expect, rel=1e-10)

    def test_branches_track_quadrature_within_20_percent(self):
        tau = 5.0e-8
        for gamma in (1.0, 2.0):
            m = reference_model(gamma=gamma)
            for dt in (1.0e-2 / WE, math.sqrt((10.0 / WE) * (0.1 / WL))):
                approx = chi_minus_approx(m, EvolutionPair(tau, dt))
                exact = chi_minus(m, EvolutionPair(tau, dt))
                assert approx.value == pytest.approx(exact, rel=0.20)

    def test_plateau_tracks_quadrature(self):
        tau = 5.0e-8
        for gamma in (1.0, 2.0):
            m = reference_model(gamma=gamma)
            dt = 1.0e2 / WL
            approx = chi_minus_approx(m, EvolutionPair(tau, dt))
            assert approx.branch == "plateau"
            exact = chi_minus(m, EvolutionPair(tau, dt))
            assert approx.value == pytest.approx(exact, rel=0.02)
            assert "2 tau^2" in approx.note

    def test_crossover_flag(self):
        m = reference_model()
        tau = 5.0e-8
        mid = chi_minus_approx(m, EvolutionPair(tau, math.sqrt((10.0 / WE) * (0.1 / WL))))
        assert not mid.crossover
        near = chi_minus_approx(m, EvolutionPair(tau, 2.0 / WE))
        assert near.crossover

    def test_tau_warning(self):
        m = reference_model()
        assert not chi_minus_approx(m, EvolutionPair(5.0e-8, 1.0e-3)).tau_warning
        assert chi_minus_approx(m, EvolutionPair(5.0e-6, 1.0e-3)).tau_warning

    def test_no_cutoff_rejected(self):
        m = reference_model(omega_e=math.inf)
        with pytest.raises(ValueError):
            chi_minus_approx(m, EvolutionPair(5.0e-8, 1.0e-3))


class TestLinearized:
    def test_zero_delay_is_half(self):
        m = reference_model()
        res = autocorrelation_linearized(m, EvolutionPair(5.0e-8, 0.0))
        assert res.value == pytest.approx(0.5, rel=1e-12)

    def test_long_delay_offset(self):
        m = reference_model()
        tau = 5.0e-8
        var = variance(m)
        res = autocorrelation_linearized(m, EvolutionPair(tau, 100.0))
        assert res.value == pytest.approx(0.5 - 0.5 * tau**2 * var, rel=1e-4)

    def test_matches_exact_when_valid(self):
        # strong dephasing kills the oscillatory term, and a small
        # linearization shift keeps the expansion accurate
        m = reference_model()
        tau = 5.0e-8
        var = variance(m)
        for dt in np.geomspace(5.0e-8, 8.0e-5, 8):
            r = beta_autocorrelation(m, dt)
            assert tau**2 * abs(var - r) < 1e-2
            lin = autocorrelation_linearized(m, EvolutionPair(tau, dt))
            exact = autocorrelation_analytic(m, EvolutionPair(tau, dt))
            assert lin.within_validity
            assert abs(lin.value - exact) < 1e-3

    def test_validity_flag_fires(self):
        m = reference_model()
        res = autocorrelation_linearized(m, EvolutionPair(1.0e-5, 1.0))
        assert not res.within_validity


class TestCorrectFidelity:
    def test_identity_at_zero(self):
        assert correct_fidelity(0.3, 0.0) == 0.3

    def test_quarter_flip(self):
        assert correct_fidelity(0.125, 0.25) == pytest.approx(0.5, rel=1e-12)

    def test_round_trip(self):
        eps = 0.1
        ideal = 0.77
        raw = ideal * (1.0 - 2.0 * eps) ** 2
        assert correct_fidelity(raw, eps) == pytest.approx(ideal, rel=1e-12)

    def test_array_corrects_each_estimate(self):
        raw = np.array([0.3, 0.125, -0.02])
        assert correct_fidelity(raw, 0.1).tolist() == [correct_fidelity(r, 0.1) for r in raw.tolist()]

    def test_domain(self):
        with pytest.raises(ValueError):
            correct_fidelity(0.3, 0.5)
        with pytest.raises(ValueError):
            correct_fidelity(0.3, -0.01)


class TestQubitParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            QubitParams(readout_flip_prob=0.5)
        with pytest.raises(ValueError):
            QubitParams(dead_time=-1.0)

    @pytest.mark.parametrize("field", ["omega_q", "readout_flip_prob", "dead_time"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            QubitParams(**{field: value})


class TestEvolutionPair:
    @pytest.mark.parametrize(
        "tau, delta_t, field",
        [
            (math.inf, 1e-3, "tau"),
            (math.nan, 1e-3, "tau"),
            (1e-3, math.nan, "delta_t"),
            (1e-3, math.inf, "delta_t"),
        ],
    )
    def test_non_finite_refused(self, tau, delta_t, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            EvolutionPair(tau, delta_t)
