"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary
lines.  Statistical criteria use frozen seeds; the expected values were
derived from closed forms, dense-grid reference integration, or
multi-seed scans recorded in the project notes.
"""

import math

import numpy as np
import pytest

from oracles import chi_pair_trapezoid
from shotcorr.correlator import (
    EvolutionPair,
    QubitParams,
    autocorrelation_analytic,
    autocorrelation_linearized,
    chi_minus,
    chi_minus_approx,
    chi_pair,
    phase_variance,
)
from shotcorr.fitting import discriminate_gamma, estimate_alpha_slope
from shotcorr.montecarlo import Protocol, correlation_curve, run_protocol
from shotcorr.numerics import QuadratureSpec, integrate_spectral
from shotcorr.schedules import oneoverf_schedule, tau_constant_contrast
from shotcorr.spectra import (
    OverhauserModel,
    PowerLawModel,
    WhiteModel,
    beta_autocorrelation,
    coupling_from_g,
    variance,
)

W_L = 2.0 * math.pi * 0.1
W_E = 2.0 * math.pi * 1.0e4
COUPLING = coupling_from_g(-0.44)
RMS_FIELD = 7.0e-3


def reference_model(gamma=1.0, omega_e=W_E):
    return OverhauserModel.from_rms(RMS_FIELD, W_L, omega_e, gamma, COUPLING)


def _report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    assert ok, detail


def _loglog_slope(x, y):
    return np.polyfit(np.log(x), np.log(y), 1)[0]


class TestAcceptance:
    def test_01_echo_identity(self):
        # inter-shot exponent at delta_t = tau must equal the
        # single-pi-pulse refocusing integral (16/pi) S sin^4(w tau/2)/w^2
        zoo = [
            (WhiteModel(level=2.0e3, omega_high=1.0e6), (-5.0, -3.5), (1.0e-2, 1.0e6)),
            (
                OverhauserModel(s0=1.0e-4, omega_l=0.6, omega_e=6.0e4, gamma=1.0, coupling_c=2.0e4),
                (-4.0, -2.0),
                (1.0e-5, 2.0e6),
            ),
            (
                OverhauserModel(s0=1.0e-4, omega_l=0.6, omega_e=6.0e4, gamma=2.0, coupling_c=2.0e4),
                (-4.0, -2.0),
                (1.0e-5, 1.0e6),
            ),
            # density saturates below omega_low, so the reference window
            # must extend well under the band edge
            (
                PowerLawModel(amplitude=4.0e4, alpha=1.5, omega_low=1.0e2, omega_high=1.0e7),
                (-4.0, -2.5),
                (1.0e-2, 1.0e7),
            ),
        ]
        rng = np.random.default_rng(5)
        worst_quad = 0.0
        worst_trap = 0.0
        for case in range(20):
            model, (lg_lo, lg_hi), (w_lo, w_hi) = zoo[case % len(zoo)]
            tau = 10.0 ** rng.uniform(lg_lo, lg_hi)
            got = chi_minus(model, EvolutionPair(tau, tau))

            def echo_integrand(omega, model=model, tau=tau):
                return (16.0 / math.pi) * model.evaluate(omega) * np.sin(omega * tau / 2.0) ** 4 / omega**2

            ref = integrate_spectral(
                echo_integrand,
                2.0 * math.pi / tau,
                (w_lo, w_hi),
                QuadratureSpec(rel_tol=1.0e-9),
                breakpoints=model.breakpoints(),
            )
            worst_quad = max(worst_quad, abs(got - ref.value) / ref.value)
            cm_trap, _ = chi_pair_trapezoid(model.evaluate, tau, tau, w_lo, w_hi, n=400_000)
            worst_trap = max(worst_trap, abs(got - cm_trap) / cm_trap)
        _report(
            1,
            "echo identity over 20 randomized cases",
            worst_quad < 1.0e-6 and worst_trap < 1.0e-4,
            f"quadrature route {worst_quad:.2e}, dense-grid route {worst_trap:.2e}",
        )

    def test_02_regime_slopes(self):
        model = reference_model()
        tau = 5.0e-8

        def cm(dt):
            return chi_minus(model, EvolutionPair(tau, dt))

        quad_dts = np.geomspace(1.0e-7, 1.0e-6, 9)
        slope_quad = _loglog_slope(quad_dts, [cm(d) for d in quad_dts])
        lin_dts = np.geomspace(1.0e-3, 5.0e-2, 9)
        slope_lin = _loglog_slope(lin_dts, [cm(d) for d in lin_dts])
        plateau_dts = np.geomspace(50.0, 500.0, 5)
        plateau = np.array([cm(d) for d in plateau_dts])
        swing = plateau.max() / plateau.min() - 1.0
        ok = (
            abs(slope_quad - 2.0) < 0.05
            and abs(slope_lin - 1.0) < 0.05
            and swing < 0.01
        )
        _report(
            2,
            "short/intermediate/long delay exponents 2 -> 1 -> 0",
            ok,
            f"slopes {slope_quad:.4f}, {slope_lin:.4f}; plateau swing {swing:.2e}",
        )

    def test_03_branch_approximations(self):
        worst = 0.0
        plateau_worst = 0.0
        for gamma in (1.0, 2.0):
            model = reference_model(gamma=gamma)
            tau = 5.0e-8
            # representative delay inside each regime: deep quadratic,
            # log-middle of the linear window, deep plateau
            mid_quad = 1.0e-2 / model.omega_e
            mid_lin = math.sqrt((10.0 / model.omega_e) * (0.1 / model.omega_l))
            mid_plat = 1.0e2 / model.omega_l
            for dt, branch in ((mid_quad, "quadratic"), (mid_lin, "linear")):
                pair = EvolutionPair(tau, dt)
                approx = chi_minus_approx(model, pair)
                exact = chi_minus(model, pair)
                assert approx.branch == branch
                worst = max(worst, abs(approx.value / exact - 1.0))
            pair = EvolutionPair(tau, mid_plat)
            approx = chi_minus_approx(model, pair)
            assert approx.branch == "plateau"
            assert "2 tau^2" in approx.note
            plateau_worst = max(
                plateau_worst, abs(approx.value / chi_minus(model, pair) - 1.0)
            )
        ok = worst < 0.20 and plateau_worst < 0.02
        _report(
            3,
            "closed-form branch constants against quadrature",
            ok,
            f"rise/linear worst {worst:.3f}, plateau worst {plateau_worst:.2e}",
        )

    def test_04_white_noise_closed_form(self):
        level = 2.0e3
        tau = 2.0e-5
        model = WhiteModel(level=level, omega_high=1.0e7)
        expected_chi = 2.0 * level * tau
        expected_corr = math.exp(-level * tau)
        worst_chi = 0.0
        worst_corr = 0.0
        for dt in (tau, 3.0 * tau, 1.0e-3, 1.0e-1, 10.0):
            pair = EvolutionPair(tau, dt)
            cm, cp = chi_pair(model, pair)
            worst_chi = max(
                worst_chi,
                abs(cm / expected_chi - 1.0),
                abs(cp / expected_chi - 1.0),
            )
            corr = autocorrelation_analytic(model, pair)
            worst_corr = max(worst_corr, abs(corr / expected_corr - 1.0))
        ok = worst_chi < 0.01 and worst_corr < 0.01
        _report(
            4,
            "white noise: both exponents 2*level*tau, delay-free correlator",
            ok,
            f"chi worst {worst_chi:.2e}, correlator worst {worst_corr:.2e}",
        )

    def test_05_monte_carlo_fidelity(self):
        epsilon = 0.1
        qubit = QubitParams(readout_flip_prob=epsilon)
        cases = [
            ("white", WhiteModel(level=2.0e3, omega_high=1.0e6), 2.0e-4),
            (
                "lorentzian",
                OverhauserModel(s0=4.0e3, omega_l=2.0e3, omega_e=math.inf, gamma=1.0, coupling_c=1.0),
                5.0e-4,
            ),
            (
                "cutoff_gamma1",
                OverhauserModel(s0=4.5e3, omega_l=1.0e3, omega_e=1.0e6, gamma=1.0, coupling_c=1.0),
                5.0e-4,
            ),
            (
                "cutoff_gamma2",
                OverhauserModel(s0=4.5e3, omega_l=1.0e3, omega_e=1.0e6, gamma=2.0, coupling_c=1.0),
                5.0e-4,
            ),
            (
                "power_law",
                PowerLawModel(amplitude=5.0e6, alpha=1.5, omega_low=1.0e2, omega_high=1.0e7),
                5.0e-4,
            ),
        ]
        lags = (1, 2, 3, 5, 8)
        cycle = 1.0e-3
        attenuation = (1.0 - 2.0 * epsilon) ** 2
        worst_z = 0.0
        worst_se = 0.0
        for idx, (name, model, tau) in enumerate(cases):
            prot = Protocol(tau=tau, cycle_period=cycle, n_cycles=1000, qubit=qubit)
            records = run_protocol(model, prot, 100, seed=100 + idx)
            curve = correlation_curve(records, lags)
            for i, lag in enumerate(lags):
                pair = EvolutionPair(tau, lag * cycle)
                target = attenuation * autocorrelation_analytic(model, pair)
                z = abs(curve.correlation[i] - target) / curve.stderr[i]
                worst_z = max(worst_z, z)
                worst_se = max(worst_se, curve.stderr[i])
        # determinism: two runs of one seed on one representative case
        prot = Protocol(tau=2.0e-4, cycle_period=cycle, n_cycles=1000, qubit=qubit)
        model = cases[0][1]
        a = run_protocol(model, prot, 10, seed=42)
        b = run_protocol(model, prot, 10, seed=42)
        deterministic = all(
            np.array_equal(ra.outcomes, rb.outcomes) for ra, rb in zip(a, b)
        )
        ok = worst_z <= 3.0 and worst_se <= 0.01 and deterministic
        _report(
            5,
            "sampler matches attenuated analytic curve on 5 spectra x 5 delays",
            ok,
            f"worst |z| {worst_z:.2f}, worst stderr {worst_se:.4f}, deterministic {deterministic}",
        )

    def test_06_constant_contrast_design(self):
        g1 = reference_model(gamma=1.0)
        g2 = reference_model(gamma=2.0)
        target = 2.0

        def corr_along_schedule(model, dts):
            out = []
            for dt in dts:
                tau = tau_constant_contrast(g1, dt, target=target)
                out.append(autocorrelation_analytic(model, EvolutionPair(tau, dt)))
            return np.array(out)

        mid_dts = np.geomspace(6.0e-4, 0.1, 12)
        mid = corr_along_schedule(g1, mid_dts)
        in_band = bool((mid > 0.05).all() and (mid < 0.2).all())

        near_dts = np.geomspace(1.6e-5, 1.6e-4, 10)
        sep = np.abs(corr_along_schedule(g1, near_dts) - corr_along_schedule(g2, near_dts))
        # 1e5-shot shot-noise floor at contrast ~0.2
        stderr_floor = math.sqrt(0.95 / 1.0e5)
        separated = bool(sep.max() > 5.0 * stderr_floor)

        deep = 20.0
        tau_deep = tau_constant_contrast(g1, deep, target=target)
        p1 = autocorrelation_analytic(g1, EvolutionPair(tau_deep, deep))
        p2 = autocorrelation_analytic(g2, EvolutionPair(tau_deep, deep))
        merged = abs(p1 / p2 - 1.0) < 0.01

        ok = in_band and separated and merged
        _report(
            6,
            "constant-contrast curves: usable band, cutoff sensitivity, plateau merge",
            ok,
            f"band [{mid.min():.3f}, {mid.max():.3f}], separation {sep.max():.4f} vs "
            f"{5.0 * stderr_floor:.4f}, plateau ratio {p1 / p2:.6f}",
        )

    def test_07_oneoverf_flatness(self):
        level = 1.0e-7
        dts = np.geomspace(3.0e-3, 3.0, 16)
        sched = oneoverf_schedule(level, dts, variant="exact")

        def profile(alpha):
            model = PowerLawModel(
                amplitude=math.pi / level, alpha=alpha, omega_low=1.0e-5, omega_high=1.0e8
            )
            return np.array([chi_minus(model, pair) for pair in sched.pairs()])

        flat = profile(1.0)
        swing = flat.max() / flat.min() - 1.0
        rising = np.diff(profile(1.1))
        falling = np.diff(profile(0.9))
        ok = swing < 0.05 and bool((rising > 0).all()) and bool((falling < 0).all())
        _report(
            7,
            "scale-free spectrum flattened by the exact delay schedule",
            ok,
            f"swing {swing:.4f} over 3 decades; slopes 1.1 rising {(rising > 0).all()}, "
            f"0.9 falling {(falling < 0).all()}",
        )

    def test_08_inverse_round_trips(self):
        # three-segment delay design: dense near the cutoff knee, a few
        # anchors through the linear rise, a tail into the plateau
        dts = np.concatenate(
            [
                np.geomspace(3.0e-6, 2.2e-5, 15),
                np.geomspace(2.8e-5, 1.6e-4, 7),
                np.geomspace(2.5e-4, 5.0e-3, 8),
            ]
        )
        quad = QuadratureSpec(rel_tol=1.0e-6)
        decisions = {}
        for truth_gamma in (1.0, 2.0):
            truth = reference_model(gamma=truth_gamma)
            taus = np.array([tau_constant_contrast(truth, dt, target=2.0) for dt in dts])
            corr = np.empty(len(dts))
            se = np.empty(len(dts))
            for k, (dt, tau) in enumerate(zip(dts, taus)):
                prot = Protocol(tau=tau, cycle_period=dt, n_cycles=400)
                records = run_protocol(truth, prot, 25, seed=24 * 1000 + k)
                point = correlation_curve(records, [1])
                corr[k] = point.correlation[0]
                se[k] = point.stderr[0]
            assert se.max() < 0.015
            decisions[truth_gamma] = discriminate_gamma(
                dts,
                taus,
                corr,
                se,
                omega_l=W_L,
                coupling_c=COUPLING,
                quad=quad,
            )
        gamma_ok = all(
            decisions[g].best_gamma == g
            and decisions[g].delta_chi2 > 9.0
            and not decisions[g].indeterminate
            for g in (1.0, 2.0)
        )

        # slope recovery from two decades of fixed-tau synthetic data
        tau = 1.0e-4
        alpha_dts = np.geomspace(1.0e-3, 1.0e-1, 16)
        unit = PowerLawModel(amplitude=1.0, alpha=1.5, omega_low=0.5, omega_high=1.0e7)
        scale = 2.0 / chi_minus(unit, EvolutionPair(tau, 3.0e-2), quad=quad)
        model = PowerLawModel(amplitude=scale, alpha=1.5, omega_low=0.5, omega_high=1.0e7)
        clean = np.array(
            [
                autocorrelation_analytic(model, EvolutionPair(tau, dt), quad=quad)
                for dt in alpha_dts
            ]
        )
        se_alpha = 0.01
        noisy = clean + np.random.default_rng(7).normal(0.0, se_alpha, len(alpha_dts))
        est = estimate_alpha_slope(alpha_dts, noisy, np.full(len(alpha_dts), se_alpha))
        alpha_ok = abs(est.alpha - 1.5) < 0.05 and not est.log_growth

        ok = gamma_ok and alpha_ok
        _report(
            8,
            "simulate-fit round trips: envelope shape and slope recovery",
            ok,
            f"delta_chi2 {decisions[1.0].delta_chi2:.1f}/{decisions[2.0].delta_chi2:.1f}, "
            f"alpha {est.alpha:.3f}",
        )

    def test_09_linearized_regime(self):
        model = reference_model()
        tau = 5.0e-8
        var = variance(model)
        worst = 0.0
        checked = 0
        for dt in np.geomspace(5.0e-8, 1.0e-2, 40):
            shift = tau**2 * (beta_autocorrelation(model, dt) - var)
            if abs(shift) >= 1.0e-2:
                continue
            pair = EvolutionPair(tau, dt)
            lin = autocorrelation_linearized(model, pair)
            exact = autocorrelation_analytic(model, pair)
            worst = max(worst, abs(lin.value - exact))
            assert lin.within_validity
            checked += 1
        ok = checked >= 10 and worst < 1.0e-3
        _report(
            9,
            "first-order correlator inside its validity region",
            ok,
            f"{checked} delays checked, worst |diff| {worst:.2e}",
        )

    def test_10_trivial_identities(self):
        model = reference_model()
        tau = 5.0e-8
        pv = phase_variance(model, tau)

        zero = EvolutionPair(tau, 0.0)
        moment = autocorrelation_analytic(model, zero)
        second_moment_ok = moment == pytest.approx(
            0.5 * (1.0 + math.exp(-2.0 * pv)), rel=1.0e-9
        )
        cm0, _ = chi_pair(model, zero)
        chi_zero_ok = abs(cm0) < 1.0e-12

        bounds_ok = True
        for dt in np.geomspace(1.0e-7, 100.0, 12):
            c = autocorrelation_analytic(model, EvolutionPair(tau, dt))
            bounds_ok = bounds_ok and 0.0 <= c <= 1.0

        # a qubit splitting shifts only the phase-sum term: the difference
        # from the zero-splitting correlator is the predicted cosine factor
        pair = EvolutionPair(tau, 1.0e-3)
        cm, cp = chi_pair(model, pair)
        omega_q = 1.0e5
        with_split = autocorrelation_analytic(model, pair, QubitParams(omega_q=omega_q))
        without = autocorrelation_analytic(model, pair)
        predicted_delta = 0.5 * (math.cos(2.0 * omega_q * tau) - 1.0) * math.exp(-cp / 2.0)
        isolation_ok = (with_split - without) == pytest.approx(predicted_delta, rel=1.0e-9)
        quarter = autocorrelation_analytic(
            model, pair, QubitParams(omega_q=math.pi / (4.0 * tau))
        )
        quarter_ok = quarter == pytest.approx(0.5 * math.exp(-cm / 2.0), rel=1.0e-9)

        ok = second_moment_ok and chi_zero_ok and bounds_ok and isolation_ok and quarter_ok
        _report(
            10,
            "zero-delay moment, vanishing echo term, bounds, splitting isolation",
            ok,
            f"moment {second_moment_ok}, zero {chi_zero_ok}, bounds {bounds_ok}, "
            f"isolation {isolation_ok}, quarter-period {quarter_ok}",
        )
