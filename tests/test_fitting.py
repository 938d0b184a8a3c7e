"""Spectrum-parameter inference from correlation curves."""

import math
import warnings

import numpy as np
import pytest

from shotcorr import fitting
from shotcorr.correlator import EvolutionPair, autocorrelation_analytic
from shotcorr.fitting import (
    FitParam,
    FitProblem,
    chi_squared,
    discriminate_gamma,
    estimate_alpha_slope,
    fit,
    predict,
)
from shotcorr.numerics import QuadratureSpec
from shotcorr.spectra import OverhauserModel, PowerLawModel, TabulatedModel, WhiteModel

QUICK = QuadratureSpec(rel_tol=1e-6)


def lorentzian_family(values):
    return OverhauserModel(
        s0=values["s0"],
        omega_l=2.0e3,
        omega_e=values.get("omega_e", 2.0e6),
        gamma=1.0,
        coupling_c=1.0,
    )


def analytic_curve(model, tau, dts, quad=None):
    return np.array(
        [autocorrelation_analytic(model, EvolutionPair(tau, dt), quad=quad) for dt in dts]
    )


def white_problem(noise_seed=None, se=0.01):
    truth = WhiteModel(level=2.0e3, omega_high=1.0e6)
    tau = 2.0e-4
    dts = np.geomspace(3.0e-4, 3.0e-3, 8)
    corr = analytic_curve(truth, tau, dts)
    if noise_seed is not None:
        corr = corr + np.random.default_rng(noise_seed).normal(0.0, se, len(dts))
    return FitProblem(
        delta_t=dts,
        tau=np.full(len(dts), tau),
        correlation=corr,
        stderr=np.full(len(dts), se),
        build=lambda v: WhiteModel(level=v["level"], omega_high=1.0e6),
        params=(FitParam("level", 1.0e2, 1.0e5),),
    )


class TestPredict:
    def test_matches_pointwise_forward_model(self):
        truth = lorentzian_family({"s0": 4.0e3})
        tau = 5.0e-4
        dts = np.geomspace(1.0e-5, 1.0e-3, 5)
        prob = FitProblem(
            delta_t=dts,
            tau=np.full(5, tau),
            correlation=np.full(5, 0.5),
            stderr=np.full(5, 0.01),
            build=lorentzian_family,
            params=(FitParam("s0", 1.0e2, 1.0e5),),
        )
        got = predict(prob, {"s0": 4.0e3}, quad=QUICK)
        expect = analytic_curve(truth, tau, dts, quad=QUICK)
        assert np.allclose(got, expect, rtol=1e-10)

    def test_zero_amplitude_spectrum_flat_unity(self):
        zero = TabulatedModel(np.array([[1.0, 0.0], [10.0, 0.0]]))
        dts = np.geomspace(1.0e-4, 1.0e-2, 4)
        prob = FitProblem(
            delta_t=dts,
            tau=np.full(4, 1.0e-4),
            correlation=np.full(4, 1.0),
            stderr=np.full(4, 0.01),
            build=lambda v: zero,
            params=(FitParam("dummy", 0.1, 10.0),),
        )
        assert np.allclose(predict(prob, {"dummy": 1.0}), 1.0, atol=1e-12)

    def test_residuals_consistent_with_injected_noise(self):
        truth = WhiteModel(level=2.0e3, omega_high=1.0e6)
        tau = 2.0e-4
        dts = np.geomspace(3.0e-4, 1.0e-2, 20)
        se = 0.01
        clean = analytic_curve(truth, tau, dts)
        noisy = clean + np.random.default_rng(8).normal(0.0, se, 20)
        prob = FitProblem(
            delta_t=dts,
            tau=np.full(20, tau),
            correlation=noisy,
            stderr=np.full(20, se),
            build=lambda v: WhiteModel(level=v["level"], omega_high=1.0e6),
            params=(FitParam("level", 1.0e2, 1.0e5),),
        )
        red = chi_squared(prob, {"level": 2.0e3}) / 20.0
        assert 0.5 <= red <= 1.5

    def test_chi_squared_point_order_invariant(self):
        prob = white_problem(noise_seed=9)
        perm = np.array([3, 1, 4, 0, 2, 7, 6, 5])
        shuffled = FitProblem(
            delta_t=prob.delta_t[perm],
            tau=prob.tau[perm],
            correlation=prob.correlation[perm],
            stderr=prob.stderr[perm],
            build=prob.build,
            params=prob.params,
        )
        a = chi_squared(prob, {"level": 2.3e3})
        b = chi_squared(shuffled, {"level": 2.3e3})
        assert a == pytest.approx(b, rel=1e-12)


class TestFit:
    def test_noise_free_init_at_truth(self):
        truth = lorentzian_family({"s0": 4.0e3, "omega_e": 2.0e6})
        tau = 5.0e-4
        dts = np.geomspace(1.0e-6, 1.0e-3, 5)
        corr = analytic_curve(truth, tau, dts, quad=QUICK)
        prob = FitProblem(
            delta_t=dts,
            tau=np.full(5, tau),
            correlation=corr,
            stderr=np.full(5, 0.01),
            build=lorentzian_family,
            params=(
                FitParam("s0", 1.0e2, 1.0e5),
                FitParam("omega_e", 1.0e5, 1.0e8),
            ),
        )
        res = fit(
            prob,
            init={"s0": 4.0e3, "omega_e": 2.0e6},
            n_starts=1,
            max_eval=150,
            quad=QUICK,
        )
        assert res.chi2 < 1.0e-10
        assert res.values["s0"] == pytest.approx(4.0e3, rel=1e-4)
        assert res.values["omega_e"] == pytest.approx(2.0e6, rel=1e-4)

    def test_white_level_recovery(self):
        prob = white_problem(noise_seed=10)
        res = fit(prob, n_starts=2, max_eval=600, quad=QUICK)
        assert res.success
        err = res.errors()["level"]
        assert abs(res.values["level"] - 2.0e3) < 3.0 * err
        assert res.reduced_chi2 < 3.0
        assert res.dof == 7

    def test_cutoff_recovery_two_parameters(self):
        # a fixed-tau design barely sees the cutoff; the constant-contrast
        # schedule holds the signal in the informative band, and there both
        # s0 (depth) and the cutoff (knee position) recover at 1% noise
        from shotcorr.schedules import tau_constant_contrast
        from shotcorr.spectra import coupling_from_g

        wl, we = 2.0 * math.pi * 0.1, 2.0 * math.pi * 1.0e4
        c = coupling_from_g(-0.44)
        truth = OverhauserModel.from_rms(7.0e-3, wl, we, 1.0, c)
        dts = np.concatenate(
            [
                np.geomspace(3.0e-6, 2.2e-5, 6),
                np.geomspace(2.8e-5, 1.6e-4, 3),
                np.geomspace(2.5e-4, 5.0e-3, 3),
            ]
        )
        taus = np.array([tau_constant_contrast(truth, dt, target=2.0) for dt in dts])
        se = 0.01
        corr = np.array(
            [
                autocorrelation_analytic(truth, EvolutionPair(t, dt), quad=QUICK)
                for t, dt in zip(taus, dts)
            ]
        )
        corr = corr + np.random.default_rng(11).normal(0.0, se, len(dts))
        prob = FitProblem(
            delta_t=dts,
            tau=taus,
            correlation=corr,
            stderr=np.full(len(dts), se),
            build=lambda v: OverhauserModel(
                s0=v["s0"], omega_l=wl, omega_e=v["omega_e"], gamma=1.0, coupling_c=c
            ),
            params=(
                FitParam("s0", 1.0e-6, 1.0),
                FitParam("omega_e", 1.0e3, 1.0e7),
            ),
        )
        res = fit(prob, n_starts=2, max_eval=700, seed=1, quad=QUICK)
        assert res.values["omega_e"] == pytest.approx(we, rel=0.2)
        assert res.values["s0"] == pytest.approx(truth.s0, rel=0.1)

    def test_power_law_slope_recovery(self):
        # amplitude pitched so the exponent sits near 2 mid-curve, where
        # the correlator is most sensitive to the slope
        tau = 1.0e-4
        dts = np.geomspace(1.0e-3, 1.0e-1, 8)

        def family(v):
            return PowerLawModel(
                amplitude=v["amplitude"],
                alpha=v["alpha"],
                omega_low=0.5,
                omega_high=1.0e7,
            )

        from shotcorr.correlator import chi_minus

        amp = 2.0 / chi_minus(
            family({"amplitude": 1.0, "alpha": 1.5}),
            EvolutionPair(tau, 3.0e-2),
            quad=QUICK,
        )
        truth = family({"amplitude": amp, "alpha": 1.5})
        se = 0.01
        corr = analytic_curve(truth, tau, dts, quad=QUICK)
        corr = corr + np.random.default_rng(3).normal(0.0, se, len(dts))
        prob = FitProblem(
            delta_t=dts,
            tau=np.full(len(dts), tau),
            correlation=corr,
            stderr=np.full(len(dts), se),
            build=family,
            params=(
                FitParam("amplitude", amp / 100.0, amp * 100.0),
                FitParam("alpha", 0.5, 2.5, log_scale=False),
            ),
        )
        res = fit(
            prob,
            init={"amplitude": 3.0 * amp, "alpha": 1.2},
            n_starts=1,
            max_eval=300,
            seed=0,
            quad=QUICK,
        )
        assert res.values["alpha"] == pytest.approx(1.5, abs=0.05)
        assert res.success

    def test_init_validation(self):
        prob = white_problem(noise_seed=10)
        with pytest.raises(ValueError, match="level"):
            fit(prob, init={"wrong_name": 1.0e3}, n_starts=1, max_eval=10)
        with pytest.raises(ValueError):
            fit(prob, init={"level": 1.0e7}, n_starts=1, max_eval=10)

    def test_sobol_starts_raise_no_warning(self):
        # three starts are no power of two; the draw must stay silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(white_problem(noise_seed=10), n_starts=3, max_eval=150, quad=QUICK)
        assert res.n_eval > 0

    @pytest.mark.parametrize("n_starts", [-1, 0])
    def test_impossible_n_starts_named(self, n_starts):
        with pytest.raises(ValueError, match="n_starts"):
            fit(white_problem(noise_seed=10), n_starts=n_starts)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            FitProblem(
                delta_t=np.array([1.0e-3]),
                tau=np.array([1.0e-4]),
                correlation=np.array([0.5]),
                stderr=np.array([0.01]),
                build=lambda v: WhiteModel(level=v["level"], omega_high=1.0e6),
                params=(FitParam("level", 1.0, 10.0),),
            )
        with pytest.raises(ValueError):
            FitProblem(
                delta_t=np.array([1.0e-3, 2.0e-3]),
                tau=np.array([1.0e-4, 1.0e-4]),
                correlation=np.array([0.5, 0.4]),
                stderr=np.array([0.01, 0.0]),
                build=lambda v: WhiteModel(level=v["level"], omega_high=1.0e6),
                params=(FitParam("level", 1.0, 10.0),),
            )

    def test_result_serialization_keys(self):
        prob = white_problem(noise_seed=10)
        res = fit(prob, n_starts=1, max_eval=300, quad=QUICK)
        d = res.to_dict()
        for key in ("values", "errors", "chi2", "dof", "n_points", "success"):
            assert key in d

    def test_bookkeeping_counts_model_evaluations(self, monkeypatch):
        # n_eval counts every residual evaluation, Jacobian columns included
        calls = []

        def counted(problem, values, quad=None):
            calls.append(values)
            return original(problem, values, quad)

        original = fitting.predict
        monkeypatch.setattr(fitting, "predict", counted)
        res = fit(white_problem(noise_seed=10), init={"level": 5.0e3}, n_starts=1, quad=QUICK)
        assert res.n_eval > 0
        assert res.n_eval == len(calls)


def _internal_hessian(chi2, x, h):
    """Central-difference Hessian of ``chi2`` at ``x`` with steps ``h``."""
    d = len(x)
    hess = np.empty((d, d))
    f0 = chi2(x)
    for i in range(d):
        ei = np.eye(d)[i] * h[i]
        hess[i, i] = (chi2(x + ei) - 2.0 * f0 + chi2(x - ei)) / h[i] ** 2
        for j in range(i + 1, d):
            ej = np.eye(d)[j] * h[j]
            hess[i, j] = hess[j, i] = (
                chi2(x + ei + ej) - chi2(x + ei - ej) - chi2(x - ei + ej) + chi2(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return hess


def _hessian_covariance(prob, values, h=1.0e-3):
    """2 * inv(H) of chi_squared over log10 coordinates, in natural units."""
    names = list(values)
    x = np.log10([values[n] for n in names])

    def chi2(xv):
        return chi_squared(prob, dict(zip(names, 10.0**xv)), quad=QUICK)

    hess = _internal_hessian(chi2, x, np.full(len(x), h))
    scale = np.log(10.0) * 10.0**x
    return 2.0 * np.linalg.inv(hess) * np.outer(scale, scale)


def _constant_contrast_curve(noise_seed=None):
    """A gamma = 1 constant-contrast curve: (dts, taus, corr, stderr, omega_l, c)."""
    from shotcorr.schedules import tau_constant_contrast
    from shotcorr.spectra import coupling_from_g

    wl, we = 2.0 * math.pi * 0.1, 2.0 * math.pi * 1.0e4
    c = coupling_from_g(-0.44)
    truth = OverhauserModel.from_rms(7.0e-3, wl, we, 1.0, c)
    dts = np.array([5.0e-6, 1.0e-5, 2.0e-5, 1.0e-3])
    taus = np.array([tau_constant_contrast(truth, dt, target=2.0) for dt in dts])
    corr = np.array(
        [
            autocorrelation_analytic(truth, EvolutionPair(t, dt), quad=QUICK)
            for t, dt in zip(taus, dts)
        ]
    )
    se = np.full(len(dts), 5.0e-4)
    if noise_seed is not None:
        corr = corr + np.random.default_rng(noise_seed).normal(0.0, se)
    return dts, taus, corr, se, wl, c


class TestCovariance:
    """On noise-free data the Gauss-Newton covariance is 2 * inv(Hessian)."""

    def test_fit_matches_hessian(self):
        truth = lorentzian_family({"s0": 4.0e3, "omega_e": 2.0e6})
        tau = 5.0e-4
        dts = np.geomspace(1.0e-6, 1.0e-3, 5)
        prob = FitProblem(
            delta_t=dts,
            tau=np.full(5, tau),
            correlation=analytic_curve(truth, tau, dts, quad=QUICK),
            stderr=np.full(5, 0.01),
            build=lorentzian_family,
            params=(FitParam("s0", 1.0e2, 1.0e5), FitParam("omega_e", 1.0e5, 1.0e8)),
        )
        init = {"s0": 4.0e3, "omega_e": 2.0e6}
        res = fit(prob, init=init, n_starts=1, max_eval=50, quad=QUICK)
        assert res.chi2 < 1.0e-10
        ref = _hessian_covariance(prob, res.values)
        assert np.allclose(res.cov, ref, rtol=0.02, atol=0.0)
        # unsymmetrized, this case's off-diagonals differ in the last bit
        assert np.array_equal(res.cov, res.cov.T)

    def test_discriminate_gamma_matches_hessian(self):
        dts, taus, corr, se, wl, c = _constant_contrast_curve()
        decision = discriminate_gamma(
            dts, taus, corr, se, omega_l=wl, coupling_c=c, gammas=(1.0,), quad=QUICK
        )
        res = decision.fits[1.0]
        assert res.chi2 < 1.0e-6
        # chi is linear in s0, so chi_squared of the full model is the
        # profiled chi2 of the fit
        prob = FitProblem(
            delta_t=dts,
            tau=taus,
            correlation=corr,
            stderr=se,
            build=lambda v: OverhauserModel(v["s0"], wl, v["omega_e"], 1.0, c),
            params=(FitParam("s0", 1.0e-8, 1.0), FitParam("omega_e", 1.0e3, 1.0e7)),
        )
        ref = _hessian_covariance(prob, res.values)
        assert np.allclose(res.cov, ref, rtol=0.02, atol=0.0)

    def test_discriminate_gamma_cov_exactly_symmetric(self):
        # with this noise draw the unsymmetrized off-diagonals differ in the last bit
        dts, taus, corr, se, wl, c = _constant_contrast_curve(noise_seed=0)
        decision = discriminate_gamma(dts, taus, corr, se, omega_l=wl, coupling_c=c, quad=QUICK)
        for res in decision.fits.values():
            assert np.array_equal(res.cov, res.cov.T)


class TestDiscriminateGamma:
    def test_plateau_only_data_indeterminate(self):
        # deep-plateau delays carry no cutoff information: both envelope
        # shapes fit equally well and the decision must say so
        truth = OverhauserModel(
            s0=4.0e3, omega_l=2.0e3, omega_e=2.0e6, gamma=1.0, coupling_c=1.0
        )
        tau = 5.0e-4
        dts = np.geomspace(1.0e-2, 1.0, 8)
        se = 0.005
        corr = analytic_curve(truth, tau, dts, quad=QUICK)
        corr = corr + np.random.default_rng(12).normal(0.0, se, len(dts))
        decision = discriminate_gamma(
            dts,
            np.full(len(dts), tau),
            corr,
            np.full(len(dts), se),
            omega_l=2.0e3,
            coupling_c=1.0,
            quad=QUICK,
        )
        assert decision.indeterminate
        assert decision.delta_chi2 < 9.0

    def test_serialization_keys(self):
        truth = OverhauserModel(
            s0=4.0e3, omega_l=2.0e3, omega_e=2.0e6, gamma=1.0, coupling_c=1.0
        )
        tau = 5.0e-4
        dts = np.geomspace(1.0e-2, 1.0, 8)
        corr = analytic_curve(truth, tau, dts, quad=QUICK)
        decision = discriminate_gamma(
            dts,
            np.full(len(dts), tau),
            corr,
            np.full(len(dts), 0.005),
            omega_l=2.0e3,
            coupling_c=1.0,
            quad=QUICK,
        )
        d = decision.to_dict()
        for key in ("best_gamma", "delta_chi2", "indeterminate", "fits"):
            assert key in d


    def test_bookkeeping_counts_sweeps(self, monkeypatch):
        # n_eval is the number of full-curve chi sweeps per candidate, so
        # with n points it accounts for every chi_pair call the fit made
        calls = []

        def counted(spectrum, pair, quad=None):
            calls.append(spectrum.gamma)
            return original(spectrum, pair, quad)

        original = fitting.chi_pair
        monkeypatch.setattr(fitting, "chi_pair", counted)
        truth = OverhauserModel(
            s0=4.0e3, omega_l=2.0e3, omega_e=2.0e6, gamma=1.0, coupling_c=1.0
        )
        tau = 5.0e-4
        dts = np.geomspace(1.0e-2, 1.0, 4)
        corr = analytic_curve(truth, tau, dts, quad=QUICK)
        decision = discriminate_gamma(
            dts,
            np.full(len(dts), tau),
            corr,
            np.full(len(dts), 0.005),
            omega_l=2.0e3,
            coupling_c=1.0,
            quad=QUICK,
        )
        for gamma, result in decision.fits.items():
            assert result.n_eval > 0
            assert result.n_eval * len(dts) == calls.count(gamma)
            assert result.success is True
        assert sum(r.n_eval for r in decision.fits.values()) * len(dts) == len(calls)


class TestAlphaSlope:
    @staticmethod
    def _curve_from_exponent(dts, chi):
        # strong-dephasing regime: correlation = exp(-chi/2) / 2
        return 0.5 * np.exp(-0.5 * np.asarray(chi))

    def test_recovers_three_halves(self):
        dts = np.geomspace(1.0e-3, 1.0e-1, 12)
        chi = 20.0 * dts**0.5
        corr = self._curve_from_exponent(dts, chi)
        est = estimate_alpha_slope(dts, corr, np.full(len(dts), 2.0e-3))
        assert est.alpha == pytest.approx(1.5, abs=0.05)
        assert not est.log_growth

    def test_flags_logarithmic_growth(self):
        dts = np.geomspace(1.0e-3, 1.0e-1, 12)
        chi = 0.8 * (np.log(dts / 1.0e-3) + 1.0)
        corr = self._curve_from_exponent(dts, chi)
        est = estimate_alpha_slope(dts, corr, np.full(len(dts), 2.0e-3))
        assert est.log_growth

    def test_shallow_slope_direction(self):
        dts = np.geomspace(1.0e-3, 1.0e-1, 12)
        chi = 3.0 * (dts / 1.0e-3) ** (-0.5)
        corr = self._curve_from_exponent(dts, chi)
        est = estimate_alpha_slope(dts, corr, np.full(len(dts), 2.0e-3))
        assert est.alpha < 0.75

    def test_noise_within_quoted_error(self):
        dts = np.geomspace(1.0e-3, 1.0e-1, 16)
        chi = 20.0 * dts**0.5
        corr = self._curve_from_exponent(dts, chi)
        corr = corr + np.random.default_rng(13).normal(0.0, 2.0e-3, len(dts))
        est = estimate_alpha_slope(dts, corr, np.full(len(dts), 2.0e-3))
        assert abs(est.alpha - 1.5) < 3.0 * est.alpha_err + 0.02

    def test_short_span_rejected(self):
        dts = np.geomspace(1.0e-3, 5.0e-3, 8)
        chi = 20.0 * dts**0.5
        corr = self._curve_from_exponent(dts, chi)
        with pytest.raises(ValueError, match="decade"):
            estimate_alpha_slope(dts, corr, np.full(len(dts), 2.0e-3))

    def test_too_few_window_points_rejected(self):
        # values outside the usable correlation window leave < 5 points
        dts = np.geomspace(1.0e-3, 1.0e-1, 8)
        corr = np.full(8, 0.499999)
        with pytest.raises(ValueError):
            estimate_alpha_slope(dts, corr, np.full(8, 2.0e-3))

    def test_serialization_keys(self):
        dts = np.geomspace(1.0e-3, 1.0e-1, 12)
        chi = 20.0 * dts**0.5
        corr = self._curve_from_exponent(dts, chi)
        est = estimate_alpha_slope(dts, corr, np.full(len(dts), 2.0e-3))
        d = est.to_dict()
        for key in ("alpha", "alpha_err", "log_growth", "n_used"):
            assert key in d
