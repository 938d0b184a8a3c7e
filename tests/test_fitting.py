"""Spectrum-parameter inference from correlation curves."""

import math
import warnings

import numpy as np
import pytest

from shotcorr import correlator, fitting
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


def free_edge_problem():
    """``white_problem(noise_seed=10)`` with the band edge ``omega_high`` free too."""
    prob = white_problem(noise_seed=10)
    return FitProblem(
        delta_t=prob.delta_t,
        tau=prob.tau,
        correlation=prob.correlation,
        stderr=prob.stderr,
        build=lambda v: WhiteModel(level=v["level"], omega_high=v["omega_high"]),
        params=(FitParam("level", 1.0e2, 1.0e5), FitParam("omega_high", 5.0e5, 2.0e6)),
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
        # n_eval counts every residual evaluation, Jacobian columns included;
        # each is one sweep of the call's plan
        calls = []

        def counted(plan, spectrum, values=None):
            calls.append(spectrum)
            return original(plan, spectrum, values)

        original = correlator.ChiPlan.apply
        monkeypatch.setattr(correlator.ChiPlan, "apply", counted)
        res = fit(white_problem(noise_seed=10), init={"level": 5.0e3}, n_starts=1, quad=QUICK)
        assert res.n_eval > 0
        assert res.n_eval == len(calls)

    def test_plan_serves_every_evaluation(self, monkeypatch):
        # a fixed band edge is a kink every corner shares, so the call's
        # plan serves the level fit whole and chi_pair is never called
        prob = white_problem(noise_seed=10)
        calls = []

        def counted(spectrum, pair, quad=None):
            calls.append(pair)
            return original(spectrum, pair, quad)

        original = correlator.chi_pair
        monkeypatch.setattr(correlator, "chi_pair", counted)
        monkeypatch.setattr(fitting, "chi_pair", counted)
        res = fit(prob, n_starts=2, max_eval=600, quad=QUICK)
        assert res.n_eval > 0
        assert calls == []

    def test_moving_kink_goes_through_chi_pair(self, monkeypatch):
        # the corners of a free omega_high put the band edge at two places,
        # so the plan has no kink there: a spectrum whose edge lies inside
        # the plan's window goes through chi_pair at every point
        prob = free_edge_problem()
        sent = []

        def recorded(plan, spectrum, values=None):
            out = original(plan, spectrum, values)
            if spectrum.omega_high < plan.omega_max:
                sent.append(len(plan.sent))
            return out

        original = correlator.ChiPlan.apply
        monkeypatch.setattr(correlator.ChiPlan, "apply", recorded)
        res = fit(prob, init={"level": 5.0e3, "omega_high": 1.0e6}, n_starts=0, quad=QUICK)
        assert len(sent) > 0
        assert sent == [len(prob.delta_t)] * len(sent)
        assert res.success
        # the level-only fit of this curve has a 1.3% error
        assert res.values["level"] == pytest.approx(2.0e3, rel=0.05)

    def test_failed_corner_not_evaluated_again(self, monkeypatch):
        # the undamped step after each kept one is clipped to the corner
        # (level 1e2, omega_high 2e6), which fails; the solver evaluated it
        # five times before it remembered the rejected point.  Skipping
        # the repeats keeps every iterate, so the values keep the bits of
        # the fit that evaluated them all.
        prob = free_edge_problem()
        points = []
        original = fitting._solve

        def recording(fun, jac, x0, lo, hi, max_nfev):
            def recorded(x):
                points.append(x.tobytes())
                return fun(x)

            return original(recorded, jac, x0, lo, hi, max_nfev)

        monkeypatch.setattr(fitting, "_solve", recording)
        res = fit(prob, init={"level": 5.0e3, "omega_high": 1.0e6}, n_starts=0, quad=QUICK)
        assert len(points) == len(set(points))
        assert res.values["level"].hex() == "0x1.f5c9985e11ce3p+10"
        assert res.values["omega_high"].hex() == "0x1.e7b0090e6e652p+19"

    @pytest.mark.parametrize("noise_seed", [0, 1])
    def test_chi2_is_full_model_chi_squared(self, noise_seed):
        # the plan's sums and chi_pair agreed to 1e-12 relative on these
        # curves; chi2 is the solver's cost at the reported values
        dts, taus, corr, se, wl, c = _constant_contrast_curve(noise_seed=noise_seed)
        prob = FitProblem(
            delta_t=dts,
            tau=taus,
            correlation=corr,
            stderr=se,
            build=lambda v: OverhauserModel(v["s0"], wl, v["omega_e"], 1.0, c),
            params=(FitParam("s0", 1.0e-8, 1.0), FitParam("omega_e", 1.0e3, 1.0e7)),
        )
        res = fit(prob, n_starts=2, max_eval=400, quad=QUICK)
        ref = chi_squared(prob, res.values, quad=QUICK)
        assert res.chi2 == pytest.approx(ref, rel=QUICK.rel_tol, abs=0.0)

    def test_refused_corner_left_out(self):
        # the lower omega_e corner lies below omega_l = 2e3, where the
        # family refuses to build; the plan covers the other corners and
        # the fit from init converges as with a box inside the family
        truth = lorentzian_family({"s0": 4.0e3, "omega_e": 2.0e6})
        tau = 5.0e-4
        dts = np.geomspace(1.0e-6, 1.0e-3, 5)
        prob = FitProblem(
            delta_t=dts,
            tau=np.full(5, tau),
            correlation=analytic_curve(truth, tau, dts, quad=QUICK),
            stderr=np.full(5, 0.01),
            build=lorentzian_family,
            params=(FitParam("s0", 1.0e2, 1.0e5), FitParam("omega_e", 1.0e2, 1.0e8)),
        )
        res = fit(prob, init={"s0": 4.0e3, "omega_e": 2.0e6}, n_starts=0, max_eval=150, quad=QUICK)
        assert res.success
        assert res.chi2 < 1.0e-10
        assert res.values["s0"] == pytest.approx(4.0e3, rel=1e-4)
        assert res.values["omega_e"] == pytest.approx(2.0e6, rel=1e-4)


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


    @staticmethod
    def _count_sweeps(monkeypatch):
        """Record the gamma of every ChiPlan.apply call (one per full-curve sweep)."""
        calls = []
        original = correlator.ChiPlan.apply

        def counted(plan, spectrum, values=None):
            calls.append(spectrum.gamma)
            return original(plan, spectrum, values)

        monkeypatch.setattr(correlator.ChiPlan, "apply", counted)
        return calls

    @staticmethod
    def _four_point_decision(gammas=(1.0, 2.0)):
        truth = OverhauserModel(
            s0=4.0e3, omega_l=2.0e3, omega_e=2.0e6, gamma=1.0, coupling_c=1.0
        )
        tau = 5.0e-4
        dts = np.geomspace(1.0e-2, 1.0, 4)
        corr = analytic_curve(truth, tau, dts, quad=QUICK)
        return discriminate_gamma(
            dts,
            np.full(len(dts), tau),
            corr,
            np.full(len(dts), 0.005),
            omega_l=2.0e3,
            coupling_c=1.0,
            gammas=gammas,
            quad=QUICK,
        )

    def test_bookkeeping_counts_sweeps(self, monkeypatch):
        # n_eval is the number of full-curve chi sweeps per candidate, so
        # it accounts for every plan application the fit made
        calls = self._count_sweeps(monkeypatch)
        decision = self._four_point_decision()
        for gamma, result in decision.fits.items():
            assert result.n_eval > 0
            assert result.n_eval == calls.count(gamma)
            assert result.success is True
        assert sum(r.n_eval for r in decision.fits.values()) == len(calls)

    def test_repeated_gamma_fitted_once(self, monkeypatch):
        single = self._four_point_decision(gammas=(1.0,))
        calls = self._count_sweeps(monkeypatch)
        decision = self._four_point_decision(gammas=(1.0, 1.0))
        assert list(decision.fits) == [1.0]
        assert decision.fits[1.0].n_eval == single.fits[1.0].n_eval == len(calls)
        # one shape compared with nothing decides nothing
        assert decision.indeterminate is True
        assert single.indeterminate is True

    def test_sweeps_hand_in_the_bits_of_evaluate(self, monkeypatch):
        # a sweep writes S only on the nodes the plan reads, and there it
        # is evaluate's S bit for bit; the narrow cutoffs leave nodes unread
        checked = []
        original = correlator.ChiPlan.apply

        def checking(plan, spectrum, values=None):
            at = np.concatenate([np.arange(p.start, p.stop) for p in plan.live(spectrum)])
            assert values[at].tobytes() == spectrum.evaluate(plan.nodes[at]).tobytes()
            checked.append(len(at) < len(plan.nodes))
            return original(plan, spectrum, values)

        monkeypatch.setattr(correlator.ChiPlan, "apply", checking)
        dts, taus, corr, se, wl, c = _constant_contrast_curve(noise_seed=3)
        discriminate_gamma(dts, taus, corr, se, omega_l=wl, coupling_c=c, quad=QUICK)
        assert len(checked) > 50 and any(checked)

    @pytest.mark.parametrize("design", ["contrast", "plateau"])
    def test_plan_serves_every_sweep(self, monkeypatch, design):
        # a change that quietly sends sweeps back to the adaptive chi_pair
        # shows here as calls, where the benchmark would see only time
        if design == "contrast":
            dts, taus, corr, se, wl, c = _constant_contrast_curve()
        else:
            truth = OverhauserModel(
                s0=4.0e3, omega_l=2.0e3, omega_e=2.0e6, gamma=1.0, coupling_c=1.0
            )
            dts = np.geomspace(1.0e-2, 1.0, 8)
            taus = np.full(len(dts), 5.0e-4)
            corr = analytic_curve(truth, 5.0e-4, dts, quad=QUICK)
            corr = corr + np.random.default_rng(12).normal(0.0, 0.005, len(dts))
            se, wl, c = np.full(len(dts), 0.005), 2.0e3, 1.0
        calls = []

        def counted(spectrum, pair, quad=None):
            calls.append(pair)
            return original(spectrum, pair, quad)

        original = correlator.chi_pair
        monkeypatch.setattr(correlator, "chi_pair", counted)
        monkeypatch.setattr(fitting, "chi_pair", counted)
        decision = discriminate_gamma(dts, taus, corr, se, omega_l=wl, coupling_c=c, quad=QUICK)
        assert all(r.n_eval > 0 for r in decision.fits.values())
        assert calls == []

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_cutoff_held_at_top_bound(self, monkeypatch, gamma):
        # the top bound sits at a third of the free optimum: the solver
        # ends on the bound, and every finite-difference step it takes
        # there stays inside the plan's window
        dts, taus, corr, se, wl, c = _constant_contrast_curve()
        free = discriminate_gamma(
            dts, taus, corr, se, omega_l=wl, coupling_c=c, gammas=(gamma,), quad=QUICK
        )
        hi = free.fits[gamma].values["omega_e"] / 3.0
        calls = []

        def counted(spectrum, pair, quad=None):
            calls.append(pair)
            return original(spectrum, pair, quad)

        original = correlator.chi_pair
        monkeypatch.setattr(correlator, "chi_pair", counted)
        monkeypatch.setattr(fitting, "chi_pair", counted)
        decision = discriminate_gamma(
            dts,
            taus,
            corr,
            se,
            omega_l=wl,
            coupling_c=c,
            gammas=(gamma,),
            omega_e_bounds=(10.0 * wl, hi),
            quad=QUICK,
        )
        res = decision.fits[gamma]
        assert res.values["omega_e"] <= hi
        assert calls == []
        assert np.all(np.isfinite(res.cov))
        assert np.array_equal(res.cov, res.cov.T)

    @pytest.mark.parametrize("noise_seed", [0, 1])
    def test_chi2_is_full_model_chi_squared(self, noise_seed):
        # the plan's sweeps and chi_pair agreed to 6e-13 relative on these
        # curves; chi2 is the solver's cost at the reported values
        dts, taus, corr, se, wl, c = _constant_contrast_curve(noise_seed=noise_seed)
        decision = discriminate_gamma(dts, taus, corr, se, omega_l=wl, coupling_c=c, quad=QUICK)
        for gamma, res in decision.fits.items():
            prob = FitProblem(
                delta_t=dts,
                tau=taus,
                correlation=corr,
                stderr=se,
                build=lambda v, g=gamma: OverhauserModel(v["s0"], wl, v["omega_e"], g, c),
                params=(FitParam("s0", 1.0e-8, 1.0), FitParam("omega_e", 1.0e3, 1.0e7)),
            )
            ref = chi_squared(prob, res.values, quad=QUICK)
            assert res.chi2 == pytest.approx(ref, rel=1.0e-11, abs=0.0)

    @pytest.mark.parametrize(
        "column, value",
        [("stderr", 0.0), ("stderr", -1e-3), ("delta_t", 0.0), ("tau", -1e-6), ("corr", math.nan)],
        ids=["zero_stderr", "negative_stderr", "zero_delta_t", "negative_tau", "nan_correlation"],
    )
    def test_bad_curve_rejected_like_fit_problem(self, column, value):
        # a zero stderr used to run on and return an infinite chi2 and a
        # NaN delta_chi2; the curve checks are the ones FitProblem makes
        dts, taus, corr, se, wl, c = _constant_contrast_curve()
        curve = {"delta_t": dts, "tau": taus, "corr": corr, "stderr": se}
        curve[column] = curve[column].copy()
        curve[column][1] = value
        name = "correlation" if column == "corr" else column

        def build(values):
            return WhiteModel(level=values["level"], omega_high=1.0e6)

        with pytest.raises(ValueError, match=name) as from_problem:
            FitProblem(*curve.values(), build=build, params=(FitParam("level", 1.0, 10.0),))
        with pytest.raises(ValueError, match=name) as from_discriminate:
            discriminate_gamma(*curve.values(), omega_l=wl, coupling_c=c, quad=QUICK)
        assert str(from_discriminate.value) == str(from_problem.value)


class TestDiscriminateSolver:
    """The residual Jacobian and the stopping point of discriminate_gamma's fits."""

    @staticmethod
    def _capture(monkeypatch):
        """Record (residuals, Jacobian, solution) of every _solve call."""
        runs = []
        original = fitting._solve

        def capturing(fun, jac, x0, lo, hi, max_nfev):
            sol = original(fun, jac, x0, lo, hi, max_nfev)
            runs.append((fun, jac, sol))
            return sol

        monkeypatch.setattr(fitting, "_solve", capturing)
        return runs

    def test_exact_columns_match_central_differences(self, monkeypatch):
        runs = self._capture(monkeypatch)
        dts, taus, corr, se, wl, c = _constant_contrast_curve(noise_seed=3)
        discriminate_gamma(dts, taus, corr, se, omega_l=wl, coupling_c=c, quad=QUICK)
        assert len(runs) == 2
        h = 1.0e-4
        for fun, jac, sol in runs:
            exact = jac(sol.x, fun(sol.x))
            for j, step in enumerate(h * np.eye(2)):
                central = (fun(sol.x + step) - fun(sol.x - step)) / (2.0 * h)
                np.testing.assert_allclose(exact[:, j], central, rtol=1e-6, atol=0.0)

    def test_forced_fallback_columns(self, monkeypatch):
        # a plan that serves no spectrum sends every point of every sweep
        # through chi_pair; the columns come from central differences of
        # chi_pair and agree with the plan's exact ones
        dts, taus, corr, se, wl, c = _constant_contrast_curve(noise_seed=3)
        exact = discriminate_gamma(dts, taus, corr, se, omega_l=wl, coupling_c=c, gammas=(2.0,))
        plans = []

        def serves_nothing(plan, spectrum):
            plans.append(plan)
            return False

        monkeypatch.setattr(correlator.ChiPlan, "_serves", serves_nothing)
        runs = self._capture(monkeypatch)
        forced = discriminate_gamma(dts, taus, corr, se, omega_l=wl, coupling_c=c, gammas=(2.0,))
        ((_, _, sol),) = runs
        assert np.all(np.isfinite(sol.jac)) and sol.status > 0
        res, ref = forced.fits[2.0], exact.fits[2.0]
        assert plans[0].fallbacks == len(dts) * res.n_eval
        for name, value in ref.values.items():
            assert res.values[name] == pytest.approx(value, rel=1e-7)
        np.testing.assert_allclose(res.cov, ref.cov, rtol=1e-5, atol=0.0)

    @pytest.mark.parametrize("noise_seed", [14, 18, 19])
    def test_no_knife_edge(self, noise_seed):
        # a relative change of 1e-15 in the correlation moved the values
        # and covariance of these fits by 1.4e-12 to 1.8e-12 when the
        # solver stopped on a cost test and took finite-difference columns
        dts, taus, corr, se, wl, c = _constant_contrast_curve(noise_seed=noise_seed)

        def entries(correlation):
            decision = discriminate_gamma(dts, taus, correlation, se, omega_l=wl, coupling_c=c, quad=QUICK)
            return np.array(
                [v for f in decision.fits.values() for v in [*f.values.values(), *f.cov.ravel()]]
            )

        base = entries(corr)
        for scale in (1.0 + 1e-15, 1.0 - 1e-15):
            moved = np.abs(entries(corr * scale) - base) / np.abs(base)
            assert moved.max() <= 1e-13


class TestLevelProfile:
    TAU = np.full(4, 1.0e-5)
    SE = np.full(4, 1.0e-3)

    def test_recovers_the_level(self):
        # a curve made at a known level; scan row k holds the chis times k,
        # so its best level is level / k, found to the last pass's grid step
        base = np.array([0.5, 1.0, 2.0, 4.0])
        scale = np.array([1.0, 3.0, 10.0])
        level = 3.7e-2
        corr = correlator.correlator_from_chi(level * base, 3.0 * level * base, self.TAU)
        u = scale[:, None] * base
        chi2, t, t_lo, t_hi = fitting._level_profile(u, 3.0 * u, corr, self.SE, self.TAU, 0.0)
        np.testing.assert_allclose(t, np.log10(level / scale), rtol=0.0, atol=1e-4)
        assert np.all((t_lo <= t) & (t <= t_hi)) and np.all(chi2 < 1e-3)

    def test_no_usable_point_boxes_around_level_one(self):
        # no point has 0 < 2 corr < 1, so no level explains the largest chi
        # on its own: the box is six decades either side of level 1, and
        # the masked log warns of nothing (warnings are errors here)
        u = np.array([[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        corr = np.array([0.0, -0.1, 0.5, 0.7])
        chi2, t, t_lo, t_hi = fitting._level_profile(u, 2.0 * u, corr, self.SE, self.TAU, 0.0)
        assert np.array_equal(t_lo, [-6.0] * 3) and np.array_equal(t_hi, [6.0] * 3)
        assert np.all((t_lo <= t) & (t <= t_hi)) and np.all(np.isfinite(chi2))

    def test_discriminate_calls_no_scalar_search(self, monkeypatch):
        # the scan's level profile is one grid evaluation, not a Brent
        # search per scan point
        from scipy import optimize

        def refuse(*args, **kwargs):
            raise AssertionError("minimize_scalar called")

        monkeypatch.setattr(optimize, "minimize_scalar", refuse)
        decision = TestDiscriminateGamma._four_point_decision()
        assert all(r.success for r in decision.fits.values())


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
