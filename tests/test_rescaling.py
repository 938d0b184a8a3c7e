"""Time-rescaling invariance of every command, run through ``cli.main``.

Rescale time by k: tau -> tau / k, delta_t and the cycle period -> ... / k,
and S(omega) -> k S(omega / k).  Every phase distribution is unchanged,
so chi and the correlator are too, and the shot outcomes, since
rounding-level phase differences move a thresholded outcome with
negligible probability.  Each family scales by its law: Overhauser s0,
omega_l and omega_e times k; white level and omega_high times k;
power-law amplitude times k^(1 + alpha) and both edges times k.  A
schedule's tau scales by 1/k, the 1/f contrast level (s^2) by 1/k^2,
and a fitted rate or level follows its law.

Each tolerance is the largest relative spread measured over k in
{2 pi, 3, 1e3, 1e-3}, with a stated margin.  The CSV artifacts keep 12
significant digits, so a printed column that agrees to about 1e-15
before printing can still differ by one unit in its 12th digit (up to
1e-11 relative) when the two values straddle a rounding boundary;
those columns get 2e-11, two such units.
"""

import csv
import json
import math

import numpy as np
import pytest

from shotcorr import schedules
from shotcorr.cli import main
from shotcorr.correlator import ChiPlan, EvolutionPair, chi_pair, correlator_from_chi
from shotcorr.montecarlo import CorrelationCurve, ShotRecord, records_to_csv
from shotcorr.spectra import OverhauserModel, PowerLawModel

KS = [2.0 * math.pi, 3.0, 1.0e3, 1.0e-3]

# two units in the 12th significant digit of a CSV cell; measured: the
# chi, chi_plus and correlation cells printed identically at every k, and
# the printed times, multiplied back by k, within 3.8e-12
PRINTED = 2.0e-11


def _overhauser(s, k):
    return dict(s, s0=s["s0"] * k, omega_l=s["omega_l"] * k, omega_e=s["omega_e"] * k)


def _white(s, k):
    return dict(s, level=s["level"] * k, omega_high=s["omega_high"] * k)


def _power_law(s, k):
    return dict(
        s,
        amplitude=s["amplitude"] * k ** (1.0 + s["alpha"]),
        omega_low=s["omega_low"] * k,
        omega_high=s["omega_high"] * k,
    )


LAWS = {"overhauser": _overhauser, "white": _white, "power_law": _power_law}

SPECTRA = {
    "overhauser": {"family": "overhauser", "s0": 4.5e3, "omega_l": 1.0e3, "omega_e": 1.0e6,
                   "gamma": 1.0, "coupling_c": 1.0},
    "overhauser_gamma2": {"family": "overhauser", "s0": 4.5e3, "omega_l": 1.0e3,
                          "omega_e": 1.0e6, "gamma": 2.0, "coupling_c": 1.0},
    "white": {"family": "white", "level": 2.0e3, "omega_high": 1.0e6},
    "power_law": {"family": "power_law", "amplitude": 5.0e6, "alpha": 1.5, "omega_low": 1.0e2,
                  "omega_high": 1.0e7},
}


def _rescaled(spectrum, k):
    return LAWS[spectrum["family"]](spectrum, k)


def _run(tmp_path, command, name, config, seed=7):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"{name}.{'json' if command == 'fit' else 'csv'}"
    assert main([command, "--config", str(cfg), "--out", str(out), "--seed", str(seed)]) == 0
    if command == "fit":
        return json.loads(out.read_text())["result"]
    return _rows(out)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _column(rows, name, scale=1.0):
    return np.array([float(r[name]) for r in rows]) * scale


def _spread(got, want):
    """Largest relative difference; equal values (zeros included) count 0."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    diff = np.abs(got - want)
    rel = np.divide(diff, np.abs(want), out=np.zeros_like(diff), where=diff > 0.0)
    return float(np.max(rel, initial=0.0))


# -- simulate ----------------------------------------------------------------

# (spectrum at k = 1, tau)
SIMULATE = {"overhauser": 5.0e-4, "power_law": 2.0e-4}


def _simulate(tmp_path, name, spectrum, tau, cycle_period):
    protocol = {"tau": tau, "cycle_period": cycle_period, "n_cycles": 1000, "n_records": 16}
    protocol["lags"] = [1, 2, 3, 5, 8]
    rows = _run(tmp_path, "simulate", name, {"spectrum": spectrum, "protocol": protocol})
    curve = [(r["correlation"], r["stderr"]) for r in rows]
    outcomes = [r["outcome"] for r in _rows(tmp_path / f"{name}.records.csv")]
    return curve, outcomes


@pytest.mark.parametrize("family", sorted(SIMULATE))
def test_simulate_invariant_under_time_rescaling(tmp_path, family):
    spectrum, tau = SPECTRA[family], SIMULATE[family]
    cycle_period = 1.0e-3
    ref_curve, ref_outcomes = _simulate(tmp_path, "ref", spectrum, tau, cycle_period)
    assert len(ref_outcomes) == 16000 and set(ref_outcomes) == {"1", "-1"}
    for i, k in enumerate(KS):
        curve, outcomes = _simulate(
            tmp_path, f"k{i}", _rescaled(spectrum, k), tau / k, cycle_period / k
        )
        assert outcomes == ref_outcomes, f"k = {k}"
        assert curve == ref_curve, f"k = {k}"


# -- chi -----------------------------------------------------------------------

# delta_t = 0, below, at and twice the short tau, at the long one, and
# long against 1/omega_l; none on a regime edge (1/omega_e, 1/omega_l),
# where the regime column flips with the last bit of delta_t omega_e
CHI_TAUS = [2.0e-6, 5.0e-4]
CHI_DTS = [0.0, 7.0e-7, 2.0e-6, 4.0e-6, 3.0e-5, 5.0e-4, 1.0e-1, 10.0]


@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_chi_invariant_under_time_rescaling(tmp_path, name):
    spectrum = SPECTRA[name]

    def chi(label, spec, k):
        grid = {"tau": [t / k for t in CHI_TAUS], "delta_t": [d / k for d in CHI_DTS]}
        return _run(tmp_path, "chi", label, {"spectrum": spec, "chi": grid})

    ref = chi("ref", spectrum, 1.0)
    assert len(ref) == len(CHI_TAUS) * len(CHI_DTS)
    for i, k in enumerate(KS):
        rows = chi(f"k{i}", _rescaled(spectrum, k), k)
        for col in ("chi_minus", "chi_plus", "correlation"):
            assert _spread(_column(rows, col), _column(ref, col)) <= PRINTED, (k, col)
        for col in ("delta_t", "tau"):
            assert _spread(_column(rows, col, k), _column(ref, col)) <= PRINTED, (k, col)
        assert [r.get("regime") for r in rows] == [r.get("regime") for r in ref]


# -- ChiPlan.apply on the inverse design --------------------------------------

# the constant-contrast curve across the cutoff knee that `shotcorr fit`
# discriminates in the benchmark's inverse workload, gamma = 2 truth
W_L = 2.0 * math.pi * 0.1
W_E = 2.0 * math.pi * 1.0e4
COUPLING = 0.44 * 9.2740100783e-24 / 1.054571817e-34
INV_S0 = 1.5597184423005745e-04
INV_DTS = [5.0e-6, 1.0e-5, 2.0e-5, 1.0e-3]
INV_STDERR = 5.0e-4


def _inverse_truth(k=1.0, gamma=2.0, omega_e=W_E):
    return OverhauserModel(INV_S0 * k, W_L * k, omega_e * k, gamma, COUPLING)


def _inverse_pairs(k=1.0):
    truth = _inverse_truth()
    return [
        EvolutionPair(schedules.tau_constant_contrast(truth, dt, 2.0) / k, dt / k) for dt in INV_DTS
    ]


# measured at most 9.4e-16 relative; margin 10x
PLAN = 1.0e-14


def test_chi_plan_invariant_under_time_rescaling():
    def sweep(k):
        # one plan covering both cutoff shapes up to a hundredfold cutoff
        spectra = [_inverse_truth(k, g, we) for g in (1.0, 2.0) for we in (W_E, 1.0e2 * W_E)]
        plan = ChiPlan.covering(_inverse_pairs(k), spectra)
        chi = np.stack([np.stack(plan.apply(s)) for s in spectra])
        return chi, plan.fallbacks, len(plan.nodes)

    ref, ref_fallbacks, ref_nodes = sweep(1.0)
    assert ref_fallbacks == 0 and np.all(ref > 0.0)
    for k in KS:
        chi, fallbacks, nodes = sweep(k)
        assert (fallbacks, nodes) == (ref_fallbacks, ref_nodes), k
        assert _spread(chi, ref) <= PLAN, k


# -- schedule ----------------------------------------------------------------

SCHEDULE_DTS = [1.0e-5, 1.0e-4, 1.0e-3, 1.0e-2]


@pytest.mark.parametrize("kind", ["constant_contrast", "oneoverf"])
def test_schedule_tau_scales_by_one_over_k(tmp_path, kind):
    def schedule(label, k):
        sec = {"kind": kind, "delta_t": [d / k for d in SCHEDULE_DTS]}
        config = {"schedule": sec}
        if kind == "constant_contrast":
            config["spectrum"] = _rescaled(SPECTRA["overhauser"], k)
        else:
            sec["level"] = 1.0e-11 / k**2
        return _run(tmp_path, "schedule", label, config)

    ref = schedule("ref", 1.0)
    for i, k in enumerate(KS):
        rows = schedule(f"k{i}", k)
        for col in ("delta_t_s", "tau_s"):
            assert _spread(_column(rows, col, k), _column(ref, col)) <= PRINTED, (k, col)
        assert [r["flags"] for r in rows] == [r["flags"] for r in ref]


# -- correlate -----------------------------------------------------------------

CORRELATE_TAU, CORRELATE_CYCLE = 2.0e-4, 1.0e-3


def _markov_outcomes():
    # 12 records of 300 cycles, each a +-1 chain that flips with probability 0.1
    rng = np.random.default_rng(5)
    flips = rng.random((12, 300)) < 0.1
    start = np.where(rng.random((12, 1)) < 0.5, 1, -1)
    return start * np.cumprod(np.where(flips, -1, 1), axis=1)


def test_correlate_invariant_under_time_rescaling(tmp_path):
    outcomes = _markov_outcomes()

    def correlate(label, k):
        tau, cycle_period = CORRELATE_TAU / k, CORRELATE_CYCLE / k
        path = tmp_path / f"{label}.records.csv"
        records_to_csv([ShotRecord(o, tau, cycle_period) for o in outcomes], path)
        sec = {"records": str(path), "tau": tau, "cycle_period": cycle_period}
        sec.update(lags=[1, 2, 3, 5, 8, 13], epsilon=0.05)
        return _run(tmp_path, "correlate", label, {"correlate": sec})

    ref = correlate("ref", 1.0)
    kept = ("correlation", "stderr", "n_pairs", "correlation_raw", "stderr_raw")
    for i, k in enumerate(KS):
        rows = correlate(f"k{i}", k)
        assert [[r[c] for c in kept] for r in rows] == [[r[c] for c in kept] for r in ref]
        for col in ("delta_t_s", "tau_s"):
            assert _spread(_column(rows, col, k), _column(ref, col)) <= PRINTED, (k, col)


# -- fit ---------------------------------------------------------------------

ALPHA_SPECTRUM = PowerLawModel(amplitude=1.0e8, alpha=1.5, omega_low=1.0e-2, omega_high=1.0e7)
ALPHA_TAU = 1.0e-4
ALPHA_DTS = np.geomspace(3.0e-3, 3.0, 7)


def _write_curve(path, delta_t, tau, correlation, stderr):
    n = len(delta_t)
    CorrelationCurve(delta_t, tau, correlation, stderr, np.full(n, 100_000)).to_csv(path)


def _alpha_curve():
    corr = [
        correlator_from_chi(*chi_pair(ALPHA_SPECTRUM, EvolutionPair(ALPHA_TAU, dt)), ALPHA_TAU, 0.0)
        for dt in ALPHA_DTS
    ]
    return ALPHA_DTS, np.full(len(ALPHA_DTS), ALPHA_TAU), np.array(corr), np.full(len(corr), 1e-3)


def _inverse_curve():
    truth, pairs = _inverse_truth(), _inverse_pairs()
    noise = np.random.default_rng(3).normal(0.0, INV_STDERR, len(pairs))
    corr = [correlator_from_chi(*chi_pair(truth, p), p.tau, 0.0) for p in pairs]
    dt, tau = (np.array([getattr(p, a) for p in pairs]) for a in ("delta_t", "tau"))
    return dt, tau, np.array(corr) + noise, np.full(len(pairs), INV_STDERR)


def _fit_runs(tmp_path, curve, section):
    """``shotcorr fit`` at k = 1 and at each k of a curve whose times divide by k."""
    dt, tau, corr, se = curve
    runs = []
    for i, k in enumerate([1.0, *KS]):
        path = tmp_path / f"curve{i}.csv"
        _write_curve(path, dt / k, tau / k, corr, se)
        runs.append(_run(tmp_path, "fit", f"fit{i}", {"fit": {"input": str(path), **section(k)}}))
    return runs[0], zip(KS, runs[1:])


def _check_scaled_fit(res, ref, k, tol):
    """An Overhauser fit of (s0, omega_e): both scale by k, so the covariance by k^2.

    ``tol`` holds the tolerances of the values, of the errors and
    covariance, and of chi2.
    """
    assert (res["dof"], res["success"]) == (ref["dof"], ref["success"]), k
    for name in ("s0", "omega_e"):
        assert _spread(res["values"][name] / k, ref["values"][name]) <= tol["values"], (k, name)
        assert _spread(res["errors"][name] / k, ref["errors"][name]) <= tol["cov"], (k, name)
    assert _spread(np.array(res["cov"]) / k**2, ref["cov"]) <= tol["cov"], k
    assert _spread(res["chi2"], ref["chi2"]) <= tol["chi2"], k


# measured at most 1.0e-10 relative (the inputs' times are printed to
# 12 digits); margin 10x
ALPHA = 1.0e-9


def test_fit_alpha_invariant_under_time_rescaling(tmp_path):
    ref, runs = _fit_runs(tmp_path, _alpha_curve(), lambda k: {"mode": "alpha"})
    assert ref["n_used"] == 6 and abs(ref["alpha"] - 1.5) < 0.05
    for k, res in runs:
        assert (res["n_used"], res["log_growth"]) == (ref["n_used"], ref["log_growth"])
        for key in ("alpha", "alpha_err", "chi2_power", "chi2_log"):
            assert _spread(res[key], ref[key]) <= ALPHA, (k, key)


# measured at most 7.2e-12 relative (values), 1.5e-11 (errors and cov),
# 6.1e-10 (chi2 and delta_chi2: the curve's times are printed to 12
# digits, and each residual divides that shift by a stderr of 5e-4);
# margin about 10x
DISCRIMINATE = {"values": 1.0e-10, "cov": 2.0e-10, "chi2": 1.0e-8}


def test_fit_discriminate_rates_scale_by_k(tmp_path):
    ref, runs = _fit_runs(
        tmp_path,
        _inverse_curve(),
        lambda k: {"mode": "discriminate", "omega_l": W_L * k, "coupling_c": COUPLING},
    )
    assert ref["best_gamma"] == 2.0 and not ref["indeterminate"]
    for k, res in runs:
        for key in ("best_gamma", "indeterminate"):
            assert res[key] == ref[key], (k, key)
        assert _spread(res["delta_chi2"], ref["delta_chi2"]) <= DISCRIMINATE["chi2"], k
        for gamma, fit in res["fits"].items():
            _check_scaled_fit(fit, ref["fits"][gamma], k, DISCRIMINATE)


# measured at most 3.2e-7 relative (values), 5.7e-4 (errors and cov),
# 1.5e-9 (chi2); margin about 10x.  Fit mode differentiates forward with
# a step of 1e-4 max(1, |log10 x|), which moves with the unit of time, so
# its Jacobian, and with it the covariance, holds the law to about 1e-4
FIT = {"values": 3.0e-6, "cov": 5.0e-3, "chi2": 2.0e-8}


def test_fit_mode_rates_scale_by_k(tmp_path):
    def section(k):
        truth = _inverse_truth(k)
        return {
            "mode": "fit",
            "family": "overhauser",
            "free": {"s0": [truth.s0 / 10, truth.s0 * 10]}
            | {"omega_e": [truth.omega_e / 10, truth.omega_e * 10]},
            "fixed": {"omega_l": truth.omega_l, "gamma": 2.0, "coupling_c": COUPLING},
            "init": {"s0": truth.s0 * 1.2, "omega_e": truth.omega_e / 1.3},
            "n_starts": 2,
        }

    ref, runs = _fit_runs(tmp_path, _inverse_curve(), section)
    assert ref["success"]
    for k, res in runs:
        _check_scaled_fit(res, ref, k, FIT)
