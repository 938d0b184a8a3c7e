"""Extracting spectral parameters from measured correlation curves.

Three entry points:

``fit``
    generic bounded weighted-least-squares fit of any spectrum family to
    a correlation curve: the trust-region-reflective least-squares
    solver on the weighted residuals from each point of a Sobol
    multistart, log-scaled coordinates for positive parameters, and the
    Gauss-Newton covariance (J^T J)^-1 of the final residual Jacobian.

``discriminate_gamma``
    decides between cutoff shape exponents (exponential vs Gaussian) by
    fitting each candidate with the overall level and the cutoff
    frequency free.  The level enters every chi linearly, so it is
    profiled out with no extra quadrature; only the cutoff frequency
    needs integral re-evaluation.  The covariance comes from the same
    Gauss-Newton form as ``fit``'s.

``estimate_alpha_slope``
    reads the power-law exponent straight off the decay of the
    correlator: in the regime where the phase-sum term is dead,
    chi_minus = -2 ln(2 <PP'>), and for S ~ omega^-alpha with fixed tau,
    chi_minus grows like delta_t**(alpha - 1).  A weighted log-log
    regression then gives alpha; a companion fit that is linear in
    ln(delta_t) flags the logarithmic growth of the alpha = 1 edge case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import optimize
from scipy.stats import qmc

from .correlator import EvolutionPair, QubitParams, chi_pair, correlator_from_chi
from .spectra import OverhauserModel, SpectrumModel

__all__ = [
    "FitParam",
    "FitProblem",
    "FitResult",
    "predict",
    "chi_squared",
    "fit",
    "GammaDecision",
    "discriminate_gamma",
    "AlphaEstimate",
    "estimate_alpha_slope",
]


@dataclass(frozen=True)
class FitParam:
    """One free parameter: bounds and whether to search in log10 space."""

    name: str
    lower: float
    upper: float
    log_scale: bool = True

    def __post_init__(self):
        if not self.upper > self.lower:
            raise ValueError(f"{self.name}: upper bound must exceed lower")
        if self.log_scale and not self.lower > 0:
            raise ValueError(f"{self.name}: log-scale parameters need positive bounds")


@dataclass(frozen=True, eq=False)
class FitProblem:
    """A correlation curve plus the spectrum family to explain it.

    ``build`` maps a parameter dict to a SpectrumModel; ``params`` lists
    the free parameters.  Points are (tau_i, delta_t_i) with measured
    correlation and standard error.
    """

    delta_t: np.ndarray
    tau: np.ndarray
    correlation: np.ndarray
    stderr: np.ndarray
    build: Callable[[dict], SpectrumModel]
    params: tuple[FitParam, ...]
    qubit: QubitParams = field(default_factory=QubitParams)

    def __post_init__(self):
        dt = np.asarray(self.delta_t, dtype=float)
        tau = np.asarray(self.tau, dtype=float)
        corr = np.asarray(self.correlation, dtype=float)
        se = np.asarray(self.stderr, dtype=float)
        if not (dt.shape == tau.shape == corr.shape == se.shape) or dt.ndim != 1:
            raise ValueError("delta_t, tau, correlation, stderr must be equal-length 1-d")
        if len(dt) <= len(self.params):
            raise ValueError("need more points than free parameters")
        if not np.all(se > 0):
            raise ValueError("stderr must be positive")
        if not self.params:
            raise ValueError("at least one free parameter required")
        for obj, name in ((dt, "delta_t"), (tau, "tau")):
            if not np.all(obj > 0):
                raise ValueError(f"{name} must be positive")
        object.__setattr__(self, "delta_t", dt)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "correlation", corr)
        object.__setattr__(self, "stderr", se)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Best-fit values with uncertainty and bookkeeping."""

    values: dict
    cov: np.ndarray
    chi2: float
    n_points: int
    n_eval: int
    success: bool
    message: str

    @property
    def reduced_chi2(self) -> float:
        dof = self.n_points - len(self.values)
        return self.chi2 / dof if dof > 0 else math.nan

    def errors(self) -> dict:
        d = np.sqrt(np.clip(np.diag(self.cov), 0.0, None))
        return {name: float(e) for name, e in zip(self.values, d)}

    @property
    def dof(self) -> int:
        return self.n_points - len(self.values)

    def to_dict(self) -> dict:
        return {
            "values": {k: float(v) for k, v in self.values.items()},
            "errors": self.errors(),
            "cov": self.cov.tolist(),
            "chi2": float(self.chi2),
            "dof": int(self.dof),
            "reduced_chi2": float(self.reduced_chi2),
            "n_points": int(self.n_points),
            "n_eval": int(self.n_eval),
            "success": bool(self.success),
            "message": self.message,
        }


def predict(problem: FitProblem, values: dict, quad=None) -> np.ndarray:
    """Model correlator at every data point for one parameter set."""
    spectrum = problem.build(values)
    omega_q = problem.qubit.omega_q
    return np.array(
        [
            correlator_from_chi(*chi_pair(spectrum, EvolutionPair(t, d), quad), t, omega_q)
            for t, d in zip(problem.tau, problem.delta_t)
        ]
    )


def _residuals(problem: FitProblem, values: dict, quad=None) -> np.ndarray:
    return (predict(problem, values, quad) - problem.correlation) / problem.stderr


def chi_squared(problem: FitProblem, values: dict, quad=None) -> float:
    """Weighted squared residual sum for one parameter set."""
    resid = _residuals(problem, values, quad)
    return float(resid @ resid)


def _to_internal(p, par: FitParam):
    return math.log10(p) if par.log_scale else p


def _from_internal(x, par: FitParam):
    return 10.0**x if par.log_scale else x


# finite-difference step of the residual Jacobians in internal
# coordinates, relative to max(1, |x|) as least_squares applies diff_step
_FD_STEP = 1e-4


def fit(
    problem: FitProblem,
    init: dict | None = None,
    n_starts: int = 8,
    max_eval: int = 10000,
    seed: int = 0,
    quad=None,
) -> FitResult:
    """Bounded multistart least-squares fit of the problem's free parameters.

    Each start runs the trust-region-reflective solver (Branch, Coleman
    & Li 1999) on the weighted residuals (predict - correlation) / stderr
    inside the (possibly log-scaled) bound box, with a forward-difference
    Jacobian, and may spend ``max_eval // n_starts`` (at least 50)
    evaluations outside the Jacobian.  The starts are ``init`` when given
    (natural-unit values for every free parameter, inside the bounds),
    then a scrambled Sobol sample of the box; the lowest cost wins, and
    ``chi2`` is twice that cost.

    The covariance is the Gauss-Newton (J^T J)^-1 of the winner's final
    Jacobian, eigenvalue-floored and mapped back to natural units; at a
    good fit it equals 2 * inv(Hessian of chi2), and it costs no
    evaluations.  ``n_eval`` counts every residual evaluation, Jacobian
    columns included; ``success`` and ``message`` are the solver's
    verdict on the winning start.
    """
    if n_starts < 0 or (n_starts == 0 and init is None):
        raise ValueError(f"n_starts must be at least 1, or 0 with init; got {n_starts}")
    pars = problem.params
    lo = np.array([_to_internal(p.lower, p) for p in pars])
    hi = np.array([_to_internal(p.upper, p) for p in pars])
    n_eval = 0

    def unpack(x):
        return {p.name: _from_internal(v, p) for p, v in zip(pars, x)}

    def residuals(x):
        nonlocal n_eval
        n_eval += 1
        return _residuals(problem, unpack(x), quad)

    sampler = qmc.Sobol(len(pars), scramble=True, seed=seed)
    # the first n points of a power-of-two draw: what random(n) gives,
    # without scipy's warning about unbalanced Sobol' samples
    starts = lo + (hi - lo) * sampler.random_base2((n_starts - 1).bit_length())[:n_starts]
    if init is not None:
        missing = [p.name for p in pars if p.name not in init]
        if missing:
            raise ValueError(f"init missing free parameters: {', '.join(missing)}")
        x_init = np.array([_to_internal(init[p.name], p) for p in pars])
        if np.any(x_init < lo) or np.any(x_init > hi):
            raise ValueError("init lies outside the parameter bounds")
        starts = np.vstack([x_init, starts])
    budget = max(max_eval // max(n_starts, 1), 50)
    runs = [
        optimize.least_squares(
            residuals, x0, bounds=(lo, hi), method="trf", diff_step=_FD_STEP, max_nfev=budget
        )
        for x0 in starts
    ]
    best = min(runs, key=lambda r: r.cost)
    return FitResult(
        values=unpack(best.x),
        cov=_covariance(best.jac, best.x, [p.log_scale for p in pars]),
        chi2=2.0 * best.cost,
        n_points=len(problem.delta_t),
        n_eval=n_eval,
        success=bool(best.status > 0),
        message=best.message,
    )


def _covariance(jac, x, log_scale):
    """Gauss-Newton covariance (J^T J)^-1, eigenvalue-floored, in natural units.

    ``jac`` is the residual Jacobian in internal coordinates ``x``; the
    flags in ``log_scale`` mark the coordinates that are log10 values.
    """
    vals, vecs = np.linalg.eigh(jac.T @ jac)
    vals = np.maximum(vals, max(1e-12 * np.abs(vals).max(), 1e-300))
    scale = np.array([10.0**v * math.log(10.0) if lg else 1.0 for v, lg in zip(x, log_scale)])
    # the two products behind each off-diagonal pair round differently
    cov = (vecs / vals) @ vecs.T
    return 0.5 * (cov + cov.T) * np.outer(scale, scale)


# ---------------------------------------------------------------------------
# cutoff-shape discrimination
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GammaDecision:
    """Outcome of the cutoff-shape comparison.

    ``best_gamma`` minimizes chi-squared; ``indeterminate`` is set when
    the loser is within ``delta_chi2 < threshold`` of the winner, in
    which case the data do not distinguish the shapes.
    """

    best_gamma: float
    delta_chi2: float
    indeterminate: bool
    fits: dict

    def to_dict(self):
        return {
            "best_gamma": float(self.best_gamma),
            "delta_chi2": float(self.delta_chi2),
            "indeterminate": bool(self.indeterminate),
            "fits": {str(g): f.to_dict() for g, f in self.fits.items()},
        }


def _profiled_residuals(u, w, corr, se, tau, omega_q, level):
    return (correlator_from_chi(level * u, level * w, tau, omega_q) - corr) / se


def discriminate_gamma(
    delta_t,
    tau,
    correlation,
    stderr,
    omega_l: float,
    coupling_c: float = 1.0,
    gammas=(1.0, 2.0),
    qubit: QubitParams | None = None,
    omega_e_bounds=None,
    threshold: float = 9.0,
    quad=None,
) -> GammaDecision:
    """Fit each cutoff shape with free level and cutoff, compare chi2.

    The spectrum level s0 scales every chi linearly, so for a candidate
    cutoff frequency the integrals are computed once at s0 = 1 and the
    level is optimized with no further quadrature.  The cutoff frequency
    is scanned on a log grid spanning ``omega_e_bounds`` (default: two
    decades beyond the resolvable range on each side) and polished with
    a bounded scalar minimizer.  The covariance over (s0, omega_e) is the
    Gauss-Newton (J^T J)^-1 of a central-difference residual Jacobian at
    the optimum, two sweeps for the cutoff column and none for the level.
    Each candidate's ``n_eval`` counts the full-curve chi sweeps made for
    it, covariance included, and its ``success`` is set only if every
    scalar minimization converged.
    """
    if len(gammas) == 0:
        raise ValueError("gammas must name at least one cutoff shape")
    dt = np.asarray(delta_t, dtype=float)
    tv = np.asarray(tau, dtype=float)
    corr = np.asarray(correlation, dtype=float)
    se = np.asarray(stderr, dtype=float)
    if not (dt.shape == tv.shape == corr.shape == se.shape) or dt.ndim != 1:
        raise ValueError("delta_t, tau, correlation, stderr must be equal-length 1-d")
    if len(dt) < 4:
        raise ValueError("need at least 4 points to compare cutoff shapes")
    omega_q = (qubit if qubit is not None else QubitParams()).omega_q
    if omega_e_bounds is None:
        omega_e_bounds = (max(1e-2 / dt.max(), 3.0 * omega_l), 1e2 / dt.min())
    lo_e, hi_e = omega_e_bounds
    if not (hi_e > lo_e > omega_l):
        raise ValueError("omega_e_bounds must be above omega_l and increasing")
    # per-gamma bookkeeping: full-curve chi sweeps, and whether every
    # scalar minimization reported convergence
    n_sweeps, converged = 0, True

    def unit_chis(gamma, omega_e):
        nonlocal n_sweeps
        n_sweeps += 1
        model = OverhauserModel(1.0, omega_l, omega_e, gamma, coupling_c)
        u = np.empty(len(dt))
        w = np.empty(len(dt))
        for i, (t, d) in enumerate(zip(tv, dt)):
            u[i], w[i] = chi_pair(model, EvolutionPair(t, d), quad)
        return u, w

    def best_level(u, w):
        nonlocal converged
        # 1-d profile over log10(level); chi is linear in the level
        guess = 1.0
        big = np.argmax(u)
        if corr[big] > 0 and 2.0 * corr[big] < 1.0 and u[big] > 0:
            guess = -2.0 * math.log(2.0 * corr[big]) / u[big]
        span = 6.0

        def chi2(t):
            r = _profiled_residuals(u, w, corr, se, tv, omega_q, 10.0**t)
            return float(r @ r)

        res = optimize.minimize_scalar(
            chi2,
            bounds=(math.log10(guess) - span, math.log10(guess) + span),
            method="bounded",
            options={"xatol": 1e-10},
        )
        converged &= bool(res.success)
        return 10.0**res.x, float(res.fun)

    fits = {}
    for gamma in gammas:
        n_sweeps, converged = 0, True
        grid = np.geomspace(lo_e, hi_e, 25)
        scan = []
        for we in grid:
            u, w = unit_chis(gamma, we)
            level, f = best_level(u, w)
            scan.append((f, we, level))
        scan.sort(key=lambda t: t[0])
        _, we_best, _ = scan[0]
        idx = int(np.argmin(np.abs(grid - we_best)))
        lo_ref = grid[max(idx - 1, 0)]
        hi_ref = grid[min(idx + 1, len(grid) - 1)]
        if hi_ref <= lo_ref:
            lo_ref, hi_ref = lo_e, hi_e

        def refine_obj(logwe, gamma=gamma):
            u, w = unit_chis(gamma, 10.0**logwe)
            return best_level(u, w)[1]

        res = optimize.minimize_scalar(
            refine_obj,
            bounds=(math.log10(lo_ref), math.log10(hi_ref)),
            method="bounded",
            options={"xatol": 1e-6},
        )
        converged &= bool(res.success)
        we_fit = 10.0**res.x
        u, w = unit_chis(gamma, we_fit)
        level_fit, chi2_fit = best_level(u, w)

        # residual Jacobian over (log10 s0, log10 omega_e) by central
        # differences: chi is linear in the level, so the level column
        # reuses (u, w), and the cutoff column costs two sweeps
        x_fit = np.array([math.log10(level_fit), math.log10(we_fit)])
        h = _FD_STEP * np.maximum(1.0, np.abs(x_fit))
        sweeps = [unit_chis(gamma, 10.0 ** (x_fit[1] + s)) for s in (h[1], -h[1])]
        r = [
            _profiled_residuals(u, w, corr, se, tv, omega_q, 10.0 ** (x_fit[0] + s))
            for s in (h[0], -h[0])
        ]
        r += [_profiled_residuals(*chis, corr, se, tv, omega_q, level_fit) for chis in sweeps]
        jac = np.column_stack([r[0] - r[1], r[2] - r[3]]) / (2.0 * h)
        fits[gamma] = FitResult(
            values={"s0": level_fit, "omega_e": we_fit},
            cov=_covariance(jac, x_fit, (True, True)),
            chi2=chi2_fit,
            n_points=len(dt),
            n_eval=n_sweeps,
            success=converged,
            message=f"profiled fit, gamma={gamma:g}",
        )

    ordered = sorted(fits, key=lambda g: fits[g].chi2)
    best = ordered[0]
    delta = fits[ordered[1]].chi2 - fits[best].chi2 if len(ordered) > 1 else math.inf
    return GammaDecision(
        best_gamma=best,
        delta_chi2=delta,
        indeterminate=bool(delta < threshold),
        fits=fits,
    )


# ---------------------------------------------------------------------------
# power-law exponent from the decay slope
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AlphaEstimate:
    """Power-law exponent readout with the alpha = 1 degeneracy flagged.

    ``log_growth`` is set when a chi_minus linear in ln(delta_t) explains
    the data at least as well as the power law, which is the signature
    of alpha = 1 (there the power-law exponent of the growth tends to
    zero and the log-log slope loses meaning).
    """

    alpha: float
    alpha_err: float
    log_growth: bool
    chi2_power: float
    chi2_log: float
    n_used: int

    def to_dict(self):
        return {
            "alpha": float(self.alpha),
            "alpha_err": float(self.alpha_err),
            "log_growth": bool(self.log_growth),
            "chi2_power": float(self.chi2_power),
            "chi2_log": float(self.chi2_log),
            "n_used": int(self.n_used),
        }


def estimate_alpha_slope(delta_t, correlation, stderr, corr_window=(0.02, 0.48)) -> AlphaEstimate:
    """Exponent of S ~ omega^-alpha from the correlator decay vs delta_t.

    Assumes fixed tau along the sweep and a dead phase-sum term, so
    chi_minus = -2 ln(2 <PP'>) and chi_minus ~ delta_t**(alpha-1).
    Points outside ``corr_window`` carry no usable slope information
    (saturated or noise-floored) and are dropped; at least five must
    survive.
    """
    dt = np.asarray(delta_t, dtype=float)
    corr = np.asarray(correlation, dtype=float)
    se = np.asarray(stderr, dtype=float)
    if not (dt.shape == corr.shape == se.shape) or dt.ndim != 1:
        raise ValueError("delta_t, correlation, stderr must be equal-length 1-d")
    lo, hi = corr_window
    mask = (corr > lo) & (corr < hi) & (se > 0)
    if mask.sum() < 5:
        raise ValueError(
            f"only {int(mask.sum())} points inside the usable correlation window {corr_window}"
        )
    dt, corr, se = dt[mask], corr[mask], se[mask]
    span = dt.max() / dt.min()
    if span < 10.0**1.5:
        raise ValueError(
            f"usable delta_t range spans only {math.log10(span):.2f} decades; need >= 1.5"
        )
    chi = -2.0 * np.log(2.0 * corr)
    sig_chi = 2.0 * se / corr

    # weighted straight line in (ln dt, ln chi)
    x = np.log(dt)
    y = np.log(chi)
    sig_y = sig_chi / chi
    w = 1.0 / sig_y**2
    slope, slope_var, chi2_power = _wls_line(x, y, w)

    # straight line in (ln dt, chi): logarithmic growth, units of chi
    w_lin = 1.0 / sig_chi**2
    _, _, chi2_log = _wls_line(x, chi, w_lin)

    return AlphaEstimate(
        alpha=1.0 + slope,
        alpha_err=math.sqrt(slope_var),
        log_growth=bool(chi2_log <= chi2_power),
        chi2_power=chi2_power,
        chi2_log=chi2_log,
        n_used=int(mask.sum()),
    )


def _wls_line(x, y, w):
    """Weighted least squares line fit; returns slope, var(slope), chi2."""
    sw = w.sum()
    xm = (w * x).sum() / sw
    ym = (w * y).sum() / sw
    sxx = (w * (x - xm) ** 2).sum()
    if sxx <= 0:
        raise ValueError("degenerate abscissa in line fit")
    slope = (w * (x - xm) * (y - ym)).sum() / sxx
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    return float(slope), float(1.0 / sxx), float((w * resid**2).sum())
