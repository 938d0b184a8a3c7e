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
    frequency free.  The level enters every chi linearly, so a cutoff
    scan profiles it out with no extra quadrature; only the cutoff
    frequency needs integral re-evaluation, which one ``ChiPlan`` per
    call turns into a weighted sum per sweep.  The scan's best point
    starts the solver ``fit`` uses, and ``fit``'s covariance follows.

``estimate_alpha_slope``
    reads the power-law exponent straight off the decay of the
    correlator: in the regime where the phase-sum term is dead,
    chi_minus = -2 ln(2 <PP'>), and for S ~ omega^-alpha with fixed tau,
    chi_minus grows like delta_t**(alpha - 1).  A weighted log-log
    regression then gives alpha; a companion fit that is linear in
    ln(delta_t) flags the logarithmic growth of the alpha = 1 edge case.

scipy is imported inside the two fitters that use it, not with this
module: ``scipy.optimize`` (about 0.5 s to import) by ``fit`` and
``discriminate_gamma``, ``scipy.stats.qmc`` (about 0.5 s more) by ``fit``
alone.  The CLI imports this module for every command, and only the
``fit`` command needs either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .correlator import ChiPlan, EvolutionPair, QubitParams, chi_pair, correlator_from_chi
from .numerics import ParamError, require_finite
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
        require_finite(self, "lower", "upper")
        if not self.upper > self.lower:
            raise ParamError(self.name, f"{self.name}: upper bound must exceed lower")
        if self.log_scale and not self.lower > 0:
            raise ParamError(self.name, f"{self.name}: log-scale parameters need positive bounds")


def _curve_arrays(delta_t, tau, correlation, stderr):
    """The four columns of a measured curve as float arrays, checked.

    They must be equal-length 1-d, correlation finite, and stderr,
    delta_t and tau positive at every point; a zero stderr would make
    every weighted residual infinite.  Raises ValueError naming the first
    column that fails.
    """
    dt, tv, corr, se = (np.asarray(a, dtype=float) for a in (delta_t, tau, correlation, stderr))
    if not (dt.shape == tv.shape == corr.shape == se.shape) or dt.ndim != 1:
        raise ValueError("delta_t, tau, correlation, stderr must be equal-length 1-d")
    for obj, name in ((se, "stderr"), (dt, "delta_t"), (tv, "tau")):
        if not np.all(obj > 0):
            raise ValueError(f"{name} must be positive")
    if not np.all(np.isfinite(corr)):
        raise ValueError("correlation must be finite")
    return dt, tv, corr, se


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
        dt, tau, corr, se = _curve_arrays(self.delta_t, self.tau, self.correlation, self.stderr)
        if len(dt) <= len(self.params):
            raise ValueError("need more points than free parameters")
        if not self.params:
            raise ValueError("at least one free parameter required")
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
        raise ParamError("n_starts", f"n_starts must be at least 1, or 0 with init; got {n_starts}")
    from scipy import optimize
    from scipy.stats import qmc

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
            raise ParamError("init", f"init missing free parameters: {', '.join(missing)}")
        x_init = np.array([_to_internal(init[p.name], p) for p in pars])
        if np.any(x_init < lo) or np.any(x_init > hi):
            raise ParamError("init", "init lies outside the parameter bounds")
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
    which case the data do not distinguish the shapes, and when there
    was only one shape to fit (``delta_chi2`` is then infinite).
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


# the scan's level profile: passes of 97 log10 levels, each centred on the
# last pass's best level, at these half-widths in decades
_PROFILE_HALF_WIDTHS = (6.0, 0.125, 0.0025)
_PROFILE_OFFSETS = np.linspace(-1.0, 1.0, 97)


def _level_profile(u, w, corr, se, tau, omega_q):
    """Each scan point's best log10 level, its chi2, and its level box.

    Row i of ``u`` and ``w`` is one sweep at unit level.  The box is six
    decades either side of the level that explains the row's largest
    chi on its own (level 1 where that point's 2 corr is not in (0, 1)).
    Every row is profiled at once, over a grid that the passes of
    ``_PROFILE_HALF_WIDTHS`` narrow around the best level so far.
    Returns ``(chi2, t, t_lo, t_hi)``, one entry per row.
    """
    rows = np.arange(len(u))
    big = np.argmax(u, axis=1)
    c, u_big = corr[big], u[rows, big]
    known = (c > 0) & (2.0 * c < 1.0) & (u_big > 0)
    guess = np.ones(len(u))
    guess[known] = -2.0 * np.log(2.0 * c[known]) / u_big[known]
    t = np.log10(guess)
    t_lo, t_hi = t - 6.0, t + 6.0
    for half in _PROFILE_HALF_WIDTHS:
        grid = np.clip(t[:, None] + half * _PROFILE_OFFSETS, t_lo[:, None], t_hi[:, None])
        r = _profiled_residuals(u[:, None], w[:, None], corr, se, tau, omega_q, 10.0 ** grid[..., None])
        chi2 = np.einsum("ijk,ijk->ij", r, r)
        best = np.argmin(chi2, axis=1)
        t, best_chi2 = grid[rows, best], chi2[rows, best]
    return best_chi2, t, t_lo, t_hi


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
    level is optimized with no further quadrature.  A 25-point log scan
    of the cutoff over ``omega_e_bounds`` (default: two decades beyond
    the resolvable range on each side), the level profiled out at each
    point, picks the start.  The profile is one vectorized evaluation of
    the residuals over a grid of (scan point, log10 level): 97 levels
    across six decades either side of the level that explains the
    largest chi on its own, then two passes of 97 narrowing around each
    point's best (``_level_profile``).  ``fit``'s trust-region-reflective
    solver then polishes (log10 s0, log10 omega_e) inside
    ``omega_e_bounds`` and the best scan point's level box, with a
    central-difference Jacobian; ``chi2`` is twice its final cost and
    the covariance the Gauss-Newton (J^T J)^-1 of its final Jacobian.
    A level-only step reuses the last sweep, so each Jacobian costs two
    sweeps for the cutoff column and none for the level.  The curve must
    pass the checks ``FitProblem`` makes (positive stderr, delta_t and
    tau, finite correlation); a bad one raises ValueError.  Each
    distinct shape in ``gammas`` is fitted once.  Each candidate's
    ``n_eval`` counts the full-curve chi sweeps made for it; its
    ``success`` is the solver's convergence alone.

    Every sweep is one ``ChiPlan.apply``: the call builds one plan for
    the (tau, delta_t) design, its window sized for the widest spectrum
    any candidate reaches, and evaluates the knee factor of S on the
    plan's nodes once.  A sweep then writes S, the cutoff times the
    knee, into one buffer kept for the call, on the nodes ``plan.live``
    names alone: those up to the spectrum's ``zero_above``, past which
    S is exactly 0, so a narrow cutoff leaves most of the window
    untouched.  The plan sums each block as one product over those
    nodes; ``chi_pair`` serves only the points it hands back.  The
    solver keeps log10(omega_e) inside the bounds, but 10**log10(hi)
    can round past hi, so the window reaches one Jacobian step above
    the top of ``omega_e_bounds``.
    """
    gammas = tuple(dict.fromkeys(gammas))
    if len(gammas) == 0:
        raise ParamError("gammas", "gammas must name at least one cutoff shape")
    if not all(0 < g < math.inf for g in gammas):
        raise ParamError("gammas", f"gammas must be positive and finite, got {list(gammas)}")
    dt, tv, corr, se = _curve_arrays(delta_t, tau, correlation, stderr)
    if len(dt) < 4:
        raise ValueError("need at least 4 points to compare cutoff shapes")
    omega_q = (qubit if qubit is not None else QubitParams()).omega_q
    if omega_e_bounds is None:
        omega_e_bounds = (max(1e-2 / dt.max(), 3.0 * omega_l), 1e2 / dt.min())
    lo_e, hi_e = omega_e_bounds
    if not (hi_e > lo_e > omega_l):
        raise ParamError("omega_e_bounds", "omega_e_bounds must be above omega_l and increasing")
    from scipy import optimize

    we_top = hi_e * 10.0 ** (_FD_STEP * max(1.0, abs(math.log10(hi_e))))
    plan = ChiPlan.covering(
        [EvolutionPair(t, d) for t, d in zip(tv, dt)],
        [OverhauserModel(1.0, omega_l, we_top, g, coupling_c) for g in gammas],
        quad,
    )
    # per-gamma count of full-curve chi sweeps; ``last`` holds the last sweep
    n_sweeps, last = 0, {}
    # S = knee * cutoff on the plan's nodes; only the cutoff moves per sweep
    knee = OverhauserModel(1.0, omega_l, we_top, 1.0, coupling_c).knee_factor(plan.nodes)
    values = np.empty(len(plan.nodes))

    def unit_chis(gamma, omega_e):
        nonlocal n_sweeps
        if (gamma, omega_e) not in last:
            n_sweeps += 1
            last.clear()
            spectrum = OverhauserModel(1.0, omega_l, omega_e, gamma, coupling_c)
            # cutoff_factor bit for bit, on the nodes below zero_above
            for part in plan.live(spectrum):
                z = values[part]
                np.divide(plan.nodes[part], omega_e, out=z)
                z **= gamma
                np.negative(z, out=z)
                np.exp(z, out=z)
                z *= knee[part]
            last[gamma, omega_e] = plan.apply(spectrum, values)
        return last[gamma, omega_e]

    fits = {}
    for gamma in gammas:
        n_sweeps = 0
        # the 25-point scan's best point, level profiled out, is the start
        scan = np.geomspace(lo_e, hi_e, 25)
        u, w = np.array([unit_chis(gamma, we) for we in scan]).transpose(1, 0, 2)
        chi2, t, t_lo, t_hi = _level_profile(u, w, corr, se, tv, omega_q)
        i = int(np.argmin(chi2))

        def residuals(x, gamma=gamma):
            u, w = unit_chis(gamma, 10.0 ** x[1])
            return _profiled_residuals(u, w, corr, se, tv, omega_q, 10.0 ** x[0])

        x0 = (t[i], math.log10(scan[i]))
        box = ([t_lo[i], math.log10(lo_e)], [t_hi[i], math.log10(hi_e)])
        res = optimize.least_squares(
            residuals, x0, jac="3-point", bounds=box, method="trf", diff_step=_FD_STEP
        )
        fits[gamma] = FitResult(
            values={"s0": 10.0 ** res.x[0], "omega_e": 10.0 ** res.x[1]},
            cov=_covariance(res.jac, res.x, (True, True)),
            chi2=2.0 * res.cost,
            n_points=len(dt),
            n_eval=n_sweeps,
            success=bool(res.status > 0),
            message=f"profiled fit, gamma={gamma:g}",
        )

    ordered = sorted(fits, key=lambda g: fits[g].chi2)
    best = ordered[0]
    delta = fits[ordered[1]].chi2 - fits[best].chi2 if len(ordered) > 1 else math.inf
    return GammaDecision(
        best_gamma=best,
        delta_chi2=delta,
        indeterminate=bool(len(ordered) < 2 or delta < threshold),
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
