"""Extracting spectral parameters from measured correlation curves.

Three entry points:

``fit``
    generic bounded weighted-least-squares fit of any spectrum family to
    a correlation curve: the bounded Gauss-Newton solver ``_solve`` from
    each point of a Latin-hypercube multistart, on one ``ChiPlan`` per
    call sized for the family at the corners of the bound box, log-scaled
    coordinates for positive parameters, and the Gauss-Newton covariance
    (J^T J)^-1 of the final residual Jacobian.

``discriminate_gamma``
    decides between cutoff shape exponents (exponential vs Gaussian) by
    fitting each candidate with the overall level and the cutoff
    frequency free.  The level enters every chi linearly, so a cutoff
    scan profiles it out with no extra quadrature; only the cutoff
    frequency needs integral re-evaluation, which one ``ChiPlan`` per
    call turns into a weighted sum per sweep.  The scan's best point
    starts the solver ``fit`` uses, on exact Jacobian columns from the
    same plan, and ``fit``'s covariance follows.

``estimate_alpha_slope``
    reads the power-law exponent straight off the decay of the
    correlator: in the regime where the phase-sum term is dead,
    chi_minus = -2 ln(2 <PP'>), and for S ~ omega^-alpha with fixed tau,
    chi_minus grows like delta_t**(alpha - 1).  A weighted log-log
    regression then gives alpha; a companion fit that is linear in
    ln(delta_t) flags the logarithmic growth of the alpha = 1 edge case.

Both fitters finish on ``_solve``, and ``fit`` draws its starts with
numpy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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
        return self.chi2 / self.dof if self.dof > 0 else math.nan

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


def chi_squared(problem: FitProblem, values: dict, quad=None) -> float:
    """Weighted squared residual sum for one parameter set, from ``predict``."""
    resid = (predict(problem, values, quad) - problem.correlation) / problem.stderr
    return float(resid @ resid)


# finite-difference step of the residual Jacobians in internal
# coordinates, relative to max(1, |x|)
_FD_STEP = 1e-4

# step sizes relative to max(1, |x|) in every coordinate: one below
# _STEP_TOL ends _solve; below _ROUNDING_STEP (sqrt of the float epsilon)
# a step changes the cost by less than its rounding
_STEP_TOL = 1e-15
_ROUNDING_STEP = 1.5e-8

_SOLVE_MESSAGES = {
    0: "evaluation budget exhausted",
    1: "converged: step below 1e-15 of x",
    2: "converged: Gauss-Newton steps below 1.5e-8 of x stopped shrinking",
    3: "converged: damped steps shrank below 1.5e-8 of x",
}


class _Solution(NamedTuple):
    """Where ``_solve`` stopped; ``status`` > 0 is success."""

    x: np.ndarray
    cost: float
    jac: np.ndarray
    status: int
    nfev: int


def _solve(fun, jac, x0, lo, hi, max_nfev) -> _Solution:
    """Bounded Gauss-Newton least squares with Levenberg damping.

    ``fun(x)`` returns the residuals r, and ``jac(x, r)`` their Jacobian
    J at a point ``fun`` was just called at; J is asked for only at the
    points the solver keeps.  The cost is r.r / 2.

    A coordinate on a bound is held there while the gradient J^T r pushes
    it outward.  The step solves the free block of J p = -r in the
    least-squares sense (``lstsq``, so a column near 0 gets no wild
    step), with lam I added to J^T J, and is clipped to the box.  lam
    starts at 0.  A step that raises the cost is retried with lam grown
    tenfold until the step is at most half as long; a kept step divides
    lam by ten (below 1e-3, to 0).  The undamped step after a kept one
    can aim again at the clipped box corner that just failed: a repeat
    of the last rejected point is rejected without calling ``fun``,
    which must be deterministic, since the cost has only fallen since.
    Undamped steps below ``_ROUNDING_STEP``, whose effect on the cost is
    rounding, are kept while the step from their end is shorter, so they
    polish x to the Gauss-Newton fixed point whatever the rounding of
    the cost.

    Stops: an undamped step below ``_STEP_TOL`` (status 1), polishing
    steps that stop shrinking (status 2), a damped step below
    ``_ROUNDING_STEP`` (status 3), or ``max_nfev`` calls of ``fun``
    (status 0).  All sizes are relative to max(1, |x|), in every
    coordinate.
    """

    def target(x, r, J, mu):
        grad = J.T @ r
        free = ~(((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0)))
        a, b = J[:, free], -r
        if mu:
            lam = mu * max(float(np.max(np.sum(a * a, axis=0), initial=0.0)), 1e-300)
            a = np.vstack([a, math.sqrt(lam) * np.eye(a.shape[1])])
            b = np.concatenate([b, np.zeros(a.shape[1])])
        step = np.zeros_like(x)
        step[free] = np.linalg.lstsq(a, b, rcond=None)[0]
        return np.clip(x + step, lo, hi)

    def size(x, y):
        return float(np.max(np.abs(y - x) / np.maximum(1.0, np.abs(x))))

    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r = fun(x)
    nfev, cost, mu, J = 1, 0.5 * float(r @ r), 0.0, jac(x, r)
    x_new, rejected = target(x, r, J, mu), None
    while True:
        step = size(x, x_new)
        if step <= (_ROUNDING_STEP if mu else _STEP_TOL):
            status = 3 if mu else 1
            break
        if nfev >= max_nfev:
            status = 0
            break
        tested = mu or step > _ROUNDING_STEP
        if tested and x_new.tobytes() == rejected:
            # the cost has only fallen since this point failed
            cost_new = math.inf
        else:
            r_new = fun(x_new)
            nfev += 1
            cost_new = 0.5 * float(r_new @ r_new)
        if tested:
            if not cost_new <= cost:
                rejected = x_new.tobytes()
                # damp until the step is at most half the one that failed
                while size(x, x_new) > 0.5 * step:
                    mu = max(10.0 * mu, 1e-3)
                    x_new = target(x, r, J, mu)
                continue
            mu = 0.1 * mu if mu > 1e-3 else 0.0
            x, r, J, cost = x_new, r_new, jac(x_new, r_new), cost_new
            x_new = target(x, r, J, mu)
        else:
            J_new = jac(x_new, r_new)
            x_next = target(x_new, r_new, J_new, 0.0)
            if size(x_new, x_next) >= step:
                status = 2
                break
            x, r, J, cost, x_new = x_new, r_new, J_new, cost_new, x_next
    return _Solution(x, cost, J, status, nfev)


def fit(
    problem: FitProblem,
    init: dict | None = None,
    n_starts: int = 8,
    max_eval: int = 10000,
    seed: int = 0,
    quad=None,
) -> FitResult:
    """Bounded multistart least-squares fit of the problem's free parameters.

    Each start runs ``_solve`` on the weighted residuals
    (model - correlation) / stderr inside the (possibly log-scaled)
    bound box, with forward-difference Jacobian columns (a step of
    ``_FD_STEP`` * max(1, |x|), inward at an upper bound), and may spend
    ``max_eval // n_starts`` (at least 50) evaluations outside the
    Jacobian.  The starts are ``init`` when given (natural-unit values
    for every free parameter, inside the bounds), then a Latin hypercube
    of ``n_starts`` points of the box from ``seed``; the lowest cost
    wins, and ``chi2`` is twice that cost.

    Each evaluation is one ``apply`` of a ``ChiPlan`` built once per call
    for the family at the box's corners, and one array
    ``correlator_from_chi``; the model matches ``predict`` to the
    quadrature tolerance.  A corner that raises ``ParamError`` is refused
    before any sweep, in the bounds the problem gave.  A kink
    that moves with the parameters (a free ``omega_low`` or
    ``omega_high``) is not shared by the corners, so a spectrum with it
    goes through ``chi_pair`` at every point.

    The covariance is the Gauss-Newton (J^T J)^-1 of the winner's final
    Jacobian, eigenvalue-floored and mapped back to natural units; at a
    good fit it equals 2 * inv(Hessian of chi2), and it costs no
    evaluations.  ``n_eval`` counts every residual evaluation, Jacobian
    columns included; ``success`` and ``message`` are the solver's
    verdict on the winning start.
    """
    if n_starts < 0 or (n_starts == 0 and init is None):
        raise ParamError("n_starts", f"n_starts must be at least 1, or 0 with init; got {n_starts}")
    pars = problem.params
    n_eval = 0

    def pack(values):
        return np.array([math.log10(v) if p.log_scale else v for p, v in zip(pars, values)])

    def unpack(x):
        return {p.name: 10.0**v if p.log_scale else v for p, v in zip(pars, x)}

    lo, hi = pack([p.lower for p in pars]), pack([p.upper for p in pars])
    rng = np.random.default_rng(seed)
    # a Latin hypercube: each coordinate has one start in each of its n_starts strata
    strata = rng.permuted(np.tile(np.arange(n_starts), (len(pars), 1)), axis=1).T
    starts = lo + (hi - lo) * (strata + rng.random(strata.shape)) / max(n_starts, 1)
    if init is not None:
        missing = [p.name for p in pars if p.name not in init]
        if missing:
            raise ParamError("init", f"init missing free parameters: {', '.join(missing)}")
        x_init = pack([init[p.name] for p in pars])
        if np.any(x_init < lo) or np.any(x_init > hi):
            raise ParamError("init", "init lies outside the parameter bounds")
        starts = np.vstack([x_init, starts])

    corners = []
    for given in itertools.product(*((p.lower, p.upper) for p in pars)):
        try:
            corners.append(problem.build(unpack(pack(given))))
        except ParamError as e:  # the box reaches models the family refuses: no sweep starts
            if e.name not in [p.name for p in pars]:
                raise
            where = ", ".join(f"{p.name} = {v}" for p, v in zip(pars, given))
            raise ParamError(e.name, f"bound-box corner {where}: {e}") from None
    pairs = [EvolutionPair(t, d) for t, d in zip(problem.tau, problem.delta_t)]
    plan = ChiPlan.covering(pairs, corners, quad)

    def residuals(x):
        nonlocal n_eval
        n_eval += 1
        chi_m, chi_p = plan.apply(problem.build(unpack(x)))
        model = correlator_from_chi(chi_m, chi_p, problem.tau, problem.qubit.omega_q)
        return (model - problem.correlation) / problem.stderr

    def forward_differences(x, r):
        jac = np.empty((len(r), len(x)))
        for j, h in enumerate(_FD_STEP * np.maximum(1.0, np.abs(x))):
            xh = x.copy()
            xh[j] = x[j] + h if x[j] + h <= hi[j] else x[j] - h
            jac[:, j] = (residuals(xh) - r) / (xh[j] - x[j])
        return jac

    budget = max(max_eval // max(n_starts, 1), 50)
    runs = [_solve(residuals, forward_differences, x0, lo, hi, budget) for x0 in starts]
    best = min(runs, key=lambda r: r.cost)
    log_scale = [p.log_scale for p in pars]
    return _result(best, unpack(best.x), log_scale, len(pairs), n_eval, _SOLVE_MESSAGES[best.status])


def _result(sol: _Solution, values, log_scale, n_points, n_eval, message) -> FitResult:
    """``_solve``'s solution as a FitResult: chi2 twice its cost, cov from its Jacobian."""
    cov = _covariance(sol.jac, sol.x, log_scale)
    return FitResult(values, cov, 2.0 * sol.cost, n_points, n_eval, sol.status > 0, message)


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

# calls of the residuals that _solve may make per cutoff shape
_DISCRIMINATE_BUDGET = 200


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
    point's best (``_level_profile``).  ``_solve``, the solver ``fit``
    uses, then polishes (log10 s0, log10 omega_e) inside
    ``omega_e_bounds`` and the best scan point's level box; ``chi2`` is
    twice its final cost and the covariance the Gauss-Newton (J^T J)^-1
    of its final Jacobian.  The Jacobian is exact: with e- =
    exp(-chi-/2) and e+ = cos(2 omega_q tau) exp(-chi+/2), the level
    column is -(ln 10 / 4)(e- chi- + e+ chi+) / stderr, and the cutoff
    column is -(s0 / 4)(e- dchi- + e+ dchi+) / stderr, where ``plan.design``
    sums dS/dlog10(omega_e) = S gamma z ln 10, z = (omega/omega_e)**gamma,
    into the unit-level dchi.  A point the plan sends to ``chi_pair``
    takes its dchi from a central difference of ``chi_pair`` at
    +-``_FD_STEP`` * max(1, |log10 omega_e|).  Each solver step is one
    sweep with its Jacobian, and a level-only step reuses the last one.
    The solver stops on its step, not on a cost test, so a relative
    change of 1e-15 in the correlation moves the values and covariance
    by rounding (about 1e-14), not by a stopping point one step away.
    The curve must pass the checks ``FitProblem`` makes (positive
    stderr, delta_t and tau, finite correlation); a bad one raises
    ValueError.  Each distinct shape in ``gammas`` is fitted once.
    Each candidate's ``n_eval`` counts the full-curve chi sweeps made
    for it; its ``success`` is the solver's convergence alone.

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
    can round past hi, so the window reaches one ``_FD_STEP`` above the
    top of ``omega_e_bounds``.
    """
    gammas = tuple(dict.fromkeys(gammas))
    if len(gammas) == 0:
        raise ParamError("gammas", "gammas must name at least one cutoff shape")
    dt, tv, corr, se = _curve_arrays(delta_t, tau, correlation, stderr)
    if len(dt) < 4:
        raise ValueError("need at least 4 points to compare cutoff shapes")
    omega_q = (qubit if qubit is not None else QubitParams()).omega_q
    if omega_e_bounds is None:
        omega_e_bounds = (max(1e-2 / dt.max(), 3.0 * omega_l), 1e2 / dt.min())
    lo_e, hi_e = omega_e_bounds
    if not (hi_e > lo_e > omega_l):
        raise ParamError("omega_e_bounds", "omega_e_bounds must be above omega_l and increasing")
    we_top = hi_e * 10.0 ** (_FD_STEP * max(1.0, abs(math.log10(hi_e))))
    if we_top == math.inf:
        raise ParamError("omega_e_bounds", f"top {hi_e:g} puts the window top past the float range")
    try:
        # each shape's model at we_top, where its window is widest, checks the shape
        widest = [OverhauserModel(1.0, omega_l, we_top, g, coupling_c) for g in gammas]
    except ParamError as e:
        name = {"gamma": "gammas", "omega_e": "omega_e_bounds"}.get(e.name, e.name)
        raise ParamError(name, str(e)) from None
    plan = ChiPlan.covering([EvolutionPair(t, d) for t, d in zip(tv, dt)], widest, quad)
    n_sweeps = 0
    # S = knee * cutoff on the plan's nodes; only the cutoff moves per sweep
    knee = widest[0].knee_factor(plan.nodes)
    values = np.empty(len(plan.nodes))
    slopes = np.empty(len(plan.nodes))

    def sweep(gamma, omega_e, jac=False):
        """Unit-level (chi_minus, chi_plus); with ``jac`` their log10(omega_e) slopes too."""
        nonlocal n_sweeps
        n_sweeps += 1
        spectrum = OverhauserModel(1.0, omega_l, omega_e, gamma, coupling_c)
        # cutoff_factor bit for bit, on the nodes below zero_above; there
        # dS/dlog10(omega_e) = S * gamma * z * ln 10, with z = (omega/omega_e)**gamma
        for part in plan.live(spectrum):
            z = values[part]
            np.divide(plan.nodes[part], omega_e, out=z)
            z **= gamma
            if jac:
                np.multiply(z, gamma * math.log(10.0), out=slopes[part])
            np.negative(z, out=z)
            np.exp(z, out=z)
            z *= knee[part]
            if jac:
                slopes[part] *= z
        chis = plan.apply(spectrum, values)
        if not jac:
            return chis
        du, dw = plan.design(spectrum, slopes)
        # points apply sent to chi_pair: central differences of chi_pair
        x = math.log10(omega_e)
        h = _FD_STEP * max(1.0, abs(x))
        for i in plan.sent:
            up, down = (
                chi_pair(OverhauserModel(1.0, omega_l, 10.0**xe, gamma, coupling_c), plan.pairs[i], quad)
                for xe in (x + h, x - h)
            )
            du[i], dw[i] = np.subtract(up, down) / (2.0 * h)
        return chis, (du, dw)

    cos2 = np.cos(2.0 * omega_q * tv)
    fits = {}
    for gamma in gammas:
        n_sweeps = 0
        # the 25-point scan's best point, level profiled out, is the start
        scan = np.geomspace(lo_e, hi_e, 25)
        u, w = np.array([sweep(gamma, we) for we in scan]).transpose(1, 0, 2)
        chi2, t, t_lo, t_hi = _level_profile(u, w, corr, se, tv, omega_q)
        i = int(np.argmin(chi2))
        last = {}

        def unit(x, gamma=gamma):
            # a level-only step reuses the last sweep
            omega_e = 10.0 ** x[1]
            if omega_e not in last:
                last.clear()
                last[omega_e] = sweep(gamma, omega_e, jac=True)
            return last[omega_e]

        def residuals(x):
            (u, w), _ = unit(x)
            return _profiled_residuals(u, w, corr, se, tv, omega_q, 10.0 ** x[0])

        def jacobian(x, r):
            (u, w), (du, dw) = unit(x)
            level = 10.0 ** x[0]
            e_minus, e_plus = np.exp(-level * u / 2.0), cos2 * np.exp(-level * w / 2.0)
            return -0.25 / se[:, None] * np.column_stack(
                [
                    math.log(10.0) * level * (e_minus * u + e_plus * w),
                    level * (e_minus * du + e_plus * dw),
                ]
            )

        x0 = (t[i], math.log10(scan[i]))
        lo, hi = np.array([t_lo[i], math.log10(lo_e)]), np.array([t_hi[i], math.log10(hi_e)])
        res = _solve(residuals, jacobian, x0, lo, hi, _DISCRIMINATE_BUDGET)
        fitted = {"s0": 10.0 ** res.x[0], "omega_e": 10.0 ** res.x[1]}
        fits[gamma] = _result(res, fitted, (True, True), len(dt), n_sweeps, f"profiled fit, gamma={gamma:g}")

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
