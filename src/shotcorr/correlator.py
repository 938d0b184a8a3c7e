"""Analytic correlations of single-shot free-induction-decay readout.

Each shot lets the qubit precess freely for an evolution time tau, so the
accumulated phase samples a windowed integral of the detuning noise.  Two
shots separated by delta_t give a pair of Gaussian phases whose sum and
difference variances (chi_plus, chi_minus) fix the shot-shot correlator

    <P P'> = (1/2) cos(2 Omega tau) exp(-chi_plus / 2)
           + (1/2) exp(-chi_minus / 2),

with Omega the residual qubit splitting.  chi_minus is the spectroscopy
signal: its low-frequency filter rises as omega^2, so slow noise drops
out of the difference while staying in the sum.

Numerically, each filtered integral of S is written once, as a table of
frequency regions (``_Region``): a band, a kernel (direct Gauss panels,
or Filon with the cosine exact), an integrand linear in S, and a
``combine`` from the region's values to its share of the outputs.  Band
edges sit a few tens of oscillations of cos(omega t) above zero.
chi_minus and chi_plus at delta_t >= tau take three regions, in product
form (never a difference of large phase variances, which cancels
catastrophically once the phase variance is large):

* below the delta_t edge, the two products directly on Gauss panels;
* up to the tau edge, the sin^2(omega tau/2) envelope on Filon, so a
  huge delta_t costs nothing;
* above both, five plain cosines of S/omega^2 on Filon, tied in
  magnitude to the t = 0 transform so the sum never digs into
  cancellation.

One pair table (``_pair_regions``) decides the delta_t regime: the
three regions above from delta_t = tau up; below, the swapped pair's
chi_minus and chi_plus = 4 pv - chi_minus, pv the phase variance, which
is the cross correlation at delta_t = 0; at delta_t = 0, (0, 4 pv).  A
region integrates a time it lists twice (delta_t = 0, tau, 2 tau) once.

Both kernels climb the same levels of fixed weights on S at fixed
nodes (see ``numerics``).  ``chi_pair``, ``phase_variance`` and
``phase_cross_correlation`` integrate the regions adaptively, doubling
until two levels agree; ``chi_pair`` is the authority for one pair.
``ChiPlan`` serves a design of pairs for many spectra with the weights
of two fixed levels, so each chi is one weighted sum of S per level.
Points whose two levels disagree, and spectra the plan was not built
for, go through ``chi_pair``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .numerics import (
    QuadratureError,
    QuadratureSpec,
    filon_cos_integral,
    find_root,
    gamma_fn,
    integrate_spectral,
    level_weights,
    require_finite,
)
from .spectra import OverhauserModel, SpectrumModel, beta_autocorrelation, variance

__all__ = [
    "EvolutionPair",
    "QubitParams",
    "filter_F",
    "phase_variance",
    "phase_cross_correlation",
    "chi_minus",
    "chi_plus",
    "chi_pair",
    "ChiPlan",
    "autocorrelation_analytic",
    "correlator_from_chi",
    "t2_star",
    "ApproxChiMinus",
    "chi_minus_approx",
    "chi_minus_branch",
    "LinearizedCorrelation",
    "autocorrelation_linearized",
    "correct_fidelity",
]

# how many cos(omega*delta_t) periods the direct low-frequency piece keeps
_SPLIT_PERIODS = 16


@dataclass(frozen=True)
class EvolutionPair:
    """One (tau, delta_t) point: free-evolution time and shot separation.

    delta_t < tau cannot be realized by back-to-back shots; the analytic
    formulas still evaluate there, and ``is_physical`` lets callers flag
    such rows in outputs.
    """

    tau: float
    delta_t: float

    def __post_init__(self):
        require_finite(self, "tau", "delta_t")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if self.delta_t < 0:
            raise ValueError("delta_t must be nonnegative")

    @property
    def is_physical(self) -> bool:
        return self.delta_t >= self.tau


@dataclass(frozen=True)
class QubitParams:
    """Qubit and readout settings for correlator and simulator.

    omega_q : residual splitting during free evolution, rad/s.
    coupling_c : detuning per field unit, rad/(s T); bookkeeping only.
    readout_flip_prob : probability epsilon that a shot is recorded
        flipped; must stay below 0.5 for the correction to make sense.
    dead_time : minimum gap between the end of one shot and the start of
        the next, s.
    """

    omega_q: float = 0.0
    coupling_c: float = 1.0
    readout_flip_prob: float = 0.0
    dead_time: float = 0.0

    def __post_init__(self):
        require_finite(self, "omega_q", "coupling_c", "readout_flip_prob", "dead_time")
        if not 0 <= self.readout_flip_prob < 0.5:
            raise ValueError("readout_flip_prob must lie in [0, 0.5)")
        if self.dead_time < 0:
            raise ValueError("dead_time must be nonnegative")


def filter_F(omega, pair: EvolutionPair):
    """Spectral filter 4 sin^2(omega tau / 2) cos(omega delta_t).

    This is the weight with which the noise spectrum enters the
    cross-correlation of the two accumulated phases.
    """
    w = np.asarray(omega, dtype=float)
    out = 4.0 * np.sin(w * pair.tau / 2.0) ** 2 * np.cos(w * pair.delta_t)
    return out if np.ndim(omega) else float(out)


def _sinc(x):
    return np.sinc(x / math.pi)


def _window(spectrum):
    """Integration window [0, hi] for the filtered integrals.

    The filters are finite at omega = 0 and every model has finite S(0),
    so the lower edge is exactly zero; the upper edge is the model's own
    negligibility bound.  For one spectrum the window's size costs few
    panels: above a few filter oscillations the integrals run through
    the cosine-exact kernel, whose panel count follows the
    log-smoothness of S alone.  A ``ChiPlan`` sized for the widest of
    many spectra is different: every sweep evaluates S on all its
    nodes, and for a narrow cutoff most of them lie where S is 0.
    """
    return 0.0, min(spectrum.hard_max, spectrum.suggested_omega_max(1e-20))


@dataclass(frozen=True)
class _Region:
    """A band [lo, hi] of a filtered integral of S and how to integrate it.

    Each of ``integrands``, g(s, omega), is linear in the spectrum values
    s.  ``times`` None: direct Gauss panels of at most half ``period``, one
    value per integrand.  Else Filon on the one integrand, ``period`` its
    own oscillation (or None), one value per time, each distinct time
    integrated once (``kernel_times``).  ``combine`` maps the values to
    the region's share of each output.
    """

    lo: float
    hi: float
    integrands: tuple
    period: float | None
    times: tuple | None
    combine: Callable

    @property
    def kernel_times(self):
        """``times`` with each distinct time once (dt = 0, tau or 2 tau repeats one)."""
        return None if self.times is None else tuple(dict.fromkeys(self.times))

    def share(self, values):
        """``combine`` of one kernel value per integrand, or per time of ``kernel_times``."""
        if self.times is not None:
            by_time = dict(zip(self.kernel_times, values))
            values = [by_time[t] for t in self.times]
        return self.combine(*values)

    def mapped(self, outputs):
        """This region with ``outputs`` applied to its one-output share."""
        return replace(self, combine=lambda *v: outputs(*self.combine(*v)))


def _envelope(tau):
    """g(s, omega) = s sin^2(omega tau/2) / omega^2 in overflow-safe form."""
    return lambda s, w: s * (tau / 2.0) ** 2 * _sinc(w * tau / 2.0) ** 2


def _over_w2(s, w):
    return s / (w * w)


def _cross_regions(tau, dt, hi):
    """``phase_cross_correlation``: the envelope at t = dt, then three cosines on S/omega^2."""
    omega_b = min(hi, _SPLIT_PERIODS * 2.0 * math.pi / tau)

    def low(i0, i_dt):
        return (4.0 / math.pi * i_dt,)

    def tail(j0, j_dt, j_sum, j_dif):
        return (2.0 / math.pi * j_dt - 1.0 / math.pi * (j_sum + j_dif),)

    return [
        _Region(0.0, omega_b, (_envelope(tau),), 2.0 * math.pi / tau, (0.0, dt), low),
        _Region(omega_b, hi, (_over_w2,), None, (0.0, dt, dt + tau, abs(dt - tau)), tail),
    ]


def _chi_regions(tau, dt, hi, plus=True):
    """``chi_pair`` for dt >= tau, the three regions of the module docstring.

    With ``plus`` False they give (chi_minus,) alone, the low band
    integrating the sin^2 product only: the swapped pair of dt < tau.
    """
    omega_a = min(hi, _SPLIT_PERIODS * 2.0 * math.pi / dt)
    omega_b = min(hi, _SPLIT_PERIODS * 2.0 * math.pi / tau)
    env = _envelope(tau)

    def low(*i):
        return tuple(16.0 / math.pi * v for v in i)

    def mid(i0, i_dt):
        minus = 8.0 / math.pi * (i0 - i_dt)
        return (minus, 8.0 / math.pi * (i0 + i_dt)) if plus else (minus,)

    def tail(j0, j_tau, j_dt, j_sum, j_dif):
        half_sum = 0.5 * (j_sum + j_dif)
        minus = 4.0 / math.pi * (j0 - j_tau - j_dt + half_sum)
        return (minus, 4.0 / math.pi * (j0 - j_tau + j_dt - half_sum)) if plus else (minus,)

    products = (
        lambda s, w: env(s, w) * np.sin(w * dt / 2.0) ** 2,
        lambda s, w: env(s, w) * np.cos(w * dt / 2.0) ** 2,
    )[: 2 if plus else 1]
    return [
        _Region(0.0, omega_a, products, 2.0 * math.pi / dt, None, low),
        _Region(omega_a, omega_b, (env,), 2.0 * math.pi / tau, (0.0, dt), mid),
        _Region(omega_b, hi, (_over_w2,), None, (0.0, tau, dt, dt + tau, dt - tau), tail),
    ]


def _pair_regions(tau, dt, hi):
    """(chi_minus, chi_plus) of any pair, the regions ``chi_pair`` and ``ChiPlan`` read.

    dt >= tau is ``_chi_regions``.  Below it chi_minus, symmetric in
    (tau, dt), is the swapped pair's, and chi_plus is 4 pv - chi_minus
    with pv the phase variance, the cross correlation at dt = 0; that
    difference is subtraction-safe, since chi_minus stays well under
    4 pv when the separation is short.  dt = 0 leaves 0 and 4 pv.
    """
    if dt >= tau:
        return _chi_regions(tau, dt, hi)
    # p - p is a +0.0 of p's shape, where 0.0 * p would give -0.0 for p < 0
    pv = [r.mapped(lambda p: (p - p, 4.0 * p)) for r in _cross_regions(tau, 0.0, hi)]
    if dt == 0.0:
        return pv
    return [r.mapped(lambda m: (m, -m)) for r in _chi_regions(dt, tau, hi, plus=False)] + pv


def _integrate(regions, spectrum, quad):
    """Each output of ``regions`` for ``spectrum``, by the adaptive kernels."""
    brk = spectrum.breakpoints()
    total = None
    for r in (r for r in regions if r.lo < r.hi):
        spec = quad.with_window(r.lo, r.hi)
        fs = [lambda w, g=g: g(spectrum.evaluate(w), w) for g in r.integrands]
        if r.times is None:
            values = [integrate_spectral(f, r.period, spec, brk).value for f in fs]
        else:
            (f,) = fs
            res = filon_cos_integral(
                f, r.kernel_times, spec, breakpoints=brk, envelope_period=r.period
            )
            values = res.value.tolist()
        share = r.share(values)
        total = share if total is None else tuple(a + b for a, b in zip(total, share))
    return total


def _quad(quad):
    return quad if quad is not None else QuadratureSpec()


def phase_variance(spectrum: SpectrumModel, tau: float, quad=None) -> float:
    """Variance of the phase accumulated over one evolution window.

    (4/pi) * integral S(omega) sin^2(omega tau/2) / omega^2.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    return _integrate(_cross_regions(tau, 0.0, _window(spectrum)[1]), spectrum, _quad(quad))[0]


def phase_cross_correlation(spectrum: SpectrumModel, pair: EvolutionPair, quad=None) -> float:
    """Covariance of the two phases, (1/pi) * integral S * F / omega^2."""
    regions = _cross_regions(pair.tau, pair.delta_t, _window(spectrum)[1])
    return _integrate(regions, spectrum, _quad(quad))[0]


def chi_pair(spectrum: SpectrumModel, pair: EvolutionPair, quad=None) -> tuple[float, float]:
    """(chi_minus, chi_plus) for one evolution pair, by direct quadrature.

    chi_minus = (16/pi) integral S sin^2(omega tau/2) sin^2(omega dt/2) / omega^2
    chi_plus  = same with cos^2(omega dt/2).
    """
    regions = _pair_regions(pair.tau, pair.delta_t, _window(spectrum)[1])
    return _integrate(regions, spectrum, _quad(quad))


# the kernel levels a plan holds: the one chi_pair returns when its first
# check passes, and one bisection up, whose value apply reports
_PLAN_LEVELS = (1, 2)


def _joined(parts):
    """One node vector and its weight rows from a list of (nodes, weights)."""
    return (
        np.concatenate([nodes for nodes, _ in parts]),
        np.concatenate([weights for _, weights in parts], axis=-1),
    )


class ChiPlan:
    """(chi_minus, chi_plus) of a fixed design of pairs as weighted sums of S.

    Built once for ``pairs``, a window [0, ``omega_max``] and the kinks in
    ``breakpoints``; ``apply(spectrum)`` evaluates S on the plan's nodes
    and returns the arrays (chi_minus, chi_plus) in the order of ``pairs``.
    ``apply(spectrum, values)`` takes S on ``nodes`` from the caller
    instead, who may compute it cheaper (``discriminate_gamma`` keeps the
    spectrum's knee factor across sweeps); ``values`` must equal
    ``spectrum.evaluate(nodes)``, and is not checked.

    Rows.  A pair's rows come from the pair table ``chi_pair`` reads
    (``_pair_regions``), with ``omega_max`` as the window top, so every
    delta_t regime is decided there.  Each region becomes the node
    weights of its kernel at a level, one row per distinct time, times
    its integrand at unit spectrum, and the region maps those weight
    rows to its share of each output as it maps ``chi_pair``'s values.

    Two levels.  Every row exists at levels 1 and 2 of the kernels: the
    level whose value ``chi_pair`` returns when its first check passes,
    and one bisection up, both read from one starting grid per region.
    ``nodes`` holds every served pair's level-1 nodes, then every level-2
    node, and one (2, n) weight array lines up with it, so a sweep is one
    evaluation of S, one product and one ``reduceat``.  ``apply``
    returns the level-2 value; a point whose two values differ by more
    than ``rel_tol * |chi| + abs_tol`` in either chi goes through
    ``chi_pair``.

    Fallback.  A spectrum whose window top exceeds ``omega_max``, or with
    a kink (a breakpoint, or a finite ``hard_max`` below ``omega_max``)
    that is not among the plan's breakpoints, goes through ``chi_pair``
    whole; so does, for every spectrum, a pair whose grids would exceed
    ``quad.max_panels``.  ``fallbacks`` counts the points sent to
    ``chi_pair``.
    """

    def __init__(self, pairs, omega_max: float, breakpoints=(), quad=None):
        self.pairs = tuple(pairs)
        self.omega_max = float(omega_max)
        self.breakpoints = tuple(sorted({float(p) for p in breakpoints}))
        self.quad = _quad(quad)
        self.fallbacks = 0
        served, parts = [], tuple([] for _ in _PLAN_LEVELS)
        for i, pair in enumerate(self.pairs):
            try:
                rows = self._rows(_pair_regions(pair.tau, pair.delta_t, self.omega_max))
            except QuadratureError:
                continue
            served.append(i)
            for part, row in zip(parts, rows):
                part.append(row)
        self._served = np.array(served, dtype=int)
        # every served pair's rows at level 1, then at level 2: one node
        # vector, one (2, n) weight array, and where each block starts
        blocks = [row for part in parts for row in part]
        self.nodes, self._weights = _joined(blocks) if blocks else (np.empty(0), np.empty((2, 0)))
        self._starts = np.cumsum([0] + [len(nodes) for nodes, _ in blocks[:-1]])

    @classmethod
    def covering(cls, pairs, spectra, quad=None) -> "ChiPlan":
        """A plan whose window and breakpoints serve every one of ``spectra``."""
        spectra = list(spectra)
        omega_max = max(_window(s)[1] for s in spectra)
        return cls(pairs, omega_max, {p for s in spectra for p in _kinks(s, omega_max)}, quad)

    def _rows(self, regions):
        """``regions`` as (nodes, weights) per level, one weight row per output."""
        parts = tuple([] for _ in _PLAN_LEVELS)
        for r in (r for r in regions if r.lo < r.hi):
            spec = self.quad.with_window(r.lo, r.hi)
            levels = level_weights(spec, self.breakpoints, r.period, _PLAN_LEVELS, r.kernel_times)
            for part, (x, w) in zip(parts, levels):
                values = [row for g in r.integrands for row in w * g(1.0, x)]
                part.append((x, np.stack(r.share(values))))
        return [_joined(part) for part in parts]

    def _serves(self, spectrum) -> bool:
        if _window(spectrum)[1] > self.omega_max:
            return False
        return all(p in self.breakpoints for p in _kinks(spectrum, self.omega_max))

    def apply(self, spectrum: SpectrumModel, values=None) -> tuple[np.ndarray, np.ndarray]:
        """(chi_minus, chi_plus) arrays for ``spectrum``, in the order of ``pairs``.

        ``values``, if given, must be ``spectrum.evaluate(self.nodes)``,
        computed by a caller that can do it cheaper; it is used only when
        the plan serves ``spectrum``.
        """
        chi = np.full((2, len(self.pairs)), np.nan)
        adaptive = np.ones(len(self.pairs), dtype=bool)
        if len(self._served) and self._serves(spectrum):
            if values is None:
                values = spectrum.evaluate(self.nodes)
            sums = np.add.reduceat(self._weights * values, self._starts, axis=1)
            coarse, fine = sums[:, : len(self._served)], sums[:, len(self._served) :]
            quad = self.quad
            within = np.abs(fine - coarse) <= quad.rel_tol * np.abs(fine) + quad.abs_tol
            chi[:, self._served] = fine
            adaptive[self._served] = ~within.all(axis=0)
        for i in np.flatnonzero(adaptive):
            chi[:, i] = chi_pair(spectrum, self.pairs[i], self.quad)
        self.fallbacks += int(adaptive.sum())
        return chi[0], chi[1]


def _kinks(spectrum, omega_max):
    """Where S is not smooth inside (0, omega_max): breakpoints and a hard top."""
    pts = {*spectrum.breakpoints(), spectrum.hard_max}
    return {float(p) for p in pts if 0.0 < p < omega_max}


def chi_minus(spectrum: SpectrumModel, pair: EvolutionPair, quad=None) -> float:
    """Variance of the phase difference between the two shots."""
    return chi_pair(spectrum, pair, quad)[0]


def chi_plus(spectrum: SpectrumModel, pair: EvolutionPair, quad=None) -> float:
    """Variance of the phase sum of the two shots."""
    return chi_pair(spectrum, pair, quad)[1]


def autocorrelation_analytic(
    spectrum: SpectrumModel,
    pair: EvolutionPair,
    qubit: QubitParams | None = None,
    quad=None,
) -> float:
    """Ensemble shot-shot correlator <P P'> for Gaussian detuning noise.

    Readout errors are *not* applied here; see ``correct_fidelity`` for
    the relation between raw and ideal correlators.
    """
    chi_m, chi_p = chi_pair(spectrum, pair, quad)
    omega_q = qubit.omega_q if qubit is not None else 0.0
    return correlator_from_chi(chi_m, chi_p, pair.tau, omega_q)


def correlator_from_chi(chi_m, chi_p, tau, omega_q: float = 0.0):
    """<P P'> = (1/2) cos(2 omega_q tau) exp(-chi_p / 2) + (1/2) exp(-chi_m / 2).

    Takes scalars or NumPy arrays.  Scalars are evaluated with ``math``
    and arrays with NumPy, whose exp and cos may differ from ``math`` in
    the last bit; artifact bytes are fixed to the ``math`` values.
    """
    xp = np if isinstance(chi_m, np.ndarray) else math
    return 0.5 * xp.cos(2.0 * omega_q * tau) * xp.exp(-chi_p / 2.0) + 0.5 * xp.exp(-chi_m / 2.0)


def t2_star(spectrum: SpectrumModel, quad=None, bracket=None) -> float:
    """Evolution time at which the single-shot phase variance reaches 1."""
    quad = _quad(quad)

    def excess(tau):
        return phase_variance(spectrum, tau, quad) - 1.0

    if bracket is None:
        var = variance(spectrum, quad)
        if not var > 0:
            raise ValueError("t2_star undefined for zero-variance spectrum")
        guess = 1.0 / math.sqrt(var)
        lo = hi = guess
        flo = fhi = excess(guess)
        # factor-2 steps: overshooting wastes panels roughly linearly in
        # tau for broadband spectra, so stay close to the crossing
        for _ in range(120):
            if flo > 0:
                lo /= 2.0
                flo = excess(lo)
            elif fhi < 0:
                hi *= 2.0
                fhi = excess(hi)
            else:
                break
        else:
            raise ValueError("t2_star: failed to bracket the unit-variance time")
        bracket = (lo, hi)
    return find_root(excess, bracket, rel_tol=1e-10)


@dataclass(frozen=True)
class ApproxChiMinus:
    """chi_minus from the closed-form branch expansion, with provenance.

    branch : 'quadratic' (dt below 1/omega_e), 'linear' (between the
        cutoff and knee times) or 'plateau' (dt beyond 1/omega_l).
    crossover : dt sits within a factor 3 of a branch boundary, so the
        value is indicative only.
    tau_warning : tau * omega_e >= 0.1, outside the short-evolution
        assumption behind the expansion.
    """

    value: float
    branch: str
    crossover: bool
    tau_warning: bool
    note: str


def chi_minus_branch(model: OverhauserModel, delta_t: float) -> str:
    """Regime of the knee-plus-cutoff chi_minus at a shot separation.

    'quadratic' below 1/omega_e, 'linear' up to and including 1/omega_l,
    'plateau' beyond; see ``chi_minus_approx``.
    """
    if delta_t < 1.0 / model.omega_e:
        return "quadratic"
    if delta_t <= 1.0 / model.omega_l:
        return "linear"
    return "plateau"


def chi_minus_approx(model: OverhauserModel, pair: EvolutionPair, quad=None) -> ApproxChiMinus:
    """Branch approximation of chi_minus for the knee-plus-cutoff model.

    quadratic:  (a/pi) c^2 omega_e omega_l^2 tau^2 s0 dt^2,
                a = Gamma(1/gamma + 1)
    linear:     c^2 omega_l^2 tau^2 s0 dt
    plateau:    2 tau^2 <beta^2>

    The plateau constant is twice the phase variance in the quasistatic
    limit; a variant with the variance squared over pi is dimensionally
    inconsistent and disagrees with quadrature, so it is not used.
    """
    if not isinstance(model, OverhauserModel):
        raise TypeError("chi_minus_approx needs an OverhauserModel")
    if not model.cutoff_enabled:
        raise ValueError("chi_minus_approx requires a finite cutoff omega_e")
    tau, dt = pair.tau, pair.delta_t
    t_cut = 1.0 / model.omega_e
    t_knee = 1.0 / model.omega_l
    c2s0 = model.coupling_c**2 * model.s0
    branch = chi_minus_branch(model, dt)
    if branch == "quadratic":
        a = gamma_fn(1.0 / model.gamma + 1.0)
        value = a / math.pi * c2s0 * model.omega_e * model.omega_l**2 * tau**2 * dt**2
    elif branch == "linear":
        value = c2s0 * model.omega_l**2 * tau**2 * dt
    else:
        value = 2.0 * tau**2 * variance(model, quad)
    crossover = (t_cut / 3.0 <= dt <= 3.0 * t_cut) or (t_knee / 3.0 <= dt <= 3.0 * t_knee)
    tau_warning = tau * model.omega_e >= 0.1
    notes = [f"branch={branch}"]
    if crossover:
        notes.append("within factor 3 of a branch boundary")
    if tau_warning:
        notes.append("tau*omega_e >= 0.1: expansion premise violated")
    if branch == "plateau":
        notes.append("plateau constant = 2 tau^2 times detuning variance")
    return ApproxChiMinus(value, branch, crossover, tau_warning, "; ".join(notes))


@dataclass(frozen=True)
class LinearizedCorrelation:
    """Small-contrast expansion of the correlator, with a validity flag."""

    value: float
    within_validity: bool


def autocorrelation_linearized(
    spectrum: SpectrumModel, pair: EvolutionPair, quad=None
) -> LinearizedCorrelation:
    """First-order correlator 1/2 + (tau^2/2) (<beta beta'> - <beta^2>).

    Valid where tau^2 |<beta beta'> - <beta^2>| is small (the flag trips
    at 0.1) and the phase-sum term is already fully suppressed.
    """
    quad = _quad(quad)
    var = variance(spectrum, quad)
    auto = beta_autocorrelation(spectrum, pair.delta_t, quad)
    shift = pair.tau**2 * (auto - var)
    return LinearizedCorrelation(0.5 + shift / 2.0, bool(abs(shift) < 0.1))


def correct_fidelity(raw_correlation, epsilon: float):
    """Undo symmetric readout errors: corrected = raw / (1 - 2 eps)^2.

    Each shot is flipped independently with probability eps, which
    attenuates every pair product by (1 - 2 eps)^2, and so its standard
    error too.  Takes a scalar or a NumPy array of estimates.
    """
    if not 0 <= epsilon < 0.5:
        raise ValueError("epsilon must lie in [0, 0.5)")
    return raw_correlation / (1.0 - 2.0 * epsilon) ** 2
