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

Numerically, chi_plus and chi_minus are integrated in product form (never
as differences of large phase variances, which cancels catastrophically
once the phase variance is large).  The integrand splits at a frequency a
few tens of oscillations of cos(omega*delta_t) above zero: below, panels
resolve the oscillation directly; above, the cosine is handled exactly by
the Filon kernel so huge delta_t costs nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    QuadratureSpec,
    filon_cos_integral,
    find_root,
    gamma_fn,
    integrate_spectral,
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


def _envelope(spectrum, tau):
    """S(omega) sin^2(omega tau/2) / omega^2 in overflow-safe form."""

    def env(w):
        return spectrum.evaluate(w) * (tau / 2.0) ** 2 * _sinc(w * tau / 2.0) ** 2

    return env


def _window(spectrum):
    """Integration window [0, hi] for the filtered integrals.

    The filters are finite at omega = 0 and every model has finite S(0),
    so the lower edge is exactly zero; the upper edge is the model's own
    negligibility bound.  Window size carries almost no cost: above a few
    filter oscillations the integrals run through the cosine-exact
    kernel, whose panel count follows the log-smoothness of S alone.
    """
    return 0.0, min(spectrum.hard_max, spectrum.suggested_omega_max(1e-20))


def _flat_tail(spectrum, lo, hi, times, quad, brk):
    """Cosine transforms of S/omega^2 over [lo, hi] at t = 0 and ``times``.

    Returns {t: value}.  One Filon call serves every time; the t = 0
    transform bounds the oscillatory ones in magnitude and so anchors
    their tolerance.
    """

    def f(w):
        return spectrum.evaluate(w) / (w * w)

    ts = list(dict.fromkeys((0.0, *times)))
    res = filon_cos_integral(f, ts, quad.with_window(lo, hi), breakpoints=brk)
    return dict(zip(ts, res.value.tolist()))


def _quad(quad):
    return quad if quad is not None else QuadratureSpec()


def phase_variance(spectrum: SpectrumModel, tau: float, quad=None) -> float:
    """Variance of the phase accumulated over one evolution window.

    (4/pi) * integral S(omega) sin^2(omega tau/2) / omega^2.  Below a few
    filter oscillations the envelope is integrated directly; above, the
    sin^2 is expanded and its cosine handled exactly, so the cost never
    scales with tau times the window top.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    quad = _quad(quad)
    lo, hi = _window(spectrum)
    brk = spectrum.breakpoints()
    omega_b = min(hi, _SPLIT_PERIODS * 2.0 * math.pi / tau)
    (low,) = filon_cos_integral(
        _envelope(spectrum, tau),
        (0.0,),
        quad.with_window(lo, omega_b),
        breakpoints=brk,
        envelope_period=2.0 * math.pi / tau,
    ).value.tolist()
    total = 4.0 / math.pi * low
    if omega_b < hi:
        vals = _flat_tail(spectrum, omega_b, hi, (tau,), quad, brk)
        total += 2.0 / math.pi * (vals[0.0] - vals[tau])
    return total


def phase_cross_correlation(spectrum: SpectrumModel, pair: EvolutionPair, quad=None) -> float:
    """Covariance of the two phases, (1/pi) * integral S * F / omega^2."""
    quad = _quad(quad)
    tau, dt = pair.tau, pair.delta_t
    lo, hi = _window(spectrum)
    brk = spectrum.breakpoints()
    env = _envelope(spectrum, tau)
    omega_b = min(hi, _SPLIT_PERIODS * 2.0 * math.pi / tau)
    _, low = filon_cos_integral(
        env,
        (0.0, dt),
        quad.with_window(lo, omega_b),
        breakpoints=brk,
        envelope_period=2.0 * math.pi / tau,
    ).value.tolist()
    total = 4.0 / math.pi * low
    if omega_b < hi:
        vals = _flat_tail(spectrum, omega_b, hi, (dt, dt + tau, abs(dt - tau)), quad, brk)
        total += (
            2.0 / math.pi * vals[dt]
            - 1.0 / math.pi * (vals[dt + tau] + vals[abs(dt - tau)])
        )
    return total


def chi_pair(spectrum: SpectrumModel, pair: EvolutionPair, quad=None) -> tuple[float, float]:
    """(chi_minus, chi_plus) for one evolution pair, by direct quadrature.

    chi_minus = (16/pi) integral S sin^2(omega tau/2) sin^2(omega dt/2) / omega^2
    chi_plus  = same with cos^2(omega dt/2).

    Three frequency regions keep this both stable and cheap:

    * up to a few oscillations of the slower trig factor, the product
      integrand is integrated directly (nonnegative, no cancellation);
    * up to a few oscillations of the faster factor, the slow factor
      stays in the envelope and the fast cosine is handled exactly;
    * above both, the product expands into five plain cosines of
      S/omega^2, each handled exactly, with all magnitudes tied to the
      t = 0 transform so the assembly never digs into cancellation.
    """
    quad = _quad(quad)
    tau, dt = pair.tau, pair.delta_t
    lo, hi = _window(spectrum)
    brk = spectrum.breakpoints()

    if dt == 0.0:
        return 0.0, 4.0 * phase_variance(spectrum, tau, quad)
    if dt < tau:
        # chi_minus is symmetric in (tau, dt); recover chi_plus from the
        # phase-variance identity, which is subtraction-safe here since
        # chi_minus stays well under 4 pv when the separation is short
        swapped = EvolutionPair(dt, tau)
        chi_m = chi_pair(spectrum, swapped, quad)[0]
        return chi_m, 4.0 * phase_variance(spectrum, tau, quad) - chi_m

    t_fast, t_slow = dt, tau
    omega_a = min(hi, _SPLIT_PERIODS * 2.0 * math.pi / t_fast)
    omega_b = min(hi, _SPLIT_PERIODS * 2.0 * math.pi / t_slow)
    env = _envelope(spectrum, tau)

    def f_minus(w):
        return env(w) * np.sin(w * dt / 2.0) ** 2

    def f_plus(w):
        return env(w) * np.cos(w * dt / 2.0) ** 2

    low_spec = quad.with_window(lo, omega_a)
    low_brk = [p for p in brk if lo < p < omega_a]
    hint = 2.0 * math.pi / t_fast
    chi_m = 16.0 / math.pi * integrate_spectral(f_minus, hint, low_spec, breakpoints=low_brk).value
    chi_p = 16.0 / math.pi * integrate_spectral(f_plus, hint, low_spec, breakpoints=low_brk).value

    if omega_a < omega_b:
        mid_spec = quad.with_window(omega_a, omega_b)
        i0, ic = filon_cos_integral(
            env, (0.0, dt), mid_spec, breakpoints=brk, envelope_period=2.0 * math.pi / t_slow
        ).value.tolist()
        chi_m += 8.0 / math.pi * (i0 - ic)
        chi_p += 8.0 / math.pi * (i0 + ic)

    if omega_b < hi:
        times = (tau, dt, dt + tau, dt - tau)
        vals = _flat_tail(spectrum, omega_b, hi, times, quad, brk)
        j0, j_tau, j_dt = vals[0.0], vals[tau], vals[dt]
        j_sum, j_dif = vals[dt + tau], vals[dt - tau]
        chi_m += 4.0 / math.pi * (j0 - j_tau - j_dt + 0.5 * (j_sum + j_dif))
        chi_p += 4.0 / math.pi * (j0 - j_tau + j_dt - 0.5 * (j_sum + j_dif))
    return chi_m, chi_p


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


def correct_fidelity(raw_correlation: float, epsilon: float) -> float:
    """Undo symmetric readout errors: corrected = raw / (1 - 2 eps)^2.

    Each shot is flipped independently with probability eps, which
    attenuates every pair product by (1 - 2 eps)^2.
    """
    if not 0 <= epsilon < 0.5:
        raise ValueError("epsilon must lie in [0, 0.5)")
    return raw_correlation / (1.0 - 2.0 * epsilon) ** 2
