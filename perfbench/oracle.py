"""Reference values computed apart from the package under test.

Spectra are written out from their defining formulas, and the filter
integrals are plain trapezoid sums on a dense grid: logarithmic where
the integrand is smooth, uniform where cos(omega * delta_t) oscillates.
Nothing here calls into ``shotcorr``.
"""

import math

import numpy as np

# uniform-grid points per period of the fastest filter oscillation
POINTS_PER_PERIOD = 32
# log-grid points per decade of angular frequency
POINTS_PER_DECADE = 20_000
# cap on the uniform part of the grid; rows needing more are not checkable
MAX_UNIFORM = 2_000_000


def overhauser(s0, omega_l, omega_e, gamma, coupling_c):
    """c^2 s0 / (1 + (w/omega_l)^2) * exp(-(w/omega_e)^gamma)."""

    def spectrum(w):
        lor = coupling_c**2 * s0 / (1.0 + (w / omega_l) ** 2)
        if math.isinf(omega_e):
            return lor
        return lor * np.exp(-((w / omega_e) ** gamma))

    return spectrum


def power_law(amplitude, alpha, omega_low, omega_high):
    """amplitude / w^alpha inside the band, flat below it, zero above."""

    def spectrum(w):
        inside = amplitude / np.maximum(w, omega_low) ** alpha
        return np.where(w <= omega_high, inside, 0.0)

    return spectrum


def _grid(tau, delta_t, hi):
    """Grid over [0, hi]: log-spaced, plus a uniform band from zero that
    resolves the fastest filter oscillation, cos(w * (tau + delta_t)).

    Returns the grid and the top of the uniform band.
    """
    t_fast = tau + delta_t
    h = 2.0 * math.pi / t_fast / POINTS_PER_PERIOD
    top = min(hi, h * MAX_UNIFORM)
    lo = 1e-18 * hi
    n_log = int(POINTS_PER_DECADE * math.log10(hi / lo)) + 1
    parts = [np.zeros(1), np.geomspace(lo, hi, n_log), np.arange(0.0, top, h)]
    return np.unique(np.concatenate(parts)), top


def chi_pair(spectrum, tau, delta_t, hi, tail_tol=1e-6):
    """(chi_minus, chi_plus) by trapezoid sums of the filter integrals.

    chi_minus = (16/pi) int S sin^2(w tau/2) sin^2(w dt/2) / w^2
    chi_plus  = same with cos^2(w dt/2).

    ``hi`` must lie where the spectrum is negligible.  Above the uniform
    band the grid stops resolving the oscillation; the integrand mass
    there must stay below ``tail_tol`` of chi_plus, else the row is
    rejected as beyond this oracle's reach.
    """
    w, top = _grid(tau, delta_t, hi)
    safe = np.where(w > 0, w, 1.0)
    env = np.where(
        w > 0,
        spectrum(w) * np.sin(0.5 * w * tau) ** 2 / safe**2,
        spectrum(np.zeros(1))[0] * tau**2 / 4.0,
    )
    s2 = np.sin(0.5 * w * delta_t) ** 2
    chi_m = 16.0 / math.pi * float(np.trapezoid(env * s2, w))
    chi_p = 16.0 / math.pi * float(np.trapezoid(env * (1.0 - s2), w))
    above = w >= top
    tail = 16.0 / math.pi * float(np.trapezoid(env[above], w[above])) if above.sum() > 1 else 0.0
    if tail > tail_tol * chi_p:
        raise ValueError(
            f"oracle cannot resolve tau={tau:g}, delta_t={delta_t:g}: "
            f"unresolved mass {tail:.3g} vs chi_plus {chi_p:.3g}"
        )
    return chi_m, chi_p


def correlator(chi_m, chi_p):
    """Ideal shot-shot correlator from the two exponents, zero residual splitting."""
    return 0.5 * math.exp(-chi_p / 2.0) + 0.5 * math.exp(-chi_m / 2.0)
