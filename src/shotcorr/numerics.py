"""Numerical kernels shared across the package.

Spectral integrals here run over many decades of angular frequency and
carry trigonometric filter factors that oscillate on scales set by the
evolution time and the shot separation.  Generic global adaptivity is a
poor fit for that combination, so two dedicated integrators work on a
logarithmic panel grid with the kinks of f pinned.  ``integrate_spectral``
takes Gauss panels, subdivided so the fastest oscillation stays
resolved.  ``filon_cos_integral`` takes the integral of
f(omega)*cos(omega*t) for a list of times with the cosine exact per
panel (Legendre expansion of f, spherical-Bessel moments), so panel
density follows the smoothness of f alone and one grid serves every
time; at t = 0 it is plain panel quadrature of f.

Both are one loop over levels of fixed weights: a level is nodes and
weights on the starting grid bisected some number of times, its value
the weighted sum of f at the nodes, and the density doubles until two
levels agree.  ``level_weights`` gives one level's weights, so a caller
that integrates many integrands on one window builds them once and pays
one dot product per integrand.

Every integrator takes its window ``(omega_lo, omega_hi)`` as an
argument; the window of an integral of S is the spectrum's
(``spectra.window_top``).  ``QuadratureSpec`` holds only the tolerances
and the panel budget.

Also here: real Lambert W on both real branches, a gamma wrapper, the
finiteness check the model classes share, and ``ParamError``, the
ValueError of every check that refuses a parameter.
Everything validates its domain and reports an honest error estimate or
raises ``QuadratureError``.

The Filon moments are j_0 .. j_11 from ``_sph_jn``, a numpy kernel; the
package needs no library beyond numpy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "QuadratureError",
    "integrate_spectral",
    "filon_cos_integral",
    "level_weights",
    "lambert_w",
    "lambert_w_m1",
    "gamma_fn",
    "require_finite",
    "ParamError",
]


class ParamError(ValueError):
    """A ValueError that refuses one parameter, whose name ``name`` holds."""

    def __init__(self, name, message):
        super().__init__(message)
        self.name = name


def require_finite(obj, *names):
    """Raise ParamError naming the first attribute in ``names`` of ``obj`` that is not finite."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ParamError(name, f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and panel budget of the spectral integrators, nothing else.

    Attributes
    ----------
    rel_tol, abs_tol : float
        Target for the returned error estimate:
        ``error <= rel_tol * |value| + abs_tol``.
    max_panels : int
        Hard cap on the number of panels; exceeding it raises
        ``QuadratureError`` carrying the partial result.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-30
    max_panels: int = 200_000

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.abs_tol < 0:
            raise ValueError("abs_tol must be nonnegative")
        if self.max_panels < 1:
            raise ValueError("max_panels must be at least 1")


@dataclass(frozen=True)
class QuadratureResult:
    value: float | np.ndarray
    error: float
    n_panels: int


class QuadratureError(RuntimeError):
    """Raised when an integral does not converge within the panel budget.

    Carries the partial value and its error estimate so callers can
    inspect how far off the computation was.
    """

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


# the embedded Gauss-Legendre pair of integrate_spectral: (nodes, weights)
_GAUSS8 = np.polynomial.legendre.leggauss(8)
_GAUSS16 = np.polynomial.legendre.leggauss(16)

_FILON_ORDER = 12
_filon_nodes, _filon_weights = np.polynomial.legendre.leggauss(_FILON_ORDER)
# row n of _filon_proj maps node values to the Legendre coefficient e_n
_filon_proj = np.empty((_FILON_ORDER, _FILON_ORDER))
for _n in range(_FILON_ORDER):
    _pn = np.polynomial.legendre.Legendre.basis(_n)(_filon_nodes)
    _filon_proj[_n] = (2 * _n + 1) / 2.0 * _filon_weights * _pn
_even_n = np.arange(0, _FILON_ORDER, 2)
_odd_n = np.arange(1, _FILON_ORDER, 2)
_even_sign = (-1.0) ** (_even_n // 2)
_odd_sign = (-1.0) ** ((_odd_n - 1) // 2)
# _sph_jn's tables: row k of _SERIES holds the coefficients of
# (-x^2/2)^k in j_n(x) (2n+1)!! / x^n, k = 0 .. 14; _LEAD the steps of
# x^n / (2n+1)!!; _TWO_N_PLUS_ONE the 2n + 1 of both recurrences, n = 1 .. 30
_orders = np.arange(_FILON_ORDER)
_SERIES_TERMS = 14
_SERIES = np.cumprod(
    [np.ones(_FILON_ORDER)] + [1.0 / (k * (2 * _orders + 2 * k + 1)) for k in range(1, _SERIES_TERMS + 1)],
    axis=0,
)
_LEAD = 1.0 / (2 * _orders[1:] + 1)
_TWO_N_PLUS_ONE = 2.0 * np.arange(1, 31) + 1.0

# evaluation batch size in panels times weight rows (or one starting
# panel, where that is more); bounds peak memory at ~ _CHUNK * order doubles
_CHUNK = 65536


def _start_grid(window, spec, breakpoints, period, times):
    """Edges of the starting grid of ``integrate_spectral`` (``times`` None) or ``filon_cos_integral``.

    ``window`` is (omega_lo, omega_hi), 0 <= omega_lo < omega_hi.  Log
    edges, 8 per decade, kinks pinned, gaps split to half ``period``.
    Over ``spec.max_panels`` panels the Gauss grid is thinned gap by gap
    (order-16 panels stay accurate to about two periods); Filon raises.
    """
    a, b = map(float, window)
    if not a >= 0:
        raise ValueError(f"window must start at a nonnegative omega, got {a}")
    if not b > a:
        raise ValueError(f"window top {b} must exceed its lower edge {a}")
    if times is not None and np.any(np.asarray(times) < 0):
        raise ValueError("t_cos must be nonnegative")
    # a == 0 gets one stub panel at the bottom
    lo = a if a > 0 else b * 1e-14
    edges = np.geomspace(lo, b, max(1, int(math.ceil(8 * math.log10(b / lo)))) + 1)
    if a < lo:
        edges = np.concatenate(([a], edges))
    edges[0], edges[-1] = a, b
    pts = [p for p in breakpoints if a < p < b]
    if pts:
        edges = np.unique(np.concatenate([edges, np.asarray(pts, dtype=float)]))
    if period is None or not math.isfinite(period):
        return edges
    if period <= 0:
        raise ValueError(f"{'osc_period_hint' if times is None else 'envelope_period'} must be positive")
    n_sub = np.maximum(1.0, np.ceil(np.diff(edges) / (period / 2.0)))
    total = n_sub.sum()
    if total > spec.max_panels:
        if times is not None:
            raise QuadratureError(
                f"envelope oscillation needs more than max_panels={spec.max_panels} panels"
            )
        n_sub = np.maximum(1.0, np.floor(n_sub * (spec.max_panels / total)))
    return _subdivide(edges, n_sub)


def _subdivide(edges, n_sub):
    """Split gap i of ``edges`` into ``n_sub[i]`` equal panels; returns the edges.

    Bit for bit what ``np.linspace(p, q, n + 1)`` gives per gap:
    ``k * ((q - p) / n) + p``, with the last edge pinned (linspace's
    special path for a step that underflows to zero is not reproduced).
    """
    n = np.asarray(n_sub, dtype=np.int64)
    first = np.repeat(np.cumsum(n) - n, n)
    k = (np.arange(len(first)) - first).astype(float)
    out = np.empty(len(first) + 1)
    out[:-1] = k * np.repeat(np.diff(edges) / n, n) + np.repeat(edges[:-1], n)
    out[-1] = edges[-1]
    return out


def _bisect(edges, times):
    """``edges`` with every panel split in half ``times`` times."""
    for _ in range(times):
        dense = np.empty(2 * len(edges) - 1)
        dense[0::2] = edges
        dense[1::2] = 0.5 * (edges[:-1] + edges[1:])
        edges = dense
    return edges


def _sph_jn(theta):
    """Spherical Bessel functions j_0 .. j_11 at each ``theta`` >= 0, shape (len(theta), 12).

    Three regimes, each accurate to about 1e-15 of max_n |j_n(theta)|:
    the power series in theta**2 to its 14th term at theta <= 2, where
    theta = 0 gives exactly 1, +0, ..., +0; Miller's downward recurrence
    from order 30 at 2 < theta <= 11, normalised by j_0 = sin(theta) /
    theta or j_1 = (j_0 - cos(theta)) / theta, whichever is larger in
    size; and the upward recurrence from j_0 and j_1 at theta > 11,
    where every order is below theta and it is stable.  A regime no
    theta falls in costs nothing.
    """
    theta = np.asarray(theta, dtype=float)
    out = np.empty((len(theta), _FILON_ORDER))
    series, upward = theta <= 2.0, theta > 11.0
    miller = ~(series | upward)

    x = theta[series]
    if x.size:
        # j_n = x^n / (2n+1)!! * sum_k _SERIES[k, n] (-x^2/2)^k
        out[series] = _powers(x, _LEAD) * (_powers(-0.5 * x * x, np.ones(_SERIES_TERMS)) @ _SERIES)

    x = theta[miller]
    if x.size:
        ratio = _TWO_N_PLUS_ONE[:, None] / x
        jn = np.empty((_FILON_ORDER, len(x)))
        above, cur = np.zeros_like(x), np.full_like(x, 1e-300)
        for n in range(len(ratio), 0, -1):
            above, cur = cur, ratio[n - 1] * cur - above
            if n <= _FILON_ORDER:
                jn[n - 1] = cur
        j0 = np.sin(x) / x
        j1 = (j0 - np.cos(x)) / x
        by_j0 = np.abs(j0) >= np.abs(j1)
        out[miller] = (jn * (np.where(by_j0, j0, j1) / np.where(by_j0, jn[0], jn[1]))).T

    x = theta[upward]
    if x.size:
        ratio = _TWO_N_PLUS_ONE[: _FILON_ORDER - 2, None] / x
        jn = np.empty((_FILON_ORDER, len(x)))
        jn[0] = np.sin(x) / x
        jn[1] = (jn[0] - np.cos(x)) / x
        for n in range(1, _FILON_ORDER - 1):
            jn[n + 1] = ratio[n - 1] * jn[n] - jn[n - 1]
        out[upward] = jn.T
    return out


def _powers(base, steps):
    """Running products 1, base * steps[0], base^2 * steps[0] * steps[1], ... per row of ``base``."""
    out = np.empty((len(base), len(steps) + 1))
    out[:, 0] = 1.0
    out[:, 1:] = base[:, None] * steps
    return np.cumprod(out, axis=1, out=out)


def _filon_panels(times, mid, half):
    """Filon nodes and one weight row per time on panels ``mid`` +- ``half``.

    With theta = half * t, the weight of node k is
    half * (cos(mid t) * sum_even E_n(theta) proj[n, k]
            - sin(mid t) * sum_odd O_n(theta) proj[n, k]),
    E_n and O_n the integrals of P_n(u) cos(theta u), n even, and
    P_n(u) sin(theta u), n odd, on [-1, 1], proj the Legendre
    projection: the integral of f(omega) cos(omega t) against the
    degree-11 Legendre fit of f.  E_n and O_n are 2 (-1)^(n/2) j_n(theta)
    and 2 (-1)^((n-1)/2) j_n(theta), with j_n from ``_sph_jn``: the
    power series at theta <= 2 (exactly 1, +0, ..., +0 at theta = 0),
    Miller's downward recurrence up to 11 and the upward one beyond.
    """
    times = np.asarray(times, dtype=float)
    nodes = (mid[:, None] + half[:, None] * _filon_nodes).ravel()
    # j_0 .. j_11 of every time in one call, (times * panels, order)
    jn = _sph_jn((times[:, None] * half).ravel())
    even = (2.0 * _even_sign * jn[:, _even_n]).reshape(len(times), len(mid), -1)
    odd = (2.0 * _odd_sign * jn[:, _odd_n]).reshape(len(times), len(mid), -1)
    phase = (times[:, None] * mid)[:, :, None]
    cos_part = np.cos(phase) * (even @ _filon_proj[_even_n])
    sin_part = np.sin(phase) * (odd @ _filon_proj[_odd_n])
    return nodes, (half[:, None] * (cos_part - sin_part)).reshape(len(times), -1)


def _level(level, times):
    """Level ``level`` of an adaptive integrator as (bisections, weigh).

    ``times`` None is ``integrate_spectral``: level 0 is G8 on its
    starting grid, level k >= 1 G16 on that grid bisected k - 1 times.
    Otherwise ``filon_cos_integral`` at ``times``: level k is Filon on
    its starting grid bisected k times.  ``weigh(edges)`` gives the flat
    nodes and the (rows, nodes) weights on the starting panels ``edges``.
    """
    if times is not None:
        bisections = level
    else:
        bisections, (x, w) = max(level - 1, 0), (_GAUSS16 if level else _GAUSS8)

    def weigh(edges):
        fine = _bisect(edges, bisections)
        mid, half = 0.5 * (fine[:-1] + fine[1:]), 0.5 * (fine[1:] - fine[:-1])
        if times is not None:
            return _filon_panels(times, mid, half)
        return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).reshape(1, -1)

    return bisections, weigh


def _chunk(f, weigh, edges):
    """Sums of weights * f(nodes) on each starting panel of ``edges``, shape (rows, panels)."""
    nodes, weights = weigh(edges)
    vals = np.asarray(f(nodes), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned a non-finite value")
    n = len(edges) - 1
    return np.einsum("rpk,pk->rp", weights.reshape(len(weights), n, -1), vals.reshape(n, -1))


def _doubling(f, edges, spec, times=None):
    """The adaptive loop of both integrators: the levels of ``_level`` until two agree.

    A level is weights * f(nodes) summed on each panel of the starting
    grid ``edges``, in chunks, its value the total per weight row.  The
    error of a level is the summed change of its panels (Gauss, ``times``
    None) or the largest change of a time's value (Filon).  A bisected
    level over ``spec.max_panels`` panels raises instead, with the last
    value and error (inf before the first comparison).
    """
    n_start, rows = len(edges) - 1, 1 if times is None else len(times)
    prev, error = None, math.inf
    for level in itertools.count():
        bisections, weigh = _level(level, times)
        if bisections and n_start << bisections > spec.max_panels:
            break
        step = max(1, (_CHUNK // rows) >> bisections)
        cur = np.hstack([_chunk(f, weigh, edges[s : s + step + 1]) for s in range(0, n_start, step)])
        totals = cur.sum(axis=1)
        value = float(totals[0]) if times is None else totals
        if prev is not None:
            error = float(np.abs(cur - prev).sum() if times is None else np.abs(value - prev_value).max())
            if error <= spec.rel_tol * np.abs(totals).max() + spec.abs_tol:
                return QuadratureResult(value, error, n_start << bisections)
        prev, prev_value = cur, value
    message = f"cosine transform did not converge within max_panels={spec.max_panels}"
    if times is None:
        message = (
            "integral did not converge within max_panels="
            f"{spec.max_panels} (value={prev_value:.6e}, error={error:.2e})"
        )
    raise QuadratureError(message, value=prev_value, error=error)


def level_weights(window, spec: QuadratureSpec, breakpoints, period, level, times=None):
    """Nodes and weights of a level of an adaptive integrator, on its whole grid.

    ``window`` and ``spec`` as for the integrators.  ``times`` None is
    ``integrate_spectral`` with ``osc_period_hint``
    ``period``: level 0 is G8 on its starting grid, level k >= 1 G16 on
    that grid bisected k - 1 times.  Otherwise ``filon_cos_integral`` at
    ``times`` with ``envelope_period`` ``period``: level k is Filon on
    its starting grid bisected k times (its first converged value is
    level 1).  Returns ``(nodes, weights)``: a flat node array and a
    ``(rows, len(nodes))`` array, one row, or one per time, whose product
    with f(nodes) is the level's value.  A sequence of levels gives a
    list of such pairs, one per level, all on one starting grid.  Raises
    ``QuadratureError`` when a level has more than ``spec.max_panels``
    panels.
    """
    edges = _start_grid(window, spec, breakpoints, period, times)
    out = []
    for lv in np.atleast_1d(level).tolist():
        bisections, weigh = _level(lv, times)
        if (len(edges) - 1) << bisections > spec.max_panels:
            raise QuadratureError(f"fixed grid needs more than max_panels={spec.max_panels} panels")
        out.append(weigh(edges))
    return out if np.ndim(level) else out[0]


def integrate_spectral(
    f, osc_period_hint, window, spec: QuadratureSpec, breakpoints=()
) -> QuadratureResult:
    """Adaptive panel quadrature of ``f`` over ``window``.

    Level 0 is G8 on the starting grid, level 1 G16, and each further
    level G16 with every panel bisected once more, each as fixed weights
    on f at fixed nodes (``level_weights``).  The levels go on until two
    agree: the error is the sum over starting panels of the change in
    that panel's value, at the first check the embedded G8/G16 estimate.

    Parameters
    ----------
    f : callable
        Vectorized integrand, evaluated on numpy arrays of omega (rad/s).
    osc_period_hint : float or None
        Width in omega of one period of the fastest oscillation in ``f``
        (``2*pi`` over the longest time argument).  Panels are subdivided
        so each spans at most half a period, giving >= 8 Gauss nodes per
        period before any refinement.  ``None`` or ``inf`` for smooth
        integrands.
    window : (float, float)
        (omega_lo, omega_hi) in rad/s, 0 <= omega_lo < omega_hi, else
        ``ValueError``.
    spec : QuadratureSpec
        Tolerances and panel budget.
    breakpoints : sequence of float
        Interior points where f has kinks; panel edges are pinned there.

    Returns
    -------
    QuadratureResult
        value, error estimate as above, panel count of the last level.

    Raises
    ------
    QuadratureError
        If the tolerance cannot be met within ``max_panels``; the partial
        value and estimate ride along on the exception.
    """
    return _doubling(f, _start_grid(window, spec, breakpoints, osc_period_hint, None), spec)


def filon_cos_integral(
    f, times, window, spec: QuadratureSpec, breakpoints=(), envelope_period=None
) -> QuadratureResult:
    """Integrals of ``f(omega) * cos(omega * t)`` over ``window``, per time.

    The cosine is integrated exactly on each panel against a degree-11
    Legendre fit of ``f``, so the panel grid only needs to resolve ``f``,
    and one grid and one set of f values serve every time.  Level k is
    the starting grid bisected k times, as fixed weights on f at fixed
    nodes (``level_weights``); the levels double until every time
    changes by at most ``rel_tol * max|value| + abs_tol``.  For f >= 0
    with 0 among the times, the t = 0 transform bounds the others and so
    anchors their tolerance.  ``value`` is a float array in the order of
    ``times`` (also on a ``QuadratureError``), ``error`` the worst
    per-time change over the last doubling, ``n_panels`` the size of the
    shared grid.

    Parameters
    ----------
    f : callable
        Vectorized smooth envelope (any oscillation of its own must be
        declared through ``envelope_period``).
    times : sequence of float
        Time arguments of the cosine, each nonnegative; 0 gives the plain
        integral of f.
    window : (float, float)
        (omega_lo, omega_hi) in rad/s, as for ``integrate_spectral``.
    spec : QuadratureSpec
        Tolerances and panel budget.
    breakpoints : sequence of float
        Interior points where f has kinks (spectrum corners, table knots);
        panel edges are pinned there.
    envelope_period : float, optional
        Width in omega of one period of the slow oscillation carried by f
        itself; panels are capped at half that width.
    """
    return _doubling(f, _start_grid(window, spec, breakpoints, envelope_period, times), spec, times)


# ---------------------------------------------------------------------------
# special functions / roots
# ---------------------------------------------------------------------------

_BRANCH_POINT = -1.0 / math.e


def _lambert(name, x, guess):
    """w with w*exp(w) = x on the branch that ``guess(x)`` starts on.

    Raises naming ``name`` for NaN and for x below -1/e; within a relative
    1e-12 under -1/e, x is rounding and reads as -1/e, where both
    branches meet at -1.  Otherwise Halley iteration from ``guess(x)``.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError(f"{name}: argument is NaN")
    if x < _BRANCH_POINT:
        if not x > _BRANCH_POINT * (1 + 1e-12):
            raise ValueError(f"{name}: argument {x} below -1/e")
        x = _BRANCH_POINT
    if x == _BRANCH_POINT:
        return -1.0
    w = guess(x)
    for _ in range(50):
        ew = math.exp(w)
        res = w * ew - x
        if abs(res) <= 1e-14 * max(1.0, abs(x)):
            break
        denom = ew * (w + 1.0) - (w + 2.0) * res / (2.0 * w + 2.0)
        w = w - res / denom
    return w


def _principal_guess(x):
    if x < -0.25:
        p = math.sqrt(2.0 * (1.0 + math.e * x))
        return -1.0 + p - p * p / 3.0
    if x < 2.0:
        return x * (1.0 - x + 1.5 * x * x) if abs(x) < 0.2 else math.log1p(x) * 0.7
    lx = math.log(x)
    return lx - math.log(lx)


def _secondary_guess(x):
    if x > _BRANCH_POINT * 0.25:
        # away from the branch point: w ~ ln(-x) - ln(-ln(-x))
        l1 = math.log(-x)
        return l1 - math.log(-l1)
    p = -math.sqrt(2.0 * (1.0 + math.e * x))
    return -1.0 + p - p * p / 3.0


def lambert_w(x: float) -> float:
    """Principal real branch of Lambert W: w >= -1 with w*exp(w) = x.

    Defined for x >= -1/e.  Halley iteration from a piecewise initial
    guess; the residual |w*exp(w) - x| is driven below
    1e-12 * max(1, |x|).
    """
    return _lambert("lambert_w", x, _principal_guess)


def lambert_w_m1(x: float) -> float:
    """Secondary real branch W_{-1}: w <= -1 with w*exp(w) = x.

    Defined for -1/e <= x < 0.  This is the branch on which the solution
    of ``tau**2 * ln(dt/tau) = const`` has tau well below dt, which is
    what the level-holding evolution-time schedule needs.
    """
    if float(x) >= 0:
        raise ValueError("lambert_w_m1: argument must be negative")
    return _lambert("lambert_w_m1", x, _secondary_guess)


def gamma_fn(x: float) -> float:
    """Gamma function for positive real argument.

    Thin wrapper over the C library implementation; accuracy is checked
    against an arbitrary-precision oracle in the test suite.
    """
    x = float(x)
    if not x > 0:
        raise ValueError(f"gamma_fn: argument must be positive, got {x}")
    return math.gamma(x)
