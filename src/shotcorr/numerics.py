"""Numerical kernels shared across the package.

Spectral integrals here run over many decades of angular frequency and
carry trigonometric filter factors that oscillate on scales set by the
evolution time and the shot separation.  Generic global adaptivity is a
poor fit for that combination, so two dedicated integrators are provided:

``integrate_spectral``
    panel quadrature on a logarithmic grid, subdivided so the fastest
    oscillation stays resolved, with adaptive bisection driven by an
    embedded Gauss pair.

``filon_cos_integral``
    computes integral of f(omega)*cos(omega*t) for a list of times with
    the cosine handled exactly per panel (Legendre expansion of f,
    spherical-Bessel moments), so panel density follows the smoothness of
    f alone and one grid serves every time.  With t = 0 it degenerates to
    plain panel quadrature of f.

Each integrator has a fixed-panel linear form, ``gauss_weights`` and
``filon_weights``: nodes and weights on the integrator's own starting
grid, bisected a given number of times, such that the weighted sum of
f at the nodes is the integrator's value on that grid.  They let a
caller that integrates many integrands on one window build the weights
once and pay one dot product per integrand.

Also here: real Lambert W on both real branches, a gamma wrapper, and a
bracketed root finder.  Everything validates its domain and reports an
honest error estimate or raises ``QuadratureError``.

scipy is imported where it is first used, not with this module:
``spherical_jn`` inside the Filon moments and ``brentq`` inside
``find_root``.  Importing ``scipy.optimize`` alone takes about half a
second, and most commands never reach a root find, so a module-level
import would charge every command start-up for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "QuadratureError",
    "integrate_spectral",
    "filon_cos_integral",
    "gauss_weights",
    "filon_weights",
    "lambert_w",
    "lambert_w_m1",
    "gamma_fn",
    "find_root",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and window settings for the spectral integrators.

    Attributes
    ----------
    rel_tol, abs_tol : float
        Target for the returned error estimate:
        ``error <= rel_tol * |value| + abs_tol``.
    max_panels : int
        Hard cap on the number of panels; exceeding it raises
        ``QuadratureError`` carrying the partial result.
    omega_min, omega_max : float or None
        Integration window in rad/s.  Callers that know the spectrum
        choose these; both must be set before integrating.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-30
    max_panels: int = 200_000
    omega_min: float | None = None
    omega_max: float | None = None

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.abs_tol < 0:
            raise ValueError("abs_tol must be nonnegative")
        if self.max_panels < 1:
            raise ValueError("max_panels must be at least 1")
        if self.omega_min is not None and self.omega_min < 0:
            raise ValueError("omega_min must be nonnegative")
        if (
            self.omega_min is not None
            and self.omega_max is not None
            and not self.omega_max > self.omega_min
        ):
            raise ValueError("omega_max must exceed omega_min")

    def with_window(self, omega_min, omega_max) -> "QuadratureSpec":
        return QuadratureSpec(
            rel_tol=self.rel_tol,
            abs_tol=self.abs_tol,
            max_panels=self.max_panels,
            omega_min=omega_min,
            omega_max=omega_max,
        )


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


def _panel_grid(spec, breakpoints, period, name):
    """Log edges of the window with the kinks pinned, and sub-panels per gap.

    The counts (floats holding integers) cap every sub-panel at half of
    ``period``; they are None when ``period`` is None or infinite, and
    every gap then stays one panel.  ``name`` labels the positivity check.
    """
    if spec.omega_min is None or spec.omega_max is None:
        raise ValueError("QuadratureSpec needs omega_min and omega_max set")
    a, b = float(spec.omega_min), float(spec.omega_max)
    # 8 geometric edges per decade; a == 0 gets one stub panel at the bottom
    lo = a if a > 0 else b * 1e-14
    edges = np.geomspace(lo, b, max(1, int(math.ceil(8 * math.log10(b / lo)))) + 1)
    if a < lo:
        edges = np.concatenate(([a], edges))
    edges[0], edges[-1] = a, b
    pts = [p for p in breakpoints if a < p < b]
    if pts:
        edges = np.unique(np.concatenate([edges, np.asarray(pts, dtype=float)]))
    if period is None or not math.isfinite(period):
        return edges, None
    if period <= 0:
        raise ValueError(f"{name} must be positive")
    return edges, np.maximum(1.0, np.ceil(np.diff(edges) / (period / 2.0)))


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


def _fixed_grid(spec, breakpoints, period, name, bisections):
    """The starting grid of either integrator, bisected; over budget raises.

    The panel count is checked against ``spec.max_panels`` before any
    edge is allocated.
    """
    edges, n_sub = _panel_grid(spec, breakpoints, period, name)
    count = (n_sub.sum() if n_sub is not None else len(edges) - 1) * 2**bisections
    if count > spec.max_panels:
        raise QuadratureError(f"fixed grid needs more than max_panels={spec.max_panels} panels")
    if n_sub is not None:
        edges = _subdivide(edges, n_sub)
    edges = _bisect(edges, bisections)
    lo, hi = edges[:-1], edges[1:]
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


# evaluation batch size; bounds peak memory at ~ _CHUNK * order doubles
_CHUNK = 65536


def _node_chunks(f, lo, hi, x):
    """Integrand on Gauss nodes ``x`` of panels [lo, hi], a chunk at a time.

    Yields ``(chunk, mid, half, vals)``: the panel slice, panel centres and
    half-widths, and the values with one row per panel.
    """
    for s in range(0, len(lo), _CHUNK):
        chunk = slice(s, s + _CHUNK)
        mid = 0.5 * (lo[chunk] + hi[chunk])
        half = 0.5 * (hi[chunk] - lo[chunk])
        nodes = mid[:, None] + half[:, None] * x[None, :]
        vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
        if not np.all(np.isfinite(vals)):
            raise ValueError("integrand returned a non-finite value")
        yield chunk, mid, half, vals


def _panel_eval(f, lo, hi, rule):
    """Gauss values of sum(f) on a batch of panels.  Returns per-panel sums."""
    x, w = rule
    out = np.empty(len(lo))
    for chunk, _, half, vals in _node_chunks(f, lo, hi, x):
        out[chunk] = half * (vals @ w)
    return out


def integrate_spectral(f, osc_period_hint, spec: QuadratureSpec, breakpoints=()) -> QuadratureResult:
    """Adaptive panel quadrature of ``f`` over ``[omega_min, omega_max]``.

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
    spec : QuadratureSpec
        Window, tolerances and panel budget.
    breakpoints : sequence of float
        Interior points where f has kinks; panel edges are pinned there.

    Returns
    -------
    QuadratureResult
        value, error estimate (from an embedded order-8/16 Gauss pair,
        refined by bisection until below tolerance), panel count.

    Raises
    ------
    QuadratureError
        If the tolerance cannot be met within ``max_panels``; the partial
        value and estimate ride along on the exception.
    """
    edges, n_sub = _panel_grid(spec, breakpoints, osc_period_hint, "osc_period_hint")
    if n_sub is not None:
        total = n_sub.sum()
        if total > spec.max_panels:
            # share the budget; order-16 panels stay accurate to ~2 periods,
            # refinement below picks up whatever this leaves behind
            n_sub = np.maximum(1.0, np.floor(n_sub * (spec.max_panels / total)))
        edges = _subdivide(edges, n_sub)
    lo, hi = edges[:-1], edges[1:]

    coarse = _panel_eval(f, lo, hi, _GAUSS8)
    fine = _panel_eval(f, lo, hi, _GAUSS16)
    err = np.abs(fine - coarse)

    for _ in range(60):
        value = float(fine.sum())
        total_err = float(err.sum())
        target = spec.rel_tol * abs(value) + spec.abs_tol
        if total_err <= target:
            return QuadratureResult(value, total_err, len(lo))
        if len(lo) >= spec.max_panels:
            break
        # split the panels carrying the bulk of the error
        room = spec.max_panels - len(lo)
        threshold = max(target / max(len(lo), 1), total_err / (4.0 * len(lo)))
        worst = np.nonzero(err > threshold)[0]
        if len(worst) == 0:
            worst = np.array([int(np.argmax(err))])
        if len(worst) > room:
            worst = worst[np.argsort(err[worst])[::-1][:room]]
        mid = 0.5 * (lo[worst] + hi[worst])
        new_lo = np.concatenate([lo[worst], mid])
        new_hi = np.concatenate([mid, hi[worst]])
        keep = np.ones(len(lo), dtype=bool)
        keep[worst] = False
        ncoarse = _panel_eval(f, new_lo, new_hi, _GAUSS8)
        nfine = _panel_eval(f, new_lo, new_hi, _GAUSS16)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        coarse = np.concatenate([coarse[keep], ncoarse])
        fine = np.concatenate([fine[keep], nfine])
        err = np.concatenate([err[keep], np.abs(nfine - ncoarse)])

    value = float(fine.sum())
    total_err = float(err.sum())
    raise QuadratureError(
        "integral did not converge within max_panels="
        f"{spec.max_panels} (value={value:.6e}, error={total_err:.2e})",
        value=value,
        error=total_err,
    )


def gauss_weights(osc_period_hint, spec: QuadratureSpec, breakpoints, bisections):
    """Gauss-16 nodes and weights on ``integrate_spectral``'s starting grid.

    The grid is the one ``integrate_spectral`` starts from (log edges,
    kinks pinned, sub-panels of at most half ``osc_period_hint``), every
    panel bisected ``bisections`` times.  Returns ``(nodes, weights)``,
    both flat, with ``weights @ f(nodes)`` the order-16 Gauss sum of f on
    that grid.  Raises ``QuadratureError`` when the grid has more than
    ``spec.max_panels`` panels.
    """
    x, w = _GAUSS16
    mid, half = _fixed_grid(spec, breakpoints, osc_period_hint, "osc_period_hint", bisections)
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


# ---------------------------------------------------------------------------
# Filon-type cosine transform
# ---------------------------------------------------------------------------

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


def _filon_moments(theta):
    """Integrals of P_n(u) cos(theta u), n even, and P_n(u) sin(theta u), n odd, on [-1, 1].

    ``theta`` holds one value per panel; returns two (panels, order/2) arrays.
    """
    from scipy.special import spherical_jn

    even = 2.0 * _even_sign * spherical_jn(_even_n[None, :], theta[:, None])
    odd = 2.0 * _odd_sign * spherical_jn(_odd_n[None, :], theta[:, None])
    return even, odd


def _filon_pass(f, edges, times):
    """One Filon sweep over fixed panels, a total per time.  Exact in the cosine factor."""
    totals = np.zeros(len(times))
    for _, mid, half, vals in _node_chunks(f, edges[:-1], edges[1:], _filon_nodes):
        coeff = vals @ _filon_proj.T  # (panels, order): Legendre coefficients
        c_even, c_odd = coeff[:, _even_n], coeff[:, _odd_n]
        for i, t_cos in enumerate(times):
            even, odd = _filon_moments(half * t_cos)
            cos_part = (c_even * even).sum(axis=1)
            sin_part = (c_odd * odd).sum(axis=1)
            panel_vals = half * (np.cos(mid * t_cos) * cos_part - np.sin(mid * t_cos) * sin_part)
            totals[i] += float(panel_vals.sum())
    return totals


def filon_cos_integral(
    f, times, spec: QuadratureSpec, breakpoints=(), envelope_period=None
) -> QuadratureResult:
    """Integrals of ``f(omega) * cos(omega * t)`` over the quadrature window, per time.

    The cosine is integrated exactly on each panel against a degree-11
    Legendre fit of ``f``, so the panel grid only needs to resolve ``f``,
    and one grid, one set of f values and Legendre coefficients serve
    every time.  The panel density doubles until every time changes by at
    most ``rel_tol * max|value| + abs_tol``; for f >= 0 with 0 among the
    times, the t = 0 transform bounds the others and so anchors their
    tolerance.  ``value`` is a float array in the order of ``times``
    (also on a ``QuadratureError``), ``error`` the worst per-time change
    over the last doubling, ``n_panels`` the size of the shared grid.

    Parameters
    ----------
    f : callable
        Vectorized smooth envelope (any oscillation of its own must be
        declared through ``envelope_period``).
    times : sequence of float
        Time arguments of the cosine, each nonnegative; 0 gives the plain
        integral of f.
    spec : QuadratureSpec
        Window, tolerances, panel budget.
    breakpoints : sequence of float
        Interior points where f has kinks (spectrum corners, table knots);
        panel edges are pinned there.
    envelope_period : float, optional
        Width in omega of one period of the slow oscillation carried by f
        itself; panels are capped at half that width.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("t_cos must be nonnegative")
    edges, n_sub = _panel_grid(spec, breakpoints, envelope_period, "envelope_period")
    if n_sub is not None:
        if n_sub.sum() > spec.max_panels:
            raise QuadratureError(
                "envelope oscillation needs more than max_panels="
                f"{spec.max_panels} panels"
            )
        edges = _subdivide(edges, n_sub)

    prev = _filon_pass(f, edges, times)
    for _ in range(24):
        if 2 * (len(edges) - 1) > spec.max_panels:
            raise QuadratureError(
                f"cosine transform did not converge within max_panels={spec.max_panels}",
                value=prev,
                error=math.inf,
            )
        dense = _bisect(edges, 1)
        cur = _filon_pass(f, dense, times)
        err = np.abs(cur - prev)
        target = spec.rel_tol * np.abs(cur).max() + spec.abs_tol
        if np.all(err <= target):
            return QuadratureResult(cur, float(err.max()), len(dense) - 1)
        prev, edges = cur, dense
    raise QuadratureError(
        "cosine transform did not converge", value=prev, error=float(np.abs(cur - prev).max())
    )


def filon_weights(times, spec: QuadratureSpec, breakpoints, envelope_period, bisections):
    """Filon nodes and per-time weights on ``filon_cos_integral``'s grid.

    The grid is the one ``filon_cos_integral`` starts from, every panel
    bisected ``bisections`` times (its first converged value comes from
    one bisection).  Returns ``(nodes, weights)``: a flat node array and a
    ``(len(times), len(nodes))`` array whose row i dotted with f(nodes)
    is the Filon value of the integral of f(omega) cos(omega times[i]) on
    that grid.  On a panel with centre mid and half-width half, with
    theta = half * t, the weight of node k is
    half * (cos(mid t) * sum_even E_n(theta) proj[n, k]
            - sin(mid t) * sum_odd O_n(theta) proj[n, k]),
    E_n, O_n the moments and proj the Legendre projection that
    ``_filon_pass`` uses.  Raises ``QuadratureError`` when the grid has
    more than ``spec.max_panels`` panels.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("t_cos must be nonnegative")
    mid, half = _fixed_grid(spec, breakpoints, envelope_period, "envelope_period", bisections)
    nodes = (mid[:, None] + half[:, None] * _filon_nodes).ravel()
    weights = np.empty((len(times), len(nodes)))
    for i, t_cos in enumerate(times):
        even, odd = _filon_moments(half * t_cos)
        cos_part = np.cos(mid * t_cos)[:, None] * (even @ _filon_proj[_even_n])
        sin_part = np.sin(mid * t_cos)[:, None] * (odd @ _filon_proj[_odd_n])
        weights[i] = (half[:, None] * (cos_part - sin_part)).ravel()
    return nodes, weights


# ---------------------------------------------------------------------------
# special functions / roots
# ---------------------------------------------------------------------------

_BRANCH_POINT = -1.0 / math.e


def _halley_w(x, w):
    for _ in range(50):
        ew = math.exp(w)
        res = w * ew - x
        if abs(res) <= 1e-14 * max(1.0, abs(x)):
            break
        denom = ew * (w + 1.0) - (w + 2.0) * res / (2.0 * w + 2.0)
        w = w - res / denom
    return w


def lambert_w(x: float) -> float:
    """Principal real branch of Lambert W: w >= -1 with w*exp(w) = x.

    Defined for x >= -1/e.  Halley iteration from a piecewise initial
    guess; the residual |w*exp(w) - x| is driven below
    1e-12 * max(1, |x|).
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("lambert_w: argument is NaN")
    if x < _BRANCH_POINT:
        if x > _BRANCH_POINT * (1 + 1e-12):
            x = _BRANCH_POINT
        else:
            raise ValueError(f"lambert_w: argument {x} below -1/e")
    if x == _BRANCH_POINT:
        return -1.0
    if x < -0.25:
        p = math.sqrt(2.0 * (1.0 + math.e * x))
        w = -1.0 + p - p * p / 3.0
    elif x < 2.0:
        w = x * (1.0 - x + 1.5 * x * x) if abs(x) < 0.2 else math.log1p(x) * 0.7
    else:
        lx = math.log(x)
        w = lx - math.log(lx)
    return _halley_w(x, w)


def lambert_w_m1(x: float) -> float:
    """Secondary real branch W_{-1}: w <= -1 with w*exp(w) = x.

    Defined for -1/e <= x < 0.  This is the branch on which the solution
    of ``tau**2 * ln(dt/tau) = const`` has tau well below dt, which is
    what the level-holding evolution-time schedule needs.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("lambert_w_m1: argument is NaN")
    if x >= 0:
        raise ValueError("lambert_w_m1: argument must be negative")
    if x < _BRANCH_POINT:
        if x > _BRANCH_POINT * (1 + 1e-12):
            x = _BRANCH_POINT
        else:
            raise ValueError(f"lambert_w_m1: argument {x} below -1/e")
    if x == _BRANCH_POINT:
        return -1.0
    if x > _BRANCH_POINT * 0.25:
        # away from the branch point: w ~ ln(-x) - ln(-ln(-x))
        l1 = math.log(-x)
        w = l1 - math.log(-l1)
    else:
        p = -math.sqrt(2.0 * (1.0 + math.e * x))
        w = -1.0 + p - p * p / 3.0
    return _halley_w(x, w)


def gamma_fn(x: float) -> float:
    """Gamma function for positive real argument.

    Thin wrapper over the C library implementation; accuracy is checked
    against an arbitrary-precision oracle in the test suite.
    """
    x = float(x)
    if not x > 0:
        raise ValueError(f"gamma_fn: argument must be positive, got {x}")
    return math.gamma(x)


def find_root(g, bracket, rel_tol: float = 1e-12) -> float:
    """Root of scalar ``g`` inside ``bracket`` = (lo, hi).

    The bracket must show a sign change (an endpoint sitting exactly on
    zero counts).  Brent's method underneath.
    """
    lo, hi = map(float, bracket)
    if not hi > lo:
        raise ValueError("find_root: bracket must satisfy lo < hi")
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0:
        raise ValueError(
            f"find_root: no sign change on bracket ({lo:g}, {hi:g}): "
            f"g(lo)={glo:g}, g(hi)={ghi:g}"
        )
    from scipy.optimize import brentq

    return float(brentq(g, lo, hi, rtol=max(rel_tol, 4e-16), xtol=1e-300))
