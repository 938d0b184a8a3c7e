"""Quadrature, oscillatory integrals, and special-function routines."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special

from shotcorr.numerics import (
    QuadratureError,
    QuadratureSpec,
    filon_cos_integral,
    gamma_fn,
    integrate_spectral,
    lambert_w,
    lambert_w_m1,
    level_weights,
)
from shotcorr.numerics import _filon_panels, _filon_proj, _sph_jn, _subdivide


def _spec(rel_tol=1e-8, **kw):
    return QuadratureSpec(rel_tol=rel_tol, **kw)


class TestIntegrateSpectral:
    def test_arctan_kernel(self):
        # integral of 1/(1+w^2) over (0, 1e6) is arctan(1e6)
        res = integrate_spectral(
            lambda w: 1.0 / (1.0 + w**2), None, (0.0, 1e6), _spec(rel_tol=1e-10)
        )
        assert res.value == pytest.approx(math.atan(1e6), rel=1e-6)
        assert res.error <= 1e-6 * res.value

    def test_sinc_squared_kernel(self):
        # integral of sin^2(w/2)/w^2 over (0, inf) is pi/4; truncation at 1e6
        # leaves a tail below 1e-6 relative
        res = integrate_spectral(
            lambda w: np.sin(0.5 * w) ** 2 / w**2,
            2.0 * math.pi,
            (0.0, 1e6),
            _spec(rel_tol=1e-9),
        )
        assert res.value == pytest.approx(math.pi / 4.0, rel=1e-4)

    def test_zero_integrand(self):
        res = integrate_spectral(lambda w: np.zeros_like(w), None, (0.0, 10.0), _spec())
        assert res.value == 0.0

    def test_error_estimate_bounds_true_error(self):
        # high-precision reference from mpmath for a Lorentzian times sin^2
        ref = float(
            mpmath.quad(
                lambda w: mpmath.sin(0.5 * w) ** 2 / (1.0 + (w / 3.0) ** 2),
                [0, 3, 50, 200],
            )
        )
        res = integrate_spectral(
            lambda w: np.sin(0.5 * w) ** 2 / (1.0 + (w / 3.0) ** 2),
            2.0 * math.pi,
            (0.0, 200.0),
            _spec(rel_tol=1e-10),
        )
        true_err = abs(res.value - ref)
        assert true_err <= max(10.0 * res.error, 1e-12 * abs(ref))

    def test_refinement_reduces_change(self):
        # halving the tolerance must not move the value by more than the
        # previously reported error (seeded random Lorentzian shapes)
        rng = np.random.default_rng(7)
        for _ in range(10):
            knee = 10.0 ** rng.uniform(-2, 1)
            tau = 10.0 ** rng.uniform(-1, 0.5)
            fn = lambda w, k=knee, t=tau: np.sin(0.5 * w * t) ** 2 / (
                1.0 + (w / k) ** 2
            )
            hint = 2.0 * math.pi / tau
            coarse = integrate_spectral(fn, hint, (0.0, 1e3 * knee), _spec(rel_tol=1e-6))
            fine = integrate_spectral(fn, hint, (0.0, 1e3 * knee), _spec(rel_tol=5e-7))
            assert abs(fine.value - coarse.value) <= max(coarse.error, 1e-14)

    def test_breakpoints_respected(self):
        # piecewise integrand with a kink at w=1; exact value is 1.5
        def kinked(w):
            return np.where(w < 1.0, 1.0, 0.5)

        res = integrate_spectral(
            kinked, None, (0.0, 2.0), _spec(rel_tol=1e-12), breakpoints=(1.0,)
        )
        assert res.value == pytest.approx(1.5, rel=1e-10)

    def test_panel_budget_error_carries_partial(self):
        fn = lambda w: np.sin(0.5 * w * 50.0) ** 2 / (1.0 + w**2)
        with pytest.raises(QuadratureError) as exc:
            integrate_spectral(
                fn,
                2.0 * math.pi / 50.0,
                (0.0, 1e5),
                _spec(rel_tol=1e-13, max_panels=40),
            )
        assert exc.value.value is not None
        assert exc.value.error is not None and exc.value.error > 0.0

    def test_refinement_reaches_closed_form(self):
        # a Lorentzian of half-width 0.02 at 37.3, inside one starting panel
        # about 10 wide: G8 and G16 disagree there, so the panels double
        w0, g = 37.3, 0.02
        fn = lambda w: 1.0 / (1.0 + ((w - w0) / g) ** 2)
        exact = g * (math.atan((100.0 - w0) / g) + math.atan(w0 / g))
        window, spec = (0.0, 100.0), _spec(rel_tol=1e-8)
        start = integrate_spectral(lambda w: np.ones_like(w), None, window, spec).n_panels
        res = integrate_spectral(fn, None, window, spec)
        assert res.n_panels >= 4 * start
        assert abs(res.value - exact) <= 1e-8 * exact
        assert abs(res.value - exact) <= res.error

    def test_equals_fixed_weights_on_converged_grid(self):
        # converged at the first check: the G16 sum on the starting grid
        fn = lambda w: np.exp(-w) * np.sin(1.5 * w) ** 2
        hint, window, spec = 2.0 * math.pi / 3.0, (0.0, 40.0), _spec(rel_tol=1e-8)
        res = integrate_spectral(fn, hint, window, spec)
        nodes, (w,) = level_weights(window, spec, (), hint, 1)
        assert res.n_panels * 16 == len(nodes)
        assert res.value == pytest.approx(w @ fn(nodes), rel=1e-14)


class TestFilonCosIntegral:
    def test_exponential_envelope(self):
        # integral of exp(-w) cos(t w) over (0, inf) = 1/(1+t^2)
        for t in (0.0, 0.3, 7.0, 240.0):
            res = filon_cos_integral(
                lambda w: np.exp(-w), (t,), (0.0, 60.0), _spec(rel_tol=1e-10)
            )
            assert res.value[0] == pytest.approx(1.0 / (1.0 + t * t), rel=1e-8, abs=1e-12)

    def test_times_share_one_call(self):
        # one call over several times, duplicates included, returns them in order
        times = (7.0, 0.0, 0.3, 7.0)
        res = filon_cos_integral(lambda w: np.exp(-w), times, (0.0, 60.0), _spec(rel_tol=1e-10))
        assert res.value.shape == (len(times),)
        for t, v in zip(times, res.value):
            assert v == pytest.approx(1.0 / (1.0 + t * t), rel=1e-8, abs=1e-12)
        assert res.value[0] == res.value[3]
        with pytest.raises(ValueError, match="t_cos must be nonnegative"):
            filon_cos_integral(lambda w: np.exp(-w), (0.0, -1.0), (0.0, 60.0), _spec())

    def test_zero_frequency_matches_plain_integral(self):
        fn = lambda w: 1.0 / (1.0 + w) ** 2
        res = filon_cos_integral(fn, (0.0,), (0.0, 1e3), _spec(rel_tol=1e-10))
        assert res.value[0] == pytest.approx(1.0 - 1.0 / 1001.0, rel=1e-9)

    def test_lorentzian_envelope_fast_oscillation(self):
        # truncated integral of cos(t w)/(1+w^2); reference from a dense
        # uniform trapezoid that brute-forces the oscillation
        t = 350.0
        upper = 40.0
        w = np.linspace(1e-9, upper, 20_000_001)
        ref = float(np.trapezoid(np.cos(t * w) / (1.0 + w * w), w))
        res = filon_cos_integral(
            lambda w: 1.0 / (1.0 + w**2),
            (0.0, t),
            (0.0, upper),
            _spec(rel_tol=1e-9),
        )
        assert res.value[1] == pytest.approx(ref, abs=5e-9)

    def test_envelope_period_controls_panels(self):
        # an envelope oscillating slower than the carrier still resolved
        fn = lambda w: np.cos(0.7 * w) ** 2 * np.exp(-0.1 * w)
        ref = float(
            mpmath.quad(
                lambda w: mpmath.cos(0.7 * w) ** 2
                * mpmath.exp(-0.1 * w)
                * mpmath.cos(90.0 * w),
                mpmath.linspace(0, 80, 400),
            )
        )
        res = filon_cos_integral(
            fn,
            (0.0, 90.0),
            (0.0, 80.0),
            _spec(rel_tol=1e-9),
            envelope_period=2.0 * math.pi / 1.4,
        )
        assert res.value[1] == pytest.approx(ref, abs=1e-8)

    def test_equals_fixed_weights_on_converged_grid(self):
        # the first converged value is Filon on the starting grid bisected once
        times, window, spec = (0.0, 0.5, 3.0), (0.0, 40.0), _spec(rel_tol=1e-9)
        res = filon_cos_integral(lambda w: np.exp(-w), times, window, spec)
        nodes, w = level_weights(window, spec, (), None, 1, times)
        assert res.n_panels * 12 == len(nodes)
        np.testing.assert_allclose(res.value, w @ np.exp(-nodes), rtol=1e-14, atol=0.0)


def _linspace_edges(edges, counts):
    """Per-gap np.linspace, joined: the reference for _subdivide."""
    parts = [np.linspace(p, q, n + 1)[:-1] for p, q, n in zip(edges[:-1], edges[1:], counts)]
    return np.concatenate(parts + [edges[-1:]])


class TestPanelGrid:
    @pytest.mark.parametrize("seed", range(5))
    def test_subdivide_matches_linspace(self, seed):
        rng = np.random.default_rng(seed)
        n_gaps = int(rng.integers(1, 200))
        edges = np.concatenate(([0.0], np.sort(10.0 ** rng.uniform(-14, 14, n_gaps))))
        edges = np.unique(edges)
        counts = rng.integers(1, 40, len(edges) - 1)
        counts[rng.integers(0, len(counts), 3)] = 1
        counts[rng.integers(0, len(counts))] = int(rng.integers(10_001, 50_000))
        out = _subdivide(edges, counts.astype(float))
        assert np.array_equal(out, _linspace_edges(edges, counts))

    @pytest.mark.parametrize(
        "kernel, period, error, message",
        [
            ("spectral", 0.0, ValueError, "osc_period_hint must be positive"),
            ("spectral", -1.0, ValueError, "osc_period_hint must be positive"),
            ("filon", 0.0, ValueError, "envelope_period must be positive"),
            ("filon", -2.0, ValueError, "envelope_period must be positive"),
            ("filon", 1e-3, QuadratureError, "envelope oscillation needs more than max_panels=1000"),
            ("gauss_weights", 0.0, ValueError, "osc_period_hint must be positive"),
            ("gauss_weights", 0.04, QuadratureError, "fixed grid needs more than max_panels=1000"),
            ("filon_weights", -2.0, ValueError, "envelope_period must be positive"),
            ("filon_weights", 0.04, QuadratureError, "fixed grid needs more than max_panels=1000"),
        ],
    )
    def test_grid_checks(self, kernel, period, error, message):
        fn, window, spec = lambda w: np.exp(-w), (0.0, 10.0), _spec(max_panels=1000)
        with pytest.raises(error, match=message):
            if kernel == "spectral":
                integrate_spectral(fn, period, window, spec)
            elif kernel == "filon":
                filon_cos_integral(fn, (1.0,), window, spec, envelope_period=period)
            elif kernel == "gauss_weights":
                # about 600 panels fit the budget; one bisection does not
                level_weights(window, spec, (), period, 2)
            else:
                level_weights(window, spec, (), period, 1, (1.0,))

    @pytest.mark.parametrize(
        "window, message",
        [
            ((-1.0, 10.0), "window must start at a nonnegative omega"),
            ((math.nan, 10.0), "window must start at a nonnegative omega"),
            ((2.0, 2.0), "window top 2.0 must exceed its lower edge 2.0"),
            ((0.0, -1.0), "window top -1.0 must exceed its lower edge 0.0"),
            ((0.0, math.nan), "window top nan must exceed"),
        ],
    )
    @pytest.mark.parametrize("kernel", ["spectral", "filon", "weights"])
    def test_bad_window_refused(self, window, message, kernel):
        fn, spec = lambda w: np.exp(-w), _spec()
        with pytest.raises(ValueError, match=message):
            if kernel == "spectral":
                integrate_spectral(fn, None, window, spec)
            elif kernel == "filon":
                filon_cos_integral(fn, (1.0,), window, spec)
            else:
                level_weights(window, spec, (), None, 1)


class TestFixedWeights:
    @pytest.mark.parametrize("bisections", [0, 1, 2])
    def test_filon_weights_closed_form(self, bisections):
        # integral of exp(-w) cos(w t) over (0, 40) is 1/(1+t^2) up to e^-40
        times = (0.0, 0.5, 3.0, 40.0)
        nodes, w = level_weights((0.0, 40.0), _spec(), (), None, bisections, times)
        assert w.shape == (len(times), len(nodes))
        ref = [1.0 / (1.0 + t * t) for t in times]
        np.testing.assert_allclose(w @ np.exp(-nodes), ref, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("bisections", [0, 1])
    def test_gauss_weights_closed_form(self, bisections):
        # integral of exp(-w) sin^2(3w/2) over (0, 40) is (1 - 1/10)/2
        nodes, (w,) = level_weights((0.0, 40.0), _spec(), (), 2.0 * math.pi / 3.0, bisections + 1)
        value = w @ (np.exp(-nodes) * np.sin(1.5 * nodes) ** 2)
        assert value == pytest.approx(0.45, rel=1e-10)
        assert len(nodes) % 16 == 0 and np.all(np.diff(nodes) > 0)

    @pytest.mark.parametrize("times", [None, (0.0, 0.5, 3.0)], ids=["gauss", "filon"])
    def test_levels_share_one_grid(self, times):
        # asking for several levels gives each level's own call, bit for bit
        window, spec, period = (0.0, 40.0), _spec(), 2.0 * math.pi / 3.0
        both = level_weights(window, spec, (1.3,), period, (0, 1, 2), times)
        for level, (nodes, w) in zip((0, 1, 2), both):
            one_nodes, one_w = level_weights(window, spec, (1.3,), period, level, times)
            assert nodes.tobytes() == one_nodes.tobytes()
            assert w.tobytes() == one_w.tobytes()

    def test_filon_weights_are_the_kernels_moments(self):
        # at theta = t * half = 0 the kernel gives exactly j_0 = 1 and
        # j_n = +0; against every moment from _sph_jn the weights keep
        # their bits, signed zeros included
        times = np.array([0.0, 0.7, 3.0])
        mid, half = np.array([0.5, 1.5, 4.0]), np.array([0.5, 0.5, 2.0])
        nodes, w = _filon_panels(times, mid, half)
        jn = _sph_jn((times[:, None] * half).ravel())
        assert np.array_equal(jn[:3], [[1.0] + [0.0] * 11] * 3) and not np.signbit(jn[:3]).any()
        even = 2.0 * (-1.0) ** (np.arange(0, 12, 2) // 2) * jn[:, 0::2]
        odd = 2.0 * (-1.0) ** (np.arange(1, 12, 2) // 2) * jn[:, 1::2]
        phase = (times[:, None] * mid)[:, :, None]
        cos_part = np.cos(phase) * (even.reshape(3, 3, -1) @ _filon_proj[0::2])
        sin_part = np.sin(phase) * (odd.reshape(3, 3, -1) @ _filon_proj[1::2])
        ref = (half[:, None] * (cos_part - sin_part)).reshape(3, -1)
        assert w.tobytes() == ref.tobytes()

    def test_breakpoints_pinned(self):
        # a kink at 1.3 sits on a panel edge, so Gauss is exact to rounding
        nodes, (w,) = level_weights((0.0, 4.0), _spec(), (1.3,), None, 1)
        assert w @ np.abs(nodes - 1.3) == pytest.approx((1.3**2 + 2.7**2) / 2.0, rel=1e-13)


def _sph_jn_mpmath(theta):
    """j_0 .. j_11 at each float ``theta`` > 0 from mpmath at 40 digits."""
    with mpmath.workdps(40):
        return np.array(
            [
                [float(mpmath.sqrt(mpmath.pi / (2 * t)) * mpmath.besselj(n + mpmath.mpf(1) / 2, t)) for n in range(12)]
                for t in map(mpmath.mpf, theta.tolist())
            ]
        )


class TestSphericalBessel:
    """``_sph_jn``, the j_0 .. j_11 behind every Filon weight."""

    # the three regimes meet at 2 and 11; the zeros k pi of j_0 are where
    # Miller's recurrence normalises by j_1 instead
    EDGES = np.array([np.nextafter(b, d) for b in (2.0, 11.0) for d in (0.0, b, np.inf)])
    THETA = np.concatenate(
        [
            np.geomspace(1e-8, 1e5, 1000),
            EDGES,
            np.linspace(1.5, 12.5, 221),
            math.pi * np.arange(1, 41),
            math.pi * np.unique(np.round(np.geomspace(41, 3.1e4, 80))),
        ]
    )

    @pytest.fixture(scope="class")
    def ref(self):
        return _sph_jn_mpmath(self.THETA)

    def test_matches_mpmath(self, ref):
        err = np.abs(_sph_jn(self.THETA) - ref).max(axis=1)
        assert np.all(err <= 4e-15 * np.abs(ref).max(axis=1))

    def test_matches_scipy(self, ref):
        # scipy is a second reference, apart from the mpmath formula: where
        # its own error is at most 1e-15 of max_n |j_n| (nine tenths of this
        # grid; near theta = 9.9 it reaches 1.2e-14) the kernel is within
        # the bound of it
        got = scipy.special.spherical_jn(np.arange(12), self.THETA[:, None])
        scale = np.abs(ref).max(axis=1)
        sharp = np.abs(got - ref).max(axis=1) <= 1e-15 * scale
        assert sharp.mean() > 0.8
        err = np.abs(_sph_jn(self.THETA) - got).max(axis=1)
        assert np.all(err[sharp] <= 4e-15 * scale[sharp])


class TestLambertW:
    def test_principal_fixed_points(self):
        assert lambert_w(0.0) == 0.0
        assert lambert_w(math.e) == pytest.approx(1.0, rel=1e-12)
        assert lambert_w(-1.0 / math.e) == pytest.approx(-1.0, rel=1e-6)

    def test_principal_round_trip(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(-1.0, 10.0, size=10_000)
        x = w * np.exp(w)
        got = np.array([lambert_w(xi) for xi in x])
        assert np.allclose(got, w, rtol=1e-10, atol=1e-12)

    def test_secondary_round_trip(self):
        rng = np.random.default_rng(12)
        w = rng.uniform(-20.0, -1.0, size=2_000)
        x = w * np.exp(w)
        got = np.array([lambert_w_m1(xi) for xi in x])
        assert np.allclose(got, w, rtol=1e-10, atol=1e-12)

    def test_matches_scipy(self):
        for x in (-0.367, -0.2, -0.05, 0.0, 0.5, 3.0, 1e4):
            assert lambert_w(x) == pytest.approx(
                float(scipy.special.lambertw(x, 0).real), rel=1e-10, abs=1e-14
            )
        for x in (-0.3678, -0.25, -0.1, -1e-3, -1e-8):
            assert lambert_w_m1(x) == pytest.approx(
                float(scipy.special.lambertw(x, -1).real), rel=1e-10
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lambert_w(-0.5)
        with pytest.raises(ValueError):
            lambert_w_m1(0.1)
        with pytest.raises(ValueError):
            lambert_w_m1(-0.5)


class TestGammaFn:
    def test_known_values(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma_fn(2.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma_fn(1.5) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-14)
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_recurrence(self):
        rng = np.random.default_rng(13)
        for x in rng.uniform(0.1, 20.0, size=200):
            assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-9)

    def test_matches_mpmath(self):
        for x in (0.11, 0.5, 1.3, 2.7, 9.9, 19.5):
            assert gamma_fn(x) == pytest.approx(float(mpmath.gamma(x)), rel=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gamma_fn(0.0)
        with pytest.raises(ValueError):
            gamma_fn(-1.5)
