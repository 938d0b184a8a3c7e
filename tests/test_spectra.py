"""Spectral density models, variance, and field autocorrelation."""

import math

import numpy as np
import pytest

from shotcorr.fitting import FitParam
from shotcorr.montecarlo import GridSpec, Protocol
from shotcorr.numerics import ParamError, QuadratureSpec
from shotcorr.spectra import (
    BOHR_MAGNETON,
    HBAR,
    OverhauserModel,
    PowerLawModel,
    TabulatedModel,
    WhiteModel,
    beta_autocorrelation,
    coupling_from_g,
    evaluate,
    variance,
)

import oracles


def model_zoo():
    return [
        WhiteModel(level=3.0e-7, omega_high=1.0e6),
        OverhauserModel(s0=1.0e-4, omega_l=0.6, omega_e=6.0e4, gamma=1.0, coupling_c=2.0),
        OverhauserModel(s0=1.0e-4, omega_l=0.6, omega_e=6.0e4, gamma=2.0, coupling_c=2.0),
        PowerLawModel(amplitude=40.0, alpha=1.0, omega_low=1.0e-2, omega_high=1.0e5),
        PowerLawModel(amplitude=40.0, alpha=1.5, omega_low=1.0e-2, omega_high=1.0e5),
        TabulatedModel(
            np.column_stack(
                [np.geomspace(1.0, 1.0e4, 40), 50.0 / np.geomspace(1.0, 1.0e4, 40)]
            )
        ),
    ]


# (class, valid fields, field, infinite value); omega_e = inf is the
# Overhauser model's documented no-cutoff setting and stays allowed
_FINITE_BASES = {
    OverhauserModel: dict(s0=1.0, omega_l=1.0, omega_e=10.0, gamma=1.0, coupling_c=1.0),
    WhiteModel: dict(level=1.0, omega_high=10.0),
    PowerLawModel: dict(amplitude=1.0, alpha=1.0, omega_low=1.0, omega_high=10.0),
    TabulatedModel: dict(points=[[1.0, 1.0], [2.0, 1.0]]),
    Protocol: dict(tau=1e-3, cycle_period=2e-3, n_cycles=10),
    GridSpec: dict(n_modes=256, omega_min=1.0, omega_max=10.0),
    FitParam: dict(name="x", lower=1.0, upper=10.0),
}
_INFINITE_FIELDS = [
    (cls, base, field, [[1.0, math.inf], [2.0, 1.0]] if field == "points" else math.inf)
    for cls, base in _FINITE_BASES.items()
    for field in base
    if field not in ("omega_e", "n_cycles", "n_modes", "name")
]


class TestEvaluate:
    def test_overhauser_formula(self):
        m = OverhauserModel(s0=2.0e-4, omega_l=0.5, omega_e=1.0e4, gamma=1.0, coupling_c=3.0)
        w = np.geomspace(1e-3, 1e6, 200)
        expect = oracles.overhauser_evaluate(w, 3.0, 2.0e-4, 0.5, 1.0e4, 1.0)
        assert np.allclose(evaluate(m, w), expect, rtol=1e-13)
        assert evaluate(m, 0.0) == pytest.approx(9.0 * 2.0e-4, rel=1e-13)
        # at the cutoff frequency the envelope contributes exactly 1/e
        assert evaluate(m, 1.0e4) == pytest.approx(
            9.0 * 2.0e-4 / (1.0 + (1.0e4 / 0.5) ** 2) / math.e, rel=1e-12
        )

    def test_overhauser_monotone_decrease(self):
        m = OverhauserModel(s0=1e-4, omega_l=0.6, omega_e=6e4, gamma=2.0, coupling_c=1.0)
        vals = evaluate(m, np.geomspace(1e-4, 1e6, 500))
        assert np.all(np.diff(vals) <= 0.0)

    def test_no_cutoff_variant(self):
        m = OverhauserModel(s0=1e-4, omega_l=0.6, omega_e=math.inf, gamma=1.0, coupling_c=1.0)
        w = np.geomspace(1e-2, 1e8, 100)
        assert np.allclose(
            evaluate(m, w), 1e-4 / (1.0 + (w / 0.6) ** 2), rtol=1e-13
        )

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_overhauser_cutoff_keeps_the_bits_of_exp(self, gamma):
        # evaluate and the knee times the cutoff must be bit for bit the
        # one-line formula, at the edges of exp's normal, subnormal and
        # zero ranges and past them
        m = OverhauserModel(s0=2.0e-4, omega_l=0.5, omega_e=1.0e4, gamma=gamma, coupling_c=3.0)
        z = np.array([0.0, 700.0, 708.5, 745.1, 745.2, 746.0, 1.0e6, math.inf])
        w = 1.0e4 * z ** (1.0 / gamma)
        old = 9.0 * 2.0e-4 / (1.0 + (w / 0.5) ** 2) * np.exp(-((w / 1.0e4) ** gamma))
        assert evaluate(m, w).tobytes() == old.tobytes()
        assert (m.knee_factor(w) * m.cutoff_factor(w)).tobytes() == old.tobytes()
        # a scalar in gives a float out, with the same bits
        for wi, oi in zip(w, old):
            got = evaluate(m, float(wi))
            assert type(got) is float
            assert np.float64(got).tobytes() == oi.tobytes()

    @pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0])
    def test_overhauser_zero_above(self, gamma):
        # S is exactly 0 past the edge, at the edge and one ulp either side;
        # the cutoff just below z = 745, a subnormal exp(-z), is not
        m = OverhauserModel(s0=2.0e-4, omega_l=0.5, omega_e=1.0e4, gamma=gamma, coupling_c=3.0)
        edge = m.zero_above
        assert edge == 1.0e4 * 746.0 ** (1.0 / gamma)
        w = edge * np.array([1.0, 1.0 + 1e-15, 1.001, 2.0, 1.0e3])
        w = np.concatenate([w, [np.nextafter(edge, 0.0), np.nextafter(edge, math.inf), math.inf]])
        assert np.all(evaluate(m, w) == 0.0)
        assert m.cutoff_factor(1.0e4 * 745.0 ** (1.0 / gamma)) > 0.0

    def test_zero_above_of_the_other_models(self):
        # no cutoff, or one whose edge overflows, leaves S nonzero everywhere;
        # the band models are 0 past their hard top.  At gamma = 1/150 the
        # edge 746**150 overflows while the window top 46.05**150 does not
        assert OverhauserModel(1.0, 0.5, math.inf, 1.0, 1.0).zero_above == math.inf
        assert OverhauserModel(1.0, 0.5, 1.0e4, 1.0 / 150.0, 1.0).zero_above == math.inf
        assert WhiteModel(level=2.0, omega_high=1.0e6).zero_above == 1.0e6
        pl = PowerLawModel(amplitude=1.0, alpha=1.0, omega_low=1.0, omega_high=1.0e5)
        assert pl.zero_above == 1.0e5
        tab = TabulatedModel(np.array([[1.0e1, 3.0], [1.0e3, 2.0]]))
        assert tab.zero_above == 1.0e3
        for m in (WhiteModel(level=2.0, omega_high=1.0e6), pl, tab):
            top = m.zero_above
            assert evaluate(m, top) > 0.0
            assert evaluate(m, np.nextafter(top, math.inf)) == 0.0

    def test_white_band(self):
        m = WhiteModel(level=2.0, omega_high=10.0)
        assert evaluate(m, 3.0) == 2.0
        assert evaluate(m, 10.0) == 2.0
        assert evaluate(m, 10.0000001) == 0.0

    def test_power_law_band(self):
        m = PowerLawModel(amplitude=6.0, alpha=1.0, omega_low=1.0, omega_high=100.0)
        assert evaluate(m, 10.0) == pytest.approx(0.6, rel=1e-13)
        # held constant below the low cutoff
        assert evaluate(m, 0.01) == pytest.approx(6.0, rel=1e-13)
        assert evaluate(m, 101.0) == 0.0

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            evaluate(WhiteModel(1.0, 10.0), -2.0)

    def test_positivity_everywhere(self):
        w = np.geomspace(1e-6, 1e7, 10_000)
        for m in model_zoo():
            assert np.all(evaluate(m, w) >= 0.0)


class TestValidation:
    def test_overhauser(self):
        with pytest.raises(ValueError):
            OverhauserModel(s0=-1.0, omega_l=1.0, omega_e=10.0, gamma=1.0, coupling_c=1.0)
        with pytest.raises(ValueError):
            OverhauserModel(s0=1.0, omega_l=0.0, omega_e=10.0, gamma=1.0, coupling_c=1.0)
        with pytest.raises(ValueError):
            OverhauserModel(s0=1.0, omega_l=1.0, omega_e=10.0, gamma=1.0, coupling_c=0.0)

    @pytest.mark.parametrize(
        "omega_l, omega_e, gamma, name",
        [
            (1.0, 1.0e4, 1.0e-3, "gamma"),
            (1.0, 1.0e308, 1.0, "omega_e"),
            (1.0e300, math.inf, 1.0, "omega_l"),
        ],
    )
    def test_overhauser_window_top_must_be_finite(self, omega_l, omega_e, gamma, name):
        # every integral of S runs up to the window top
        with pytest.raises(ParamError, match="window top past the float range") as info:
            OverhauserModel(s0=1.0, omega_l=omega_l, omega_e=omega_e, gamma=gamma, coupling_c=1.0)
        assert info.value.name == name

    def test_power_law(self):
        with pytest.raises(ValueError):
            PowerLawModel(amplitude=1.0, alpha=3.0, omega_low=1.0, omega_high=10.0)
        with pytest.raises(ValueError):
            PowerLawModel(amplitude=1.0, alpha=-0.1, omega_low=1.0, omega_high=10.0)
        with pytest.raises(ValueError):
            PowerLawModel(amplitude=1.0, alpha=1.0, omega_low=0.0, omega_high=10.0)
        with pytest.raises(ValueError):
            PowerLawModel(amplitude=1.0, alpha=1.0, omega_low=10.0, omega_high=1.0)

    def test_white(self):
        with pytest.raises(ValueError):
            WhiteModel(level=-1.0, omega_high=10.0)
        with pytest.raises(ValueError):
            WhiteModel(level=1.0, omega_high=0.0)

    @pytest.mark.parametrize(
        "cls, base, field, value",
        _INFINITE_FIELDS,
        ids=[f"{cls.__name__}.{field}" for cls, _, field, _ in _INFINITE_FIELDS],
    )
    def test_infinite_field_refused(self, cls, base, field, value):
        # +inf passes each of these fields' sign checks, so each needs a finiteness check
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            cls(**dict(base, **{field: value}))


class TestTabulated:
    def _table(self):
        w = np.geomspace(10.0, 1000.0, 20)
        return np.column_stack([w, 7.0 / w**1.2])

    def test_loglog_interpolation(self):
        m = TabulatedModel(self._table())
        # power laws are exact under log-log interpolation
        assert evaluate(m, 77.7) == pytest.approx(7.0 / 77.7**1.2, rel=1e-12)

    def test_zero_outside_range(self):
        m = TabulatedModel(self._table())
        assert evaluate(m, 9.99) == 0.0
        assert evaluate(m, 1000.01) == 0.0

    def test_narrow_bin_variance(self):
        # a single narrow bin of height S and width dw contributes S dw / pi
        w0, rel_width = 30.0, 1e-3
        w = np.array([w0, w0 * (1.0 + rel_width)])
        m = TabulatedModel(np.column_stack([w, [4.0, 4.0]]))
        expect = 4.0 * (w[1] - w[0]) / math.pi
        assert variance(m) == pytest.approx(expect, rel=1e-6)

    def test_zero_density_rows_allowed(self):
        w = np.array([1.0, 2.0, 4.0, 8.0])
        m = TabulatedModel(np.column_stack([w, [1.0, 0.0, 0.0, 1.0]]))
        assert evaluate(m, 2.0) == 0.0
        assert evaluate(m, 2.8) == 0.0
        assert math.isfinite(variance(m))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "spectrum.csv"
        table = self._table()
        np.savetxt(
            path,
            table,
            delimiter=",",
            header="omega_rad_per_s,S",
            comments="",
        )
        m = TabulatedModel.from_csv(path)
        w = np.geomspace(10.0, 1000.0, 50)
        assert np.allclose(evaluate(m, w), 7.0 / w**1.2, rtol=1e-10)

    def test_csv_errors(self, tmp_path):
        bad_header = tmp_path / "a.csv"
        bad_header.write_text("frequency,psd\n1.0,2.0\n2.0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            TabulatedModel.from_csv(bad_header)
        unsorted = tmp_path / "b.csv"
        unsorted.write_text("omega_rad_per_s,S\n2.0,1.0\n1.0,2.0\n")
        with pytest.raises(ValueError):
            TabulatedModel.from_csv(unsorted)
        negative = tmp_path / "c.csv"
        negative.write_text("omega_rad_per_s,S\n1.0,2.0\n2.0,-1.0\n")
        with pytest.raises(ValueError):
            TabulatedModel.from_csv(negative)


class TestVariance:
    def test_white_closed_form(self):
        m = WhiteModel(level=3.0, omega_high=1.0e5)
        assert variance(m) == pytest.approx(3.0 * 1.0e5 / math.pi, rel=1e-7)

    @pytest.mark.parametrize(
        "model, closed",
        [
            (WhiteModel(2.0e3, 1.0e6), 2.0e3 * 1.0e6 / math.pi),
            (PowerLawModel(1.0, 0.0, 1.0, 10.0), 10.0 / math.pi),
        ],
        ids=["white", "flat_power_law"],
    )
    def test_flat_band_exact(self, model, closed):
        # the window starts at 0, so no sliver of S near 0 is dropped
        assert variance(model) == pytest.approx(closed, rel=1e-12)

    def test_lorentzian_closed_form(self):
        # sharp cutoff far above the knee leaves a relative deficit of
        # about 2 omega_l / (pi omega_e)
        c, s0, wl, we = 2.0, 1.0e-4, 0.6, 6.0e4
        m = OverhauserModel(s0=s0, omega_l=wl, omega_e=we, gamma=1.0, coupling_c=c)
        closed = oracles.lorentzian_variance_closed(c, s0, wl)
        got = variance(m)
        assert got == pytest.approx(closed, rel=1e-4)
        assert got < closed

    def test_against_dense_trapezoid(self):
        for m in model_zoo():
            ref = (
                oracles.log_trapezoid(
                    lambda w: np.asarray(evaluate(m, w)) / math.pi, 1e-8, 1e7, 400_000
                )
            )
            assert variance(m) == pytest.approx(ref, rel=2e-4)

    def test_from_rms(self):
        rms, c = 7.0e-3, coupling_from_g(-0.44)
        wl, we = 2.0 * math.pi * 0.1, 2.0 * math.pi * 1.0e4
        m = OverhauserModel.from_rms(rms, wl, we, 1.0, c)
        # rms fixes the wide-band variance; the finite cutoff removes only
        # an O(omega_l/omega_e) sliver
        assert variance(m) == pytest.approx((c * rms) ** 2, rel=1e-4)
        assert m.s0 == pytest.approx(2.0 * rms**2 / wl, rel=1e-12)


class TestAutocorrelation:
    def test_zero_lag_equals_variance(self):
        for m in model_zoo():
            assert beta_autocorrelation(m, 0.0) == pytest.approx(
                variance(m), rel=1e-6
            )

    def test_lorentzian_exponential_decay(self):
        c, s0, wl = 2.0, 1.0e-4, 0.6
        m = OverhauserModel(s0=s0, omega_l=wl, omega_e=math.inf, gamma=1.0, coupling_c=c)
        for delta in (0.1 / wl, 1.0 / wl, 3.0 / wl):
            expect = oracles.lorentzian_autocorr_closed(c, s0, wl, delta)
            assert beta_autocorrelation(m, delta) == pytest.approx(expect, rel=1e-5)

    def test_white_decorrelates(self):
        m = WhiteModel(level=3.0e-7, omega_high=1.0e6)
        var = variance(m)
        assert abs(beta_autocorrelation(m, 1.0e3 / 1.0e6)) < 1e-3 * var

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(5)
        models = [
            OverhauserModel(s0=1e-4, omega_l=0.6, omega_e=6e4, gamma=2.0, coupling_c=1.0),
            PowerLawModel(amplitude=40.0, alpha=1.5, omega_low=1e-2, omega_high=1e5),
        ]
        for m in models:
            var = variance(m)
            for delta in 10.0 ** rng.uniform(-6, 2, size=50):
                assert abs(beta_autocorrelation(m, delta)) <= var * (1.0 + 1e-9)


class TestCoupling:
    def test_value(self):
        assert coupling_from_g(-0.44) == pytest.approx(
            0.44 * BOHR_MAGNETON / HBAR, rel=1e-14
        )
        assert coupling_from_g(2.0) == pytest.approx(
            2.0 * BOHR_MAGNETON / HBAR, rel=1e-14
        )
