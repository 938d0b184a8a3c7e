"""Evolution-time schedules holding measurement contrast constant."""

import math

import numpy as np
import pytest

from shotcorr.numerics import QuadratureSpec, lambert_w, lambert_w_m1
from shotcorr.schedules import (
    Schedule,
    build_schedule,
    chi_minus_profile,
    constant_contrast_schedule,
    oneoverf_schedule,
    tau_constant_contrast,
    tau_oneoverf,
)
from shotcorr.spectra import OverhauserModel, PowerLawModel, coupling_from_g

WL = 2.0 * math.pi * 0.1
WE = 2.0 * math.pi * 1.0e4
COUPLING = coupling_from_g(-0.44)


def reference_model(gamma=1.0):
    return OverhauserModel.from_rms(7.0e-3, WL, WE, gamma, COUPLING)


class TestConstantContrast:
    def test_algebraic_identity(self):
        # the returned tau holds c^2 s0 omega_l^2 tau^2 delta_t == target
        m = reference_model()
        for dt in np.geomspace(1e-5, 10.0, 9):
            tau = tau_constant_contrast(m, dt, target=2.0)
            held = COUPLING**2 * m.s0 * WL**2 * tau**2 * dt
            assert held == pytest.approx(2.0, rel=1e-12)

    def test_scaling_with_delay(self):
        m = reference_model()
        t1 = tau_constant_contrast(m, 1.0e-3)
        t2 = tau_constant_contrast(m, 2.0e-3)
        assert t2 == pytest.approx(t1 / math.sqrt(2.0), rel=1e-12)

    def test_target_scaling(self):
        m = reference_model()
        weak = tau_constant_contrast(m, 1.0e-3, target=0.5)
        strong = tau_constant_contrast(m, 1.0e-3, target=2.0)
        assert strong == pytest.approx(2.0 * weak, rel=1e-12)

    def test_errors(self):
        m = reference_model()
        with pytest.raises(ValueError):
            tau_constant_contrast(m, 0.0)
        with pytest.raises(ValueError):
            tau_constant_contrast(m, 1.0e-3, target=0.0)

    def test_schedule_fields(self):
        m = reference_model()
        dts = np.geomspace(1.0e-5, 1.0, 30)
        sched = constant_contrast_schedule(m, dts)
        assert len(sched.delta_t) == 30
        # reference-parameter schedule stays physical and cutoff-safe
        assert all(f == "" for f in sched.flags)

    def test_amplitude_independent_shape(self):
        # doubling the field rms rescales every tau but not the correlation
        # values along the schedule (shape invariance of the family)
        from shotcorr.correlator import autocorrelation_analytic

        dts = np.geomspace(1.0e-3, 1.0, 4)
        m1 = reference_model()
        m2 = OverhauserModel.from_rms(14.0e-3, WL, WE, 1.0, COUPLING)
        s1 = constant_contrast_schedule(m1, dts)
        s2 = constant_contrast_schedule(m2, dts)
        for p1, p2, dt in zip(s1.pairs(), s2.pairs(), dts):
            assert p2.tau == pytest.approx(p1.tau / 2.0, rel=1e-10)
            c1 = autocorrelation_analytic(m1, p1)
            c2 = autocorrelation_analytic(m2, p2)
            assert c2 == pytest.approx(c1, rel=1e-4)


class TestOneOverFSchedule:
    def test_exact_variant_invariant(self):
        # tau^2 (ln(delta_t/tau) + 3/2) == level along the whole schedule
        level = 1.0e-7
        for dt in np.geomspace(1.0e-3, 10.0, 12):
            tau = tau_oneoverf(level, dt, variant="exact")
            held = tau**2 * (math.log(dt / tau) + 1.5)
            assert held == pytest.approx(level, rel=1e-10)

    def test_exact_variant_uses_secondary_branch(self):
        level = 1.0e-7
        dt = 1.0e-2
        dt_hat = math.exp(1.5) * dt
        tau = dt_hat * math.exp(0.5 * lambert_w_m1(-2.0 * level / dt_hat**2))
        assert tau_oneoverf(level, dt, variant="exact") == pytest.approx(
            tau, rel=1e-12
        )

    def test_literal_variant_formula(self):
        # principal-branch form: tau = delta_t * exp(W0(-2 level / delta_t^2))
        level = 1.0e-7
        for dt in (1.0e-3, 1.0e-2, 1.0):
            tau = tau_oneoverf(level, dt, variant="literal")
            expect = dt * math.exp(lambert_w(-2.0 * level / dt**2))
            assert tau == pytest.approx(expect, rel=1e-12)
            assert tau < dt

    def test_literal_branch_point(self):
        # at the W branch point the ratio tau/delta_t equals 1/e
        level = 1.0e-7
        dt = math.sqrt(2.0 * level * math.e)
        tau = tau_oneoverf(level, dt, variant="literal")
        assert tau / dt == pytest.approx(1.0 / math.e, rel=1e-6)

    def test_literal_ratio_approaches_one(self):
        level = 1.0e-7
        ratios = [
            tau_oneoverf(level, dt, variant="literal") / dt
            for dt in (1.0e-2, 1.0e-1, 1.0)
        ]
        assert all(r < 1.0 for r in ratios)
        assert ratios == sorted(ratios)
        assert ratios[-1] > 0.999

    def test_exact_variant_flattens_chi(self):
        # the pair exponent varies by < 5% over three decades of delay
        level = 1.0e-7
        amp = math.pi / level
        m = PowerLawModel(amplitude=amp, alpha=1.0, omega_low=1.0e-5, omega_high=1.0e8)
        dts = np.geomspace(3.0e-3, 3.0, 7)
        sched = oneoverf_schedule(level, dts, variant="exact")
        chis = chi_minus_profile(m, sched)
        assert chis.max() / chis.min() < 1.05

    def test_literal_variant_does_not_flatten(self):
        level = 1.0e-7
        amp = math.pi / level
        m = PowerLawModel(amplitude=amp, alpha=1.0, omega_low=1.0e-5, omega_high=1.0e8)
        dts = np.geomspace(3.0e-3, 3.0, 7)
        sched = oneoverf_schedule(level, dts, variant="literal")
        chis = chi_minus_profile(m, sched)
        assert chis.max() / chis.min() > 10.0

    def test_alpha_sensitivity_direction(self):
        # along the exact schedule, a slope steeper than 1/f concentrates
        # weight at low frequency so the exponent rises with delay; a
        # shallower slope makes it fall
        level = 1.0e-7
        dts = np.geomspace(3.0e-3, 3.0, 7)
        sched = oneoverf_schedule(level, dts, variant="exact")
        for alpha, sign in ((1.05, +1.0), (0.95, -1.0)):
            m = PowerLawModel(
                amplitude=math.pi / level,
                alpha=alpha,
                omega_low=1.0e-5,
                omega_high=1.0e8,
            )
            chis = chi_minus_profile(m, sched)
            diffs = np.diff(chis) * sign
            assert np.all(diffs > 0.0)

    def test_domain_error_message(self):
        with pytest.raises(ValueError, match="need delta_t >="):
            tau_oneoverf(1.0e-7, 1.0e-9)

    def test_schedule_error_lists_all_offenders(self):
        with pytest.raises(ValueError) as exc:
            oneoverf_schedule(1.0e-7, np.array([1.0e-9, 2.0e-9, 1.0]))
        assert "1e-09" in str(exc.value) and "2e-09" in str(exc.value)


class TestBuildSchedule:
    def test_flags(self):
        m = reference_model()
        sched = build_schedule(
            np.array([1.0e-5, 1.0e-3, 1.0e-1]),
            np.array([2.0e-5, 1.0e-6, 1.0e-2]),
            m,
        )
        assert "unphysical" in sched.flags[0]
        assert sched.flags[1] == ""
        # tau omega_e = 6.3e2 on the last point
        assert "tau_omega_e" in sched.flags[2]

    def test_no_model_skips_cutoff_flag(self):
        sched = build_schedule(np.array([1.0]), np.array([1.0e-2]))
        assert sched.flags == ("",)

    def test_single_point(self):
        sched = build_schedule(np.array([1.0e-3]), np.array([1.0e-6]))
        assert len(sched.delta_t) == 1

    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            build_schedule(np.array([1.0e-3, 1.0e-3]), np.array([1e-6, 1e-6]))
        with pytest.raises(ValueError):
            build_schedule(np.array([1.0e-2, 1.0e-3]), np.array([1e-6, 1e-6]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_schedule(np.array([1.0e-3]), np.array([1e-6, 1e-6]))


class TestScheduleCsv:
    def test_round_trip(self, tmp_path):
        m = reference_model()
        sched = constant_contrast_schedule(m, np.geomspace(1.0e-5, 1.0, 8))
        path = tmp_path / "sched.csv"
        sched.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "delta_t_s,tau_s,flags"
        back = Schedule.from_csv(path)
        assert np.allclose(back.delta_t, sched.delta_t, rtol=1e-11)
        assert np.allclose(back.tau, sched.tau, rtol=1e-11)
        assert back.flags == sched.flags

    def test_round_trip_preserves_flags(self, tmp_path):
        m = reference_model()
        sched = build_schedule(
            np.array([1.0e-5, 1.0e-1]), np.array([2.0e-5, 1.0e-2]), m
        )
        path = tmp_path / "sched.csv"
        sched.to_csv(path)
        back = Schedule.from_csv(path)
        assert back.flags == sched.flags

    def test_round_trip_quotes_text_flags(self, tmp_path):
        # hand-assembled flags may hold the delimiter or quotes
        flags = ("a,b", 'say "x"', "")
        sched = Schedule(np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3]), flags)
        path = tmp_path / "sched.csv"
        sched.to_csv(path)
        assert Schedule.from_csv(path).flags == flags

    def test_header_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("dt,tau,flags\n1.0,0.1,\n")
        with pytest.raises(ValueError, match="header"):
            Schedule.from_csv(path)

    def test_malformed_row_error_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("delta_t_s,tau_s,flags\n1.0,0.1,\n2.0,oops,\n")
        with pytest.raises(ValueError, match="3"):
            Schedule.from_csv(path)


class TestChiMinusProfile:
    def test_matches_pointwise_chi(self):
        from shotcorr.correlator import chi_minus

        m = reference_model()
        sched = constant_contrast_schedule(m, np.geomspace(1.0e-4, 1.0e-2, 4))
        profile = chi_minus_profile(m, sched)
        for value, pair in zip(profile, sched.pairs()):
            assert value == pytest.approx(chi_minus(m, pair), rel=1e-10)
