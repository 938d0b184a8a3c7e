"""Harmonic-superposition noise synthesis and single-shot sampling."""

import math

import numpy as np
import pytest
import scipy.integrate

from shotcorr import csvio, montecarlo
from shotcorr.correlator import (
    EvolutionPair,
    QubitParams,
    autocorrelation_analytic,
    phase_variance,
)
from shotcorr.montecarlo import (
    CorrelationCurve,
    GridSpec,
    ModeSet,
    Protocol,
    ShotRecord,
    accumulated_phases,
    correlation_curve,
    estimate_autocorrelation,
    records_from_csv,
    records_to_csv,
    run_protocol,
    run_record,
    synthesize_modes,
)
from shotcorr.spectra import (
    OverhauserModel,
    PowerLawModel,
    TabulatedModel,
    WhiteModel,
    variance,
)

import oracles


def sampling_zoo():
    return [
        WhiteModel(level=2.0e3, omega_high=1.0e6),
        OverhauserModel(s0=4.0e3, omega_l=2.0e3, omega_e=2.0e6, gamma=1.0, coupling_c=1.0),
        OverhauserModel(s0=4.0e3, omega_l=2.0e3, omega_e=2.0e6, gamma=2.0, coupling_c=1.0),
        PowerLawModel(amplitude=5.0e6, alpha=1.5, omega_low=1.0e2, omega_high=1.0e7),
    ]


def zero_spectrum():
    return TabulatedModel(np.array([[1.0, 0.0], [10.0, 0.0]]))


class TestGridSpec:
    def test_minimum_modes(self):
        with pytest.raises(ValueError):
            GridSpec(n_modes=255)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            GridSpec(omega_min=10.0, omega_max=1.0)

    def test_too_coarse_grid_rejected(self):
        m = WhiteModel(level=1.0e3, omega_high=1.0e6)
        grid = GridSpec(n_modes=256, omega_min=1.0e-30, omega_max=1.0e30)
        with pytest.raises(ValueError, match="too coarse"):
            synthesize_modes(m, grid, 1.0, np.random.default_rng(0))


class TestModeSet:
    def _single(self, omega, amp, u, v):
        return ModeSet(
            omega=np.array([omega]),
            amp=np.array([amp]),
            u=np.array([u]),
            v=np.array([v]),
        )

    def test_beta_is_sinusoid(self):
        ms = self._single(3.0, 2.0, 0.5, -1.25)
        t = np.linspace(0.0, 5.0, 40)
        expect = 2.0 * (0.5 * np.cos(3.0 * t) - 1.25 * np.sin(3.0 * t))
        assert np.allclose(ms.beta(t), expect, rtol=1e-13)

    def test_window_phase_matches_quadrature(self):
        ms = self._single(7.3, 1.7, 0.4, 0.9)
        for t0, tau in ((0.0, 0.3), (2.1, 1.7), (11.0, 0.05)):
            ref, _ = scipy.integrate.quad(lambda t: ms.beta(t), t0, t0 + tau)
            got = ms.window_phase(t0, tau)
            assert got == pytest.approx(ref, rel=1e-10, abs=1e-14)

    def test_window_phase_short_window_limit(self):
        ms = self._single(10.0, 1.3, 0.8, -0.2)
        tau = 1.0e-4
        t0 = 0.77
        center = ms.beta(t0 + tau / 2.0)
        got = ms.window_phase(t0, tau)
        assert got == pytest.approx(center * tau, rel=1e-6)

    def test_dc_mode_window_phase(self):
        ms = self._single(0.0, 1.3, 0.8, 0.5)
        tau = 0.2
        # the zero-frequency gain is exactly tau and only the cosine
        # component carries the DC amplitude
        got = ms.window_phase(5.0, tau)
        assert got == pytest.approx(1.3 * 0.8 * tau, rel=1e-12)


class TestSynthesis:
    def test_amplitude_sum_matches_variance(self):
        rng = np.random.default_rng(2)
        for m in sampling_zoo():
            ms = synthesize_modes(m, GridSpec(), 1.0, rng)
            assert float(np.sum(ms.amp**2)) == pytest.approx(
                variance(m), rel=1e-2
            )

    def test_sample_variance(self):
        # one realization's trajectory variance scatters by a few percent
        # around the ensemble value (finite modes in the variance band),
        # so the 3% check runs at a pinned seed; 3e4 times saturate the
        # time-sampling error for this 10 s span
        rng = np.random.default_rng(0)
        m = sampling_zoo()[1]
        ms = synthesize_modes(m, GridSpec(), 10.0, rng)
        t = rng.uniform(0.0, 10.0, size=30_000)
        vals = np.concatenate([ms.beta(c) for c in np.array_split(t, 15)])
        assert float(np.var(vals)) == pytest.approx(variance(m), rel=3e-2)

    def test_duration_sets_grid_floor(self):
        rng = np.random.default_rng(4)
        m = sampling_zoo()[1]
        short = synthesize_modes(m, GridSpec(), 1.0, rng)
        long = synthesize_modes(m, GridSpec(), 1.0e3, rng)
        assert long.omega[long.omega > 0].min() < short.omega[short.omega > 0].min()


class TestRunRecord:
    def test_zero_spectrum_all_up(self):
        prot = Protocol(tau=1.0e-4, cycle_period=1.0e-3, n_cycles=64)
        rec = run_record(zero_spectrum(), prot, GridSpec(), seed=5)
        assert np.all(rec.outcomes == 1)

    def test_half_detuning_period_all_down(self):
        prot = Protocol(
            tau=1.0e-4,
            cycle_period=1.0e-3,
            n_cycles=64,
            qubit=QubitParams(omega_q=math.pi / 1.0e-4),
        )
        rec = run_record(zero_spectrum(), prot, GridSpec(), seed=5)
        assert np.all(rec.outcomes == -1)

    def test_near_half_flip_probability_scrambles(self):
        prot = Protocol(
            tau=1.0e-4,
            cycle_period=1.0e-3,
            n_cycles=4096,
            qubit=QubitParams(readout_flip_prob=0.5 - 1.0e-9),
        )
        rec = run_record(zero_spectrum(), prot, GridSpec(), seed=6)
        assert abs(float(np.mean(rec.outcomes))) < 4.0 / math.sqrt(4096)

    def test_outcomes_are_plus_minus_one(self):
        m = sampling_zoo()[1]
        prot = Protocol(tau=5.0e-4, cycle_period=2.0e-3, n_cycles=128)
        rec = run_record(m, prot, GridSpec(n_modes=512), seed=7)
        assert set(np.unique(rec.outcomes)).issubset({-1, 1})

    @pytest.mark.parametrize("bad", [0, 2, 0.5, 300, math.nan])
    def test_record_refuses_other_outcomes(self, bad):
        # an int8 cast would keep 0 and 2, truncate 0.5 to 0 and wrap 300
        # to 44: a records CSV that records_from_csv then refuses
        with pytest.raises(ValueError, match=r"outcome must be \+1 or -1"):
            ShotRecord(np.array([1, -1, bad]), 1.0e-4, 1.0e-3)

    def test_record_keeps_plus_minus_one(self):
        rec = ShotRecord([1.0, -1.0, 1.0], 1.0e-4, 1.0e-3)
        assert rec.outcomes.dtype == np.int8
        assert rec.outcomes.tolist() == [1, -1, 1]

    def test_t_center(self):
        prot = Protocol(tau=1.0e-4, cycle_period=1.0e-3, n_cycles=3)
        rec = run_record(zero_spectrum(), prot, GridSpec(), seed=5)
        assert np.allclose(
            rec.t_center(), [5.0e-5, 1.05e-3, 2.05e-3], rtol=1e-12
        )


class TestDeterminism:
    def test_same_seed_same_records(self):
        m = sampling_zoo()[1]
        prot = Protocol(tau=5.0e-4, cycle_period=2.0e-3, n_cycles=64)
        a = run_protocol(m, prot, 6, seed=42, grid=GridSpec(n_modes=512))
        b = run_protocol(m, prot, 6, seed=42, grid=GridSpec(n_modes=512))
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.outcomes, rb.outcomes)

    def test_records_are_independent_streams(self):
        m = sampling_zoo()[1]
        prot = Protocol(tau=5.0e-4, cycle_period=2.0e-3, n_cycles=64)
        recs = run_protocol(m, prot, 3, seed=42, grid=GridSpec(n_modes=512))
        assert not np.array_equal(recs[0].outcomes, recs[1].outcomes)
        assert not np.array_equal(recs[1].outcomes, recs[2].outcomes)

    def test_different_seed_different_outcomes(self):
        m = sampling_zoo()[1]
        prot = Protocol(tau=5.0e-4, cycle_period=2.0e-3, n_cycles=64)
        a = run_protocol(m, prot, 1, seed=1, grid=GridSpec(n_modes=512))
        b = run_protocol(m, prot, 1, seed=2, grid=GridSpec(n_modes=512))
        assert not np.array_equal(a[0].outcomes, b[0].outcomes)


class TestSharedPhaseTable:
    """run_protocol builds the phase table once and every record reads it."""

    def protocol(self, flip=0.0):
        # 600 cycles: blocks of 32, the last one partial (600 = 18 * 32 + 24)
        qubit = QubitParams(omega_q=300.0, readout_flip_prob=flip)
        return Protocol(tau=5.0e-4, cycle_period=1.0e-3, n_cycles=600, qubit=qubit)

    @pytest.mark.parametrize("flip, independent", [(0.0, False), (0.2, False), (0.0, True)])
    def test_records_equal_standalone_records(self, flip, independent):
        m = sampling_zoo()[1]
        prot = self.protocol(flip)
        grid = GridSpec(n_modes=512)
        recs = run_protocol(m, prot, 3, seed=21, grid=grid, independent_cycles=independent)
        for i, rec in enumerate(recs):
            alone = run_record(
                m, prot, grid, seed=21, record_index=i, independent_cycles=independent
            )
            assert rec.outcomes.tobytes() == alone.outcomes.tobytes()

    def test_shared_table_gives_the_same_phase_bits(self):
        m = sampling_zoo()[1]
        prot = self.protocol()
        grid = GridSpec(n_modes=512)
        table = montecarlo._phase_table(grid.cells(m, prot.duration)[1], prot)
        for seed in (1, 2):
            modes = synthesize_modes(m, grid, prot.duration, np.random.default_rng(seed))
            shared = accumulated_phases(modes, prot, table)
            assert shared.tobytes() == accumulated_phases(modes, prot).tobytes()

    @pytest.mark.parametrize(
        "n_records, independent, builds", [(1, False, 1), (5, False, 1), (5, True, 0)]
    )
    def test_one_table_per_protocol(self, monkeypatch, n_records, independent, builds):
        # the phase table and the mode rms, DC term included, are built
        # once per protocol: one table, and one grid-wide and one floor
        # evaluation of the spectrum, whatever the record count
        calls = []
        sizes = []
        build = montecarlo._phase_table
        evaluate = WhiteModel.evaluate

        def counted(omega, protocol):
            calls.append(protocol)
            return build(omega, protocol)

        def counted_evaluate(self, omega):
            sizes.append(np.size(omega))
            return evaluate(self, omega)

        monkeypatch.setattr(montecarlo, "_phase_table", counted)
        monkeypatch.setattr(WhiteModel, "evaluate", counted_evaluate)
        run_protocol(
            sampling_zoo()[0],
            Protocol(tau=2.0e-4, cycle_period=1.0e-3, n_cycles=64),
            n_records,
            seed=4,
            grid=GridSpec(n_modes=256),
            independent_cycles=independent,
        )
        assert len(calls) == builds
        assert sorted(sizes) == [1, 256]


class TestPhaseTable:
    """Two-level phase table: block starts times in-block offsets."""

    # one block, an exact power of four, partial last blocks
    @pytest.mark.parametrize("n", [2, 3, 64, 65, 600, 1000, 20000])
    def test_matches_window_phase(self, n):
        # both sides round each trig argument omega_k t to about eps omega_k t,
        # so the scale is eps * sum_k |b_k| (1 + omega_k t_end); over 20 seeds
        # and these n the difference reached 0.2 of it before the two-level
        # table and 0.3 of it after
        m = sampling_zoo()[1]
        prot = Protocol(tau=5.0e-4, cycle_period=1.0e-3, n_cycles=n)
        grid = GridSpec(n_modes=512)
        for seed in range(3):
            modes = synthesize_modes(m, grid, prot.duration, np.random.default_rng(seed))
            ref = modes.window_phase(np.arange(n) * prot.cycle_period, prot.tau)
            w = modes.omega
            b = modes.amp * np.hypot(modes.u, modes.v) * np.abs(
                np.where(w > 0, 2.0 * np.sin(w * prot.tau / 2.0) / np.where(w > 0, w, 1.0), prot.tau)
            )
            scale = np.finfo(float).eps * np.sum(b * (1.0 + w * prot.duration))
            assert np.max(np.abs(accumulated_phases(modes, prot) - ref)) < scale

    def test_table_grows_as_root_of_cycles(self):
        # blocks of the least power of two B with B^2 >= n: the table holds
        # (n_blocks + B) rows of 2 * modes doubles and one row of gains,
        # never modes x 256 or n
        omega = GridSpec(n_modes=256).cells(sampling_zoo()[1], 1.0)[1]
        nbytes = {}
        for n, block in ((1000, 32), (16000, 128)):
            prot = Protocol(tau=5.0e-4, cycle_period=1.0e-3, n_cycles=n)
            e0, off, gain = montecarlo._phase_table(omega, prot)
            n_blocks = -(-n // block)
            assert e0.shape == (n_blocks, len(omega)) and e0.dtype == complex
            assert off.shape == (2 * len(omega), block)
            assert gain.shape == omega.shape
            nbytes[n] = e0.nbytes + off.nbytes + gain.nbytes
        assert nbytes[1000] < 2 * len(omega) * 256 * 8 / 2
        # 16 times the cycles: about 4 times the table, not 16
        assert nbytes[16000] < 4.5 * nbytes[1000]


class TestAgainstAnalytic:
    def test_lorentzian_type(self):
        m = sampling_zoo()[1]
        prot = Protocol(tau=5.0e-4, cycle_period=2.0e-3, n_cycles=500)
        recs = run_protocol(m, prot, 40, seed=11)
        curve = correlation_curve(recs, [1, 2, 5])
        for dt, corr, se in zip(curve.delta_t, curve.correlation, curve.stderr):
            ref = autocorrelation_analytic(m, EvolutionPair(5.0e-4, dt))
            assert abs(corr - ref) < 4.5 * se

    def test_white(self):
        m = sampling_zoo()[0]
        prot = Protocol(tau=2.0e-4, cycle_period=1.0e-3, n_cycles=500)
        recs = run_protocol(m, prot, 40, seed=12)
        curve = correlation_curve(recs, [1, 3])
        for dt, corr, se in zip(curve.delta_t, curve.correlation, curve.stderr):
            ref = autocorrelation_analytic(m, EvolutionPair(2.0e-4, dt))
            assert abs(corr - ref) < 4.5 * se

    def test_flip_probability_attenuates(self):
        m = sampling_zoo()[1]
        base = Protocol(tau=5.0e-4, cycle_period=2.0e-3, n_cycles=500)
        flipped = Protocol(
            tau=5.0e-4,
            cycle_period=2.0e-3,
            n_cycles=500,
            qubit=QubitParams(readout_flip_prob=0.25),
        )
        ideal = correlation_curve(
            run_protocol(m, base, 30, seed=13), [1]
        )
        raw = correlation_curve(
            run_protocol(m, flipped, 30, seed=13), [1]
        )
        scale = (1.0 - 2.0 * 0.25) ** 2
        combined = math.hypot(raw.stderr[0], scale * ideal.stderr[0])
        assert abs(raw.correlation[0] - scale * ideal.correlation[0]) < 4.0 * combined

    def test_fidelity_correction_restores(self):
        m = sampling_zoo()[1]
        flipped = Protocol(
            tau=5.0e-4,
            cycle_period=2.0e-3,
            n_cycles=500,
            qubit=QubitParams(readout_flip_prob=0.25),
        )
        recs = run_protocol(m, flipped, 30, seed=13)
        raw = correlation_curve(recs, [1])
        corrected = correlation_curve(recs, [1], correct_epsilon=0.25)
        assert corrected.correlation[0] == pytest.approx(
            raw.correlation[0] / (1.0 - 2.0 * 0.25) ** 2, rel=1e-12
        )
        assert corrected.stderr[0] == pytest.approx(
            raw.stderr[0] / (1.0 - 2.0 * 0.25) ** 2, rel=1e-12
        )

    def test_stationarity_between_record_halves(self):
        m = sampling_zoo()[1]
        prot = Protocol(tau=5.0e-4, cycle_period=2.0e-3, n_cycles=500)
        recs = run_protocol(m, prot, 32, seed=14)
        first = correlation_curve(recs[:16], [1])
        second = correlation_curve(recs[16:], [1])
        combined = math.hypot(first.stderr[0], second.stderr[0])
        assert abs(first.correlation[0] - second.correlation[0]) < 4.0 * combined


class TestIndependentCycles:
    def test_delay_dependence_removed(self):
        # slow noise: consecutive cycles share nearly the same detuning,
        # so the continuous-trajectory correlation stays near its
        # zero-delay value; per-cycle-fresh trajectories leave only the
        # squared outcome bias (e^{-pv/2})^2 at every lag, the same floor
        # the analytic correlator reaches at infinite delay
        slow = OverhauserModel(
            s0=8.0e5, omega_l=10.0, omega_e=1.0e5, gamma=1.0, coupling_c=1.0
        )
        tau = 5.0e-4
        prot = Protocol(tau=tau, cycle_period=1.0e-3, n_cycles=1500)
        grid = GridSpec(n_modes=1024)
        records = run_protocol(
            slow, prot, 12, seed=9, grid=grid, independent_cycles=True
        )
        curve = correlation_curve(records, [1, 4, 16])
        floor = math.exp(-phase_variance(slow, tau))
        for c, se in zip(curve.correlation, curve.stderr):
            assert c == pytest.approx(floor, abs=4.5 * se)
        continuous = correlation_curve(
            run_protocol(slow, prot, 12, seed=9, grid=grid), [1]
        )
        assert continuous.correlation[0] - floor > 5.0 * continuous.stderr[0]

    def test_deterministic_and_distinct_from_continuous(self):
        model = sampling_zoo()[0]
        prot = Protocol(tau=2.0e-4, cycle_period=1.0e-3, n_cycles=64)
        grid = GridSpec(n_modes=512)
        a = run_record(model, prot, grid, seed=3, independent_cycles=True)
        b = run_record(model, prot, grid, seed=3, independent_cycles=True)
        assert np.array_equal(a.outcomes, b.outcomes)
        c = run_record(model, prot, grid, seed=3)
        assert not np.array_equal(a.outcomes, c.outcomes)


class TestEstimator:
    def _fabricated(self, outcomes):
        return ShotRecord(
            outcomes=np.asarray(outcomes, dtype=np.int8),
            tau=1.0e-5,
            cycle_period=1.0e-3,
        )

    def test_all_up_gives_unity(self):
        rec = self._fabricated(np.ones(200))
        vals, errs, pairs = estimate_autocorrelation([rec], [1, 2])
        assert np.all(vals == 1.0)
        assert np.all(errs == 0.0)
        assert pairs[0] == 199 and pairs[1] == 198

    def test_independent_outcomes_decorrelate(self):
        rng = np.random.default_rng(15)
        recs = [
            self._fabricated(rng.choice([-1, 1], size=400)) for _ in range(25)
        ]
        vals, errs, pairs = estimate_autocorrelation(recs, [1])
        assert abs(vals[0]) < 3.0 * errs[0] + 1e-12

    def test_zero_pairs_error(self):
        rec = self._fabricated(np.ones(10))
        with pytest.raises(ValueError):
            estimate_autocorrelation([rec], [10])

    def test_delay_mapping(self):
        rec = self._fabricated(np.ones(50))
        curve = correlation_curve([rec], [1, 7])
        assert np.allclose(curve.delta_t, [1.0e-3, 7.0e-3])
        assert np.all(curve.tau == 1.0e-5)

    def test_mixed_protocols_rejected(self):
        a = self._fabricated(np.ones(50))
        b = ShotRecord(
            outcomes=np.ones(50, dtype=np.int8), tau=2.0e-5, cycle_period=1.0e-3
        )
        with pytest.raises(ValueError):
            correlation_curve([a, b], [1])

    @pytest.mark.parametrize("estimate", [correlation_curve, estimate_autocorrelation])
    @pytest.mark.parametrize(
        "n_records, lags, message",
        [(1, [1, 2.9], r"2\.9"), (0, [1], "no records given")],
        ids=["fractional_lag", "no_records"],
    )
    def test_bad_input_named(self, estimate, n_records, lags, message):
        # a lag of 2.9 cycles must not be truncated to 2, and an empty
        # batch must not reach an index
        records = [self._fabricated(np.ones(50))] * n_records
        with pytest.raises(ValueError, match=message):
            estimate(records, lags)

    def test_whole_float_lags_accepted(self):
        rec = self._fabricated(np.ones(50))
        curve = correlation_curve([rec], [1.0, 7.0])
        assert np.array_equal(curve.delta_t, correlation_curve([rec], [1, 7]).delta_t)
        assert np.array_equal(curve.n_pairs, [49, 43])

    def test_blocking_detects_correlated_noise(self):
        # noise much slower than the cycle leaves the outcome bias nearly
        # frozen over ~100 cycles, so lag-1 products are serially
        # correlated and the naive i.i.d. error is a strong underestimate;
        # the block-doubling estimate must be materially larger
        slow = OverhauserModel(
            s0=8.0e5, omega_l=10.0, omega_e=1.0e5, gamma=1.0, coupling_c=1.0
        )
        prot = Protocol(tau=5.0e-4, cycle_period=1.0e-3, n_cycles=4000)
        rec = run_record(slow, prot, GridSpec(n_modes=1024), seed=16)
        vals, errs, pairs = estimate_autocorrelation([rec], [1])
        o = rec.outcomes.astype(float)
        prods = o[1:] * o[:-1]
        naive = float(np.std(prods, ddof=1) / math.sqrt(len(prods)))
        assert errs[0] > 1.5 * naive

    def test_short_series_keep_the_unblocked_error(self):
        # 11 to 3 products per record: too few to block, so each record's
        # error is the unblocked sqrt(var / n), never the 0 of no level
        rng = np.random.default_rng(18)
        recs = [self._fabricated(rng.choice([-1, 1], size=12)) for _ in range(3)]
        lags = [1, 2, 5, 9]
        vals, errs, pairs = estimate_autocorrelation(recs, lags)
        for m, err in zip(lags, errs):
            prods = [r.outcomes[:-m].astype(float) * r.outcomes[m:] for r in recs]
            per_rec = [np.var(p, ddof=1) / len(p) for p in prods]
            assert err > 0.0
            assert err == pytest.approx(math.sqrt(sum(per_rec)) / len(recs), rel=1e-12)

    def test_one_product_per_record_refused(self):
        # fewer than 8 records fall back to each record's own spread, which
        # one product cannot give; 8 records have the spread of their means
        rng = np.random.default_rng(19)
        recs = [self._fabricated(rng.choice([-1, 1], size=12)) for _ in range(8)]
        with pytest.raises(ValueError, match="lag 11 "):
            estimate_autocorrelation(recs[:3], [1, 11])
        assert estimate_autocorrelation(recs, [11])[1][0] > 0.0

    def test_blocking_agrees_for_independent_noise(self):
        rng = np.random.default_rng(17)
        rec = self._fabricated(rng.choice([-1, 1], size=4096))
        vals, errs, pairs = estimate_autocorrelation([rec], [1])
        o = rec.outcomes.astype(float)
        prods = o[1:] * o[:-1]
        naive = float(np.std(prods, ddof=1) / math.sqrt(len(prods)))
        assert errs[0] < 1.6 * naive


class TestCsv:
    def test_records_round_trip(self, tmp_path):
        m = sampling_zoo()[1]
        prot = Protocol(tau=5.0e-4, cycle_period=2.0e-3, n_cycles=32)
        recs = run_protocol(m, prot, 4, seed=17, grid=GridSpec(n_modes=512))
        path = tmp_path / "records.csv"
        records_to_csv(recs, path)
        header = path.read_text().splitlines()[0]
        assert header == "cycle_index,t_center_s,outcome"
        back = records_from_csv(path, tau=5.0e-4, cycle_period=2.0e-3)
        assert len(back) == 4
        for ra, rb in zip(recs, back):
            assert np.array_equal(ra.outcomes, rb.outcomes)

    def test_records_bytes_match_generic_writer(self, tmp_path):
        # two lengths and two protocols, interleaved, and two records that
        # differ from the first in tau alone and in cycle period alone, as
        # the writer's line tables are keyed on (length, tau, cycle_period);
        # a cycle period of 0.1 puts t_center values like 0.30000000000000004
        # through .12g
        rng = np.random.default_rng(8)

        def rec(n, tau, cycle_period):
            return ShotRecord(rng.choice([-1, 1], n), tau, cycle_period)

        recs = [
            rec(7, 0.02, 0.1),
            rec(4, 0.02, 0.1),
            rec(7, 1.0e-4, 1.0 / 3.0),
            rec(7, 0.02, 0.1),
            rec(4, 1.0e-4, 1.0 / 3.0),
            rec(7, 1.0e-4, 0.1),
            rec(7, 0.02, 1.0 / 3.0),
        ]
        path = tmp_path / "records.csv"
        records_to_csv(recs, path)
        generic = tmp_path / "generic.csv"
        rows = [
            row
            for r in recs
            for row in zip(range(len(r)), r.t_center().tolist(), r.outcomes.tolist())
        ]
        csvio.write_csv(generic, ("cycle_index", "t_center_s", "outcome"), rows)
        assert path.read_bytes() == generic.read_bytes()
        assert "\n3,0.31," in path.read_text()

    def test_records_reader_matches_per_cell_reader(self, tmp_path, monkeypatch):
        # numpy reads a written batch without the per-cell reader, and a
        # file with quoted cells, CRLF line ends and blank lines as it does
        rng = np.random.default_rng(9)
        recs = [ShotRecord(rng.choice([-1, 1], n), 0.02, 0.1) for n in (7, 4, 7)]
        path = tmp_path / "records.csv"
        records_to_csv(recs, path)
        quirky = tmp_path / "quirky.csv"
        quirky.write_bytes(
            b'cycle_index,t_center_s,outcome\r\n0,"0.01,x",1\r\n\r\n1,0.11,"-1"\r\n'
            b'0,0.01, 1\r\n1,0.11,+1\r\n2,0.21,-1\r\n'
        )
        expected = {path: [r.outcomes.tolist() for r in recs], quirky: [[1, -1], [1, 1, -1]]}
        per_cell = montecarlo._records_per_cell
        for p, want in expected.items():
            idx, outcomes = per_cell(p)
            assert [list(c) for c in np.split(outcomes, np.flatnonzero(np.diff(idx) <= 0) + 1)] == want
            assert [r.outcomes.tolist() for r in records_from_csv(p, 0.02, 0.1)] == want

        def refuse(p):
            raise AssertionError("per-cell reader used")

        monkeypatch.setattr(montecarlo, "_records_per_cell", refuse)
        for p, want in expected.items():
            assert [r.outcomes.tolist() for r in records_from_csv(p, 0.02, 0.1)] == want

    def test_records_bad_outcome(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("cycle_index,t_center_s,outcome\n0,0.0005,1\n1,0.0025,2\n")
        with pytest.raises(ValueError, match="3"):
            records_from_csv(path, tau=1.0e-3, cycle_period=2.0e-3)

    def test_curve_round_trip(self, tmp_path):
        curve = CorrelationCurve(
            delta_t=np.array([1.0e-3, 2.0e-3]),
            tau=np.array([1.0e-5, 1.0e-5]),
            correlation=np.array([0.5, 0.25]),
            stderr=np.array([0.01, 0.02]),
            n_pairs=np.array([100, 99]),
        )
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "delta_t_s,tau_s,correlation,stderr,n_pairs"
        back = CorrelationCurve.from_csv(path)
        assert np.allclose(back.correlation, curve.correlation, rtol=1e-11)
        assert np.array_equal(back.n_pairs, curve.n_pairs)

    def test_curve_tolerates_extra_columns(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text(
            "delta_t_s,tau_s,correlation,stderr,n_pairs,correlation_raw,stderr_raw\n"
            "0.001,1e-05,0.5,0.01,100,0.125,0.0025\n"
        )
        back = CorrelationCurve.from_csv(path)
        assert back.correlation[0] == 0.5

    def test_curve_header_error(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("delay,tau,corr,err,n\n0.001,1e-05,0.5,0.01,100\n")
        with pytest.raises(ValueError, match="header"):
            CorrelationCurve.from_csv(path)
