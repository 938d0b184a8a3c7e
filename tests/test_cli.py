"""End-to-end checks of the command-line front end."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from shotcorr import cli, correlator
from shotcorr.cli import main
from shotcorr.correlator import EvolutionPair, autocorrelation_analytic
from shotcorr.numerics import QuadratureError
from shotcorr.schedules import tau_constant_contrast
from shotcorr.spectra import OverhauserModel, WhiteModel, coupling_from_g


def run_cli(args):
    return main([str(a) for a in args])


def write_config(path, config):
    path.write_text(json.dumps(config))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _child_env():
    """Environment for a fresh interpreter that imports this process's shotcorr."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


OVERHAUSER_SPEC = {
    "family": "overhauser",
    "s0": 1e-4,
    "omega_l": 0.6283,
    "omega_e": 62830.0,
    "gamma": 1.0,
    "coupling_c": 2e4,
}


class TestChiCommand:
    def test_grid_values_and_regime_column(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "spectrum": OVERHAUSER_SPEC,
                "chi": {"tau": 5e-4, "delta_t": [0.0, 1e-3, 10.0]},
            },
        )
        out = tmp_path / "chi.csv"
        assert run_cli(["chi", "--config", cfg, "--out", out]) == 0
        rows = read_rows(out)
        assert [r["regime"] for r in rows] == ["quadratic", "linear", "plateau"]
        # zero delay has no inter-shot dephasing by construction
        assert float(rows[0]["chi_minus"]) == 0.0
        assert float(rows[0]["chi_plus"]) > 0.0
        for r in rows:
            assert 0.0 < float(r["correlation"]) <= 1.0

    def test_no_regime_column_without_cutoff(self, tmp_path):
        spec = dict(OVERHAUSER_SPEC, omega_e="inf")
        cfg = write_config(
            tmp_path / "c.json",
            {"spectrum": spec, "chi": {"tau": 5e-4, "delta_t": [1e-3]}},
        )
        out = tmp_path / "chi.csv"
        assert run_cli(["chi", "--config", cfg, "--out", out]) == 0
        rows = read_rows(out)
        assert "regime" not in rows[0]
        side = json.loads((tmp_path / "chi.csv.json").read_text())
        assert side["notes"]["regime_column"] is False

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "spectrum": OVERHAUSER_SPEC,
                "chi": {
                    "tau": [1e-5, 5e-4],
                    "delta_t": {"start": 1e-5, "stop": 1.0, "num": 4},
                },
            },
        )
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run_cli(["chi", "--config", cfg, "--out", out_a]) == 0
        assert run_cli(["chi", "--config", cfg, "--out", out_b]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_hz_config_matches_rad_config(self, tmp_path):
        rad = {
            "spectrum": OVERHAUSER_SPEC,
            "chi": {"tau": 5e-4, "delta_t": [1e-4, 1e-2]},
        }
        hz_spec = dict(OVERHAUSER_SPEC)
        hz_spec["omega_l"] = OVERHAUSER_SPEC["omega_l"] / (2 * math.pi)
        hz_spec["omega_e"] = OVERHAUSER_SPEC["omega_e"] / (2 * math.pi)
        hz = {"spectrum": hz_spec, "chi": rad["chi"]}
        cfg_rad = write_config(tmp_path / "rad.json", rad)
        cfg_hz = write_config(tmp_path / "hz.json", hz)
        out_rad = tmp_path / "rad.csv"
        out_hz = tmp_path / "hz.csv"
        assert run_cli(["chi", "--config", cfg_rad, "--out", out_rad]) == 0
        assert (
            run_cli(["chi", "--config", cfg_hz, "--freq-units", "hz", "--out", out_hz])
            == 0
        )
        assert out_rad.read_bytes() == out_hz.read_bytes()

    def test_hz_infinite_cutoff_matches_rad(self, tmp_path):
        # "inf" passes through the conversion; every other omega_* key,
        # including list-valued ones, is scaled by 2 pi
        hz_spec = dict(OVERHAUSER_SPEC, omega_l=0.1, omega_e="inf")
        rad_spec = dict(OVERHAUSER_SPEC, omega_l=0.1 * 2 * math.pi, omega_e="inf")
        chi = {"tau": 5e-4, "delta_t": [1e-4, 1e-2]}
        cfg_hz = write_config(
            tmp_path / "hz.json",
            {"spectrum": hz_spec, "chi": chi, "fit": {"omega_e_bounds": [10.0, 1000.0]}},
        )
        cfg_rad = write_config(tmp_path / "rad.json", {"spectrum": rad_spec, "chi": chi})
        out_hz = tmp_path / "hz.csv"
        out_rad = tmp_path / "rad.csv"
        assert run_cli(["chi", "--config", cfg_hz, "--freq-units", "hz", "--out", out_hz]) == 0
        assert run_cli(["chi", "--config", cfg_rad, "--out", out_rad]) == 0
        assert out_hz.read_bytes() == out_rad.read_bytes()
        echo = json.loads((tmp_path / "hz.csv.json").read_text())["config"]
        assert echo["spectrum"]["omega_e"] == "inf"
        assert echo["fit"]["omega_e_bounds"] == [10.0 * 2 * math.pi, 1000.0 * 2 * math.pi]

    def test_hz_json_infinity_cutoff_passes(self, tmp_path):
        # JSON Infinity, the third no-cutoff spelling, also passes the conversion
        outs = []
        for name, omega_e in (("string", "inf"), ("json", math.inf)):
            spec = dict(OVERHAUSER_SPEC, omega_l=0.1, omega_e=omega_e)
            chi = {"tau": 5e-4, "delta_t": [1e-4, 1e-2]}
            cfg = write_config(tmp_path / f"{name}.json", {"spectrum": spec, "chi": chi})
            out = tmp_path / f"{name}.csv"
            assert run_cli(["chi", "--config", cfg, "--freq-units", "hz", "--out", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_hz_int_past_float_range_names_the_field(self, tmp_path, capsys):
        # float() overflows on the literal during the conversion, before
        # any section reads the field
        spec = dict(OVERHAUSER_SPEC, omega_l=10**400)
        cfg = write_config(tmp_path / "c.json", {"spectrum": spec, "chi": {"tau": 5e-4, "delta_t": 1e-3}})
        argv = ["chi", "--config", cfg, "--freq-units", "hz", "--out", tmp_path / "x.csv"]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'omega_l' has invalid value 1000") and err.count("\n") == 1

    def test_one_chi_pair_per_row(self, tmp_path, monkeypatch):
        calls = []

        def counted(spectrum, pair, quad=None):
            calls.append(pair)
            return original(spectrum, pair, quad)

        original = correlator.chi_pair
        monkeypatch.setattr(cli, "chi_pair", counted)
        monkeypatch.setattr(correlator, "chi_pair", counted)
        cfg = write_config(
            tmp_path / "c.json",
            {
                "spectrum": OVERHAUSER_SPEC,
                "chi": {"tau": [1e-5, 5e-4], "delta_t": [1e-3, 1.0, 10.0]},
            },
        )
        assert run_cli(["chi", "--config", cfg, "--out", tmp_path / "chi.csv"]) == 0
        assert len(calls) == len(read_rows(tmp_path / "chi.csv")) == 6

    def test_regime_column_needs_no_variance_integral(self, tmp_path, monkeypatch):
        calls = []
        original = correlator.variance

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(correlator, "variance", counted)
        cfg = write_config(
            tmp_path / "c.json",
            {
                "spectrum": OVERHAUSER_SPEC,
                "chi": {"tau": 5e-4, "delta_t": [1e-5, 1e-3, 10.0, 100.0]},
            },
        )
        assert run_cli(["chi", "--config", cfg, "--out", tmp_path / "chi.csv"]) == 0
        regimes = [r["regime"] for r in read_rows(tmp_path / "chi.csv")]
        assert regimes == ["quadratic", "linear", "plateau", "plateau"]
        assert calls == []

    def test_artifacts_get_umask_mode(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"spectrum": OVERHAUSER_SPEC, "chi": {"tau": 5e-4, "delta_t": [1e-3]}},
        )
        out = tmp_path / "chi.csv"
        old = os.umask(0o022)
        try:
            assert run_cli(["chi", "--config", cfg, "--out", out]) == 0
        finally:
            os.umask(old)
        for path in (out, tmp_path / "chi.csv.json"):
            assert os.stat(path).st_mode & 0o777 == 0o644

    def test_missing_field_names_it(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {"spectrum": {"family": "white", "level": 2e3}, "chi": {"tau": 1e-4, "delta_t": [1.0]}},
        )
        assert run_cli(["chi", "--config", cfg, "--out", tmp_path / "x.csv"]) == 1
        assert "spectrum.omega_high" in capsys.readouterr().err

    def test_unknown_family_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {"spectrum": {"family": "pink"}, "chi": {"tau": 1e-4, "delta_t": [1.0]}},
        )
        assert run_cli(["chi", "--config", cfg, "--out", tmp_path / "x.csv"]) == 1
        assert "spectrum.family" in capsys.readouterr().err


class TestScheduleCommand:
    GOLDEN = (
        "delta_t_s,tau_s,flags\n"
        "0.003,0.000149034997181,\n"
        "0.00948683298051,0.000131553354249,\n"
        "0.03,0.000119289637425,\n"
        "0.0948683298051,0.000110033294078,\n"
        "0.3,0.000102707907075,\n"
        "0.948683298051,9.67140057241e-05,\n"
        "3,9.16862208451e-05,\n"
    )

    def test_oneoverf_golden_bytes(self, tmp_path):
        cfg = write_config(
            tmp_path / "s.json",
            {
                "schedule": {
                    "kind": "oneoverf",
                    "level": 1e-7,
                    "variant": "exact",
                    "delta_t": {"start": 3e-3, "stop": 3.0, "num": 7},
                }
            },
        )
        out = tmp_path / "sched.csv"
        assert run_cli(["schedule", "--config", cfg, "--out", out]) == 0
        assert out.read_text() == self.GOLDEN
        side = json.loads((tmp_path / "sched.csv.json").read_text())
        assert side["notes"]["variant"] == "exact"
        assert "version" in side

    def test_constant_contrast_needs_model(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "s.json",
            {
                "spectrum": {"family": "white", "level": 1.0, "omega_high": 1e6},
                "schedule": {"kind": "constant_contrast", "delta_t": [1e-3]},
            },
        )
        assert run_cli(["schedule", "--config", cfg, "--out", tmp_path / "x.csv"]) == 1
        assert "constant_contrast" in capsys.readouterr().err

    def test_constant_contrast_runs(self, tmp_path):
        cfg = write_config(
            tmp_path / "s.json",
            {
                "spectrum": OVERHAUSER_SPEC,
                "schedule": {
                    "kind": "constant_contrast",
                    "target": 2.0,
                    "delta_t": {"start": 1e-4, "stop": 1e-2, "num": 5},
                },
            },
        )
        out = tmp_path / "sched.csv"
        assert run_cli(["schedule", "--config", cfg, "--out", out]) == 0
        rows = read_rows(out)
        assert len(rows) == 5
        taus = [float(r["tau_s"]) for r in rows]
        assert all(b < a for a, b in zip(taus, taus[1:]))

    def test_unknown_kind_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "s.json", {"schedule": {"kind": "bogus", "delta_t": [1.0]}}
        )
        assert run_cli(["schedule", "--config", cfg, "--out", tmp_path / "x.csv"]) == 1
        assert "schedule.kind" in capsys.readouterr().err


class TestSimulateCommand:
    def sim_config(self, **overrides):
        config = {
            "spectrum": {"family": "white", "level": 2e3, "omega_high": 1e6},
            "qubit": {"readout_flip_prob": 0.0},
            "protocol": {
                "tau": 2e-4,
                "cycle_period": 1e-3,
                "n_cycles": 200,
                "n_records": 6,
                "lags": [1, 2, 4],
            },
            "grid": {"n_modes": 1024},
        }
        config.update(overrides)
        return config

    def test_zero_noise_gives_unit_correlation(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            self.sim_config(spectrum={"family": "white", "level": 0.0, "omega_high": 1e6}),
        )
        out = tmp_path / "curve.csv"
        assert run_cli(["simulate", "--config", cfg, "--out", out, "--seed", 5]) == 0
        for r in read_rows(out):
            assert float(r["correlation"]) == 1.0
            assert float(r["stderr"]) == 0.0
        for r in read_rows(tmp_path / "curve.records.csv"):
            assert int(r["outcome"]) == 1

    def test_flip_probability_adds_raw_columns(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", self.sim_config(qubit={"readout_flip_prob": 0.25})
        )
        out = tmp_path / "curve.csv"
        assert run_cli(["simulate", "--config", cfg, "--out", out, "--seed", 3]) == 0
        for r in read_rows(out):
            corrected = float(r["correlation"])
            raw = float(r["correlation_raw"])
            # correction divides by (1 - 2*eps)^2 = 1/4; CSV keeps 12 digits
            assert corrected == pytest.approx(4.0 * raw, rel=1e-9)
            assert float(r["stderr"]) == pytest.approx(
                4.0 * float(r["stderr_raw"]), rel=1e-9
            )

    def test_no_raw_columns_at_perfect_readout(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.sim_config())
        out = tmp_path / "curve.csv"
        assert run_cli(["simulate", "--config", cfg, "--out", out, "--seed", 3]) == 0
        assert "correlation_raw" not in read_rows(out)[0]

    def test_records_sidecar_carries_protocol(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.sim_config())
        out = tmp_path / "curve.csv"
        assert run_cli(["simulate", "--config", cfg, "--out", out, "--seed", 3]) == 0
        side = json.loads((tmp_path / "curve.records.csv.json").read_text())
        assert side["notes"]["tau"] == 2e-4
        assert side["notes"]["cycle_period"] == 1e-3
        assert side["notes"]["seed"] == 3

    def test_seed_changes_output(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.sim_config())
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run_cli(["simulate", "--config", cfg, "--out", out_a, "--seed", 1]) == 0
        assert run_cli(["simulate", "--config", cfg, "--out", out_b, "--seed", 2]) == 0
        assert out_a.read_bytes() != out_b.read_bytes()
        out_c = tmp_path / "c.csv"
        assert run_cli(["simulate", "--config", cfg, "--out", out_c, "--seed", 1]) == 0
        assert out_a.read_bytes() == out_c.read_bytes()

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_named_at_parsing(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path / "c.json", self.sim_config())
        out = tmp_path / "curve.csv"
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["simulate", "--config", cfg, "--out", out, "--seed", seed])
        assert exit_info.value.code == 2
        assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_artifacts_keep_their_bytes(self, tmp_path):
        # golden digests: outcomes are thresholded phases, so a change in
        # how the phases are summed must not flip one; the curve follows
        config = {
            "spectrum": {
                "family": "overhauser",
                "s0": 4.5e3,
                "omega_l": 1.0e3,
                "omega_e": 1.0e6,
                "gamma": 1.0,
                "coupling_c": 1.0,
            },
            "qubit": {"readout_flip_prob": 0.05},
            "protocol": {
                "tau": 5.0e-4,
                "cycle_period": 1.0e-3,
                "n_cycles": 200,
                "n_records": 4,
                "lags": [1, 2, 3, 5, 8],
            },
            "grid": {"n_modes": 512},
        }
        cfg = write_config(tmp_path / "c.json", config)
        out = tmp_path / "curve.csv"
        assert run_cli(["simulate", "--config", cfg, "--out", out, "--seed", 7]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("curve.csv", "curve.records.csv")
        }
        assert digests == {
            "curve.csv": "03b2c806ff58d0ed2ba3e95912732e3bd926e0b883a6e0a4017cf0086431d884",
            "curve.records.csv": "2d52868344c4a2299a75671817c3b0e7471cf4b415208b85e5414a756505e2c4",
        }


class TestCorrelateCommand:
    def test_roundtrip_from_simulate(self, tmp_path):
        sim_cfg = write_config(
            tmp_path / "sim.json",
            TestSimulateCommand().sim_config(qubit={"readout_flip_prob": 0.25}),
        )
        curve = tmp_path / "curve.csv"
        assert run_cli(["simulate", "--config", sim_cfg, "--out", curve, "--seed", 3]) == 0
        corr_cfg = write_config(
            tmp_path / "corr.json",
            {
                "correlate": {
                    "records": str(tmp_path / "curve.records.csv"),
                    "lags": [1, 2, 4],
                    "epsilon": 0.25,
                }
            },
        )
        out = tmp_path / "curve2.csv"
        assert run_cli(["correlate", "--config", corr_cfg, "--out", out]) == 0
        redone = read_rows(out)
        original = read_rows(curve)
        for a, b in zip(original, redone):
            for key in ("delta_t_s", "tau_s", "correlation", "stderr", "n_pairs"):
                assert a[key] == b[key]

    def test_tau_read_from_sidecar(self, tmp_path):
        sim_cfg = write_config(tmp_path / "sim.json", TestSimulateCommand().sim_config())
        curve = tmp_path / "curve.csv"
        assert run_cli(["simulate", "--config", sim_cfg, "--out", curve, "--seed", 3]) == 0
        corr_cfg = write_config(
            tmp_path / "corr.json",
            {"correlate": {"records": str(tmp_path / "curve.records.csv"), "lags": [1]}},
        )
        out = tmp_path / "curve2.csv"
        assert run_cli(["correlate", "--config", corr_cfg, "--out", out]) == 0
        assert float(read_rows(out)[0]["tau_s"]) == 2e-4

    def test_missing_protocol_metadata_rejected(self, tmp_path, capsys):
        rec = tmp_path / "orphan.csv"
        rec.write_text("cycle_index,t_center_s,outcome\n0,1e-4,1\n1,2e-4,-1\n")
        cfg = write_config(
            tmp_path / "corr.json", {"correlate": {"records": str(rec)}}
        )
        assert run_cli(["correlate", "--config", cfg, "--out", tmp_path / "x.csv"]) == 1
        err = capsys.readouterr().err
        assert "correlate.tau" in err and "cycle_period" in err

    def test_malformed_record_names_row(self, tmp_path, capsys):
        rec = tmp_path / "bad.csv"
        rec.write_text("cycle_index,t_center_s,outcome\n0,1e-4,1\n1,2e-4,2\n")
        cfg = write_config(
            tmp_path / "corr.json",
            {"correlate": {"records": str(rec), "tau": 5e-5, "cycle_period": 1e-4}},
        )
        assert run_cli(["correlate", "--config", cfg, "--out", tmp_path / "x.csv"]) == 1
        assert "row 3" in capsys.readouterr().err


class TestFitCommand:
    def write_alpha_curve(self, path, exponent=1.5):
        dts = np.geomspace(1e-3, 1e-1, 24)
        # pair exponent growing as delta_t^{alpha-1} mimics a power-law slope
        chi = 20.0 * dts ** (exponent - 1.0)
        corr = 0.5 * np.exp(-chi / 2.0)
        lines = ["delta_t_s,tau_s,correlation,stderr,n_pairs"]
        for d, c in zip(dts, corr):
            lines.append(f"{d:.12g},1e-05,{c:.12g},0.002,1000")
        path.write_text("\n".join(lines) + "\n")

    def test_alpha_mode(self, tmp_path):
        curve = tmp_path / "curve.csv"
        self.write_alpha_curve(curve, exponent=1.5)
        cfg = write_config(
            tmp_path / "f.json", {"fit": {"input": str(curve), "mode": "alpha"}}
        )
        out = tmp_path / "alpha.json"
        assert run_cli(["fit", "--config", cfg, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "alpha"
        assert doc["result"]["alpha"] == pytest.approx(1.5, abs=0.05)
        assert doc["result"]["log_growth"] is False
        assert "version" in doc and "config" in doc

    def test_fit_mode_recovers_level(self, tmp_path):
        model = WhiteModel(level=2e3, omega_high=1e6)
        dts = np.geomspace(3e-4, 3e-3, 6)
        lines = ["delta_t_s,tau_s,correlation,stderr,n_pairs"]
        for d in dts:
            c = autocorrelation_analytic(model, EvolutionPair(2e-4, d))
            lines.append(f"{d:.12g},0.0002,{c:.12g},0.01,1000")
        curve = tmp_path / "white.csv"
        curve.write_text("\n".join(lines) + "\n")
        cfg = write_config(
            tmp_path / "f.json",
            {
                "fit": {
                    "input": str(curve),
                    "mode": "fit",
                    "family": "white",
                    "free": {"level": [1e1, 1e5]},
                    "fixed": {"omega_high": 1e6},
                    "init": {"level": 5e3},
                    "n_starts": 1,
                    "max_eval": 120,
                }
            },
        )
        out = tmp_path / "fit.json"
        assert run_cli(["fit", "--config", cfg, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["result"]["values"]["level"] == pytest.approx(2e3, rel=1e-3)
        assert doc["result"]["success"] is True

    def test_missing_stderr_column_is_instructive(self, tmp_path, capsys):
        curve = tmp_path / "bare.csv"
        curve.write_text("delta_t_s,tau_s,correlation,n_pairs\n1,1e-5,0.3,10\n")
        cfg = write_config(
            tmp_path / "f.json", {"fit": {"input": str(curve), "mode": "alpha"}}
        )
        assert run_cli(["fit", "--config", cfg, "--out", tmp_path / "x.json"]) == 1
        assert "supply" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("name", ["plain.csv", "header_curve.csv"])
    def test_bad_cell_gets_no_stderr_hint(self, tmp_path, capsys, name):
        # the hint is for a header without stderr, not for a file name
        # that happens to contain "header"
        curve = tmp_path / name
        curve.write_text("delta_t_s,tau_s,correlation,stderr,n_pairs\n1,1e-5,oops,0.1,10\n")
        cfg = write_config(
            tmp_path / "f.json", {"fit": {"input": str(curve), "mode": "alpha"}}
        )
        assert run_cli(["fit", "--config", cfg, "--out", tmp_path / "x.json"]) == 1
        err = capsys.readouterr().err
        assert "malformed row 2" in err
        assert "supply" not in err.lower()

    def test_bad_free_spec_rejected(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        self.write_alpha_curve(curve)
        cfg = write_config(
            tmp_path / "f.json",
            {
                "fit": {
                    "input": str(curve),
                    "mode": "fit",
                    "family": "white",
                    "free": {"level": 2e3},
                }
            },
        )
        assert run_cli(["fit", "--config", cfg, "--out", tmp_path / "x.json"]) == 1
        assert "fit.free.level" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "init, field",
        [(3, "fit.init"), ([1.0], "fit.init"), ({"level": "x"}, "fit.init.level"),
         ({"level": None}, "fit.init.level"),
         # a name outside fit.free was ignored; a missing free name was
         # refused in a message that named no config field
         ({"level": 5e3, "levle": 7}, "fit.init.levle"), ({"levle": 5e3}, "fit.init.levle"),
         ({"level": 5e3, "omega_high": 1e6}, "fit.init.omega_high"), ({}, "fit.init.level")],
        ids=["number", "list", "text", "null", "extra", "misspelled", "fixed_name", "missing"],
    )
    def test_bad_init_exits_with_message(self, tmp_path, capsys, init, field):
        sec = {"input": _alpha_curve(tmp_path), "mode": "fit", "family": "white"}
        sec.update(free={"level": [1e1, 1e5]}, fixed={"omega_high": 1e6}, init=init)
        cfg = write_config(tmp_path / "f.json", {"fit": sec})
        assert run_cli(["fit", "--config", cfg, "--out", tmp_path / "x.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"'{field}'" in err

    def test_empty_gammas_exits_with_message(self, tmp_path, capsys):
        sec = {"input": _alpha_curve(tmp_path), "mode": "discriminate", "omega_l": 1.0}
        cfg = write_config(tmp_path / "f.json", {"fit": dict(sec, gammas=[])})
        assert run_cli(["fit", "--config", cfg, "--out", tmp_path / "x.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "gammas" in err

    @pytest.mark.parametrize("gammas", [[2, 2], [1]], ids=["repeated", "single"])
    def test_one_distinct_gamma_exits_with_message(self, tmp_path, capsys, gammas):
        # one cutoff shape has nothing to be compared with (the result
        # would carry an infinite delta_chi2, which JSON cannot hold)
        sec = {"input": _alpha_curve(tmp_path), "mode": "discriminate", "omega_l": 1.0}
        cfg = write_config(tmp_path / "f.json", {"fit": dict(sec, gammas=gammas)})
        assert run_cli(["fit", "--config", cfg, "--out", tmp_path / "x.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'fit.gammas'" in err
        assert not (tmp_path / "x.json").exists()

    def test_discriminate_picks_cutoff_shape(self, tmp_path):
        cfg = _discriminate_config(tmp_path)
        out = tmp_path / "result.json"
        assert run_cli(["fit", "--config", cfg, "--out", out]) == 0
        result = json.loads(out.read_text())["result"]
        assert result["best_gamma"] == 2.0 and result["indeterminate"] is False

    def test_zero_stderr_discriminate_exits_with_message(self, tmp_path, capsys):
        # it used to exit 0 with "delta_chi2": NaN and "chi2": Infinity in
        # the result, which is not JSON, and the wrong shape picked
        cfg = _discriminate_config(tmp_path, stderr=0.0)
        assert run_cli(["fit", "--config", cfg, "--out", tmp_path / "x.json"]) == 1
        err = capsys.readouterr().err
        assert err == "error: stderr must be positive\n"
        assert not (tmp_path / "x.json").exists()


class TestFigureBundles:
    def test_figure2_short_tau_stays_coherent(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run_cli(["figure2", "--out", out]) == 0
        rows = read_rows(out)
        taus = sorted({float(r["tau_s"]) for r in rows})
        assert len(taus) == 5
        shortest = [r for r in rows if float(r["tau_s"]) == taus[0]]
        assert all(float(r["correlation"]) > 0.99 for r in shortest)
        # rows with delay shorter than the evolution time are flagged
        for r in rows:
            flagged = r["flags"] == "unphysical"
            assert flagged == (float(r["delta_t_s"]) < float(r["tau_s"]))
        side = json.loads((tmp_path / "fig2.csv.json").read_text())
        assert side["notes"]["rms_field_is_assumption"] is True

    def test_figure3a_variants_merge_on_plateau(self, tmp_path):
        out = tmp_path / "fig3a.csv"
        assert run_cli(["figure3a", "--out", out]) == 0
        by = {}
        for r in read_rows(out):
            by.setdefault(r["variant"], []).append(
                (float(r["delta_t_s"]), float(r["correlation"]))
            )
        assert set(by) == {"gamma1", "gamma2", "omega_e_x2", "no_cutoff"}
        last = {k: v[-1][1] for k, v in by.items()}
        ref = last["gamma1"]
        for val in last.values():
            assert val == pytest.approx(ref, rel=1e-4)
        early_g1 = dict(by["gamma1"])
        early_nc = dict(by["no_cutoff"])
        early = [d for d in early_g1 if d < 3e-5]
        assert max(abs(early_g1[d] - early_nc[d]) for d in early) > 0.1

    def test_figure3b_slope_direction(self, tmp_path):
        out = tmp_path / "fig3b.csv"
        assert run_cli(["figure3b", "--out", out]) == 0
        by = {}
        for r in read_rows(out):
            by.setdefault(r["variant"], []).append(float(r["chi_minus"]))
        flat = np.array(by["alpha_1"])
        assert flat.max() / flat.min() < 1.05
        assert by["alpha_0.9"][-1] < 0.9 * by["alpha_0.9"][0]
        assert by["alpha_1.1"][-1] > 1.1 * by["alpha_1.1"][0]


def _alpha_curve(tmp_path):
    path = tmp_path / "curve.csv"
    TestFitCommand().write_alpha_curve(path)
    return str(path)


def _discriminate_config(tmp_path, stderr=5e-4):
    """A noise-free gamma = 2 constant-contrast curve and its discriminate config."""
    wl, c = 0.2 * math.pi, coupling_from_g(-0.44)
    truth = OverhauserModel.from_rms(7e-3, wl, 2e4 * math.pi, 2.0, c)
    lines = ["delta_t_s,tau_s,correlation,stderr,n_pairs"]
    for dt in (5e-6, 1e-5, 2e-5, 1e-3):
        tau = tau_constant_contrast(truth, dt, target=2.0)
        corr = autocorrelation_analytic(truth, EvolutionPair(tau, dt))
        lines.append(f"{dt:.12g},{tau:.12g},{corr:.12g},{stderr:.12g},100000")
    curve = tmp_path / "contrast.csv"
    curve.write_text("\n".join(lines) + "\n")
    sec = {"input": str(curve), "mode": "discriminate", "omega_l": wl, "coupling_c": c}
    return write_config(tmp_path / "disc.json", {"fit": sec})


def _chi(tmp_path, value):
    return {"spectrum": dict(OVERHAUSER_SPEC), "chi": {"tau": 5e-4, "delta_t": value}}


def _fit(mode, key):
    def build(tmp_path, value):
        sec = {"input": _alpha_curve(tmp_path), "mode": mode, "omega_l": 1.0, key: value}
        return {"fit": sec}

    return build


def _lags(tmp_path, value):
    protocol = {"tau": 2e-4, "cycle_period": 1e-3, "n_cycles": 20, "lags": value}
    return TestSimulateCommand().sim_config(protocol=protocol)


def _alphas(tmp_path, value):
    return {"figure3b": {"alpha": value, "delta_t": [0.01]}}


def _fig2_taus(tmp_path, value):
    return {"figure2": {"tau": value, "delta_t": [1e-5]}}


def _chi_taus(tmp_path, value):
    return {"spectrum": dict(OVERHAUSER_SPEC), "chi": {"tau": value, "delta_t": [1e-3]}}


# (command, config builder, field the message must name, bad value);
# a scalar chi.delta_t is a valid one-point grid, so it has no scalar case
_BAD_LISTS = [
    (command, build, field, value)
    for command, build, field in [
        ("chi", _chi, "chi.delta_t"),
        ("fit", _fit("alpha", "corr_window"), "fit.corr_window"),
        ("fit", _fit("discriminate", "omega_e_bounds"), "fit.omega_e_bounds"),
        ("fit", _fit("discriminate", "gammas"), "fit.gammas"),
        ("simulate", _lags, "protocol.lags"),
        ("figure3b", _alphas, "figure3b.alpha"),
        ("figure2", _fig2_taus, "figure2.tau"),
    ]
    for value in ([None], ["x"], 5.0, [])
    if not (command == "chi" and value == 5.0)
] + [
    # an empty list or grid wrote a header-only CSV, and the others failed
    # in an unpacking or in numpy with a message that named no field
    ("chi", _chi_taus, "chi.tau", []),
    ("fit", _fit("alpha", "corr_window"), "fit.corr_window", [0.1]),
    ("fit", _fit("discriminate", "omega_e_bounds"), "fit.omega_e_bounds", [1e3, 1e4, 1e5]),
    ("chi", _chi, "chi.delta_t.num", {"start": 1e-3, "stop": 1.0, "num": 0}),
    ("chi", _chi, "chi.delta_t.num", {"start": 1e-3, "stop": 1.0, "num": -2}),
    ("chi", _chi, "chi.delta_t.start", {"start": 0.0, "stop": 1.0, "num": 3}),
    ("chi", _chi, "chi.delta_t.stop", {"start": 1e-3, "stop": -1.0, "num": 3}),
]


class TestListFields:
    @pytest.mark.parametrize(
        "command, build, field, value",
        _BAD_LISTS,
        ids=[f"{case[2]}={case[3]!r}" for case in _BAD_LISTS],
    )
    def test_bad_list_exits_with_message(self, tmp_path, capsys, command, build, field, value):
        cfg = write_config(tmp_path / "c.json", build(tmp_path, value))
        assert run_cli([command, "--config", cfg, "--out", tmp_path / "x.out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert field in err


def _fixed(tmp_path, value):
    sec = {"input": _alpha_curve(tmp_path), "mode": "fit", "family": "white"}
    return {"fit": dict(sec, free={"level": [1e1, 1e5]}, fixed=value)}


def _chi_spectrum(spec):
    return lambda d: dict(_chi(d, [1e-3]), spectrum=spec)


def _sim_section_key(section, key):
    def build(tmp_path):
        config = TestSimulateCommand().sim_config()
        return dict(config, **{section: dict(config[section], **{key: 0.05})})

    return build


def _fit_names(free, fixed, family="white"):
    def build(tmp_path):
        return {"fit": dict(_fixed(tmp_path, fixed)["fit"], family=family, free=free)}

    return build


def _added(command, field, value):
    """A builder: the ``CONTRACT_CASES`` config of ``command`` with ``field`` added as ``value``."""
    return lambda d: _with(CONTRACT_CASES[command](d), field, value)


WHITE_FREE = {"level": [1e1, 1e5]}
WHITE_FIXED = {"omega_high": 1e6}

OVERHAUSER_FIXED = {"omega_l": 1.0, "omega_e": 1e4, "coupling_c": 1.0}

# (command, config builder, the field the message must name): a name
# that the spectrum family does not read was ignored, or, in fit mode,
# fitted while nothing read it; so was one field of an either/or pair
# given both ways (rms_field won over s0, a non-null coupling_c over
# g_factor); so was a key that its section or grid object does not read
# (a flip probability under protocol ran with no flips, a misspelled
# correlate.lags ran the default lags, a misspelled spacing a log grid)
_BAD_SPECTRUM_NAMES = [
    ("chi", _chi_spectrum(dict(OVERHAUSER_SPEC, gama=2)), "spectrum.gama"),
    ("chi", _chi_spectrum({"family": "white", "level": 1.0, **WHITE_FIXED, "s0": 1.0}), "spectrum.s0"),
    ("fit", _fit_names(dict(WHITE_FREE, levle=[1, 2]), WHITE_FIXED), "fit.free.levle"),
    ("fit", _fit_names(WHITE_FREE, {"omega_hi": 1e6}), "fit.fixed.omega_hi"),
    ("fit", _fit_names(WHITE_FREE, dict(WHITE_FIXED, level=2e3)), "fit.fixed.level"),
    ("fit", _fit_names(WHITE_FREE, dict(WHITE_FIXED, family="white")), "fit.fixed.family"),
    ("fit", _fit_names(dict(WHITE_FREE, family=[1, 2]), WHITE_FIXED), "fit.free.family"),
    (
        "fit",
        _fit_names(
            {"s0": [1.0, 1e6], "gama": [0.5, 3.0]},
            {"omega_l": 1.0, "omega_e": 1e4, "coupling_c": 1.0},
            "overhauser",
        ),
        "fit.free.gama",
    ),
    ("fit", _fit_names(WHITE_FREE, WHITE_FIXED, "pink"), "fit.family"),
    ("chi", _chi_spectrum(dict(OVERHAUSER_SPEC, rms_field=1e-3)), "spectrum.rms_field"),
    ("chi", _chi_spectrum(dict(OVERHAUSER_SPEC, g_factor=-0.44)), "spectrum.g_factor"),
    (
        "fit",
        _fit_names({"s0": [1.0, 1e6], "rms_field": [1e-4, 1e-2]}, OVERHAUSER_FIXED, "overhauser"),
        "fit.free.rms_field",
    ),
    (
        "fit",
        _fit_names({"s0": [1.0, 1e6]}, dict(OVERHAUSER_FIXED, g_factor=2.0), "overhauser"),
        "fit.fixed.g_factor",
    ),
    (
        "fit",
        _fit_names({"s0": [1.0, 1e6]}, dict(OVERHAUSER_FIXED, rms_field=1e-3), "overhauser"),
        "fit.fixed.rms_field",
    ),
    (
        "fit",
        _fit_names({"s0": [1.0, 1e6], "g_factor": [1.0, 3.0]}, OVERHAUSER_FIXED, "overhauser"),
        "fit.free.g_factor",
    ),
    ("simulate", _sim_section_key("protocol", "readout_flip_prob"), "protocol.readout_flip_prob"),
    ("simulate", _sim_section_key("qubit", "omega_Q"), "qubit.omega_Q"),
    ("simulate", _sim_section_key("grid", "n_mode"), "grid.n_mode"),
    ("chi", _added("chi", "chi.omega_q", 5.0), "chi.omega_q"),
    (
        "chi",
        lambda d: _chi(d, {"start": 1e-3, "stop": 1.0, "num": 3, "spcing": "linear"}),
        "chi.delta_t.spcing",
    ),
    (
        "schedule",
        lambda d: {
            "spectrum": dict(OVERHAUSER_SPEC),
            "schedule": {"kind": "constant_contrast", "delta_t": [1e-3], "targt": 3.0},
        },
        "schedule.targt",
    ),
    ("schedule", _added("schedule", "schedule.varient", "literal"), "schedule.varient"),
    ("correlate", _added("correlate", "correlate.lag", [7]), "correlate.lag"),
    ("fit", lambda d: _fit("alpha", "omega_l")(d, 1.0), "fit.omega_l"),
    ("fit", lambda d: _fit("discriminate", "gamma")(d, 2.0), "fit.gamma"),
    ("fit", lambda d: _with(_fit_names(WHITE_FREE, WHITE_FIXED)(d), "fit.n_start", 4), "fit.n_start"),
    ("figure2", _added("figure2", "figure2.taus", [1e-6]), "figure2.taus"),
    ("figure3a", _added("figure3a", "figure3a.targt", 3.0), "figure3a.targt"),
    ("figure3b", _added("figure3b", "figure3b.alphas", [1.1]), "figure3b.alphas"),
]


class TestSpectrumNames:
    @pytest.mark.parametrize(
        "command, build, field",
        _BAD_SPECTRUM_NAMES,
        ids=[case[2] for case in _BAD_SPECTRUM_NAMES],
    )
    def test_unread_name_exits_with_message(
        self, tmp_path, capsys, monkeypatch, command, build, field
    ):
        # fit mode refuses the names before the first evaluation
        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran")

        monkeypatch.setattr(cli, "fit", no_fit)
        cfg = write_config(tmp_path / "c.json", build(tmp_path))
        assert run_cli([command, "--config", cfg, "--out", tmp_path / "x.out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"'{field}'" in err
        assert not (tmp_path / "x.out").exists()

    def test_null_coupling_leaves_g_factor(self, tmp_path):
        # a null coupling_c is not given, so g_factor alone sets the coupling
        spec = dict(OVERHAUSER_SPEC, coupling_c=None, g_factor=-0.44)
        cfg = write_config(tmp_path / "c.json", _chi_spectrum(spec)(tmp_path))
        assert run_cli(["chi", "--config", cfg, "--out", tmp_path / "x.csv"]) == 0


# (command, config builder, section): a section that may be left out must
# still be an object when it is given
_BAD_SECTIONS = [
    ("simulate", lambda d, v: TestSimulateCommand().sim_config(grid=v), "grid"),
    ("simulate", lambda d, v: TestSimulateCommand().sim_config(qubit=v), "qubit"),
    ("figure2", lambda d, v: {"figure2": v}, "figure2"),
    ("figure3a", lambda d, v: {"figure3a": v}, "figure3a"),
    ("figure3b", lambda d, v: {"figure3b": v}, "figure3b"),
    ("fit", _fixed, "fit.fixed"),
]


class TestOptionalSections:
    @pytest.mark.parametrize(
        "command, build, section", _BAD_SECTIONS, ids=[case[2] for case in _BAD_SECTIONS]
    )
    @pytest.mark.parametrize("value", [5, [1]], ids=["number", "list"])
    def test_non_object_exits_with_message(self, tmp_path, capsys, command, build, section, value):
        cfg = write_config(tmp_path / "c.json", build(tmp_path, value))
        assert run_cli([command, "--config", cfg, "--out", tmp_path / "x.out"]) == 1
        assert capsys.readouterr().err == f"error: config section '{section}' must be an object\n"


class TestEntryPoint:
    def test_parser_built_once(self, tmp_path, monkeypatch):
        def build_again(*args, **kwargs):
            raise AssertionError("argument parser rebuilt")

        cli._parser()
        monkeypatch.setattr(cli.argparse, "ArgumentParser", build_again)
        cfg = write_config(tmp_path / "s.json", CONTRACT_CASES["schedule"](tmp_path))
        for name in ("a.csv", "b.csv"):
            assert run_cli(["schedule", "--config", cfg, "--out", tmp_path / name]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "s.json"
        cfg.write_text(
            json.dumps(
                {
                    "schedule": {
                        "kind": "oneoverf",
                        "level": 1e-7,
                        "delta_t": [0.01, 0.1],
                    }
                }
            )
        )
        out = tmp_path / "sched.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "shotcorr.cli", "schedule", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_bad_json_config(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert run_cli(["chi", "--config", cfg, "--out", tmp_path / "x.csv"]) == 1
        assert "JSON" in capsys.readouterr().err


def _records_file(path):
    rows = [f"{i},{i * 1e-3 + 1e-4:.12g},{1 if i % 3 else -1}" for i in range(40)]
    path.write_text("cycle_index,t_center_s,outcome\n" + "\n".join(rows * 2) + "\n")
    return path


# one small config per CSV-writing command; each run must leave its CSV,
# a sidecar and nothing else, identically on a rerun
CONTRACT_CASES = {
    "chi": lambda d: {"spectrum": OVERHAUSER_SPEC, "chi": {"tau": 5e-4, "delta_t": [1e-3, 1.0]}},
    "schedule": lambda d: {
        "schedule": {"kind": "oneoverf", "level": 1e-7, "delta_t": [0.01, 0.1]}
    },
    "simulate": lambda d: {
        "spectrum": {"family": "white", "level": 2e3, "omega_high": 1e6},
        "protocol": {"tau": 2e-4, "cycle_period": 1e-3, "n_cycles": 40, "n_records": 2},
        "grid": {"n_modes": 256},
    },
    "correlate": lambda d: {
        "correlate": {
            "records": str(_records_file(d / "in.records.csv")),
            "tau": 2e-4,
            "cycle_period": 1e-3,
        }
    },
    "figure2": lambda d: {"figure2": {"tau": [1e-7], "delta_t": [1e-5, 1e-3]}},
    "figure3a": lambda d: {"figure3a": {"delta_t": [1e-4, 1e-2]}},
    "figure3b": lambda d: {"figure3b": {"alpha": [1.0], "delta_t": [0.01, 0.1]}},
}


class TestArtifactContract:
    @pytest.mark.parametrize("command", sorted(CONTRACT_CASES))
    def test_atomic_sidecar_and_rerun_identical(self, tmp_path, command):
        cfg = write_config(tmp_path / "cfg.json", CONTRACT_CASES[command](tmp_path))
        runs = []
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            out = d / "out.csv"
            assert run_cli([command, "--config", cfg, "--out", out, "--seed", 4]) == 0
            assert out.exists() and (d / "out.csv.json").exists()
            assert not [p.name for p in d.iterdir() if p.name.startswith(".tmp-")]
            runs.append({p.name: p.read_bytes() for p in d.iterdir()})
        assert runs[0] == runs[1]

    def _fails_cleanly(self, capsys, argv):
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        return err

    def test_out_into_missing_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "s.json", CONTRACT_CASES["schedule"](tmp_path))
        out = tmp_path / "missing" / "sched.csv"
        err = self._fails_cleanly(capsys, ["schedule", "--config", cfg, "--out", out])
        assert str(out) in err

    def test_quadrature_failure(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise QuadratureError("panel budget exhausted")

        monkeypatch.setattr(cli, "chi_pair", fail)
        cfg = write_config(tmp_path / "c.json", CONTRACT_CASES["chi"](tmp_path))
        err = self._fails_cleanly(capsys, ["chi", "--config", cfg, "--out", tmp_path / "x.csv"])
        assert "panel budget" in err

    def test_short_curve_row_names_it(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        TestFitCommand().write_alpha_curve(curve)
        lines = curve.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:3])
        curve.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "f.json", {"fit": {"input": str(curve), "mode": "alpha"}})
        err = self._fails_cleanly(capsys, ["fit", "--config", cfg, "--out", tmp_path / "x.json"])
        assert "malformed row 3" in err


def _with(config, field, value):
    """``config`` with the dotted ``field`` set to ``value``."""
    *path, key = field.split(".")
    sec = config
    for name in path:
        sec = sec[name]
    sec[key] = value
    return config


# a JSON integer literal past the float range: float() raises
# OverflowError on it, not ValueError
_HUGE = 10**400


def _case_id(field, value):
    """``field=value`` as a test id, with ``_HUGE`` written short."""
    return f"{field}={value!r}".replace(str(_HUGE), "10**400")


# (command, count field, bad value): each count field must refuse a
# value that int() would silently truncate or coerce, or that overflows
# where it meets a float
_COUNT_BASES = {
    "simulate": CONTRACT_CASES["simulate"],
    "chi": lambda d: _chi(d, {"start": 1e-3, "stop": 1.0, "num": 3}),
    "correlate": CONTRACT_CASES["correlate"],
    "fit": lambda d: _fixed(d, {"omega_high": 1e6}),
}
_BAD_COUNTS = [
    ("simulate", "protocol.n_cycles", 50.9),
    ("simulate", "protocol.n_records", True),
    ("simulate", "protocol.lags", [1.7, 2]),
    ("simulate", "grid.n_modes", "256"),
    ("chi", "chi.delta_t.num", 3.5),
    ("correlate", "correlate.lags", [1, True]),
    ("fit", "fit.n_starts", 2.5),
    ("fit", "fit.max_eval", False),
    ("simulate", "protocol.n_cycles", _HUGE),
]


class TestCountFields:
    @pytest.mark.parametrize(
        "command, field, value", _BAD_COUNTS, ids=[_case_id(f, v) for _, f, v in _BAD_COUNTS]
    )
    def test_non_integer_exits_with_message(self, tmp_path, capsys, command, field, value):
        config = _with(_COUNT_BASES[command](tmp_path), field, value)
        cfg = write_config(tmp_path / "c.json", config)
        assert run_cli([command, "--config", cfg, "--out", tmp_path / "x.out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"'{field}'" in err
        assert not (tmp_path / "x.out").exists()

    def test_integral_floats_count(self, tmp_path):
        # 4e1 is a JSON float; as a count it is 40, with the same artifact
        runs = {}
        for name, counts in [("int", (40, 2, [1, 2], 256)), ("float", (4e1, 2.0, [1.0, 2], 2.56e2))]:
            config = CONTRACT_CASES["simulate"](tmp_path)
            for field, value in zip(
                ("protocol.n_cycles", "protocol.n_records", "protocol.lags", "grid.n_modes"), counts
            ):
                _with(config, field, value)
            out = tmp_path / f"{name}.csv"
            cfg = write_config(tmp_path / f"{name}.json", config)
            assert run_cli(["simulate", "--config", cfg, "--out", out, "--seed", 2]) == 0
            runs[name] = (out.read_bytes(), (tmp_path / f"{name}.records.csv").read_bytes())
        assert runs["int"] == runs["float"]


def _spectrum(command, spec):
    """A ``_FLOAT_BASES`` base: the ``command`` base with ``spec`` as its spectrum."""
    return command, lambda d: dict(_FLOAT_BASES[command][1](d), spectrum=dict(spec))


# (base, float field, bad value): float() would read a boolean as 0.0
# or 1.0, the correlate timing fields went through bare float(),
# Infinity is no config float, and float() overflows on _HUGE; a base is
# (command, config builder)
_FLOAT_BASES = {
    "chi": ("chi", lambda d: _chi(d, [1e-3])),
    "chi_white": _spectrum("chi", {"family": "white", "level": 2e3, "omega_high": 1e6}),
    "chi_power_law": _spectrum(
        "chi",
        {
            "family": "power_law",
            "amplitude": 1e3,
            "alpha": 1.0,
            "omega_low": 1e-2,
            "omega_high": 1e6,
        },
    ),
    "simulate": ("simulate", CONTRACT_CASES["simulate"]),
    "simulate_overhauser": _spectrum("simulate", OVERHAUSER_SPEC),
    "correlate": ("correlate", CONTRACT_CASES["correlate"]),
    "simulate_qubit": ("simulate", lambda d: dict(CONTRACT_CASES["simulate"](d), qubit={})),
    "schedule": ("schedule", CONTRACT_CASES["schedule"]),
    "schedule_cc": (
        "schedule",
        lambda d: {
            "spectrum": dict(OVERHAUSER_SPEC),
            "schedule": {"kind": "constant_contrast", "delta_t": [1e-3]},
        },
    ),
    "figure3a": ("figure3a", CONTRACT_CASES["figure3a"]),
    "figure3b": ("figure3b", CONTRACT_CASES["figure3b"]),
}
_BAD_FLOATS = [
    ("chi", "chi.delta_t", True),
    ("chi", "chi.delta_t", [True]),
    ("chi", "chi.tau", False),
    ("chi", "spectrum.omega_e", True),
    ("chi_white", "spectrum.level", math.inf),
    ("chi_power_law", "spectrum.omega_high", math.inf),
    ("simulate", "protocol.tau", True),
    ("simulate", "protocol.tau", math.inf),
    ("simulate", "protocol.cycle_period", math.inf),
    ("simulate", "grid.omega_min", True),
    ("simulate_overhauser", "spectrum.s0", math.inf),
    ("correlate", "correlate.tau", "abc"),
    ("correlate", "correlate.cycle_period", True),
    ("chi_white", "spectrum.level", _HUGE),
    ("chi", "chi.delta_t", [_HUGE]),
    # values out of range, or an unknown variant, were refused by the
    # library in messages that named no field, epsilon only after every
    # record was read, and a figure3b level of 0 divided by zero
    ("schedule", "schedule.variant", "exactt"),
    ("figure3b", "figure3b.variant", "exactt"),
    ("schedule_cc", "schedule.target", 0.0),
    ("figure3a", "figure3a.target", -2.0),
    ("correlate", "correlate.epsilon", 0.5),
    ("simulate_qubit", "qubit.readout_flip_prob", 0.5),
    ("schedule", "schedule.level", 0.0),
    ("figure3b", "figure3b.level", 0.0),
]


# (field, non-finite value, the one stderr line): NaN and +-inf are no
# config floats, refused before any quadrature
_NON_FINITE = [
    ("chi.delta_t", [math.nan, 1e-3], "config field 'chi.delta_t' has invalid element nan"),
    ("chi.tau", math.inf, "config field 'chi.tau' has invalid value inf"),
    ("qubit.omega_q", math.nan, "config field 'qubit.omega_q' has invalid value nan"),
    ("qubit.omega_q", math.inf, "config field 'qubit.omega_q' has invalid value inf"),
    ("spectrum.s0", math.inf, "config field 'spectrum.s0' has invalid value inf"),
    ("spectrum.omega_l", -math.inf, "config field 'spectrum.omega_l' has invalid value -inf"),
]


class TestFloatFields:
    @pytest.mark.parametrize(
        "base, field, value", _BAD_FLOATS, ids=[_case_id(f, v) for _, f, v in _BAD_FLOATS]
    )
    def test_non_number_exits_with_message(self, tmp_path, capsys, base, field, value):
        command, build = _FLOAT_BASES[base]
        config = _with(build(tmp_path), field, value)
        cfg = write_config(tmp_path / "c.json", config)
        assert run_cli([command, "--config", cfg, "--out", tmp_path / "x.out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"'{field}'" in err
        assert not (tmp_path / "x.out").exists()

    def test_sidecar_timing_converted_alike(self, tmp_path, capsys):
        # tau and cycle_period left out of the config come from the records
        # sidecar and pass the same converter
        records = _records_file(tmp_path / "in.records.csv")
        notes = {"tau": True, "cycle_period": 1e-3}
        (tmp_path / "in.records.csv.json").write_text(json.dumps({"notes": notes}))
        cfg = write_config(tmp_path / "c.json", {"correlate": {"records": str(records)}})
        assert run_cli(["correlate", "--config", cfg, "--out", tmp_path / "x.out"]) == 1
        assert capsys.readouterr().err == "error: config field 'correlate.tau' has invalid value True\n"

    @pytest.mark.parametrize(
        "field, value, message", _NON_FINITE, ids=[f"{f}={v!r}" for f, v, _ in _NON_FINITE]
    )
    def test_non_finite_exits_with_one_line(self, tmp_path, field, value, message):
        # in a fresh interpreter, so a numpy warning would show on stderr
        config = _with(dict(_chi(tmp_path, [1e-3]), qubit={}), field, value)
        cfg = write_config(tmp_path / "c.json", config)
        argv = ["chi", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]
        proc = subprocess.run(
            [sys.executable, "-m", "shotcorr.cli", *argv],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert (proc.returncode, proc.stderr) == (1, f"error: {message}\n")
        assert not (tmp_path / "x.csv").exists()

    def test_numbers_and_inf_pass(self, tmp_path):
        # an int, a float, the documented "inf" cutoff (also as JSON
        # Infinity) and null read as before
        rows = []
        cases = (("int", 1, "inf"), ("float", 1.0, None), ("infinity", 1.0, math.inf))
        for name, delta_t, omega_e in cases:
            spec = dict(OVERHAUSER_SPEC, omega_e=omega_e)
            cfg = write_config(
                tmp_path / f"{name}.json", {"spectrum": spec, "chi": {"tau": 5e-4, "delta_t": delta_t}}
            )
            assert run_cli(["chi", "--config", cfg, "--out", tmp_path / f"{name}.csv"]) == 0
            rows.append((tmp_path / f"{name}.csv").read_bytes())
        assert rows[0] == rows[1] == rows[2]


# run in a fresh interpreter: sys.argv[1] is a JSON list of CLI argument
# lists; prints their exit codes and the scipy modules loaded by the end
_LOADED_AFTER = """
import json, sys
from shotcorr import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _scipy_loaded_by(calls):
    argv = [sys.executable, "-c", _LOADED_AFTER, json.dumps([[str(a) for a in c] for c in calls])]
    proc = subprocess.run(argv, capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes == [0] * len(calls)
    return loaded


class TestStartupImports:
    """scipy loads at a command's first use of it, never with the package."""

    def test_import_loads_no_scipy(self):
        assert _scipy_loaded_by([]) == []

    def test_simulate_then_correlate_load_no_scipy(self, tmp_path):
        sim = write_config(tmp_path / "sim.json", CONTRACT_CASES["simulate"](tmp_path))
        corr = write_config(
            tmp_path / "corr.json",
            {"correlate": {"records": str(tmp_path / "curve.records.csv"), "lags": [1, 2]}},
        )
        calls = [
            ["simulate", "--config", sim, "--out", tmp_path / "curve.csv"],
            ["correlate", "--config", corr, "--out", tmp_path / "again.csv"],
        ]
        assert _scipy_loaded_by(calls) == []

    @pytest.mark.parametrize("command", ["chi", "discriminate"])
    def test_no_scipy_stats_outside_fit_mode(self, tmp_path, command):
        if command == "chi":
            cfg = write_config(tmp_path / "c.json", CONTRACT_CASES["chi"](tmp_path))
            call = ["chi", "--config", cfg, "--out", tmp_path / "chi.csv"]
        else:
            call = ["fit", "--config", _discriminate_config(tmp_path), "--out", tmp_path / "r.json"]
        assert not [m for m in _scipy_loaded_by([call]) if m.startswith("scipy.stats")]
