"""The four benchmark workloads: inputs from a seed, one op, output checks.

Every op of a workload runs the same ``shotcorr`` CLI calls on the same
inputs, so op times form one population.  ``build`` writes the inputs
(the set-up that ``setup_s`` times); a ``Workload`` made on a directory
that ``build`` already filled runs ops without redoing it.  ``check`` compares the outputs of
an op with values computed apart from the package (``oracle``) or with
properties the method must have, and raises ``CheckError`` on a
mismatch.
"""

import json
import math
import os

import numpy as np

import oracle

# forward: Overhauser ladder over the figure-2 delay span, and a wide 1/f band
W_L = 2.0 * math.pi * 0.1
W_E = 2.0 * math.pi * 1.0e4
COUPLING = 0.44 * 9.2740100783e-24 / 1.054571817e-34  # |g| mu_B / hbar, rad/(s T)
FWD_TAUS = [5.0e-8, 5.0e-7, 5.0e-6]
FWD_DTS = [1.0e-6, 1.0e-5, 1.0e-4, 1.0e-3, 1.0e-2, 1.0e-1, 1.0, 1.0e1, 1.0e2]
FWD_S0 = 2.8647889756541163e-09  # field rms 30 uT
PL_TAU = 1.0e-4
PL_DTS = [3.0e-3, 1.0e-2, 3.0e-2, 1.0e-1, 3.0e-1, 1.0, 3.0]
PL_AMPLITUDE = math.pi / 1.0e-7
PL_BAND = (1.0e-5, 1.0e8)
# (tau, delta_t) rows checked against the oracle: the first takes the
# delta_t < tau path, and both power-law rows reach the five-cosine tail
FWD_SAMPLE = [(5.0e-6, 1.0e-6), (5.0e-8, 1.0e-4), (5.0e-6, 1.0e-3)]
PL_SAMPLE = [(PL_TAU, 3.0e-3), (PL_TAU, 3.0e-2)]
FWD_REL_TOL = 1.0e-6

# simulate: knee-plus-cutoff spectrum, many records on the default grid
SIM_SPECTRUM = {
    "family": "overhauser",
    "s0": 4.5e3,
    "omega_l": 1.0e3,
    "omega_e": 1.0e6,
    "gamma": 1.0,
    "coupling_c": 1.0,
}
SIM_PROTOCOL = {"tau": 5.0e-4, "cycle_period": 1.0e-3, "n_cycles": 1000, "n_records": 16}
SIM_LAGS = [1, 2, 3, 5, 8]
SIM_MAX_Z = 5.0

# inverse: constant-contrast curve across the cutoff knee, gamma = 2 truth
INV_GAMMA = 2.0
INV_S0 = 1.5597184423005745e-04  # field rms 7 mT
INV_DTS = [5.0e-6, 1.0e-5, 2.0e-5, 1.0e-3]
INV_STDERR = 5.0e-4
INV_OMEGA_E_FACTOR = 1.5

# reanalyze: stored +-1 records with Markov-chain correlations
RE_RECORDS = 200
RE_CYCLES = 1000
RE_FLIP = 0.1
RE_TAU = 2.0e-4
RE_CYCLE = 1.0e-3
RE_LAGS = [1, 2, 3, 5, 8, 13]


class CheckError(Exception):
    """An op's output disagrees with the reference or a required property."""


def _seed_factor(seed, salt):
    # a spectrum-level multiplier in [0.8, 1.25): it moves every output
    # value while leaving the quadrature work of an op unchanged
    u = np.random.default_rng([seed, salt]).random()
    return float(10.0 ** (0.2 * u - 0.1))


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return header, rows


class Workload:
    """One workload's inputs, op, work count and output check."""

    name = ""

    def __init__(self, seed, d):
        self.seed = seed
        self.dir = d
        self.out_dir = os.path.join(d, "out")

    def build(self):
        """Write the inputs; the work that ``setup_s`` times."""
        os.makedirs(self.out_dir, exist_ok=True)

    def calls(self):
        """The CLI argument lists one op runs, in order."""
        raise NotImplementedError

    def outputs(self):
        """Artifacts whose bytes must repeat on every op."""
        raise NotImplementedError

    def work(self):
        """Units of work one op completes, counted from the inputs."""
        raise NotImplementedError

    def rows(self):
        """Rows of chi-type output per op (for chi_pair calls per row)."""
        return 0

    def check(self):
        """Raise ``CheckError`` unless the last op's outputs are right."""
        raise NotImplementedError

    def _path(self, name):
        return os.path.join(self.dir, name)

    def _out(self, name):
        return os.path.join(self.out_dir, name)


class Forward(Workload):
    """``shotcorr chi`` on an Overhauser ladder and a wide 1/f band."""

    name = "forward"

    def _levels(self):
        return FWD_S0 * _seed_factor(self.seed, 1), PL_AMPLITUDE * _seed_factor(self.seed, 2)

    def build(self):
        super().build()
        s0, amp = self._levels()
        _write_json(
            self._path("overhauser.json"),
            {
                "spectrum": {
                    "family": "overhauser",
                    "s0": s0,
                    "omega_l": W_L,
                    "omega_e": W_E,
                    "gamma": 1.0,
                    "coupling_c": COUPLING,
                },
                "chi": {"tau": FWD_TAUS, "delta_t": FWD_DTS},
            },
        )
        _write_json(
            self._path("power_law.json"),
            {
                "spectrum": {
                    "family": "power_law",
                    "amplitude": amp,
                    "alpha": 1.0,
                    "omega_low": PL_BAND[0],
                    "omega_high": PL_BAND[1],
                },
                "chi": {"tau": PL_TAU, "delta_t": PL_DTS},
            },
        )

    def calls(self):
        return [
            ["chi", "--config", self._path("overhauser.json"), "--out", self._out("overhauser.csv")],
            ["chi", "--config", self._path("power_law.json"), "--out", self._out("power_law.csv")],
        ]

    def outputs(self):
        return [self._out(n) for n in ("overhauser.csv", "power_law.csv")]

    def work(self):
        return self.rows()

    def rows(self):
        return len(FWD_TAUS) * len(FWD_DTS) + len(PL_DTS)

    def check(self):
        s0, amp = self._levels()
        cases = [
            (
                "overhauser.csv",
                oracle.overhauser(s0, W_L, W_E, 1.0, COUPLING),
                60.0 * W_E,
                FWD_SAMPLE,
                len(FWD_TAUS) * len(FWD_DTS),
            ),
            ("power_law.csv", oracle.power_law(amp, 1.0, *PL_BAND), PL_BAND[1], PL_SAMPLE, len(PL_DTS)),
        ]
        for fname, spectrum, hi, sample, n_rows in cases:
            header, rows = _read_csv(self._out(fname))
            if header[:5] != ["delta_t", "tau", "chi_minus", "chi_plus", "correlation"]:
                raise CheckError(f"{fname}: unexpected header {header}")
            if len(rows) != n_rows:
                raise CheckError(f"{fname}: {len(rows)} rows, expected {n_rows}")
            table = {}
            for row in rows:
                dt, tau, cm, cp, corr = (float(v) for v in row[:5])
                if not (cm >= 0.0 and cp >= 0.0 and 0.0 <= corr <= 1.0):
                    raise CheckError(f"{fname}: out-of-range row {row}")
                if abs(corr - oracle.correlator(cm, cp)) > 1e-10:
                    raise CheckError(f"{fname}: correlation does not follow the exponents {row}")
                table[(tau, dt)] = (cm, cp)
            for tau, dt in sample:
                got = table.get((tau, dt))
                if got is None:
                    raise CheckError(f"{fname}: no row for tau={tau:g}, delta_t={dt:g}")
                ref = oracle.chi_pair(spectrum, tau, dt, hi)
                for label, g, r in zip(("chi_minus", "chi_plus"), got, ref):
                    if abs(g - r) > FWD_REL_TOL * abs(r):
                        raise CheckError(
                            f"{fname}: {label}(tau={tau:g}, delta_t={dt:g}) = {g!r}, "
                            f"oracle {r!r}, beyond relative {FWD_REL_TOL:g}"
                        )


class Simulate(Workload):
    """``shotcorr simulate``: records CSV plus the estimated curve."""

    name = "simulate"

    def build(self):
        super().build()
        _write_json(
            self._path("simulate.json"),
            {"spectrum": SIM_SPECTRUM, "protocol": dict(SIM_PROTOCOL, lags=SIM_LAGS)},
        )

    def calls(self):
        return [
            [
                "simulate",
                "--config",
                self._path("simulate.json"),
                "--out",
                self._out("curve.csv"),
                "--seed",
                str(self.seed),
            ]
        ]

    def outputs(self):
        return [self._out("curve.csv"), self._out("curve.records.csv")]

    def work(self):
        return SIM_PROTOCOL["n_records"] * SIM_PROTOCOL["n_cycles"]

    def check(self):
        n_rec, n_cyc = SIM_PROTOCOL["n_records"], SIM_PROTOCOL["n_cycles"]
        rec = np.loadtxt(self._out("curve.records.csv"), delimiter=",", skiprows=1)
        if rec.shape != (n_rec * n_cyc, 3):
            raise CheckError(f"records shape {rec.shape}, expected {(n_rec * n_cyc, 3)}")
        if not np.all(np.abs(rec[:, 2]) == 1.0):
            raise CheckError("records hold outcomes other than +1 and -1")
        header, rows = _read_csv(self._out("curve.csv"))
        if header != ["delta_t_s", "tau_s", "correlation", "stderr", "n_pairs"]:
            raise CheckError(f"curve: unexpected header {header}")
        if len(rows) != len(SIM_LAGS):
            raise CheckError(f"curve: {len(rows)} rows, expected {len(SIM_LAGS)}")
        s = SIM_SPECTRUM
        spectrum = oracle.overhauser(s["s0"], s["omega_l"], s["omega_e"], s["gamma"], s["coupling_c"])
        tau = SIM_PROTOCOL["tau"]
        for lag, row in zip(SIM_LAGS, rows):
            dt, _, corr, se, n_pairs = (float(v) for v in row)
            if int(n_pairs) != n_rec * (n_cyc - lag):
                raise CheckError(f"lag {lag}: n_pairs {n_pairs}, expected {n_rec * (n_cyc - lag)}")
            ref = oracle.correlator(*oracle.chi_pair(spectrum, tau, dt, 40.0 * s["omega_e"]))
            if not se > 0 or abs(corr - ref) > SIM_MAX_Z * se:
                raise CheckError(
                    f"lag {lag}: estimate {corr:.5f} +- {se:.5f} vs dense-grid correlator "
                    f"{ref:.5f}, beyond {SIM_MAX_Z:g} stderr"
                )


class Inverse(Workload):
    """``shotcorr fit`` in discriminate mode on a constant-contrast curve."""

    name = "inverse"

    def build(self):
        super().build()
        from shotcorr import schedules
        from shotcorr.spectra import OverhauserModel

        truth = OverhauserModel(INV_S0, W_L, W_E, INV_GAMMA, COUPLING)
        spectrum = oracle.overhauser(INV_S0, W_L, W_E, INV_GAMMA, COUPLING)
        noise = np.random.default_rng([self.seed, 3]).normal(0.0, INV_STDERR, len(INV_DTS))
        lines = ["delta_t_s,tau_s,correlation,stderr,n_pairs"]
        for dt, eps in zip(INV_DTS, noise):
            tau = schedules.tau_constant_contrast(truth, dt, target=2.0)
            clean = oracle.correlator(*oracle.chi_pair(spectrum, tau, dt, 60.0 * W_E))
            lines.append(f"{dt:.12g},{tau:.12g},{clean + eps:.12g},{INV_STDERR:.12g},100000")
        with open(self._path("curve.csv"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        _write_json(
            self._path("fit.json"),
            {
                "fit": {
                    "input": self._path("curve.csv"),
                    "mode": "discriminate",
                    "omega_l": W_L,
                    "coupling_c": COUPLING,
                }
            },
        )

    def calls(self):
        return [["fit", "--config", self._path("fit.json"), "--out", self._out("result.json")]]

    def outputs(self):
        return [self._out("result.json")]

    def work(self):
        return len(INV_DTS) * 2

    def check(self):
        with open(self._out("result.json")) as fh:
            result = json.load(fh)["result"]
        if float(result["best_gamma"]) != INV_GAMMA:
            raise CheckError(f"picked gamma {result['best_gamma']}, truth {INV_GAMMA:g}")
        if result["indeterminate"]:
            raise CheckError(f"decision indeterminate, delta_chi2 {result['delta_chi2']:.3g}")
        best = result["fits"][str(INV_GAMMA)]["values"]
        ratio = best["omega_e"] / W_E
        if not 1.0 / INV_OMEGA_E_FACTOR <= ratio <= INV_OMEGA_E_FACTOR:
            raise CheckError(
                f"fitted omega_e {best['omega_e']:.4g} is {ratio:.3g} x truth, "
                f"outside a factor {INV_OMEGA_E_FACTOR:g}"
            )


class Reanalyze(Workload):
    """``shotcorr correlate`` on a large stored records CSV."""

    name = "reanalyze"

    def _outcomes(self):
        rng = np.random.default_rng([self.seed, 4])
        flips = rng.random((RE_RECORDS, RE_CYCLES)) < RE_FLIP
        start = np.where(rng.random((RE_RECORDS, 1)) < 0.5, 1, -1)
        # each record is a +-1 Markov chain: correlation (1 - 2 p)^lag
        return (start * np.cumprod(np.where(flips, -1, 1), axis=1)).astype(np.int8)

    def build(self):
        super().build()
        out = self._outcomes()
        idx = np.tile(np.arange(RE_CYCLES), RE_RECORDS)
        t = [f"{v:.12g}" for v in np.arange(RE_CYCLES) * RE_CYCLE + RE_TAU / 2.0]
        lines = ["cycle_index,t_center_s,outcome"]
        lines += [f"{i},{t[i]},{o}" for i, o in zip(idx.tolist(), out.ravel().tolist())]
        with open(self._path("records.csv"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        _write_json(
            self._path("correlate.json"),
            {
                "correlate": {
                    "records": self._path("records.csv"),
                    "tau": RE_TAU,
                    "cycle_period": RE_CYCLE,
                    "lags": RE_LAGS,
                }
            },
        )

    def calls(self):
        return [["correlate", "--config", self._path("correlate.json"), "--out", self._out("curve.csv")]]

    def outputs(self):
        return [self._out("curve.csv")]

    def work(self):
        return RE_RECORDS * RE_CYCLES

    def check(self):
        raw = np.loadtxt(self._path("records.csv"), delimiter=",", skiprows=1, usecols=2)
        x = raw.reshape(RE_RECORDS, RE_CYCLES)
        header, rows = _read_csv(self._out("curve.csv"))
        if header != ["delta_t_s", "tau_s", "correlation", "stderr", "n_pairs"]:
            raise CheckError(f"curve: unexpected header {header}")
        if len(rows) != len(RE_LAGS):
            raise CheckError(f"curve: {len(rows)} rows, expected {len(RE_LAGS)}")
        for lag, row in zip(RE_LAGS, rows):
            prod = x[:, :-lag] * x[:, lag:]
            ref = prod.mean()
            corr, n_pairs = float(row[2]), int(row[4])
            if n_pairs != prod.size:
                raise CheckError(f"lag {lag}: n_pairs {n_pairs}, numpy counts {prod.size}")
            # the CSV carries 12 significant digits
            if abs(corr - ref) > 1e-11 * max(1.0, abs(ref)):
                raise CheckError(f"lag {lag}: correlation {corr!r}, numpy mean product {ref!r}")


WORKLOADS = {w.name: w for w in (Forward, Simulate, Inverse, Reanalyze)}
