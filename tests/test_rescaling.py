"""Time-rescaling invariance of ``simulate``, run through ``cli.main``.

Rescale time by k: tau -> tau / k, the cycle period -> T / k, and
S(omega) -> k S(omega / k).  Every phase distribution is unchanged, and
so are the shot outcomes, since rounding-level phase differences move a
thresholded outcome with negligible probability: the records' outcome
column and the curve's correlation and stderr keep their bytes.  Each
family scales by its law: Overhauser s0, omega_l and omega_e times k;
power-law amplitude times k^(1 + alpha) and both edges times k.
"""

import csv
import json
import math

import pytest

from shotcorr.cli import main

KS = [2.0 * math.pi, 3.0, 1.0e3, 1.0e-3]

# (spectrum at k = 1, its law at k, tau)
FAMILIES = {
    "overhauser": (
        {"family": "overhauser", "s0": 4.5e3, "omega_l": 1.0e3, "omega_e": 1.0e6, "gamma": 1.0,
         "coupling_c": 1.0},
        lambda s, k: dict(s, s0=s["s0"] * k, omega_l=s["omega_l"] * k, omega_e=s["omega_e"] * k),
        5.0e-4,
    ),
    "power_law": (
        {"family": "power_law", "amplitude": 5.0e6, "alpha": 1.5, "omega_low": 1.0e2,
         "omega_high": 1.0e7},
        lambda s, k: dict(
            s,
            amplitude=s["amplitude"] * k ** (1.0 + s["alpha"]),
            omega_low=s["omega_low"] * k,
            omega_high=s["omega_high"] * k,
        ),
        2.0e-4,
    ),
}


def _simulate(tmp_path, name, spectrum, tau, cycle_period):
    protocol = {"tau": tau, "cycle_period": cycle_period, "n_cycles": 1000, "n_records": 16}
    cfg = tmp_path / f"{name}.json"
    protocol["lags"] = [1, 2, 3, 5, 8]
    cfg.write_text(json.dumps({"spectrum": spectrum, "protocol": protocol}))
    out = tmp_path / f"{name}.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
    with open(out, newline="") as fh:
        curve = [(r["correlation"], r["stderr"]) for r in csv.DictReader(fh)]
    with open(tmp_path / f"{name}.records.csv", newline="") as fh:
        outcomes = [r["outcome"] for r in csv.DictReader(fh)]
    return curve, outcomes


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_simulate_invariant_under_time_rescaling(tmp_path, family):
    spectrum, law, tau = FAMILIES[family]
    cycle_period = 1.0e-3
    ref_curve, ref_outcomes = _simulate(tmp_path, "ref", spectrum, tau, cycle_period)
    assert len(ref_outcomes) == 16000 and set(ref_outcomes) == {"1", "-1"}
    for i, k in enumerate(KS):
        curve, outcomes = _simulate(tmp_path, f"k{i}", law(spectrum, k), tau / k, cycle_period / k)
        assert outcomes == ref_outcomes, f"k = {k}"
        assert curve == ref_curve, f"k = {k}"
