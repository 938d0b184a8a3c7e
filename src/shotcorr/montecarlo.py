"""Monte Carlo simulation of repeated single-shot phase measurements.

The detuning trajectory is a superposition of harmonic modes with
independent Gaussian quadrature amplitudes, one mode per logarithmic
frequency cell, so beta(t) is a stationary Gaussian process whose
spectrum matches the requested model on the grid.  The phase a shot
accumulates over its evolution window is integrated *exactly* per mode
(the window turns a mode of frequency omega into an amplitude factor
2 sin(omega tau / 2) / omega), so there is no time-step error anywhere.

A below-grid "DC" mode carries the variance of all frequencies under the
grid floor as a per-record constant offset; it cancels in difference
quantities exactly as very slow noise should.

Each record draws fresh mode amplitudes (fresh realization), and shots
within a record share the trajectory, which reproduces both the
single-shot contrast and the shot-shot correlations of the continuous
process.  Randomness is split into three independent streams per record
(trajectory, readout projection, readout flips) so that, e.g., enabling
flips does not perturb the trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import csvio
from .correlator import QubitParams, correct_fidelity
from .numerics import require_finite
from .spectra import SpectrumModel

__all__ = [
    "GridSpec",
    "ModeSet",
    "Protocol",
    "ShotRecord",
    "CorrelationCurve",
    "synthesize_modes",
    "accumulated_phases",
    "accumulated_phases_independent",
    "run_record",
    "run_protocol",
    "estimate_autocorrelation",
    "correlation_curve",
    "records_to_csv",
    "records_from_csv",
]

_RECORDS_HEADER = ("cycle_index", "t_center_s", "outcome")
_CURVE_HEADER = ("delta_t_s", "tau_s", "correlation", "stderr", "n_pairs")


@dataclass(frozen=True)
class GridSpec:
    """Frequency grid for the harmonic synthesis.

    n_modes logarithmic cells between omega_min and omega_max; leave the
    bounds as None to derive them from the spectrum and record length:
    the floor sits two decades under both the spectral knee and the
    inverse record duration (so the slowest resolved mode still dephases
    across the record), the ceiling at the spectrum's negligibility
    bound.
    """

    n_modes: int = 4096
    omega_min: float | None = None
    omega_max: float | None = None

    def __post_init__(self):
        given = [k for k in ("omega_min", "omega_max") if getattr(self, k) is not None]
        require_finite(self, *given)
        if self.n_modes < 256:
            raise ValueError("n_modes must be at least 256")
        if self.omega_min is not None and not self.omega_min > 0:
            raise ValueError("omega_min must be positive")
        if (
            self.omega_min is not None
            and self.omega_max is not None
            and not self.omega_max > self.omega_min
        ):
            raise ValueError("omega_max must exceed omega_min")

    def resolve(self, spectrum: SpectrumModel, duration: float):
        lo = self.omega_min
        if lo is None:
            lo = min(spectrum.knee * 1e-2, 1e-2 / duration)
        hi = self.omega_max
        if hi is None:
            hi = min(spectrum.hard_max, spectrum.suggested_omega_max(1e-12))
        if not hi > lo:
            raise ValueError("resolved grid is empty; check omega bounds")
        return lo, hi

    def cells(self, spectrum: SpectrumModel, duration: float):
        """Grid floor, mode frequencies and cell widths of the resolved grid.

        The frequencies are the cells' log midpoints after a leading 0.0,
        the DC mode; the widths belong to the cells alone.
        """
        lo, hi = self.resolve(spectrum, duration)
        if (hi / lo) ** (1.0 / self.n_modes) > 1.5:
            raise ValueError(
                "frequency grid too coarse: adjacent-mode ratio "
                f"{(hi / lo) ** (1.0 / self.n_modes):.3g} > 1.5; raise n_modes"
            )
        edges = np.geomspace(lo, hi, self.n_modes + 1)
        omega = np.concatenate(([0.0], np.sqrt(edges[:-1] * edges[1:])))
        return lo, omega, np.diff(edges)


def _window_gain(w, tau):
    """Phase per unit mode amplitude over a window: 2 sin(omega tau / 2) / omega, tau at 0."""
    return np.where(w > 0, 2.0 * np.sin(w * tau / 2.0) / np.where(w > 0, w, 1.0), tau)


@dataclass(frozen=True, eq=False)
class ModeSet:
    """One realization of the harmonic synthesis.

    beta(t) = dc + sum_k amp_k * (u_k cos(omega_k t) + v_k sin(omega_k t))
    with u, v standard normal.  ``amp`` holds the per-mode rms; the DC
    term is a zero-frequency mode in the same arrays.
    """

    omega: np.ndarray
    amp: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def beta(self, t):
        """Trajectory values; reference implementation, O(modes) per point."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        phase = self.omega[:, None] * t[None, :]
        out = (self.amp * self.u) @ np.cos(phase) + (self.amp * self.v) @ np.sin(phase)
        return out if out.size > 1 else float(out[0])

    def window_phase(self, t_start, tau):
        """Exact integral of beta over [t_start, t_start + tau] per mode sum."""
        t_start = np.atleast_1d(np.asarray(t_start, dtype=float))
        w = self.omega[:, None]
        gain = _window_gain(w, tau)
        center = t_start[None, :] + tau / 2.0
        out = (self.amp * self.u) @ (gain * np.cos(w * center)) + (self.amp * self.v) @ (
            gain * np.sin(w * center)
        )
        return out if out.size > 1 else float(out[0])


@dataclass(frozen=True)
class Protocol:
    """Timing of one record: n_cycles shots, one every cycle_period seconds.

    Each cycle holds the evolution window (tau), the readout, and any
    dead time; cycle_period is also the shot separation delta_t at lag 1.
    """

    tau: float
    cycle_period: float
    n_cycles: int
    qubit: QubitParams = field(default_factory=QubitParams)

    def __post_init__(self):
        require_finite(self, "tau", "cycle_period")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if not self.cycle_period >= self.tau + self.qubit.dead_time:
            raise ValueError(
                "cycle_period must cover tau plus dead_time "
                f"({self.cycle_period} < {self.tau} + {self.qubit.dead_time})"
            )
        if self.n_cycles < 2:
            raise ValueError("n_cycles must be at least 2")

    @property
    def duration(self) -> float:
        return self.n_cycles * self.cycle_period


@dataclass(frozen=True, eq=False)
class ShotRecord:
    """Outcomes (+1/-1) of one simulated record."""

    outcomes: np.ndarray
    tau: float
    cycle_period: float

    def __post_init__(self):
        out = np.asarray(self.outcomes)
        if out.ndim != 1:
            raise ValueError("outcomes must be 1-d")
        object.__setattr__(self, "outcomes", out.astype(np.int8))

    def __len__(self):
        return len(self.outcomes)

    def t_center(self):
        return np.arange(len(self.outcomes)) * self.cycle_period + self.tau / 2.0


def records_to_csv(records: list[ShotRecord], path) -> None:
    """Write a batch of records to one CSV; cycle_index restarts per record.

    The ``cycle_index,t_center_s,`` text of a row depends only on the
    record's length, tau and cycle period, so it is formatted once per
    such protocol and each record adds its outcomes.
    """
    prefixes = {}
    lines = []
    for rec in records:
        key = (len(rec), rec.tau, rec.cycle_period)
        if key not in prefixes:
            prefixes[key] = [
                f"{i},{csvio.format_cell(t)}," for i, t in enumerate(rec.t_center().tolist())
            ]
        lines += map(str.__add__, prefixes[key], map(str, rec.outcomes.tolist()))
    csvio.write_lines(path, _RECORDS_HEADER, lines)


def _outcome(cell: str) -> int:
    value = int(cell)
    if value not in (-1, 1):
        raise ValueError("outcome must be +1 or -1")
    return value


def records_from_csv(path, tau: float, cycle_period: float) -> list[ShotRecord]:
    """Read a batch CSV back; record boundaries are cycle_index resets."""
    idx, _, outcomes = csvio.read_columns(
        path, dict(zip(_RECORDS_HEADER, (int, None, _outcome)))
    )
    if not outcomes:
        raise ValueError(f"{path}: no outcome rows")
    starts = np.flatnonzero(np.diff(idx) <= 0) + 1
    return [
        ShotRecord(chunk, tau, cycle_period)
        for chunk in np.split(np.array(outcomes), starts)
    ]


def _mode_rms(spectrum: SpectrumModel, grid: GridSpec, duration: float):
    """Frequencies and rms amplitudes of the resolved grid's modes, DC first.

    Cell rms come from the two-sided convention
    <beta^2> = (1/pi) integral S d omega: amp_k^2 = S(omega_k) dw_k / pi
    at the cell's log midpoint.  Frequencies below the grid floor enter
    as a DC mode with the floor's share of the variance.  Both arrays
    are read-only, since every record of a protocol shares them.
    """
    lo, omega, widths = grid.cells(spectrum, duration)
    amp = np.sqrt(spectrum.evaluate(omega[1:]) * widths / math.pi)
    # below-grid variance: S is flat under the floor by construction
    dc_amp = math.sqrt(spectrum.evaluate(lo) * lo / math.pi)
    amp = np.concatenate(([dc_amp], amp))
    omega.flags.writeable = amp.flags.writeable = False
    return omega, amp


def synthesize_modes(
    spectrum: SpectrumModel, grid: GridSpec, duration: float, rng, rms=None
) -> ModeSet:
    """Draw one trajectory realization on the resolved grid.

    The mode amplitudes are standard normal draws scaled by the cell rms
    of ``_mode_rms``; ``rms`` is its result when the caller holds it.
    """
    omega, amp = rms if rms is not None else _mode_rms(spectrum, grid, duration)
    u = rng.standard_normal(len(omega))
    v = rng.standard_normal(len(omega))
    return ModeSet(omega, amp, u, v)


def _phase_table(omega: np.ndarray, protocol: Protocol):
    """cos and sin of omega_k t at every window centre t = t0_s + j cycle_period.

    Blocks of B cycles, B the least power of two with B^2 >= n_cycles:
    ``(c0, s0, off)`` hold cos and sin of omega_k t0_s per block start s,
    shape (n_blocks, modes) each, and [cos; sin] of omega_k j cycle_period
    per in-block offset j, shape (2 modes, B).  They depend on the grid
    and the protocol's timing alone, so every record of a protocol shares them.
    """
    n, dt = protocol.n_cycles, protocol.cycle_period
    block = 1 << math.isqrt(n - 1).bit_length()
    arg = (np.arange(0, n, block) * dt + protocol.tau / 2.0)[:, None] * omega[None, :]
    c0 = np.cos(arg)
    s0 = np.sin(arg, out=arg)
    arg = omega[:, None] * (np.arange(block) * dt)[None, :]
    off = np.empty((2 * len(omega), block))
    np.cos(arg, out=off[: len(omega)])
    np.sin(arg, out=off[len(omega) :])
    # shared by every record of a protocol: no reader may write to it
    c0.flags.writeable = s0.flags.writeable = off.flags.writeable = False
    return c0, s0, off


def _protocol_share(spectrum, protocol, grid, independent_cycles):
    """``(rms, table)`` for every record of a protocol; no table for independent cycles."""
    rms = _mode_rms(spectrum, grid, protocol.duration)
    table = None if independent_cycles else _phase_table(rms[0], protocol)
    return rms, table


def accumulated_phases(modes: ModeSet, protocol: Protocol, table=None) -> np.ndarray:
    """Phase integral of every cycle's evolution window, exactly per mode.

    cos(w (t0_s + off)) = cos(w t0_s) cos(w off) - sin(w t0_s) sin(w off),
    likewise sin: the record's weighted block-start terms, one (n_blocks,
    2 modes) matrix, times the (2 modes, B) offset table give every phase
    in one matrix-matrix product.  ``table`` is ``_phase_table`` for
    ``modes.omega`` and the protocol, as ``run_protocol`` shares it; it is
    built here when None.
    """
    w = modes.omega
    gain = _window_gain(w, protocol.tau)
    bu = modes.amp * gain * modes.u
    bv = modes.amp * gain * modes.v

    c0, s0, off = table if table is not None else _phase_table(w, protocol)
    weights = np.empty((len(c0), 2 * len(w)))
    lo, hi = weights[:, : len(w)], weights[:, len(w) :]
    tmp = np.empty_like(c0)
    np.multiply(bu, c0, out=lo)
    lo += np.multiply(bv, s0, out=tmp)
    np.multiply(bv, c0, out=hi)
    hi -= np.multiply(bu, s0, out=tmp)
    return (weights @ off).ravel()[: protocol.n_cycles]


def accumulated_phases_independent(modes: ModeSet, protocol: Protocol, rng) -> np.ndarray:
    """Diagnostics variant: every cycle sees a fresh trajectory.

    A fresh Gaussian trajectory per cycle makes the window phase an exact
    zero-mean normal with variance sum((amp_k gain_k)^2) and removes all
    cycle-to-cycle correlation, so one scaled draw per cycle reproduces
    the per-cycle-independent process without rebuilding trajectories.
    """
    gain = _window_gain(modes.omega, protocol.tau)
    sigma = float(np.sqrt(np.sum((modes.amp * gain) ** 2)))
    return sigma * rng.standard_normal(protocol.n_cycles)


def run_record(
    spectrum: SpectrumModel,
    protocol: Protocol,
    grid: GridSpec,
    seed: int,
    record_index: int = 0,
    independent_cycles: bool = False,
    shared=None,
) -> ShotRecord:
    """Simulate one record; deterministic in (seed, record_index).

    Three independent substreams per record keep the trajectory, the
    readout projection and the readout flips decoupled.  With
    ``independent_cycles`` every cycle draws its own trajectory, a
    diagnostics mode that deliberately destroys the delay dependence.
    ``shared`` is the protocol's mode rms and phase table as
    ``run_protocol`` builds them once for all its records; it is built
    here when None and does not change the outcomes.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(record_index,))
    traj_ss, readout_ss, flip_ss = ss.spawn(3)
    rms, table = shared or _protocol_share(spectrum, protocol, grid, independent_cycles)
    rng_traj = np.random.Generator(np.random.PCG64(traj_ss))
    modes = synthesize_modes(spectrum, grid, protocol.duration, rng_traj, rms)
    if independent_cycles:
        phases = accumulated_phases_independent(modes, protocol, rng_traj)
    else:
        phases = accumulated_phases(modes, protocol, table)

    qubit = protocol.qubit
    p_plus = 0.5 * (1.0 + np.cos(qubit.omega_q * protocol.tau + phases))
    rng_read = np.random.Generator(np.random.PCG64(readout_ss))
    outcomes = np.where(rng_read.random(len(phases)) < p_plus, 1, -1).astype(np.int8)
    if qubit.readout_flip_prob > 0:
        rng_flip = np.random.Generator(np.random.PCG64(flip_ss))
        flips = rng_flip.random(len(phases)) < qubit.readout_flip_prob
        outcomes = np.where(flips, -outcomes, outcomes).astype(np.int8)
    return ShotRecord(outcomes, protocol.tau, protocol.cycle_period)


def run_protocol(
    spectrum: SpectrumModel,
    protocol: Protocol,
    n_records: int,
    seed: int,
    grid: GridSpec | None = None,
    independent_cycles: bool = False,
) -> list[ShotRecord]:
    """Simulate ``n_records`` independent records, in order.

    The mode rms and the phase table are built once here and read, never
    written, by every record.
    """
    if n_records < 1:
        raise ValueError("n_records must be positive")
    grid = grid if grid is not None else GridSpec()
    shared = _protocol_share(spectrum, protocol, grid, independent_cycles)
    return [
        run_record(spectrum, protocol, grid, seed, i, independent_cycles, shared)
        for i in range(n_records)
    ]


def _blocking_stderr(x: np.ndarray) -> float:
    """Flyvbjerg-Petersen blocking estimate for a correlated series."""
    x = np.asarray(x, dtype=float)
    best = 0.0
    while len(x) >= 16:
        n = len(x)
        se = math.sqrt(np.var(x, ddof=1) / n)
        best = max(best, se)
        if n % 2:
            x = x[:-1]
        x = 0.5 * (x[0::2] + x[1::2])
    return best


def estimate_autocorrelation(
    records: list[ShotRecord], lags, correct_epsilon: float | None = None
):
    """Mean outcome product at each cycle lag, with honest uncertainties.

    Returns (correlation, stderr, n_pairs) arrays over the lags.  With
    eight or more records the spread of per-record means sets the error
    bar (records are independent by construction); fewer records fall
    back to blocking on the product series.  ``correct_epsilon`` divides
    out a known readout flip probability.
    """
    lags = np.asarray(lags)
    if lags.ndim != 1 or len(lags) == 0:
        raise ValueError("lags must be a nonempty 1-d sequence")
    bad = [m for m in lags.tolist() if not float(m).is_integer()]
    if bad:
        raise ValueError(f"lags must be whole numbers of cycles, got {bad}")
    lags = lags.astype(int)
    if np.any(lags < 1):
        raise ValueError("lags must be >= 1")
    if not records:
        raise ValueError("no records given")
    shortest = min(len(r) for r in records)
    if np.any(lags >= shortest):
        raise ValueError("lag exceeds record length")

    corr = np.empty(len(lags))
    stderr = np.empty(len(lags))
    n_pairs = np.empty(len(lags), dtype=int)
    for j, m in enumerate(lags):
        means = []
        pairs = 0
        prods = []
        for rec in records:
            p = rec.outcomes[:-m].astype(float) * rec.outcomes[m:].astype(float)
            means.append(p.mean())
            pairs += len(p)
            prods.append(p)
        means = np.asarray(means)
        corr[j] = means.mean()
        n_pairs[j] = pairs
        if len(records) >= 8:
            stderr[j] = means.std(ddof=1) / math.sqrt(len(means))
        else:
            per_rec = [_blocking_stderr(p) for p in prods]
            stderr[j] = math.sqrt(sum(se**2 for se in per_rec)) / len(records)
    if correct_epsilon:
        corr = correct_fidelity(corr, correct_epsilon)
        stderr = correct_fidelity(stderr, correct_epsilon)
    return corr, stderr, n_pairs


@dataclass(frozen=True, eq=False)
class CorrelationCurve:
    """Estimated correlator versus shot separation, with uncertainties."""

    delta_t: np.ndarray
    tau: np.ndarray
    correlation: np.ndarray
    stderr: np.ndarray
    n_pairs: np.ndarray

    def to_csv(self, path):
        rows = zip(self.delta_t, self.tau, self.correlation, self.stderr, self.n_pairs)
        csvio.write_csv(path, _CURVE_HEADER, rows)

    @classmethod
    def from_csv(cls, path):
        # extra trailing columns (e.g. uncorrected estimates) are ignored
        cols = csvio.read_columns(path, dict.fromkeys(_CURVE_HEADER, float), prefix=True)
        return cls(*(np.asarray(c) for c in cols[:4]), np.asarray(cols[4], dtype=int))


def correlation_curve(
    records: list[ShotRecord], lags, correct_epsilon: float | None = None
) -> CorrelationCurve:
    """Package the lag estimates of a batch of same-protocol records."""
    if not records:
        raise ValueError("no records given")
    tau = records[0].tau
    dt = records[0].cycle_period
    for rec in records:
        if rec.tau != tau or rec.cycle_period != dt:
            raise ValueError("records mix different protocols")
    corr, stderr, n_pairs = estimate_autocorrelation(records, lags, correct_epsilon)
    # whole numbers: estimate_autocorrelation refuses any other lag
    lags = np.asarray(lags, dtype=int)
    return CorrelationCurve(lags * dt, np.full(len(lags), tau), corr, stderr, n_pairs)
