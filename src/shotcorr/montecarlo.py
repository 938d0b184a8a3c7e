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
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import csvio
from .correlator import QubitParams, correct_fidelity
from .numerics import ParamError, require_finite
from .spectra import SpectrumModel, window_top

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
_BAD_OUTCOME = "outcome must be +1 or -1"


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
            raise ParamError("n_modes", "n_modes must be at least 256")
        if self.omega_min is not None and not self.omega_min > 0:
            raise ParamError("omega_min", "omega_min must be positive")
        if (
            self.omega_min is not None
            and self.omega_max is not None
            and not self.omega_max > self.omega_min
        ):
            raise ParamError("omega_max", "omega_max must exceed omega_min")

    def resolve(self, spectrum: SpectrumModel, duration: float):
        lo = self.omega_min
        if lo is None:
            lo = min(spectrum.knee * 1e-2, 1e-2 / duration)
        hi = self.omega_max
        if hi is None:
            hi = window_top(spectrum, 1e-12)
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
            raise ParamError("tau", "tau must be positive")
        if not self.cycle_period >= self.tau + self.qubit.dead_time:
            raise ParamError(
                "cycle_period",
                "cycle_period must cover tau plus dead_time "
                f"({self.cycle_period} < {self.tau} + {self.qubit.dead_time})"
            )
        if self.n_cycles < 2:
            raise ParamError("n_cycles", "n_cycles must be at least 2")

    @property
    def duration(self) -> float:
        return self.n_cycles * self.cycle_period


@dataclass(frozen=True, eq=False)
class ShotRecord:
    """Outcomes (+1/-1) of one record, taken every cycle_period with tau <= cycle_period."""

    outcomes: np.ndarray
    tau: float
    cycle_period: float

    def __post_init__(self):
        require_finite(self, "tau", "cycle_period")
        if not self.tau > 0:
            raise ParamError("tau", "tau must be positive")
        if not self.cycle_period >= self.tau:
            raise ParamError("cycle_period", "cycle_period must be at least tau")
        out = np.asarray(self.outcomes)
        if out.ndim != 1:
            raise ValueError("outcomes must be 1-d")
        if not ((out == 1) | (out == -1)).all():
            raise ValueError(_BAD_OUTCOME)
        object.__setattr__(self, "outcomes", out.astype(np.int8))

    def __len__(self):
        return len(self.outcomes)

    def t_center(self):
        return np.arange(len(self.outcomes)) * self.cycle_period + self.tau / 2.0


def records_to_csv(records: list[ShotRecord], path) -> None:
    """Write a batch of records to one CSV; cycle_index restarts per record.

    A row's text depends only on the record's length, tau and cycle
    period and on its outcome, which ``ShotRecord`` holds to +1 or -1.
    So each such protocol gets one (2, n) object array of finished
    lines, ``i,t,-1`` above ``i,t,1``, and a record picks its lines from
    its two rows with one selection on ``outcomes > 0``.
    """
    tables = {}
    lines = []
    for rec in records:
        key = (len(rec), rec.tau, rec.cycle_period)
        if key not in tables:
            t_center = rec.t_center().tolist()
            prefixes = [f"{i},{csvio.format_cell(t)}," for i, t in enumerate(t_center)]
            tables[key] = np.array([[p + s for p in prefixes] for s in ("-1", "1")], dtype=object)
        down, up = tables[key]
        lines += np.where(rec.outcomes > 0, up, down).tolist()
    csvio.write_lines(path, _RECORDS_HEADER, lines)


def _outcome(cell: str) -> int:
    value = int(cell)
    if value not in (-1, 1):
        raise ValueError(_BAD_OUTCOME)
    return value


def _records_per_cell(path):
    """``(cycle_index, outcome)`` lists of a records CSV, one converter call per cell."""
    idx, _, outcomes = csvio.read_columns(
        path, dict(zip(_RECORDS_HEADER, (int, None, _outcome)))
    )
    if not outcomes:
        raise ValueError(f"{path}: no outcome rows")
    return idx, outcomes


def _records_columns(path):
    """``(cycle_index, outcome)`` int64 arrays of a records CSV, or None.

    ``np.loadtxt`` parses the two read columns, quotes as ``csv`` reads
    them and a ``#`` line as data.  None leaves the file to
    ``_records_per_cell``, which names what is wrong: a header, cell or
    row numpy refuses, no rows, or an outcome other than +1 or -1.
    """
    try:
        with open(path) as fh:
            if [h.strip() for h in fh.readline().strip().split(",")] != list(_RECORDS_HEADER):
                return None
            with warnings.catch_warnings():
                # numpy warns on a file without rows, which returns None below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(
                    fh,
                    delimiter=",",
                    usecols=(0, 2),
                    dtype=np.int64,
                    comments=None,
                    quotechar='"',
                    ndmin=2,
                )
    except ValueError:
        return None
    idx, outcomes = data.T
    if not len(outcomes) or not ((outcomes == 1) | (outcomes == -1)).all():
        return None
    return idx, outcomes


def records_from_csv(path, tau: float, cycle_period: float) -> list[ShotRecord]:
    """Read a batch CSV back: each record's cycle_index runs 0, 1, 2, ...

    Any other index would pair shots at the wrong lag, so it is refused.
    """
    idx, outcomes = _records_columns(path) or _records_per_cell(path)
    idx = np.asarray(idx)
    # row 0 and each row whose index is not one more than the last: each must start a record at 0
    starts = np.concatenate(([0], np.flatnonzero(np.diff(idx) != 1) + 1))
    bad = starts[idx[starts] != 0]
    if len(bad):
        k = bad[0]
        with open(path) as fh:  # the line of data row k: the readers skip blank lines
            line = [i for i, text in enumerate(fh, start=1) if text.strip()][k + 1]
        want = f"{idx[k - 1] + 1}, or 0 to start a record" if k else "0"
        raise ValueError(f"{path}: row {line}: cycle_index {idx[k]}, expected {want}")
    return [ShotRecord(chunk, tau, cycle_period) for chunk in np.split(np.array(outcomes), starts[1:])]


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


def _fill_phasors(out, omega, t0, step):
    """Fill ``out`` (rows, modes) with exp(i omega (t0 + j step)) at row j.

    Row 0 and exp(i omega step) come from cos and sin of their
    arguments; rows [k, 2k) are rows [0, k) times exp(i omega k step),
    the k-th power found by repeated squaring.  That power carries k
    times the rounding of omega step, the size of the rounding of
    omega k step, so a phasor's error is that of cos and sin of its own
    argument plus one rounding per product, about log2(rows) of them.
    """
    arg = omega * t0
    np.cos(arg, out=out[0].real)
    np.sin(arg, out=out[0].imag)
    arg = omega * step
    power = np.empty(len(omega), dtype=complex)
    np.cos(arg, out=power.real)
    np.sin(arg, out=power.imag)
    k = 1
    while k < len(out):
        m = min(k, len(out) - k)
        np.multiply(out[:m], power, out=out[k : k + m])
        k *= 2
        if k < len(out):
            np.multiply(power, power, out=power)


def _phase_table(omega: np.ndarray, protocol: Protocol):
    """Block-start phasors, in-block offsets and window gains of a protocol.

    Window centres are t = t0_s + j cycle_period, in blocks of B cycles,
    B the least power of two with B^2 >= n_cycles.  ``(e0, off, gain)``:
    ``e0`` holds exp(i omega_k t0_s) per block start s, complex, shape
    (n_blocks, modes); ``off`` holds cos and -sin of omega_k j cycle_period
    per in-block offset j, rows interleaved per mode (cos, then -sin),
    shape (2 modes, B); ``gain`` is ``_window_gain`` of every mode.  They
    depend on the grid and the protocol alone, so every record of a
    protocol shares them.

    Both grids come from ``_fill_phasors``: cos and sin are taken of the
    first row's and the step's arguments per axis, and the other rows are
    doubling products, so the table evaluates O(modes) trig arguments,
    not O(modes (n_blocks + B)).  ``off`` is the transpose of the (B,
    modes) complex array of exp(-i omega_k j cycle_period) read as
    floats, whose (Re, Im) pairs already sit in the interleaved order.

    Each phasor still carries only the rounding of its argument omega t,
    though not the same rounding as cos and sin of omega t.  On the
    default grid of the benchmark's Overhauser spectrum, against a
    long-double reference, the largest phasor error was 1.8e-9 with
    products against 3.9e-9 with cos and sin of every argument at 1000
    cycles, 3.5e-8 against 9.7e-8 at 20 000 and 1.8e-7 against 5.6e-7 at
    100 000.
    """
    n, dt = protocol.n_cycles, protocol.cycle_period
    block = 1 << math.isqrt(n - 1).bit_length()
    e0 = np.empty((-(-n // block), len(omega)), dtype=complex)
    _fill_phasors(e0, omega, protocol.tau / 2.0, block * dt)
    z = np.empty((block, len(omega)), dtype=complex)
    # exp(-i omega j dt): each (Re, Im) pair is the (cos, -sin) an offset holds
    _fill_phasors(z, omega, 0.0, -dt)
    off = z.view(float).reshape(block, 2 * len(omega)).T
    gain = _window_gain(omega, protocol.tau)
    # shared by every record of a protocol: no reader may write to it
    e0.flags.writeable = off.flags.writeable = gain.flags.writeable = False
    return e0, off, gain


def _protocol_share(spectrum, protocol, grid, independent_cycles):
    """``(rms, table)`` for every record of a protocol; no table for independent cycles."""
    rms = _mode_rms(spectrum, grid, protocol.duration)
    table = None if independent_cycles else _phase_table(rms[0], protocol)
    return rms, table


def accumulated_phases(modes: ModeSet, protocol: Protocol, table=None) -> np.ndarray:
    """Phase integral of every cycle's evolution window, exactly per mode.

    With a_k = amp_k gain_k (u_k - i v_k), mode k adds
    Re(a_k exp(i omega_k (t0_s + off))) to a window centred at t0_s + off:
    one complex product a * e0 gives every block start's (Re, Im) pair,
    and read as an (n_blocks, 2 modes) real matrix it times the
    interleaved (cos, -sin) offset table in one matrix-matrix product.
    ``table`` is ``_phase_table`` for ``modes.omega`` and the protocol, as
    ``run_protocol`` shares it; it is built here when None.
    """
    e0, off, gain = table if table is not None else _phase_table(modes.omega, protocol)
    b = modes.amp * gain
    a = np.empty(len(b), dtype=complex)
    a.real, a.imag = b * modes.u, -(b * modes.v)
    return ((e0 * a).view(float) @ off).ravel()[: protocol.n_cycles]


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
        raise ParamError("n_records", "n_records must be positive")
    grid = grid if grid is not None else GridSpec()
    shared = _protocol_share(spectrum, protocol, grid, independent_cycles)
    return [
        run_record(spectrum, protocol, grid, seed, i, independent_cycles, shared)
        for i in range(n_records)
    ]


def _blocking_stderr(x: np.ndarray) -> float:
    """Flyvbjerg-Petersen blocking estimate for a correlated series.

    The largest standard error sqrt(var / n) over the unblocked series
    and each level of pairwise block averages that keeps 16 or more
    blocks; a series of fewer than 32 has the unblocked level alone,
    which needs n >= 2.
    """
    x = np.asarray(x, dtype=float)
    best = math.sqrt(np.var(x, ddof=1) / len(x))
    while len(x) >= 32:
        if len(x) % 2:
            x = x[:-1]
        x = 0.5 * (x[0::2] + x[1::2])
        best = max(best, math.sqrt(np.var(x, ddof=1) / len(x)))
    return best


def estimate_autocorrelation(records: list[ShotRecord], lags):
    """Mean outcome product at each cycle lag, with honest uncertainties.

    Returns (correlation, stderr, n_pairs) arrays over the lags.  With
    eight or more records the spread of per-record means sets the error
    bar (records are independent by construction); fewer records fall
    back to blocking on the product series, which needs two products
    per record at every lag.
    """
    lags = np.asarray(lags)
    if lags.ndim != 1 or len(lags) == 0:
        raise ParamError("lags", "lags must be a nonempty 1-d sequence")
    bad = [m for m in lags.tolist() if not float(m).is_integer()]
    if bad:
        raise ParamError("lags", f"lags must be whole numbers of cycles, got {bad}")
    lags = lags.astype(int)
    if np.any(lags < 1):
        raise ParamError("lags", "lags must be >= 1")
    if not records:
        raise ValueError("no records given")
    shortest = min(len(r) for r in records)
    if np.any(lags >= shortest):
        raise ParamError("lags", "lag exceeds record length")
    if len(records) < 8 and np.any(lags > shortest - 2):
        m = int(lags[lags > shortest - 2][0])
        raise ParamError(
            "lags",
            f"lag {m} leaves one product in a record of {shortest} cycles; with"
            " fewer than 8 records the error bar needs at least 2 per record"
        )

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
    return corr, stderr, n_pairs


@dataclass(frozen=True, eq=False)
class CorrelationCurve:
    """Estimated correlator versus shot separation, with uncertainties."""

    delta_t: np.ndarray
    tau: np.ndarray
    correlation: np.ndarray
    stderr: np.ndarray
    n_pairs: np.ndarray
    # the uncorrected estimates of a curve corrected for readout flips
    correlation_raw: np.ndarray | None = None
    stderr_raw: np.ndarray | None = None

    def to_csv(self, path):
        """The five curve columns, then ``correlation_raw,stderr_raw`` if corrected."""
        header = _CURVE_HEADER
        columns = [self.delta_t, self.tau, self.correlation, self.stderr, self.n_pairs]
        if self.correlation_raw is not None:
            header += ("correlation_raw", "stderr_raw")
            columns += [self.correlation_raw, self.stderr_raw]
        csvio.write_csv(path, header, zip(*columns))

    @classmethod
    def from_csv(cls, path):
        # extra trailing columns (e.g. uncorrected estimates) are ignored
        cols = csvio.read_columns(path, dict.fromkeys(_CURVE_HEADER, float), prefix=True)
        return cls(*(np.asarray(c) for c in cols[:4]), np.asarray(cols[4], dtype=int))


def correlation_curve(
    records: list[ShotRecord], lags, correct_epsilon: float | None = None
) -> CorrelationCurve:
    """Package the lag estimates of a batch of same-protocol records.

    A nonzero ``correct_epsilon``, a known readout flip probability, is
    divided out by ``correct_fidelity``; the curve keeps the raw estimates.
    """
    corr, stderr, n_pairs = estimate_autocorrelation(records, lags)
    tau, dt = records[0].tau, records[0].cycle_period
    for rec in records:
        if rec.tau != tau or rec.cycle_period != dt:
            raise ValueError("records mix different protocols")
    raw = (None, None)
    if correct_epsilon:
        raw = (corr, stderr)
        corr, stderr = (correct_fidelity(x, correct_epsilon) for x in raw)
    # whole numbers: estimate_autocorrelation refuses any other lag
    lags = np.asarray(lags, dtype=int)
    return CorrelationCurve(lags * dt, np.full(len(lags), tau), corr, stderr, n_pairs, *raw)
