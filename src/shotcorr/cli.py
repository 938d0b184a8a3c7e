"""Command-line front end: JSON config in, CSV/JSON artifacts out.

Subcommands evaluate the analytic correlator on grids (``chi``), emit
figure-ready curve bundles (``figure2``, ``figure3a``, ``figure3b``),
build evolution-time schedules (``schedule``), run the Monte Carlo
sampler (``simulate``), re-analyze stored shot records (``correlate``),
and fit spectrum parameters to measured curves (``fit``).

All frequencies are rad/s internally; ``--freq-units hz`` converts the
frequency-valued config fields (every key named ``omega_*``) by 2 pi
on input.  Spectral amplitudes are never rescaled.  Every CSV artifact
is written atomically and paired with a ``<out>.json`` sidecar echoing
the resolved config and the package version; JSON artifacts embed the
same echo inline.  Bad input, I/O failures and quadrature failures exit
with status 1 and one ``error:`` line.  A key that its section, or its
grid object, does not read is bad input, named by its field; ``fit`` reads
the keys of its ``fit.mode``.  Range rules live in the library alone: its
``ParamError`` names the parameter, and the section that passed it names
the config field.  Top-level sections a command does not use are allowed,
so one config may serve several commands.
"""

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
# perfbench/layertrace.py wraps names below as cli.<name>: build_schedule, unused here, too
from .correlator import (
    EvolutionPair,
    QubitParams,
    autocorrelation_analytic,
    chi_minus_branch,
    chi_pair,
    correlator_from_chi,
)
from .csvio import HeaderError, atomic_write, write_csv
from .fitting import (
    FitParam,
    FitProblem,
    discriminate_gamma,
    estimate_alpha_slope,
    fit,
)
from .montecarlo import (
    CorrelationCurve,
    GridSpec,
    Protocol,
    check_lags,
    correlation_curve,
    records_from_csv,
    records_to_csv,
    run_protocol,
)
from .numerics import ParamError, QuadratureError
from .schedules import (
    build_schedule,
    constant_contrast_schedule,
    oneoverf_schedule,
)
from .spectra import (
    OverhauserModel,
    PowerLawModel,
    TabulatedModel,
    WhiteModel,
    coupling_from_g,
)

__all__ = ["main"]

TWO_PI = 2.0 * math.pi

# sentinel default of _Section.get: the field is required
_REQUIRED = object()

# the spellings of spectrum.omega_e that disable the cutoff: null, "inf"
# and JSON Infinity, the one non-finite value a config float may take
_NO_CUTOFF = (None, "inf", math.inf)

# the keys each spectrum family reads besides "family": the spectrum
# section refuses any other, and so do fit.free and fit.fixed
_SPECTRUM_KEYS = {
    "overhauser": ("omega_l", "omega_e", "gamma", "s0", "rms_field", "coupling_c", "g_factor"),
    "white": ("level", "omega_high"),
    "power_law": ("amplitude", "alpha", "omega_low", "omega_high"),
    "tabulated": ("path",),
}

# overhauser fields that name one quantity two ways: a config gives one of each pair
_EITHER_OR = (("s0", "rms_field"), ("coupling_c", "g_factor"))


class ConfigError(ValueError):
    pass


def _write_json(path, config, **fields):
    """``{"version", "config", **fields}`` to ``path``: indented, keys sorted, one final newline."""
    doc = {"version": __version__, "config": config, **fields}
    atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_sidecar(path, config, notes):
    _write_json(str(path) + ".json", config, notes=notes)


def _convert_hz(obj, key=""):
    """Multiply every value under a key named ``omega_*`` by 2 pi, recursively.

    Lists convert element by element and grid objects at their start and
    stop.  None, the string "inf" and Infinity pass through unchanged, for
    ``spectrum.omega_e`` to read as no cutoff and any other field to refuse.
    """
    if isinstance(obj, dict):
        return {k: _convert_hz(v, key if k in ("start", "stop") else k) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_convert_hz(v, key) for v in obj]
    if not key.startswith("omega_") or obj in _NO_CUTOFF:
        return obj
    try:
        return _real(obj) * TWO_PI
    except (TypeError, ValueError):
        raise ConfigError(f"config field '{key}' has invalid value {obj!r}") from None


def _real(val):
    """A finite JSON number as a float; booleans, NaN and +-inf raise (``true`` is no 1.0).

    An integer literal past the float range counts as infinite, so it
    raises ``TypeError`` too, not the ``OverflowError`` of ``float``.
    """
    try:
        out = float(val)
    except OverflowError:
        out = math.inf
    if isinstance(val, bool) or not math.isfinite(out):
        raise TypeError(f"{val!r} is not a finite number")
    return out


def _choice(*names):
    """The kind that takes one of ``names``."""
    def kind(val):
        if val not in names:
            raise ValueError(f"{val!r} is not one of {names}")
        return val
    return kind


def _count(val):
    """A JSON count: an int, or a float with no fractional part (``1e2``).

    Booleans, strings and non-integral numbers raise, so a bad count
    never truncates silently, and so does an int past the float range,
    which would overflow where the count meets a float (a duration).
    """
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise TypeError(f"{val!r} is not a number")
    if isinstance(val, float) and not val.is_integer():
        raise ValueError(f"{val!r} is not an integer")
    _real(val)
    return int(val)


class _Section:
    """One JSON object of the config, read key by key.

    Each accessor records the key it reads, given or not, so the reads list
    the keys a section takes and ``close`` refuses any other.  ``path``
    names the object in messages; the config root has none and stays open.
    As a context manager, the section turns a ``ParamError`` that refuses
    one of its reads into a ``ConfigError`` naming the field.
    """

    def __init__(self, obj, path=""):
        if not isinstance(obj, dict):
            raise ConfigError(f"config section '{path}' must be an object")
        self.obj, self.path, self.read = obj, path, {}

    def _name(self, key):
        """The dotted name of ``key``, which now counts as read."""
        self.read[key] = None
        return f"{self.path}.{key}" if self.path else key

    def __enter__(self):
        return self

    def __exit__(self, kind, err, tb):
        if isinstance(err, ParamError) and err.name in self.read:
            raise ConfigError(f"config field '{self._name(err.name)}': {err}") from None

    def has(self, key):
        self._name(key)
        return key in self.obj

    def raw(self, key, default=None):
        """The JSON value at ``key`` unconverted, or ``default`` when absent."""
        self._name(key)
        return self.obj.get(key, default)

    def section(self, key, required=False):
        """The object at ``key`` as a _Section; when absent, empty unless ``required``."""
        obj = self.raw(key, None if required else {})
        if obj is None and required:
            raise ConfigError(f"config section '{self._name(key)}' is required")
        return _Section(obj, self._name(key))

    def get(self, key, kind=_real, default=_REQUIRED):
        """``key`` through ``kind``, or ``default`` when absent; failures name the field."""
        name, val = self._name(key), self.obj.get(key)
        if key not in self.obj:
            if default is _REQUIRED:
                raise ConfigError(f"config field '{name}' is required")
            return default
        try:
            return kind(val)
        except (TypeError, ValueError):
            raise ConfigError(f"config field '{name}' has invalid value {val!r}") from None

    def numbers(self, key, kind=_real, default=_REQUIRED):
        """The non-empty list at ``key``, each element through ``kind``; absent, ``default``."""
        if not self.has(key):
            return self.get(key, default=default)
        name, val = self._name(key), self.obj[key]
        if not isinstance(val, list):
            raise ConfigError(f"config field '{name}' must be a list, got {val!r}")
        if not val:
            raise ConfigError(f"config field '{name}' must not be empty")
        out = []
        for v in val:
            try:
                out.append(kind(v))
            except (TypeError, ValueError):
                raise ConfigError(f"config field '{name}' has invalid element {v!r}") from None
        return out

    def pair(self, key, default=_REQUIRED):
        """The [lower, upper] list at ``key`` as a tuple of two floats; absent, ``default``."""
        out = tuple(self.numbers(key, default=default))
        if len(out) != 2:
            name, val = self._name(key), self.obj[key]
            raise ConfigError(f"config field '{name}' must be a [lower, upper] pair, got {val!r}")
        return out

    def grid(self, key, default=_REQUIRED):
        """A number, list, or {start, stop, num[, spacing]} log/linear grid; absent, ``default``."""
        name, val = self._name(key), self.obj.get(key)
        if key not in self.obj:
            return self.get(key, default=default)
        if isinstance(val, list):
            return np.asarray(self.numbers(key))
        if isinstance(val, (int, float)):
            return np.array([self.get(key)])
        if not isinstance(val, dict):
            raise ConfigError(f"config field '{name}' must be number, list, or grid object")
        g = self.section(key)
        start, stop, num = g.get("start"), g.get("stop"), g.get("num", _count)
        spacing = g.raw("spacing", "log")
        g.close()
        if num < 1:
            raise ConfigError(f"config field '{g.path}.num' must be at least 1, got {num}")
        if spacing == "linear":
            return np.linspace(start, stop, num)
        if spacing != "log":
            raise ConfigError(f"config field '{g.path}.spacing' must be log or linear")
        for end, v in (("start", start), ("stop", stop)):
            if not v > 0:
                raise ConfigError(f"config field '{g.path}.{end}' must be positive on a log grid")
        return np.geomspace(start, stop, num)

    def close(self, expected=()):
        """Refuse the first key that no accessor read and ``expected`` does not list."""
        for key in self.obj:
            if key not in self.read and key not in expected:
                takes = ", ".join(dict.fromkeys([*self.read, *expected]))
                raise ConfigError(
                    f"config field '{self.path}.{key}' is not read here ({self.path} takes {takes})"
                )


def _check_either_or(family, given):
    """Refuse both fields of an ``_EITHER_OR`` pair; ``given`` maps a name to its config field."""
    for one, other in _EITHER_OR if family == "overhauser" else ():
        if one in given and other in given:
            raise ConfigError(
                f"config field '{given[other]}' conflicts with '{given[one]}':"
                f" give either {one} or {other}"
            )


def build_spectrum(config):
    """Construct the SpectrumModel described by config['spectrum']."""
    sec = _Section(config).section("spectrum", required=True)
    with sec:
        return _spectrum(sec)


def _spectrum(sec):
    """The SpectrumModel of ``sec``, a spectrum object; the caller names its range errors."""
    family = sec.get("family", _choice(*_SPECTRUM_KEYS))
    sec.close(_SPECTRUM_KEYS[family])
    _check_either_or(family, {k: sec._name(k) for k, v in sec.obj.items() if v is not None})
    if family == "overhauser":
        if sec.raw("coupling_c") is None:
            coupling = coupling_from_g(sec.get("g_factor"))
        else:
            coupling = sec.get("coupling_c")
        no_cutoff = sec.raw("omega_e") in _NO_CUTOFF
        kw = dict(
            omega_l=sec.get("omega_l"),
            omega_e=math.inf if no_cutoff else sec.get("omega_e"),
            gamma=sec.get("gamma", default=1.0),
            coupling_c=coupling,
        )
        if sec.has("rms_field"):
            return OverhauserModel.from_rms(sec.get("rms_field"), **kw)
        return OverhauserModel(s0=sec.get("s0"), **kw)
    if family == "white":
        return WhiteModel(level=sec.get("level"), omega_high=sec.get("omega_high"))
    if family == "power_law":
        return PowerLawModel(
            amplitude=sec.get("amplitude"),
            alpha=sec.get("alpha"),
            omega_low=sec.get("omega_low"),
            omega_high=sec.get("omega_high"),
        )
    return TabulatedModel.from_csv(sec.get("path", str))


def build_qubit(config):
    sec = _Section(config).section("qubit")
    kw = dict(
        omega_q=sec.get("omega_q", default=0.0),
        readout_flip_prob=sec.get("readout_flip_prob", default=0.0),
        dead_time=sec.get("dead_time", default=0.0),
    )
    sec.close()
    with sec:
        return QubitParams(**kw)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_chi(config, args):
    spectrum = build_spectrum(config)
    qubit = build_qubit(config)
    sec = _Section(config).section("chi", required=True)
    taus = sec.grid("tau")
    dts = sec.grid("delta_t")
    sec.close()
    tag_regime = isinstance(spectrum, OverhauserModel) and math.isfinite(
        spectrum.omega_e
    )
    header = ["delta_t", "tau", "chi_minus", "chi_plus", "correlation"]
    if tag_regime:
        header.append("regime")
    with sec:
        pairs = [EvolutionPair(tau, dt) for tau in taus for dt in dts]
    rows = []
    for pair in pairs:
        cm, cp = chi_pair(spectrum, pair)
        corr = correlator_from_chi(cm, cp, pair.tau, qubit.omega_q)
        row = [pair.delta_t, pair.tau, cm, cp, corr]
        if tag_regime:
            row.append(chi_minus_branch(spectrum, pair.delta_t))
        rows.append(row)
    write_csv(args.out, header, rows)
    notes = {"regime_column": tag_regime}
    if isinstance(spectrum, OverhauserModel) and not tag_regime:
        notes["regime_column_reason"] = "no finite cutoff; regime map undefined"
    _write_sidecar(args.out, config, notes)


def cmd_schedule(config, args):
    sec = _Section(config).section("schedule", required=True)
    kind = sec.get("kind", _choice("constant_contrast", "oneoverf"))
    dts = sec.grid("delta_t")
    if kind == "constant_contrast":
        model = build_spectrum(config)
        if not isinstance(model, OverhauserModel):
            raise ConfigError(
                "config field 'schedule.kind' constant_contrast needs an overhauser spectrum"
            )
        target = sec.get("target", default=2.0)
        sec.close()
        with sec:
            sched = constant_contrast_schedule(model, dts, target=target)
        notes = {"kind": kind, "target": target}
    else:
        level = sec.get("level")
        variant = sec.get("variant", str, "exact")
        sec.close()
        with sec:
            sched = oneoverf_schedule(level, dts, variant=variant)
        notes = {
            "kind": kind,
            "level": level,
            "variant": variant,
            "variant_meaning": (
                "exact holds tau^2(ln(delta_t/tau)+3/2) fixed via the secondary "
                "Lambert branch; literal is the principal-branch form "
                "delta_t*exp(W0(-2*level/delta_t^2))"
            ),
        }
    sched.to_csv(args.out)
    _write_sidecar(args.out, config, notes)


def _lags(sec):
    """``sec``'s lags as counts, or None when absent or null, for ``_curve``'s default."""
    return None if sec.raw("lags") is None else sec.numbers("lags", _count)


def _checked_lags(lags, n, n_records, too_short):
    """``lags``, or when None 1, 2, 3, 5, 8 below ``n``, through ``check_lags``.

    ``n`` is the length of the shortest of ``n_records`` records.  Default
    lags the records cannot carry are refused in the words of
    ``too_short``, which names what set ``n``.
    """
    default = [m for m in (1, 2, 3, 5, 8) if m < n]
    try:
        return check_lags(lags or default, n, n_records)
    except ParamError as e:
        if lags or e.name != "lags":
            raise
        why = f"the default lags {default}: {e}" if default else "any default lag"
        raise ConfigError(f"{too_short.format(n=n)} too short for {why}") from None


def _records_path(out):
    root, ext = os.path.splitext(str(out))
    return root + ".records" + (ext or ".csv")


def cmd_simulate(config, args):
    spectrum = build_spectrum(config)
    sec = _Section(config).section("protocol", required=True)
    qubit = build_qubit(config)
    with sec:
        prot = Protocol(
            tau=sec.get("tau"),
            cycle_period=sec.get("cycle_period"),
            n_cycles=sec.get("n_cycles", _count),
            qubit=qubit,
        )
    n_records = sec.get("n_records", _count, 1)
    lags = _lags(sec)
    sec.close()
    grid_sec = _Section(config).section("grid")
    with grid_sec:
        grid = GridSpec(
            n_modes=grid_sec.get("n_modes", _count, 4096),
            omega_min=grid_sec.get("omega_min", default=None),
            omega_max=grid_sec.get("omega_max", default=None),
        )
    grid_sec.close()
    too_short = "config field 'protocol.n_cycles': records of length {n} are"
    with sec:
        # before any record is simulated
        lags = _checked_lags(lags, prot.n_cycles, n_records, too_short)
        records = run_protocol(spectrum, prot, n_records, seed=args.seed, grid=grid)
        curve = correlation_curve(records, lags, correct_epsilon=qubit.readout_flip_prob)
    rec_path = _records_path(args.out)
    records_to_csv(records, rec_path)
    timing = {"tau": prot.tau, "cycle_period": prot.cycle_period}
    _write_sidecar(rec_path, config, dict(timing, n_records=n_records, seed=args.seed))
    curve.to_csv(args.out)
    notes = {"seed": args.seed, "records_csv": os.path.basename(rec_path)}
    if curve.correlation_raw is not None:
        notes["fidelity"] = (
            "correlation/stderr are corrected by (1-2*epsilon)^-2; raw columns appended"
        )
    _write_sidecar(args.out, config, notes)


def cmd_correlate(config, args):
    sec = _Section(config).section("correlate", required=True)
    path = sec.get("records", str)
    timing = {k: v for k in ("tau", "cycle_period") if (v := sec.raw(k)) is not None}
    lags = _lags(sec)
    eps = sec.get("epsilon", default=0.0)
    sec.close()
    if len(timing) < 2:
        # fall back to the sidecar written by cmd_simulate
        try:
            with open(str(path) + ".json") as fh:
                notes = json.load(fh)["notes"]
            timing = {k: notes[k] for k in ("tau", "cycle_period")} | timing
        except (OSError, KeyError, TypeError, json.JSONDecodeError):
            raise ConfigError(
                "config fields 'correlate.tau' and 'correlate.cycle_period' are "
                f"required (no readable sidecar at {path}.json)"
            ) from None
    timing = _Section(timing, "correlate")
    with timing:
        records = records_from_csv(path, tau=timing.get("tau"), cycle_period=timing.get("cycle_period"))
    too_short = f"{path}: its shortest record, of length {{n}}, is"
    with sec:
        lags = _checked_lags(lags, min(len(r) for r in records), len(records), too_short)
        curve = correlation_curve(records, lags, correct_epsilon=eps)
    curve.to_csv(args.out)
    _write_sidecar(args.out, config, {"n_records": len(records), "epsilon": eps})


def _load_curve(path):
    try:
        return CorrelationCurve.from_csv(path)
    except HeaderError as e:
        raise ConfigError(
            f"{e}; if the file lacks a stderr column, supply uncertainties before fitting"
        ) from None


def cmd_fit(config, args):
    sec = _Section(config).section("fit", required=True)
    curve = _load_curve(sec.get("input", str))
    mode = sec.get("mode", _choice("alpha", "discriminate", "fit"), "fit")
    if mode == "alpha":
        window = sec.pair("corr_window", (0.02, 0.48))
        sec.close()
        est = estimate_alpha_slope(curve.delta_t, curve.correlation, curve.stderr, window)
        result = est.to_dict()
    elif mode == "discriminate":
        kw = {}
        if sec.has("omega_e_bounds"):
            kw["omega_e_bounds"] = sec.pair("omega_e_bounds")
        if sec.has("gammas"):
            kw["gammas"] = tuple(sec.numbers("gammas"))
        if "gammas" in kw and len(set(kw["gammas"])) < 2:
            raise ConfigError("config field 'fit.gammas' must name at least two distinct values")
        kw.update(omega_l=sec.get("omega_l"), coupling_c=sec.get("coupling_c", default=1.0))
        kw["qubit"] = build_qubit(config)
        sec.close()
        with sec:
            decision = discriminate_gamma(curve.delta_t, curve.tau, curve.correlation, curve.stderr, **kw)
        result = decision.to_dict()
    else:
        family = sec.get("family", _choice(*_SPECTRUM_KEYS))
        if not isinstance(sec.raw("free"), dict) or not sec.raw("free"):
            raise ConfigError("config field 'fit.free' must map parameter names to [lower, upper]")
        free, fixed = sec.section("free"), sec.section("fixed")
        free.close(_SPECTRUM_KEYS[family])
        fixed.close(_SPECTRUM_KEYS[family])
        both = sorted(free.obj.keys() & fixed.obj.keys())
        if both:
            raise ConfigError(
                f"config field 'fit.fixed.{both[0]}' is also in fit.free;"
                " a parameter is free or fixed"
            )
        with free:
            params = [FitParam(name, *free.pair(name)) for name in free.obj]
        # the fixed values count as read, so their range errors name fit.fixed
        given = {k: fixed._name(k) for k, v in fixed.obj.items() if v is not None}
        _check_either_or(family, {**given, **{k: free._name(k) for k in free.obj}})
        init = None
        if sec.raw("init") is not None:
            init = sec.section("init")
            init.close(free.obj)
            init = {k: init.get(k) for k in free.obj}
        n_starts = sec.get("n_starts", _count, 8)
        max_eval = sec.get("max_eval", _count, 10000)
        sec.close()

        def build(values, family=family, fixed=fixed.obj):
            # free values are floats already, so only a fixed value fails to convert
            return _spectrum(_Section({"family": family, **fixed, **values}, "fit.fixed"))

        problem = FitProblem(
            delta_t=curve.delta_t,
            tau=curve.tau,
            correlation=curve.correlation,
            stderr=curve.stderr,
            build=build,
            params=tuple(params),
            qubit=build_qubit(config),
        )
        with sec, free, fixed:
            res = fit(problem, init=init, n_starts=n_starts, max_eval=max_eval, seed=args.seed)
        result = res.to_dict()
    _write_json(args.out, config, mode=mode, result=result)


def _figure_model(sec, rms):
    """The gamma = 1 spectrum of a figure section whose rms field is ``rms``."""
    omega_l = sec.get("omega_l", default=TWO_PI * 0.1)
    omega_e = sec.get("omega_e", default=TWO_PI * 1.0e4)
    g = sec.get("g_factor", default=-0.44)
    return OverhauserModel.from_rms(rms, omega_l, omega_e, 1.0, coupling_from_g(g))


def cmd_figure2(config, args):
    # correlator vs delay for a ladder of evolution times; no canonical
    # rms amplitude exists, so the default is an assumption recorded in
    # the sidecar
    sec = _Section(config).section("figure2")
    rms = sec.get("rms_field", default=3.0e-5)
    taus = sec.numbers("tau", default=np.geomspace(5.0e-8, 5.0e-6, 5))
    dts = sec.grid("delta_t", np.geomspace(1.0e-6, 1.0e2, 41))
    with sec:
        model = _figure_model(sec, rms)
        sec.close()
        pairs = [EvolutionPair(tau, dt) for tau in taus for dt in dts]
    rows = []
    for pair in pairs:
        cm, cp = chi_pair(model, pair)
        corr = correlator_from_chi(cm, cp, pair.tau)
        rows.append([pair.delta_t, pair.tau, corr, cm, "" if pair.is_physical else "unphysical"])
    write_csv(args.out, ["delta_t_s", "tau_s", "correlation", "chi_minus", "flags"], rows)
    notes = {"rms_field": rms, "rms_field_is_assumption": not sec.has("rms_field")}
    _write_sidecar(args.out, config, notes)


def cmd_figure3a(config, args):
    # constant-contrast curves for four spectrum variants sharing the
    # gamma=1 schedule: gamma1, gamma2, doubled cutoff, and no cutoff
    sec = _Section(config).section("figure3a")
    dts = sec.grid("delta_t", np.geomspace(1.0e-5, 20.0, 40))
    target = sec.get("target", default=2.0)
    with sec:
        base = _figure_model(sec, sec.get("rms_field", default=7.0e-3))
        sec.close()
        sched = constant_contrast_schedule(base, dts, target=target)
    variants = {
        "gamma1": base,
        "gamma2": replace(base, gamma=2.0),
        "omega_e_x2": replace(base, omega_e=2.0 * base.omega_e),
        "no_cutoff": replace(base, omega_e=math.inf),
    }
    rows = []
    for name, model in variants.items():
        for pair in sched.pairs():
            corr = autocorrelation_analytic(model, pair)
            rows.append([name, pair.delta_t, pair.tau, corr])
    write_csv(args.out, ["variant", "delta_t_s", "tau_s", "correlation"], rows)
    _write_sidecar(
        args.out,
        config,
        {
            "schedule": "constant contrast on the gamma1 variant, shared by all curves",
            "target": target,
            "rms_field_is_assumption": not sec.has("rms_field"),
        },
    )


def cmd_figure3b(config, args):
    # pair exponent along the 1/f schedule for slopes around 1
    sec = _Section(config).section("figure3b")
    level = sec.get("level", default=1.0e-7)
    variant = sec.get("variant", str, "exact")
    alphas = sec.numbers("alpha", default=[0.9, 1.0, 1.1])
    dts = sec.grid("delta_t", np.geomspace(3.0e-3, 3.0, 16))
    with sec:
        # the schedule refuses a bad level before the default amplitude divides by it
        sched = oneoverf_schedule(level, dts, variant=variant)
        amplitude = sec.get("amplitude", default=math.pi / level)
        omega_low = sec.get("omega_low", default=1.0e-5)
        omega_high = sec.get("omega_high", default=1.0e8)
        sec.close()
        models = [
            PowerLawModel(amplitude=amplitude, alpha=a, omega_low=omega_low, omega_high=omega_high)
            for a in alphas
        ]
    rows = []
    for alpha, model in zip(alphas, models):
        for pair in sched.pairs():
            cm, cp = chi_pair(model, pair)
            corr = correlator_from_chi(cm, cp, pair.tau)
            rows.append([f"alpha_{alpha:g}", pair.delta_t, pair.tau, cm, corr])
    write_csv(
        args.out, ["variant", "delta_t_s", "tau_s", "chi_minus", "correlation"], rows
    )
    _write_sidecar(
        args.out,
        config,
        {"level": level, "schedule_variant": variant, "amplitude": amplitude},
    )


_COMMANDS = {
    "chi": (cmd_chi, True),
    "correlate": (cmd_correlate, True),
    "simulate": (cmd_simulate, True),
    "schedule": (cmd_schedule, True),
    "fit": (cmd_fit, True),
    "figure2": (cmd_figure2, False),
    "figure3a": (cmd_figure3a, False),
    "figure3b": (cmd_figure3b, False),
}


def _seed(text):
    """A ``--seed`` value: a non-negative integer, as numpy's seeding takes."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


@functools.cache
def _parser():
    """The argument parser, built on the first call and reused after."""
    p = argparse.ArgumentParser(
        prog="shotcorr",
        description="Noise spectroscopy from shot-shot correlations of single-shot readout.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, config_required) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument(
            "--config",
            required=config_required,
            help="JSON config file" + ("" if config_required else " (optional)"),
        )
        sp.add_argument("--out", required=True, help="output artifact path")
        sp.add_argument("--seed", type=_seed, default=0, help="random seed (simulate, fit mode)")
        sp.add_argument(
            "--freq-units",
            choices=("hz", "rad"),
            default="rad",
            help="units of frequency-valued config fields (hz multiplies by 2 pi)",
        )
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except OSError as e:
            print(f"error: cannot read config: {e}", file=sys.stderr)
            return 1
        except json.JSONDecodeError as e:
            print(f"error: config is not valid JSON: {e}", file=sys.stderr)
            return 1
    if not isinstance(config, dict):
        print("error: config root must be a JSON object", file=sys.stderr)
        return 1
    handler, _ = _COMMANDS[args.command]
    try:
        if args.freq_units == "hz":
            config = _convert_hz(config)
        handler(config, args)
    except (ValueError, OSError, QuadratureError) as e:
        # ValueError covers ConfigError and every model's input checks
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
