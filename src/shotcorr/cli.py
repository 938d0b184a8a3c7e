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
with status 1 and one ``error:`` line.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .correlator import (
    EvolutionPair,
    QubitParams,
    autocorrelation_analytic,
    chi_minus_branch,
    chi_pair,
    correlator_from_chi,
    correct_fidelity,
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
    correlation_curve,
    records_from_csv,
    records_to_csv,
    run_protocol,
)
from .numerics import QuadratureError
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

# sentinel default of _field: the field is required
_REQUIRED = object()

# the spellings of spectrum.omega_e that disable the cutoff: null, "inf"
# and JSON Infinity, the one non-finite value a config float may take
_NO_CUTOFF = (None, "inf", math.inf)

# the keys each spectrum family reads besides "family": build_spectrum
# refuses any other, and so does fit mode for its parameter names
_SPECTRUM_KEYS = {
    "overhauser": ("omega_l", "omega_e", "gamma", "s0", "rms_field", "coupling_c", "g_factor"),
    "white": ("level", "omega_high"),
    "power_law": ("amplitude", "alpha", "omega_low", "omega_high"),
    "tabulated": ("path",),
}

# the keys the protocol, qubit and grid sections read: _check_section_keys refuses any other
_PROTOCOL_KEYS = ("tau", "cycle_period", "n_cycles", "n_records", "lags")
_QUBIT_KEYS = ("omega_q", "coupling_c", "readout_flip_prob", "dead_time")
_GRID_KEYS = ("n_modes", "omega_min", "omega_max")

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


def _section(config, name):
    sec = config.get(name)
    if sec is None:
        raise ConfigError(f"config section '{name}' is required")
    if not isinstance(sec, dict):
        raise ConfigError(f"config section '{name}' must be an object")
    return sec


def _optional_section(config, name, path=None):
    """``config[name]``, or {} when absent; ``path`` names it in the message."""
    sec = config.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"config section '{path or name}' must be an object")
    return sec


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


def _field(sec, secname, key, kind=_real, default=_REQUIRED):
    if key not in sec:
        if default is _REQUIRED:
            raise ConfigError(f"config field '{secname}.{key}' is required")
        return default
    try:
        return kind(sec[key])
    except (TypeError, ValueError):
        raise ConfigError(
            f"config field '{secname}.{key}' has invalid value {sec[key]!r}"
        ) from None


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


def _number_list(val, name, kind=_real):
    """Each element of a JSON list through ``kind``; failures name the field."""
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


def _number_pair(val, name):
    """A JSON [lower, upper] list as a tuple of two floats; failures name the field."""
    out = _number_list(val, name)
    if len(out) != 2:
        raise ConfigError(f"config field '{name}' must be a [lower, upper] pair, got {val!r}")
    return tuple(out)


def _grid_values(sec, secname, key):
    """A float list, or {start, stop, num[, spacing]} expanded log/linear."""
    if key not in sec:
        raise ConfigError(f"config field '{secname}.{key}' is required")
    val = sec[key]
    if isinstance(val, (int, float)):
        return np.array([_field(sec, secname, key)])
    if isinstance(val, list):
        return np.asarray(_number_list(val, f"{secname}.{key}"))
    if isinstance(val, dict):
        name = f"{secname}.{key}"
        start = _field(val, name, "start")
        stop = _field(val, name, "stop")
        num = _field(val, name, "num", _count)
        if num < 1:
            raise ConfigError(f"config field '{name}.num' must be at least 1, got {num}")
        spacing = val.get("spacing", "log")
        if spacing == "log":
            for end, v in (("start", start), ("stop", stop)):
                if not v > 0:
                    raise ConfigError(f"config field '{name}.{end}' must be positive on a log grid")
            return np.geomspace(start, stop, num)
        if spacing == "linear":
            return np.linspace(start, stop, num)
        raise ConfigError(f"config field '{secname}.{key}.spacing' must be log or linear")
    raise ConfigError(f"config field '{secname}.{key}' must be number, list, or grid object")


def _refuse_unread(names, prefix, keys, what):
    """Refuse the first of ``names`` not in ``keys``: "'prefix.<name>' is not <what>"."""
    for name in names:
        if name not in keys:
            raise ConfigError(f"config field '{prefix}.{name}' is not {what}")


def _check_section_keys(sec, secname, keys):
    _refuse_unread(sec, secname, keys, f"read by {secname} ({', '.join(keys)})")


def _check_spectrum_keys(family, family_field, names, prefix):
    """Refuse an unknown ``family`` (the field ``family_field``) and each of
    ``names`` it does not read, named ``prefix.<name>``."""
    keys = _SPECTRUM_KEYS.get(family)
    if keys is None:
        raise ConfigError(f"config field '{family_field}' unknown: {family!r}")
    _refuse_unread(names, prefix, keys, f"a {family} spectrum parameter")


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
    sec = _section(config, "spectrum")
    family = _field(sec, "spectrum", "family", str)
    _check_spectrum_keys(family, "spectrum.family", [k for k in sec if k != "family"], "spectrum")
    _check_either_or(family, {k: f"spectrum.{k}" for k, v in sec.items() if v is not None})
    if family == "overhauser":
        if sec.get("coupling_c") is None:
            coupling = coupling_from_g(_field(sec, "spectrum", "g_factor"))
        else:
            coupling = _field(sec, "spectrum", "coupling_c")
        no_cutoff = sec.get("omega_e") in _NO_CUTOFF
        kw = dict(
            omega_l=_field(sec, "spectrum", "omega_l"),
            omega_e=math.inf if no_cutoff else _field(sec, "spectrum", "omega_e"),
            gamma=_field(sec, "spectrum", "gamma", default=1.0),
            coupling_c=coupling,
        )
        if "rms_field" in sec:
            return OverhauserModel.from_rms(_field(sec, "spectrum", "rms_field"), **kw)
        return OverhauserModel(s0=_field(sec, "spectrum", "s0"), **kw)
    if family == "white":
        return WhiteModel(
            level=_field(sec, "spectrum", "level"),
            omega_high=_field(sec, "spectrum", "omega_high"),
        )
    if family == "power_law":
        return PowerLawModel(
            amplitude=_field(sec, "spectrum", "amplitude"),
            alpha=_field(sec, "spectrum", "alpha"),
            omega_low=_field(sec, "spectrum", "omega_low"),
            omega_high=_field(sec, "spectrum", "omega_high"),
        )
    return TabulatedModel.from_csv(_field(sec, "spectrum", "path", str))


def build_qubit(config):
    sec = _optional_section(config, "qubit")
    _check_section_keys(sec, "qubit", _QUBIT_KEYS)
    return QubitParams(
        omega_q=_field(sec, "qubit", "omega_q", default=0.0),
        coupling_c=_field(sec, "qubit", "coupling_c", default=1.0),
        readout_flip_prob=_field(sec, "qubit", "readout_flip_prob", default=0.0),
        dead_time=_field(sec, "qubit", "dead_time", default=0.0),
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_chi(config, args):
    spectrum = build_spectrum(config)
    qubit = build_qubit(config)
    sec = _section(config, "chi")
    taus = _grid_values(sec, "chi", "tau")
    dts = _grid_values(sec, "chi", "delta_t")
    tag_regime = isinstance(spectrum, OverhauserModel) and math.isfinite(
        spectrum.omega_e
    )
    header = ["delta_t", "tau", "chi_minus", "chi_plus", "correlation"]
    if tag_regime:
        header.append("regime")
    rows = []
    for tau in taus:
        for dt in dts:
            pair = EvolutionPair(tau, dt)
            cm, cp = chi_pair(spectrum, pair)
            corr = correlator_from_chi(cm, cp, pair.tau, qubit.omega_q)
            row = [dt, tau, cm, cp, corr]
            if tag_regime:
                row.append(chi_minus_branch(spectrum, pair.delta_t))
            rows.append(row)
    write_csv(args.out, header, rows)
    notes = {"regime_column": tag_regime}
    if isinstance(spectrum, OverhauserModel) and not tag_regime:
        notes["regime_column_reason"] = "no finite cutoff; regime map undefined"
    _write_sidecar(args.out, config, notes)


def cmd_schedule(config, args):
    sec = _section(config, "schedule")
    kind = _field(sec, "schedule", "kind", str)
    dts = _grid_values(sec, "schedule", "delta_t")
    if kind == "constant_contrast":
        model = build_spectrum(config)
        if not isinstance(model, OverhauserModel):
            raise ConfigError(
                "config field 'schedule.kind' constant_contrast needs an overhauser spectrum"
            )
        target = _field(sec, "schedule", "target", default=2.0)
        sched = constant_contrast_schedule(model, dts, target=target)
        notes = {"kind": kind, "target": target}
    elif kind == "oneoverf":
        level = _field(sec, "schedule", "level")
        variant = _field(sec, "schedule", "variant", str, "exact")
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
    else:
        raise ConfigError(f"config field 'schedule.kind' unknown: {kind!r}")
    sched.to_csv(args.out)
    _write_sidecar(args.out, config, notes)


def _lags(sec, secname, shortest):
    """``sec["lags"]`` as counts, or by default those of 1, 2, 3, 5, 8 below ``shortest``."""
    lags = sec.get("lags")
    if lags is None:
        return [m for m in (1, 2, 3, 5, 8) if m < shortest]
    return _number_list(lags, f"{secname}.lags", _count)


def _protocol_from_config(config):
    sec = _section(config, "protocol")
    _check_section_keys(sec, "protocol", _PROTOCOL_KEYS)
    qubit = build_qubit(config)
    prot = Protocol(
        tau=_field(sec, "protocol", "tau"),
        cycle_period=_field(sec, "protocol", "cycle_period"),
        n_cycles=_field(sec, "protocol", "n_cycles", _count),
        qubit=qubit,
    )
    n_records = _field(sec, "protocol", "n_records", _count, 1)
    lags = _lags(sec, "protocol", prot.n_cycles)
    grid_sec = _optional_section(config, "grid")
    _check_section_keys(grid_sec, "grid", _GRID_KEYS)
    grid = GridSpec(
        n_modes=_field(grid_sec, "grid", "n_modes", _count, 4096),
        omega_min=_field(grid_sec, "grid", "omega_min", default=None),
        omega_max=_field(grid_sec, "grid", "omega_max", default=None),
    )
    return prot, n_records, lags, grid


def _records_path(out):
    root, ext = os.path.splitext(str(out))
    return root + ".records" + (ext or ".csv")


def cmd_simulate(config, args):
    spectrum = build_spectrum(config)
    prot, n_records, lags, grid = _protocol_from_config(config)
    eps = prot.qubit.readout_flip_prob
    records = run_protocol(spectrum, prot, n_records, seed=args.seed, grid=grid)
    raw = correlation_curve(records, lags)
    header = ["delta_t_s", "tau_s", "correlation", "stderr", "n_pairs"]
    columns = [raw.delta_t, raw.tau, raw.correlation, raw.stderr, raw.n_pairs]
    if eps > 0.0:
        # the corrected estimates take the lead columns; the raw ones follow
        header += ["correlation_raw", "stderr_raw"]
        columns[2:4] = [correct_fidelity(raw.correlation, eps), correct_fidelity(raw.stderr, eps)]
        columns += [raw.correlation, raw.stderr]
    rec_path = _records_path(args.out)
    records_to_csv(records, rec_path)
    _write_sidecar(
        rec_path,
        config,
        {
            "tau": prot.tau,
            "cycle_period": prot.cycle_period,
            "n_records": n_records,
            "seed": args.seed,
        },
    )
    write_csv(args.out, header, zip(*columns))
    notes = {"seed": args.seed, "records_csv": os.path.basename(rec_path)}
    if eps > 0.0:
        notes["fidelity"] = (
            "correlation/stderr are corrected by (1-2*epsilon)^-2; raw columns appended"
        )
    _write_sidecar(args.out, config, notes)


def cmd_correlate(config, args):
    sec = _section(config, "correlate")
    path = _field(sec, "correlate", "records", str)
    timing = {k: sec[k] for k in ("tau", "cycle_period") if sec.get(k) is not None}
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
    records = records_from_csv(
        path,
        tau=_field(timing, "correlate", "tau"),
        cycle_period=_field(timing, "correlate", "cycle_period"),
    )
    lags = _lags(sec, "correlate", min(len(r) for r in records))
    eps = _field(sec, "correlate", "epsilon", default=0.0)
    curve = correlation_curve(records, lags, correct_epsilon=eps or None)
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
    sec = _section(config, "fit")
    curve = _load_curve(_field(sec, "fit", "input", str))
    mode = _field(sec, "fit", "mode", str, "fit")
    if mode == "alpha":
        window = sec.get("corr_window", [0.02, 0.48])
        est = estimate_alpha_slope(
            curve.delta_t,
            curve.correlation,
            curve.stderr,
            corr_window=_number_pair(window, "fit.corr_window"),
        )
        result = est.to_dict()
    elif mode == "discriminate":
        kw = {}
        if "omega_e_bounds" in sec:
            kw["omega_e_bounds"] = _number_pair(sec["omega_e_bounds"], "fit.omega_e_bounds")
        if "gammas" in sec:
            kw["gammas"] = tuple(_number_list(sec["gammas"], "fit.gammas"))
        if "gammas" in kw and len(set(kw["gammas"])) < 2:
            raise ConfigError("config field 'fit.gammas' must name at least two distinct values")
        decision = discriminate_gamma(
            curve.delta_t,
            curve.tau,
            curve.correlation,
            curve.stderr,
            omega_l=_field(sec, "fit", "omega_l"),
            coupling_c=_field(sec, "fit", "coupling_c", default=1.0),
            qubit=build_qubit(config),
            **kw,
        )
        result = decision.to_dict()
    elif mode == "fit":
        family = _field(sec, "fit", "family", str)
        free = sec.get("free")
        if not isinstance(free, dict) or not free:
            raise ConfigError(
                "config field 'fit.free' must map parameter names to [lower, upper]"
            )
        fixed = _optional_section(sec, "fixed", "fit.fixed")
        _check_spectrum_keys(family, "fit.family", free, "fit.free")
        _check_spectrum_keys(family, "fit.family", fixed, "fit.fixed")
        both = sorted(free.keys() & fixed.keys())
        if both:
            raise ConfigError(
                f"config field 'fit.fixed.{both[0]}' is also in fit.free;"
                " a parameter is free or fixed"
            )
        params = [FitParam(name, *_number_pair(b, f"fit.free.{name}")) for name, b in free.items()]
        given = {k: f"fit.fixed.{k}" for k, v in fixed.items() if v is not None}
        _check_either_or(family, {**given, **{k: f"fit.free.{k}" for k in free}})

        def build(values, family=family, fixed=fixed):
            spec = {"family": family, **fixed, **values}
            return build_spectrum({"spectrum": spec})

        problem = FitProblem(
            delta_t=curve.delta_t,
            tau=curve.tau,
            correlation=curve.correlation,
            stderr=curve.stderr,
            build=build,
            params=tuple(params),
            qubit=build_qubit(config),
        )
        init = sec.get("init")
        if init is not None:
            init = _optional_section(sec, "init", "fit.init")
            unknown = [k for k in init if k not in free]
            if unknown:
                raise ConfigError(f"config field 'fit.init.{unknown[0]}' is not in fit.free")
            init = {k: _field(init, "fit.init", k) for k in free}
        res = fit(
            problem,
            init=init,
            n_starts=_field(sec, "fit", "n_starts", _count, 8),
            max_eval=_field(sec, "fit", "max_eval", _count, 10000),
            seed=args.seed,
        )
        result = res.to_dict()
    else:
        raise ConfigError(f"config field 'fit.mode' unknown: {mode!r}")
    _write_json(args.out, config, mode=mode, result=result)


def _figure_model(sec, secname, rms_default, gamma=1.0, omega_e_scale=1.0):
    omega_l = _field(sec, secname, "omega_l", default=TWO_PI * 0.1)
    omega_e = _field(sec, secname, "omega_e", default=TWO_PI * 1.0e4) * omega_e_scale
    g = _field(sec, secname, "g_factor", default=-0.44)
    rms = _field(sec, secname, "rms_field", default=rms_default)
    return OverhauserModel.from_rms(rms, omega_l, omega_e, gamma, coupling_from_g(g))


def cmd_figure2(config, args):
    # correlator vs delay for a ladder of evolution times; no canonical
    # rms amplitude exists, so the default is an assumption recorded in
    # the sidecar
    sec = _optional_section(config, "figure2")
    rms_default = 3.0e-5
    model = _figure_model(sec, "figure2", rms_default)
    taus = (
        _number_list(sec["tau"], "figure2.tau")
        if "tau" in sec
        else np.geomspace(5.0e-8, 5.0e-6, 5)
    )
    dts = (
        _grid_values(sec, "figure2", "delta_t")
        if "delta_t" in sec
        else np.geomspace(1.0e-6, 1.0e2, 41)
    )
    rows = []
    for tau in taus:
        for dt in dts:
            pair = EvolutionPair(tau, dt)
            cm, cp = chi_pair(model, pair)
            corr = correlator_from_chi(cm, cp, pair.tau)
            rows.append([dt, tau, corr, cm, "" if pair.is_physical else "unphysical"])
    write_csv(args.out, ["delta_t_s", "tau_s", "correlation", "chi_minus", "flags"], rows)
    _write_sidecar(
        args.out,
        config,
        {
            "rms_field": _field(sec, "figure2", "rms_field", default=rms_default),
            "rms_field_is_assumption": "rms_field" not in sec,
        },
    )


def cmd_figure3a(config, args):
    # constant-contrast curves for four spectrum variants sharing the
    # gamma=1 schedule: gamma1, gamma2, doubled cutoff, and no cutoff
    sec = _optional_section(config, "figure3a")
    rms_default = 7.0e-3
    dts = (
        _grid_values(sec, "figure3a", "delta_t")
        if "delta_t" in sec
        else np.geomspace(1.0e-5, 20.0, 40)
    )
    target = _field(sec, "figure3a", "target", default=2.0)
    base = _figure_model(sec, "figure3a", rms_default, gamma=1.0)
    sched = constant_contrast_schedule(base, dts, target=target)
    variants = {
        "gamma1": base,
        "gamma2": _figure_model(sec, "figure3a", rms_default, gamma=2.0),
        "omega_e_x2": _figure_model(sec, "figure3a", rms_default, omega_e_scale=2.0),
        "no_cutoff": OverhauserModel(
            s0=base.s0,
            omega_l=base.omega_l,
            omega_e=math.inf,
            gamma=1.0,
            coupling_c=base.coupling_c,
        ),
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
            "rms_field_is_assumption": "rms_field" not in sec,
        },
    )


def cmd_figure3b(config, args):
    # pair exponent along the 1/f schedule for slopes around 1
    sec = _optional_section(config, "figure3b")
    level = _field(sec, "figure3b", "level", default=1.0e-7)
    variant = _field(sec, "figure3b", "variant", str, "exact")
    alphas = _number_list(sec.get("alpha", [0.9, 1.0, 1.1]), "figure3b.alpha")
    dts = (
        _grid_values(sec, "figure3b", "delta_t")
        if "delta_t" in sec
        else np.geomspace(3.0e-3, 3.0, 16)
    )
    amplitude = _field(sec, "figure3b", "amplitude", default=math.pi / level)
    omega_low = _field(sec, "figure3b", "omega_low", default=1.0e-5)
    omega_high = _field(sec, "figure3b", "omega_high", default=1.0e8)
    sched = oneoverf_schedule(level, dts, variant=variant)
    rows = []
    for alpha in alphas:
        model = PowerLawModel(
            amplitude=amplitude, alpha=alpha, omega_low=omega_low, omega_high=omega_high
        )
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
        sp.add_argument("--seed", type=_seed, default=0, help="random seed (simulate)")
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
