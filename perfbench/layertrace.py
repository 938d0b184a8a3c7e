"""Outside-in tracing of ``shotcorr``: spans and counts at module boundaries.

Each traced function is replaced, for the duration of a traced op, by a
wrapper stored under the name its caller looks it up by.  The modules
bind most names with ``from ... import``, so ``chi_pair`` is wrapped as
``shotcorr.cli.chi_pair``, ``shotcorr.correlator.chi_pair`` and
``shotcorr.fitting.chi_pair``; spectrum evaluation is wrapped on each
model class.  Spans (name, start, end, parent) and counts stay in memory
until the run ends.  The tracer keeps one span stack, so it assumes the
program runs single-threaded, which it does at the default ``--threads``.
"""

import functools
import os
import time
from collections import Counter, defaultdict

import numpy as np

# integrand nodes per panel in the converged panel sets: Filon passes use
# one Gauss-Legendre rule of this order, the panel rule an 8/16 pair
FILON_NODES = 12
PANEL_NODES = 8 + 16
FITTERS = ("discriminate_gamma", "fit", "estimate_alpha_slope")


class Tracer:
    """Span and count recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []  # (id, parent id or -1, name, start, end)
        self.counts = Counter()
        self.total = defaultdict(float)  # time in outermost spans of a name
        self.self_time = defaultdict(float)
        self.layer_total = defaultdict(float)  # outermost spans of a layer
        self._stack = []  # [id, name, start, child time]
        self._depth = Counter()
        self._layer_depth = Counter()
        self._patches = []

    # -- span bookkeeping -------------------------------------------------

    def call(self, name, fn, args, kwargs, before=None, after=None):
        layer = name.split(".", 1)[0]
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        if before is not None:
            args, kwargs = before(args, kwargs)
        outer = self._depth[name] == 0
        if outer:
            self.counts[name + ".calls"] += 1
        self._depth[name] += 1
        self._layer_depth[layer] += 1
        frame = [sid, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.counts[name + ".raised." + type(exc).__name__] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._depth[name] -= 1
            self._layer_depth[layer] -= 1
            dur = end - frame[2]
            self.self_time[name] += dur - frame[3]
            if outer:
                self.total[name] += dur
            if self._layer_depth[layer] == 0:
                self.layer_total[layer] += dur
            if self._stack:
                self._stack[-1][3] += dur
            self.spans[sid] = (sid, parent, name, frame[2], end)
        if after is not None:
            after(args, kwargs, result)
        return result

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (the benchmark's entry points)."""
        return self.call(name, fn, args, kwargs)

    def wrap(self, owner, attr, name, before=None, after=None):
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return tracer.call(name, orig, args, kwargs, before, after)

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- the shotcorr boundaries ------------------------------------------

    def install(self):
        from shotcorr import cli, correlator, fitting, montecarlo, schedules, spectra

        def count_swapped(args, kwargs):
            pair = args[1] if len(args) > 1 else kwargs["pair"]
            if self._depth["correlator.chi_pair"] == 0 and 0.0 < pair.delta_t < pair.tau:
                self.counts["correlator.chi_pair.swapped"] += 1
            return args, kwargs

        def from_fitting(args, kwargs):
            if self._depth["correlator.chi_pair"] == 0:
                self.counts["fitting.chi_pair_calls"] += 1
            return count_swapped(args, kwargs)

        for owner in (cli, correlator):
            self.wrap(owner, "chi_pair", "correlator.chi_pair", before=count_swapped)
        self.wrap(fitting, "chi_pair", "correlator.chi_pair", before=from_fitting)

        def quadrature(fname, nodes_per_panel):
            def before(args, kwargs):
                f = args[0]

                def counted(w):
                    self.counts["numerics.nodes_evaluated"] += int(np.size(w))
                    return f(w)

                return (counted,) + tuple(args[1:]), kwargs

            def after(args, kwargs, result):
                self.counts[fname + ".panels"] += result.n_panels
                self.counts["numerics.nodes_converged"] += result.n_panels * nodes_per_panel

            return before, after

        before, after = quadrature("numerics.integrate_spectral", PANEL_NODES)
        self.wrap(correlator, "integrate_spectral", "numerics.integrate_spectral", before, after)
        before, after = quadrature("numerics.filon_cos_integral", FILON_NODES)
        for owner in (correlator, spectra):
            self.wrap(owner, "filon_cos_integral", "numerics.filon_cos_integral", before, after)

        def nodes(args, kwargs, result):
            self.counts["spectra.evaluate.nodes"] += int(np.size(args[1]))

        for cls in (spectra.OverhauserModel, spectra.WhiteModel, spectra.PowerLawModel, spectra.TabulatedModel):
            self.wrap(cls, "evaluate", "spectra.evaluate", after=nodes)

        for fn in ("build_schedule", "constant_contrast_schedule", "oneoverf_schedule"):
            self.wrap(cli, fn, "schedules." + fn)
        self.wrap(schedules, "tau_constant_contrast", "schedules.tau_constant_contrast")

        for fn in FITTERS:
            self.wrap(cli, fn, "fitting." + fn)

        def written(args, kwargs, result):
            self.counts["montecarlo.records_to_csv.bytes"] += os.path.getsize(args[1])

        def read(args, kwargs):
            self.counts["montecarlo.records_from_csv.bytes"] += os.path.getsize(args[0])
            return args, kwargs

        self.wrap(cli, "run_protocol", "montecarlo.run_protocol")
        self.wrap(cli, "correlation_curve", "montecarlo.correlation_curve")
        self.wrap(cli, "records_to_csv", "montecarlo.records_to_csv", after=written)
        self.wrap(cli, "records_from_csv", "montecarlo.records_from_csv", before=read)
        for fn in ("run_record", "synthesize_modes", "accumulated_phases", "estimate_autocorrelation"):
            self.wrap(montecarlo, fn, "montecarlo." + fn)

    # -- results ----------------------------------------------------------

    def snapshot(self):
        """Everything recorded so far, for per-op differences."""
        return {
            "counts": Counter(self.counts),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "layer": dict(self.layer_total),
            "n_spans": len(self.spans),
        }


def diff(after, before):
    """Recorded quantities between two snapshots."""
    out = {}
    for key in ("total", "self", "layer"):
        out[key] = {k: v - before[key].get(k, 0.0) for k, v in after[key].items()}
    out["counts"] = after["counts"] - before["counts"]
    out["n_spans"] = after["n_spans"] - before["n_spans"]
    return out


def layer_metrics(setup, ops, rows):
    """Per-layer metrics: per-op averages of ``ops`` plus set-up schedules time.

    ``setup`` and each entry of ``ops`` are ``diff`` results.  Counts are
    the same on every op, so their per-op average is an exact count.
    """
    n = len(ops)

    def total(key, name):
        return sum(op[key].get(name, 0.0) for op in ops) / n

    def count(name):
        return sum(op["counts"][name] for op in ops) / n

    calls = count("correlator.chi_pair.calls")
    fits = sum(count(f"fitting.{f}.calls") for f in FITTERS)
    evaluated = count("numerics.nodes_evaluated")
    fitting_s = sum(total("self", "fitting." + f) for f in FITTERS)
    m = {
        "cli.self_s": (total("self", "cli.main"), "s"),
        "cli.chi_pair_per_row": (calls / rows if rows else 0.0, "ratio"),
        "fitting.discriminate_gamma.s": (total("total", "fitting.discriminate_gamma"), "s"),
        "fitting.self_s": (fitting_s, "s"),
        "fitting.chi_pair_calls": (count("fitting.chi_pair_calls") / fits if fits else 0.0, "count"),
        "correlator.chi_pair.calls": (calls, "count"),
        "correlator.chi_pair.s": (total("total", "correlator.chi_pair"), "s"),
        "correlator.chi_pair.self_s": (total("self", "correlator.chi_pair"), "s"),
        "correlator.chi_pair.swapped": (count("correlator.chi_pair.swapped"), "count"),
        "numerics.integrate_spectral.calls": (count("numerics.integrate_spectral.calls"), "count"),
        "numerics.integrate_spectral.panels": (count("numerics.integrate_spectral.panels"), "count"),
        "numerics.integrate_spectral.s": (total("total", "numerics.integrate_spectral"), "s"),
        "numerics.filon_cos_integral.calls": (count("numerics.filon_cos_integral.calls"), "count"),
        "numerics.filon_cos_integral.panels": (count("numerics.filon_cos_integral.panels"), "count"),
        "numerics.filon_cos_integral.s": (total("total", "numerics.filon_cos_integral"), "s"),
        "numerics.nodes_evaluated": (evaluated, "count"),
        "numerics.node_yield": (count("numerics.nodes_converged") / evaluated if evaluated else 0.0, "ratio"),
        "numerics.quadrature_errors": (
            count("numerics.integrate_spectral.raised.QuadratureError")
            + count("numerics.filon_cos_integral.raised.QuadratureError"),
            "count",
        ),
        "spectra.evaluate.calls": (count("spectra.evaluate.calls"), "count"),
        "spectra.evaluate.nodes": (count("spectra.evaluate.nodes"), "count"),
        "spectra.evaluate.s": (total("total", "spectra.evaluate"), "s"),
        "schedules.s": (setup["layer"].get("schedules", 0.0) + total("layer", "schedules"), "s"),
        "montecarlo.run_record.calls": (count("montecarlo.run_record.calls"), "count"),
        "montecarlo.run_record.s": (total("total", "montecarlo.run_record"), "s"),
        "montecarlo.synthesize_modes.s": (total("total", "montecarlo.synthesize_modes"), "s"),
        "montecarlo.accumulated_phases.s": (total("total", "montecarlo.accumulated_phases"), "s"),
        "montecarlo.records_to_csv.s": (total("total", "montecarlo.records_to_csv"), "s"),
        "montecarlo.records_to_csv.bytes": (count("montecarlo.records_to_csv.bytes"), "bytes"),
        "montecarlo.records_from_csv.s": (total("total", "montecarlo.records_from_csv"), "s"),
        "montecarlo.records_from_csv.bytes": (count("montecarlo.records_from_csv.bytes"), "bytes"),
        "montecarlo.estimate_autocorrelation.s": (total("total", "montecarlo.estimate_autocorrelation"), "s"),
        "trace.spans": (sum(op["n_spans"] for op in ops) / n, "count"),
    }
    return m
