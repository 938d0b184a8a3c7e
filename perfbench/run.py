"""shotcorr benchmark: closed-loop CLI workloads, checked outputs, layer trace.

    python3 perfbench/run.py --workload forward --seed 1 --seconds 20 --trace 0

Runs one workload in this process, driving the program the way a user
does: ``shotcorr.cli.main(argv)`` called in-process, one op after the
other (one caller, closed loop), after one untimed warm-up op.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics and the tracing overhead with
``--trace 1``.  ``--smoke`` runs one checked op of every workload.
See README.md in this directory for the metrics and workloads.
"""

import os

# One BLAS thread, set before numpy loads; set-up probes inherit it.  With
# OpenBLAS's default of one thread per core, op times on a 2-core machine
# swing with whatever else runs there.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
TRACES = ROOT / ".perfbench-traces"
WORKLOAD_NAMES = ("forward", "simulate", "inverse", "reanalyze")
# fresh interpreter starts per run; setup_s is their median
SETUP_PROBES = 3


def _require_source():
    """Put the checkout's ``src`` first on the path, or exit without a result."""
    if not (SRC / "shotcorr" / "cli.py").is_file():
        sys.exit(f"perfbench: no shotcorr source at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))


def _probe(workload, seed, directory):
    """One set-up sample: import the CLI and write the workload's inputs."""
    import shotcorr.cli  # noqa: F401

    import workloads

    workloads.WORKLOADS[workload](seed, directory).build()


def _setup_samples(workload, seed, work):
    """Time ``SETUP_PROBES`` fresh interpreters; keep the last one's inputs."""
    times, kept = [], None
    for i in range(SETUP_PROBES):
        d = work / f"setup{i}"
        cmd = [sys.executable, str(HERE / "run.py"), "--probe", str(d)]
        cmd += ["--workload", workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up failed for {workload}:\n{proc.stderr}")
        if kept is not None:
            shutil.rmtree(kept)
        kept = d
    return times, kept


def _run_op(cli, wl, tracer=None):
    """One op: every CLI call of the workload in order.  True if all succeed."""
    try:
        for argv in wl.calls():
            rc = cli.main(argv) if tracer is None else tracer.span("cli.main", cli.main, argv)
            if rc != 0:
                print(f"perfbench: shotcorr {argv[0]} exited {rc}", file=sys.stderr)
                return False
    except Exception:
        traceback.print_exc()
        return False
    return True


def _digest(wl):
    h = hashlib.sha256()
    for path in wl.outputs():
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _artifact_bytes(wl):
    return sum(p.stat().st_size for p in Path(wl.out_dir).iterdir() if p.is_file())


class Loop:
    """Closed-loop op runner that tracks failures and output identity."""

    def __init__(self, cli, wl):
        self.cli, self.wl = cli, wl
        self.attempted = self.failed = 0
        self.elapsed = 0.0  # wall time of all counted ops, failed ones too
        self.reference = None
        self.problems = []

    def op(self, tracer=None):
        """Run one op; returns its wall time, or None if it failed."""
        t0 = time.perf_counter()
        ok = _run_op(self.cli, self.wl, tracer)
        t = time.perf_counter() - t0
        self.attempted += 1
        self.elapsed += t
        if not ok:
            self.failed += 1
            return None
        digest = _digest(self.wl)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference and not self.problems:
            self.problems.append("outputs differ between ops on identical inputs")
        return t

    def warm_up(self):
        """One untimed op; it is checked like the others but not counted."""
        self.op()
        self.attempted = self.failed = 0
        self.elapsed = 0.0

    def check(self):
        """Full output check of the last successful op; all ops wrote the same bytes."""
        import workloads

        if self.reference is None:
            self.problems.append("no op succeeded")
            return
        try:
            self.wl.check()
        except workloads.CheckError as exc:
            self.problems.append(str(exc))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            # an output the check cannot even parse
            self.problems.append(f"unreadable output: {exc!r}")


def _result(loop, metrics):
    for p in loop.problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    return {
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def measure(name, seed, seconds, work):
    """End-to-end metrics, tracing off."""
    setup_times, inputs = _setup_samples(name, seed, work)
    import shotcorr.cli as cli

    import workloads

    wl = workloads.WORKLOADS[name](seed, str(inputs))
    loop = Loop(cli, wl)
    loop.warm_up()
    times = []
    while loop.attempted == 0 or loop.elapsed < seconds:
        t = loop.op()
        if t is not None:
            times.append(t)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop.check()
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_s.p50": (statistics.median(times) if times else loop.elapsed / loop.attempted, "s"),
        "work_per_s": (wl.work() * len(times) / loop.elapsed, "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    print(
        f"perfbench: {name} seed {seed}: {len(times)} ops, setup samples "
        + ", ".join(f"{t:.3f}" for t in setup_times),
        file=sys.stderr,
    )
    return _result(loop, metrics)


def traced(name, seed, seconds, work):
    """Per-layer metrics: traced ops interleaved with untraced ones."""
    import shotcorr.cli as cli

    import layertrace as trace
    import workloads

    tracer = trace.Tracer()
    wl = workloads.WORKLOADS[name](seed, str(work / "setup"))
    start = tracer.snapshot()
    tracer.install()
    try:
        wl.build()
    finally:
        tracer.uninstall()
    setup = trace.diff(tracer.snapshot(), start)

    loop = Loop(cli, wl)
    loop.warm_up()
    plain, spans, ops = [], [], []
    while loop.attempted == 0 or loop.elapsed < seconds:
        t = loop.op()
        if t is not None:
            plain.append(t)
        before = tracer.snapshot()
        tracer.install()
        try:
            t = loop.op(tracer)
        finally:
            tracer.uninstall()
        if t is not None:
            spans.append(t)
            ops.append(trace.diff(tracer.snapshot(), before))
    loop.check()
    if not ops:
        loop.problems.append("no traced op succeeded")
        ops.append(setup)  # keeps the printed metric set whole
    if any(op["counts"] != ops[0]["counts"] for op in ops):
        loop.problems.append("layer counts differ between identical traced ops")

    metrics = trace.layer_metrics(setup, ops, wl.rows())
    metrics["cli.artifact_bytes"] = (float(_artifact_bytes(wl)), "bytes")
    overhead = statistics.median(spans) / statistics.median(plain) - 1.0 if plain and spans else 0.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")

    TRACES.mkdir(exist_ok=True)
    out = TRACES / f"{name}-seed{seed}.jsonl"
    with open(out, "w") as fh:
        for sid, parent, span_name, t0, t1 in tracer.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": span_name, "start": t0, "end": t1}) + "\n")
    print(
        f"perfbench: {name} seed {seed}: {len(spans)} traced and {len(plain)} untraced ops, "
        f"overhead {100.0 * overhead:.1f} %, {len(tracer.spans)} spans in {out}",
        file=sys.stderr,
    )
    return _result(loop, metrics)


def smoke(seed, work):
    """One checked op per workload; exit status 0 only if all pass."""
    import shotcorr.cli as cli

    import workloads

    ok = True
    for name in WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name](seed, str(work / name))
        wl.build()
        loop = Loop(cli, wl)
        t = loop.op()
        loop.check()
        passed = t is not None and not loop.problems
        ok &= passed
        took = f"{t:.3f} s" if t is not None else "failed"
        print(f"{name}: {'PASS' if passed else 'FAIL'} ({took}) {'; '.join(loop.problems)}")
    return ok


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one checked op per workload")
    p.add_argument("--probe", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    _require_source()
    if args.probe:
        _probe(args.workload, args.seed, args.probe)
        return 0
    work = WORK / f"{args.workload or 'smoke'}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.smoke:
            return 0 if smoke(args.seed, work) else 1
        if args.workload is None:
            p.error("--workload is required")
        run = traced if args.trace else measure
        result = run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
