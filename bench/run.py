"""cubica benchmark: one seeded, closed-loop, single-threaded client.

    python3 bench/run.py --workload {figures,reduce,exact,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
src/.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  Lines before it give the failure
breakdown by layer and exception class.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import json
import resource
import statistics
import subprocess
import sys
import types
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "ok_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_TIMED_LAYERS = (
    "march.marching_segments", "march.stitch", "cubic.evaluate_grid",
    "cubic.find_flexes", "hesse.to_hesse", "real_curves.classify_real",
    "cubic.transform.exact", "cubic.transform.float",
    "cubic.hessian.exact", "cubic.hessian.float", "cubic.is_smooth",
    "standard.to_standard.exact", "standard.to_standard.float",
    "group_law.multiply.exact", "group_law.multiply.float",
)
_FIGURE_KINDS = ("pencil", "jgraph", "canonical", "triangle", "voronoi")
# operation failures by the step that failed and the exception class, as
# seen on the parent commit; any other pair is still printed in the breakdown
_FAILURE_CLASSES = (
    "hesse.fail.ConvergenceFailure", "hesse.fail.WrongAnswer",
    "cubic.fail.WrongAnswer", "cubic.fail.SingularCurve", "cubic.fail.ConvergenceFailure",
    "standard.fail.NotAFlex", "standard.fail.WrongAnswer",
    "group_law.fail.OverflowError", "group_law.fail.ConvergenceFailure", "group_law.fail.WrongAnswer",
    "real_curves.fail.ConvergenceFailure", "real_curves.fail.NotAFlex", "real_curves.fail.WrongAnswer",
    "render.fail.WrongAnswer",
)
PER_LAYER = {
    **{f"{layer}.{what}": unit for layer in _TIMED_LAYERS
       for what, unit in (("calls", "count"), ("ms", "ms"), ("self_ms", "ms"), ("fail", "count"))},
    **{f"render.{kind}.{what}": "ms" for kind in _FIGURE_KINDS for what in ("ms", "self_ms")},
    "render.svg_bytes": "bytes",
    "march.cells": "count",
    "march.nan_cells": "count",
    "march.active_cells": "count",
    "march.active_frac": "frac",
    "cli.import_ms": "ms",
    **{name: "count" for name in _FAILURE_CLASSES},
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}

SETUP_REPEATS = 5
MIN_OPS = 100  # operations timed per run
MIN_PASSES = 3  # timings of each operation, of which latency takes the fastest
IMPORTS = "numpy,cubica,cubica.cli"


class Abandon(Exception):
    """Ends the part of an operation whose library call failed."""


def failure_name(exc) -> str:
    code = getattr(exc, "exit_code", None)
    return f"exit{code}" if code is not None else type(exc).__name__


class Step:
    """Times one operation's library calls and collects its failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.busy = 0.0  # in the library's calls
        self.wall = 0.0  # of the whole operation, its checks included
        self.failures = []
        self.svg_bytes = 0

    def call(self, name, fn, *args):
        t0 = perf_counter()
        try:
            if self.tracer is not None:
                return self.tracer.call("step:" + name, fn, *args)
            return fn(*args)
        except Exception as exc:
            self.failures.append((name, failure_name(exc), str(exc)[:120]))
            raise Abandon from exc
        finally:
            self.busy += perf_counter() - t0

    def check(self, layer, ok):
        if not ok:
            self.failures.append((layer, "WrongAnswer", "oracle mismatch"))

    @contextmanager
    def part(self):
        """Runs the checks that do not depend on an earlier failed call."""
        try:
            yield
        except Abandon:
            pass
        except Exception as exc:  # a defect of the benchmark, reported, not raised
            self.failures.append(("bench", type(exc).__name__, str(exc)[:120]))


def run_pass(items, op, tracer=None):
    records = []
    for item in items:
        step = Step(tracer)
        t = perf_counter()
        with step.part():
            if tracer is None:
                op(item, step)
            else:
                tracer.op += 1
                tracer.call("op", op, item, step)
        step.wall = perf_counter() - t
        records.append(step)
    return records


def cold_import_s() -> float:
    """Import time of the library in a fresh interpreter."""
    code = (f"import time; t = time.perf_counter(); import {IMPORTS}; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=workloads.cli_env(ROOT),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def cli_import_ms() -> float:
    """Cold `import cubica.cli` minus a bare interpreter, medians of five."""
    def wall(code):
        t = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=workloads.cli_env(ROOT),
                       capture_output=True, timeout=120, check=True)
        return perf_counter() - t

    bare = statistics.median(wall("pass") for _ in range(5))
    full = statistics.median(wall("import cubica.cli") for _ in range(5))
    return 1e3 * (full - bare)


MODULES = ("cli", "cubic", "group_law", "hesse", "lattice", "projective",
           "real_curves", "render", "standard")


def load_library():
    """The library's modules, imported from this checkout's src/."""
    if not (SRC / "cubica" / "__init__.py").is_file():
        raise SystemExit(f"error: no cubica sources under {SRC}")
    sys.path.insert(0, str(SRC))
    lib = types.SimpleNamespace(**{m: importlib.import_module(f"cubica.{m}") for m in MODULES})
    where = Path(lib.cubic.__file__).resolve().parent
    if where != (SRC / "cubica").resolve():
        raise SystemExit(f"error: imported cubica from {where}, not {SRC}")
    return lib


def workload_table(lib):
    return {
        "figures": (workloads.figures_inputs, functools.partial(workloads.figures_op, lib),
                    lambda items: [i for i in items if i.kind in ("jgraph", "triangle", "voronoi")]),
        "reduce": (workloads.reduce_inputs, functools.partial(workloads.reduce_op, lib),
                   lambda items: items[:2]),
        "exact": (workloads.exact_inputs, functools.partial(workloads.exact_op, lib),
                  lambda items: items[:2]),
        # not in BENCHMARK.json: process start-up swings with the load of a
        # shared machine by more than any bound the benchmark may set
        "cli": (workloads.cli_inputs, functools.partial(workloads.cli_op, ROOT),
                lambda items: [i for i in items if i.argv[0] == "hesse-j"][:1]),
    }


def set_up(make_inputs, op, warm, seed):
    """Median of several set-ups: cold import, input generation, warm-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t = cold_import_s()
        t0 = perf_counter()
        items = make_inputs(seed)
        run_pass(warm(items), op)
        times.append(t + perf_counter() - t0)
    return items, statistics.median(times)


def measure(items, op, seconds):
    """Whole passes over the inputs until the time, MIN_OPS and MIN_PASSES
    are all reached; returns every operation and the wall time of each pass."""
    records, walls = [], []
    while sum(walls) < seconds or len(records) < MIN_OPS or len(walls) < MIN_PASSES:
        t = perf_counter()
        records += run_pass(items, op)
        walls.append(perf_counter() - t)
    return records, walls


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def failure_counts(records):
    counts = {}
    for step in records:
        for layer, cls, msg in step.failures:
            row = counts.setdefault((layer, cls), [0, msg])
            row[0] += 1
    return counts


def distinct_outcomes(records, passes):
    """(attempted, failed) with each operation counted once: every pass
    repeats the same inputs, so both depend on the seed alone and not on how
    many passes fit in the time.  An operation fails if it failed in any pass."""
    n = len(records) // passes
    return n, sum(1 for i in range(n) if any(s.failures for s in records[i::n]))


def report_failures(records, passes):
    counts = failure_counts(records)
    attempted, failed = distinct_outcomes(records, passes)
    print(f"# {attempted} operations, {passes} passes over them, {failed} failed")
    for (layer, cls), (n, msg) in sorted(counts.items()):
        print(f"# fail {layer} {cls}: {n // passes} per pass; first: {msg}")


def end_to_end(records, walls, setup_s):
    # every pass repeats the same operations, and a busy shared machine only
    # ever adds time, so an operation's latency is its fastest pass and the
    # rate is the correct results over the sum of every operation's fastest
    # wall time (a stall spoils one operation's timing, not a whole pass's)
    n, failed = distinct_outcomes(records, len(walls))
    lat = [min(1e3 * s.busy for s in records[i::n]) for i in range(n)]
    wall = sum(min(s.wall for s in records[i::n]) for i in range(n))
    return {
        "ok_per_s": (n - failed) / wall,
        "p50_ms": statistics.median(lat),
        "p90_ms": statistics.quantiles(lat, n=10)[8],
        "ok_frac": (n - failed) / n,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_run(items, op, seconds):
    """Alternate untraced and traced passes; per-layer numbers are per traced pass."""
    tracer = tracing.Tracer()
    plain, traced, records = [], [], []
    t0 = perf_counter()
    while perf_counter() - t0 < seconds or not traced:
        t = perf_counter()
        run_pass(items, op)
        plain.append(perf_counter() - t)
        tracer.install()
        try:
            t = perf_counter()
            records += run_pass(items, op, tracer)
            traced.append(perf_counter() - t)
        finally:
            tracer.uninstall()
    passes = len(traced)
    values = dict.fromkeys(PER_LAYER, 0.0)
    for name, (calls, total, own, failed) in tracer.layer_totals().items():
        if name.startswith("render."):
            values[f"{name}.ms"] = 1e3 * total / passes
            values[f"{name}.self_ms"] = 1e3 * own / passes
        elif f"{name}.calls" in values:
            values[f"{name}.calls"] = calls / passes
            values[f"{name}.ms"] = 1e3 * total / passes
            values[f"{name}.self_ms"] = 1e3 * own / passes
            values[f"{name}.fail"] = failed / passes
    cells, nan_cells, active = tracer.march
    values["march.cells"] = cells / passes
    values["march.nan_cells"] = nan_cells / passes
    values["march.active_cells"] = active / passes
    values["march.active_frac"] = active / cells if cells else 0.0
    values["render.svg_bytes"] = sum(s.svg_bytes for s in records) / passes
    for (layer, cls), (n, _msg) in failure_counts(records).items():
        key = f"{layer.split('.')[0]}.fail.{cls}"
        if key in values:
            values[key] += n / passes
    values["cli.import_ms"] = cli_import_ms()
    values["trace.spans"] = len(tracer.spans) / passes
    values["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    return records, passes, values, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("figures", "reduce", "exact", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = load_library()
    make_inputs, op, warm = workload_table(lib)[args.workload]
    items, setup_s = set_up(make_inputs, op, warm, args.seed)

    if args.trace:
        records, passes, values, tracer = traced_run(items, op, args.seconds)
        units = PER_LAYER
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(tracer.to_json()))
        print(f"# spans written to {path.relative_to(ROOT)}")
    else:
        records, walls = measure(items, op, args.seconds)
        passes = len(walls)
        values = end_to_end(records, walls, setup_s)
        units = END_TO_END
        print(f"# p50_ms and p90_ms over {len(items)} operations, each the fastest of {passes} passes")
    report_failures(records, passes)
    attempted, failed = distinct_outcomes(records, passes)
    internal = any(layer == "bench" for s in records for layer, _c, _m in s.failures)
    print(json.dumps({
        "correct": not internal,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
