"""ewclab benchmark: one workload, one seed, a fixed measuring time.

Usage, from the repository root:

    python3 perfbench/run.py --workload seq-ewc --seed 1 --seconds 30 --trace 0

The program under test is imported from ``src/`` next to this directory;
without it the script fails before printing a result.  The last line of
standard output is one JSON object: with ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
# One BLAS thread: the matrices are small, and a second thread spinning on
# a shared core made run-to-run times wander.  Must precede numpy's import.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import ewclab  # noqa: E402

if Path(ewclab.__file__).resolve().parent != ROOT / "src" / "ewclab":
    raise SystemExit(f"ewclab imported from {ewclab.__file__}, not from this checkout")

import tracer  # noqa: E402
from workloads import WORKLOADS, OpResult, Span, Workload  # noqa: E402
from ewclab.errors import EwcLabError  # noqa: E402

CONV_LAYERS = ("l0", "l1", "l2", "head")
SPAN_METRICS = tuple(
    [f"tensor.conv2d.fwd.{l}.{stat}" for l in CONV_LAYERS for stat in ("self_ms", "calls")]
    + [f"tensor.conv2d.bwd.{l}.self_ms" for l in CONV_LAYERS]
    + [
        "tensor.backward.self_ms",
        "tensor.log_softmax.self_ms",
        "tensor.nll_loss.self_ms",
        "network.forward_logits.self_ms",
        "network.sgd_update.self_ms",
        "network.save_checkpoint.self_ms",
        "network.load_checkpoint.self_ms",
        "continual.ewc_penalty.self_ms",
        "continual.estimate_fisher.self_ms",
        "metrics.evaluate_model.patch.self_ms",
        "metrics.evaluate_model.full.self_ms",
        "metrics.predict_full.self_ms",
        "synthtasks.generate_sample.self_ms",
        "synthtasks.generate_sample.calls",
        "harness.train.self_ms",
        "harness.run_experiment.self_ms",
        "harness.load_run_record.self_ms",
        "harness.emit_summary_table.self_ms",
        "svgplot.line_chart_grid.self_ms",
    ]
)
COUNT_METRICS = ("tensor.nodes", "tensor.conv2d.gflop", "network.save_checkpoint.mb")
SETUP_METRICS = (
    "synthtasks.generate_sample.self_ms",
    "synthtasks.generate_sample.calls",
    "continual.estimate_fisher.self_ms",
    "network.save_checkpoint.self_ms",
)


def machine_info() -> dict[str, object]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git": git_sha(),
    }


def blas_threads() -> int | str:
    """Thread count of numpy's bundled OpenBLAS, or 'unknown'."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def git_sha() -> str:
    """Commit of the checkout, or 'unknown' outside a git checkout.  git
    does not look above the checkout, so an enclosing repository's
    commit is never reported."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


class BenchRun:
    """Set-up repeats and the measured loop of one benchmark run."""

    def __init__(self, workload: Workload, seconds: float, trace: bool):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.rec = tracer.Recorder()
        self.host = workload.host
        self.attempted = 0
        self.failed = 0
        self.setup_spans: list[Span] = []
        self.results: list[OpResult] = []
        self.walls: dict[bool, list[float]] = {False: [], True: []}
        self.op_roots: list[int] = []
        self.setup_roots: list[int] = []

    def traced(self, name: str, fn):
        """Run fn under a root span with every layer binding wrapped.  The
        host-speed samples get a span of their own, so they do not count
        as time no layer accounts for."""
        patcher = tracer.Patcher()
        tracer.install(self.rec, patcher)
        patcher.replace(self.host, "sample", tracer.spanned(self.rec, "bench.hostspeed", self.host.sample))
        try:
            with self.rec.span(name) as root:
                return root, fn()
        finally:
            patcher.restore()

    def run(self) -> None:
        patcher = tracer.Patcher()
        self.workload.install(patcher)
        try:
            self.loop()
            while len(self.setup_spans) < self.workload.setup_repeats:
                self.set_up()
        finally:
            patcher.restore()
        self.host.sample()

    def mark(self) -> None:
        """Start each set-up and operation from a collected heap, so its
        time and memory do not depend on the garbage the last one left;
        then take a host-speed sample."""
        gc.collect()
        self.host.sample()

    def set_up(self) -> None:
        w = self.workload
        self.mark()
        t0 = time.perf_counter()
        if self.trace:
            root, _ = self.traced("bench.setup", w.setup)
            self.setup_roots.append(root)
        else:
            w.setup()
        self.setup_spans.append((t0, time.perf_counter()))
        self.attempted += 1
        self.failed += not w.setup_ok

    def loop(self) -> None:
        """Operations until the measuring time is spent.  The set-up
        repeats are spread evenly over that time: the host's speed drifts
        over seconds, so back-to-back repeats would all see one phase."""
        w = self.workload
        measured = 0.0
        index = 0
        while True:
            typical = statistics.median(self.walls[False] + self.walls[True]) if index else 0.0
            if index >= w.min_ops and measured + typical > self.seconds:
                break
            if len(self.setup_spans) < w.setup_repeats and \
                    measured >= len(self.setup_spans) * self.seconds / w.setup_repeats:
                self.set_up()
            # a traced run alternates untraced and traced operations so
            # their difference is the tracing overhead
            traced = self.trace and index % 2 == 1
            self.mark()
            t0 = time.perf_counter()
            try:
                if traced:
                    root, result = self.traced("bench.op", lambda: w.op(index))
                    self.op_roots.append(root)
                else:
                    result = w.op(index)
            except EwcLabError as exc:
                print(f"# operation {index} failed: {exc}", flush=True)
                self.attempted += 1
                self.failed += 1
            else:
                self.results.append(result)
                self.attempted += result.attempted
                self.failed += result.failed
            self.walls[traced].append(time.perf_counter() - t0)
            measured += self.walls[traced][-1]
            index += 1

    def end_to_end(self) -> dict[str, dict[str, object]]:
        """Medians and p90 of times adjusted for the host's speed while
        they were taken: wall time for set-ups and operations, CPU time
        for items (see hostspeed.py).  Raw wall-time figures go to a
        comment."""
        def total(spans: list[Span]) -> tuple[float, float]:
            pairs = [self.host.adjust(*span) for span in spans]
            return sum(raw for raw, _ in pairs), sum(adj for _, adj in pairs)

        setups = [total([span]) for span in self.setup_spans]
        ops = [total(r.spans) for r in self.results]
        items = [(1000.0 * (t1 - t0), 1000.0 * self.host.adjust_cpu(t0, t1, cpu))
                 for r in self.results for t0, t1, cpu in r.items]
        raw, adjusted = (
            {
                "setup_s": statistics.median(s[i] for s in setups),
                "op_s": statistics.median(o[i] for o in ops),
                "item_ms_p50": statistics.median(x[i] for x in items),
                "item_ms_p90": quantile([x[i] for x in items], 90),
            }
            for i in (0, 1)
        )
        print("# raw " + json.dumps(raw) + f" host slowness median "
              f"{statistics.median(o[0] / o[1] for o in ops):.3f}", flush=True)
        units = {"setup_s": "s", "op_s": "s", "item_ms_p50": "ms", "item_ms_p90": "ms"}
        out = {k: {"value": v, "unit": units[k]} for k, v in adjusted.items()}
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        return out

    def per_layer(self) -> dict[str, dict[str, object]]:
        totals = self.rec.layer_totals()
        ops = [totals[r] for r in self.op_roots]
        setups = [totals[r] for r in self.setup_roots]
        layer = tracer.median_rows(ops, SPAN_METRICS + COUNT_METRICS)
        counts = tracer.median_rows(ops, (
            "tensor.conv2d.bwd.dx_useful", "tensor.conv2d.bwd.dx_computed",
            "harness.run_cache.hits", "harness.run_cache.lookups",
        ))
        layer["tensor.conv2d.bwd.dx_useful_ratio"] = tracer.ratio(
            counts, "tensor.conv2d.bwd.dx_useful", "tensor.conv2d.bwd.dx_computed")
        layer["harness.run_cache.hit_ratio"] = tracer.ratio(
            counts, "harness.run_cache.hits", "harness.run_cache.lookups")
        for key, value in tracer.median_rows(setups, SETUP_METRICS).items():
            layer[f"setup.{key}"] = value
        traced = [self.rec.ends[r] - self.rec.starts[r] for r in self.op_roots]
        self_times = self.rec.self_times()
        unattributed = [self_times[r] for r in self.op_roots]
        wall_ms = 1000.0 * statistics.median(traced)
        layer["trace.wall_ms"] = wall_ms
        layer["trace.untraced_ms"] = 1000.0 * statistics.median(self.walls[False])
        layer["trace.overhead_ms"] = layer["trace.wall_ms"] - layer["trace.untraced_ms"]
        layer["trace.unattributed_ms"] = 1000.0 * statistics.median(unattributed)
        layer["trace.coverage"] = 1.0 - layer["trace.unattributed_ms"] / wall_ms
        dice = [r.dice for r in self.results]
        layer["metrics.dice.task_a"] = dice[0]["task_a"]
        layer["metrics.dice.task_b"] = dice[0]["task_b"]
        return {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}

    def print_profile(self) -> None:
        """Layers of one median traced operation, largest self time first."""
        totals = self.rec.layer_totals()
        rows = tracer.median_rows([totals[r] for r in self.op_roots],
                                  {k for r in self.op_roots for k in totals[r] if k.endswith(".self_ms")})
        wall = sum(rows.values())
        ranked = sorted(rows.items(), key=lambda kv: -kv[1])
        print(f"# traced operation: {wall:.1f} ms of self time across {len(rows)} spans; "
              f"largest layer {ranked[0][0][:-len('.self_ms')]}")
        for name, ms in ranked:
            print(f"#   {ms:10.2f} ms  {100.0 * ms / wall:5.1f}%  {name[:-len('.self_ms')]}")


def unit_of(name: str) -> str:
    for suffix, unit in ((".self_ms", "ms"), ("_ms", "ms"), (".calls", "count"), (".gflop", "GFLOP"),
                         (".mb", "MB"), ("tensor.nodes", "count")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print("# machine " + json.dumps(machine_info()), flush=True)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = BenchRun(WORKLOADS[args.workload](args.seed, work), args.seconds, bool(args.trace))
        bench.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if not bench.results:
        raise SystemExit(f"no operation succeeded ({bench.failed} failed)")
    if args.trace:
        bench.print_profile()
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": bench.per_layer() if args.trace else bench.end_to_end(),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
