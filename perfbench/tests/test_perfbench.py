"""Tests of the benchmark itself: tiny runs of each workload, self-time
arithmetic, and tracing that leaves the program's outputs unchanged.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402  (puts src/ on the path)
import tracer  # noqa: E402
from ewclab import continual, harness, metrics, network, svgplot, synthtasks, tensor  # noqa: E402
from workloads import WORKLOADS, Sizes  # noqa: E402

TINY = Sizes(
    image_size=24, train_count=2, val_count=2, patch_size=12, patches_per_image=8,
    eval_patches=2, trunk=(3, 3, 3), prereq_epochs=1, ewc_epochs=1, fisher_patches=4,
    tile=8, grid_train_count=2, grid_val_count=2, grid_eval_patches=2,
    grid_fisher_samples=2, reruns_per_pass=2,
)


def bench(name, tmp_path, trace=False):
    s = run.BenchRun(WORKLOADS[name](1, tmp_path, TINY), seconds=0.0, trace=trace)
    s.run()
    return s


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_of_each_workload(name, tmp_path):
    s = bench(name, tmp_path)
    assert s.failed == 0
    assert s.attempted >= s.workload.min_ops
    metrics_out = s.end_to_end()
    assert set(metrics_out) == {"setup_s", "op_s", "item_ms_p50", "item_ms_p90", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in metrics_out.values())


def test_self_time_is_duration_minus_child_coverage():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0, 20.0, 21.0])
    rec = tracer.Recorder(clock=lambda: next(ticks))
    root = rec.begin("root")          # 0 .. 10
    a = rec.begin("a")                # 1 .. 4
    with rec.span("leaf"):            # 2 .. 3
        rec.count("work", 2)
    rec.end(a)
    with rec.span("a"):               # 5 .. 9
        pass
    rec.end(root)
    with rec.span("other-root"):      # 20 .. 21
        rec.count("work")
    assert rec.self_times() == [3.0, 2.0, 1.0, 4.0, 1.0]
    totals = rec.layer_totals()
    assert totals[root]["a.self_ms"] == 6000.0
    assert totals[root]["a.calls"] == 2
    assert totals[root]["work"] == 2
    assert totals[4]["work"] == 1


def test_spans_must_close_in_order():
    rec = tracer.Recorder()
    outer = rec.begin("outer")
    rec.begin("inner")
    with pytest.raises(RuntimeError):
        rec.end(outer)


BINDINGS = [
    (harness, "train"), (harness, "backward"), (harness, "sgd_update"), (harness, "ewc_penalty"),
    (harness, "load_run_record"), (continual, "estimate_fisher"), (metrics, "evaluate_model"),
    (metrics, "predict_full"), (network, "conv2d"), (network, "save_checkpoint"),
    (synthtasks, "generate_sample"), (svgplot, "line_chart_grid"), (tensor.Graph, "_register"),
]


def test_tracing_keeps_run_outputs_and_restores_bindings(tmp_path):
    before = [getattr(owner, attr) for owner, attr in BINDINGS]
    s = bench("seq-ewc", tmp_path, trace=True)
    # every run's outputs are compared with the first, untraced run's
    assert s.op_roots and s.walls[False]
    assert s.failed == 0
    assert [getattr(owner, attr) for owner, attr in BINDINGS] == before
    layer = s.per_layer()
    assert layer["tensor.conv2d.bwd.dx_useful_ratio"]["value"] == 0.75
    assert layer["tensor.conv2d.fwd.head.calls"]["value"] > 0
    assert 0.9 < layer["trace.coverage"]["value"] <= 1.0


def test_grid_rerun_is_all_cache_hits(tmp_path):
    s = bench("grid", tmp_path, trace=True)
    assert s.failed == 0
    # one pass trains every run, each of its re-runs reloads every run
    passes = 1 + TINY.reruns_per_pass
    hit_ratio = s.per_layer()["harness.run_cache.hit_ratio"]["value"]
    assert hit_ratio == pytest.approx(TINY.reruns_per_pass / passes)


def test_metric_names_match_benchmark_json(tmp_path):
    import json

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    s = bench("seq-ewc", tmp_path, trace=True)
    layer = s.per_layer()
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(m["unit"] == layer[m["name"]]["unit"] for m in spec["per_layer"])
    e2e = s.end_to_end()
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]]["unit"] for m in spec["end_to_end"])


def test_adjust_divides_each_stretch_by_the_samples_around_it():
    from hostspeed import NOMINAL_S, HostSpeed

    host = HostSpeed()
    # samples at 1..2 (1x slow), 5..6 (3x slow), 9..10 (1x slow)
    host.starts, host.ends = [1.0, 5.0, 9.0], [2.0, 6.0, 10.0]
    host.samples = [NOMINAL_S, 3 * NOMINAL_S, NOMINAL_S]
    # 0..1 before the first sample, 2..5 and 6..9 between samples, 10..11 after
    raw, adjusted = host.adjust(0.0, 11.0)
    assert raw == pytest.approx(8.0)
    assert adjusted == pytest.approx(1.0 + 3.0 / 2.0 + 3.0 / 2.0 + 1.0)
    assert host.adjust(3.0, 4.0) == pytest.approx((1.0, 0.5))
    assert host.adjust(5.5, 7.0) == pytest.approx((1.0, 0.5))


def test_adjust_cpu_divides_by_the_cpu_samples_around_the_item():
    from hostspeed import ITEM_WINDOW, NOMINAL_S, HostSpeed

    host = HostSpeed()
    # 20 samples at i .. i + 0.5: 1x slow, then 3x slow from sample 10 on
    host.starts = [float(i) for i in range(20)]
    host.ends = [i + 0.5 for i in range(20)]
    host.cpu_samples = [NOMINAL_S] * 10 + [3 * NOMINAL_S] * 10
    assert ITEM_WINDOW == 8
    # between samples 9 and 10: samples 2..17 count, eight of each speed
    assert host.adjust_cpu(9.6, 9.9, 0.8) == pytest.approx(0.8 / 2.0)
    # between samples 0 and 1: samples 0..8 count, all 1x
    assert host.adjust_cpu(0.6, 0.9, 0.8) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        host.adjust_cpu(3.6, 5.9, 1.0)
