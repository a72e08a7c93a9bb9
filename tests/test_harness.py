"""Config parsing, training loop determinism, regime identities, firewall,
experiment orchestration and artifact emission.

Runs here use a miniature scale (small images, few samples, two epochs)
so the whole module stays fast; the acceptance module exercises the full
default scale.
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
import tracemalloc
import warnings

import numpy as np
import pytest

from ewclab import harness, network, svgplot, synthtasks, tensor
from ewclab.continual import REGIMES, build_regime, ewc_penalty
from ewclab.errors import ConfigError, ContractError, DivergenceError
from ewclab.harness import (
    CSV_HEADER,
    ExperimentConfig,
    MetricRow,
    build_eval_patches,
    config_digest,
    dump_config,
    emit_plots,
    emit_summary_table,
    group_rows,
    load_data,
    load_run_record,
    parse_config,
    run_experiment,
    run_id,
    train,
)
from ewclab.network import FisherDiagonal, FisherProvenance, ParamStore
from ewclab.synthtasks import TASKS, SampleBank, write_dataset

TINY = {
    "regime": "dm-a",
    "seeds": "1",
    "epochs": "2",
    "image_size": "32",
    "train_a_count": "3",
    "train_b_count": "3",
    "val_count": "3",
    "patch_size": "16",
    "eval_patches": "6",
    "trunk": "6,6",
    "fisher_samples": "8",
    "patches_per_image": "2",
    "batch_size": "4",
}


def tiny_config(tmp_path, **extra) -> ExperimentConfig:
    overrides = dict(TINY)
    overrides["out_dir"] = str(tmp_path / "exp")
    overrides.update({k: str(v) for k, v in extra.items()})
    return parse_config(overrides=overrides)


def digest_of(config: ExperimentConfig) -> str:
    return config_digest(config, synthtasks.manifest_text(*load_data(config)))


def project(csv_text: str) -> str:
    """Identity columns (run id, regime, lambda) dropped; the rest carries
    the training trajectory."""
    lines = csv_text.splitlines()
    return "\n".join(",".join(line.split(",")[4:]) for line in lines[1:])


class TestConfig:
    def test_defaults_round_trip(self, tmp_path):
        config = tiny_config(tmp_path)
        path = tmp_path / "dump.cfg"
        path.write_text(dump_config(config))
        assert parse_config(path) == config

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="warp_speed"):
            parse_config(overrides={"warp_speed": "9"})

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="'epochs'"):
            parse_config(overrides={"epochs": "twenty"})

    def test_file_parsing_with_comments_and_lists(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("# sweep\nregime = l2, ewc\nlambda = 0.1, 1, 10\nepochs=5\n")
        config = parse_config(path)
        assert config.regimes == ("l2", "ewc")
        assert config.lambdas == (0.1, 1.0, 10.0)
        assert config.epochs == 5

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("epochs = 5\n")
        config = parse_config(path, overrides={"epochs": "9"})
        assert config.epochs == 9

    def test_missing_regime_rejected_by_experiment(self, tmp_path):
        config = parse_config(overrides={"out_dir": str(tmp_path)})
        with pytest.raises(ConfigError, match="regime"):
            run_experiment(config)

    def test_lambda_sweep_plan(self, tmp_path):
        config = tiny_config(tmp_path, regime="l2", **{"lambda": "0.1, 1, 10"})
        assert config.grid_for("l2") == (0.1, 1.0, 10.0)
        assert config.grid_for("finetune") == (0.0,)

    def test_default_grids_differ_per_regularizer(self):
        config = parse_config(overrides={"regime": "l2,ewc"})
        assert config.lambdas == ()
        assert config.grid_for("l2") != config.grid_for("ewc")
        assert max(config.grid_for("l2")) < min(config.grid_for("ewc"))

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            parse_config(overrides={"momentum": "1.5"})
        with pytest.raises(ConfigError):
            parse_config(overrides={"patch_size": "3", "trunk": "6,6"})
        with pytest.raises(ConfigError):
            parse_config(overrides={"fisher_mode": "exact"})
        with pytest.raises(ConfigError, match="trunk"):
            parse_config(overrides={"trunk": "0,4"})
        with pytest.raises(ConfigError, match="tile"):
            parse_config(overrides={"tile": "-5"})
        # run ids and artifacts write lambda as %g: values that coincide
        # there, or a repeated seed, would share one run
        with pytest.raises(ConfigError, match="lambda"):
            parse_config(overrides={"lambda": "0.1,0.1000001"})
        with pytest.raises(ConfigError, match="lambda"):
            parse_config(overrides={"lambda": "0.1,0.1"})
        # a lambda must equal its %g text, or runs trained at two values
        # would share one id and one report row
        with pytest.raises(ConfigError, match="lambda"):
            parse_config(overrides={"lambda": "0.0123456789"})
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(overrides={"seeds": "1,1"})

    def test_run_id_stable_across_out_dirs(self, tmp_path):
        a = tiny_config(tmp_path / "one")
        b = tiny_config(tmp_path / "two")
        digest_a, digest_b = digest_of(a), digest_of(b)
        assert digest_a == digest_b
        assert run_id("dm-a", 0.0, 1, digest_a) == run_id("dm-a", 0.0, 1, digest_b)

    def test_run_id_changes_with_core_version(self, tmp_path, monkeypatch):
        config = tiny_config(tmp_path)
        before = run_id("ewc", 150.0, 1, digest_of(config))
        monkeypatch.setattr(tensor, "CORE_VERSION", tensor.CORE_VERSION + 1)
        assert run_id("ewc", 150.0, 1, digest_of(config)) != before

    def test_run_ids_are_pinned(self, tmp_path):
        # a manifest's digest hashes its parsed content, which for a
        # manifest that generate-data wrote is the file's text, so these
        # ids equal those of hashing the file's bytes
        config = tiny_config(tmp_path)
        write_dataset(tmp_path / "data", *load_data(config))
        path = tmp_path / "data" / "manifest.txt"
        from_file = tiny_config(tmp_path, data_manifest=path)
        assert run_id("ewc", 150.0, 1, digest_of(config)) == "4ba9fbac75c8"
        assert run_id("ewc", 150.0, 1, digest_of(from_file)) == "564509fbbbaa"
        # a comment touches no data, so the ids hold
        path.write_text("# split seeds from data_seed 7\n" + path.read_text())
        assert run_id("ewc", 150.0, 1, digest_of(from_file)) == "564509fbbbaa"


class TestTrainLoop:
    def test_two_runs_bit_identical(self, tmp_path):
        records = []
        for name in ("one", "two"):
            config = tiny_config(tmp_path / name)
            manifest, gen = load_data(config)
            bank = SampleBank(manifest, gen)
            plan = build_regime("dm-a", 0.0, 1, trunk=config.trunk)
            records.append(train(plan, config, bank, tmp_path / name / "run"))
        a, b = records
        assert [r.csv_line() for r in a.rows] == [r.csv_line() for r in b.rows]
        ck_a = (tmp_path / "one" / "run" / "final.ckpt").read_bytes()
        ck_b = (tmp_path / "two" / "run" / "final.ckpt").read_bytes()
        assert ck_a == ck_b

    def test_one_plan_trained_twice_writes_identical_bytes(self, tmp_path):
        # train works on a copy of the plan's store, so the second run
        # starts where the first did
        config = tiny_config(tmp_path)
        (dm_a,) = run_experiment(config)
        bank = SampleBank(*load_data(config))
        plan = build_regime("ewc", 1.0, 1, dm_a.checkpoint_final, trunk=config.trunk)
        for name in ("one", "two"):
            train(plan, config, bank, tmp_path / name)
        for artifact in ("metrics.csv", "losses.csv", "final.ckpt"):
            one = (tmp_path / "one" / artifact).read_bytes()
            assert one == (tmp_path / "two" / artifact).read_bytes(), artifact

    def test_epoch0_checkpoint_is_pretraining_state(self, tmp_path):
        # the pre-training state is the plan's store, which train leaves
        # as build_regime built it: the fresh init_network state
        config = tiny_config(tmp_path)
        manifest, gen = load_data(config)
        bank = SampleBank(manifest, gen)
        plan = build_regime("dm-a", 0.0, 1, trunk=config.trunk)
        built = {name: values.tobytes() for name, values in plan.store.items()}
        train(plan, config, bank, tmp_path / "run")
        fresh = network.init_network(plan.store.spec, harness.derive_seed(1, "init"))
        assert list(plan.store) == list(fresh)
        for name in fresh:
            assert plan.store[name].tobytes() == built[name] == fresh[name].tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_location(self, tmp_path):
        # an absurdly stiff anchor spring under momentum SGD blows up
        config = tiny_config(tmp_path, epochs=3, patches_per_image=6)
        records = run_experiment(
            tiny_config(tmp_path, epochs=3, patches_per_image=6, regime="dm-a")
        )
        manifest, gen = load_data(config)
        bank = SampleBank(manifest, gen)
        plan = build_regime("l2", 1e6, 1, records[0].checkpoint_final, trunk=config.trunk)
        with pytest.raises(DivergenceError, match="epoch"):
            train(plan, config, bank, tmp_path / "run")

    def test_divergence_warns_nothing(self, tmp_path):
        # the overflow that precedes a divergence is reported by the
        # DivergenceError alone, not by numpy warnings besides
        config = tiny_config(tmp_path, epochs=3, patches_per_image=6)
        records = run_experiment(tiny_config(tmp_path, epochs=3, patches_per_image=6, regime="dm-a"))
        plan = build_regime("l2", 1e6, 1, records[0].checkpoint_final, trunk=config.trunk)
        bank = SampleBank(*load_data(config))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="epoch"):
                train(plan, config, bank, tmp_path / "run")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_does_not_abort_sweep(self, tmp_path):
        config = tiny_config(
            tmp_path, epochs=3, patches_per_image=6, regime="l2",
            **{"lambda": "0.1, 1e6"},
        )
        records = run_experiment(config)
        regimes = [(r.regime, r.lam) for r in records]
        assert ("l2", 0.1) in regimes
        assert ("l2", 1e6) not in regimes
        failures = (tmp_path / "exp" / "failures.txt").read_text()
        assert "l2,1e+06" in failures
        diverged = next(line for line in failures.splitlines() if ",l2,1e+06," in line).split(",")[0]
        assert not (tmp_path / "exp" / "runs" / diverged).exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sweep_without_failures_removes_stale_failures_file(self, tmp_path):
        run_experiment(tiny_config(tmp_path, epochs=3, patches_per_image=6,
                                   regime="dm-a,l2", **{"lambda": "1e6"}))
        failures = tmp_path / "exp" / "failures.txt"
        assert "l2,1e+06" in failures.read_text()
        run_experiment(tiny_config(tmp_path, epochs=3, patches_per_image=6, regime="dm-a"))
        assert not failures.exists()

    def test_firewall_blocks_undeclared_split(self, tmp_path):
        config = tiny_config(tmp_path)
        manifest, gen = load_data(config)
        bank = SampleBank(manifest, gen)
        plan = build_regime("dm-a", 0.0, 1, trunk=config.trunk)
        plan = type(plan)(**{**vars(plan), "input_splits": ("validation",)})
        with pytest.raises(ContractError, match="train_a"):
            train(plan, config, bank, tmp_path / "run")


def one_graph_step(store, plan, work, config):
    """The step as one graph: every patch's loss, summed with ``add`` and
    scaled per task, task A plus task B, plus the penalty, then a single
    backward, whose map the oracle fills with an all-zero gradient for
    each store entry the loss does not reach.  The oracle of the streamed
    step."""
    leaves = network.leaf_tensors(store, tensor.Graph())
    margin = network.output_margin(store.spec)
    means = []
    for task, images, batch in work:
        losses = []
        for idx, top, left in batch:
            patch, labels = harness.extract_patch(images[idx], task, top, left, config.patch_size, margin)
            logits = network.forward_logits(leaves, store.spec, patch, task.head)
            k = logits.values.shape[0]
            lp = tensor.log_softmax(tensor.reshape(logits, (k, logits.values.size // k)))
            losses.append(tensor.nll_loss(lp, labels.reshape(-1)))
        total = losses[0]
        for loss in losses[1:]:
            total = tensor.add(total, loss)
        means.append(tensor.scale(total, 1.0 / len(losses)))
    task_loss = means[0] if len(means) == 1 else tensor.add(means[0], means[1])
    total = task_loss
    if plan.fisher is not None:
        total = tensor.add(task_loss, ewc_penalty(leaves, plan.anchor, plan.fisher, plan.lam))
    grads = tensor.backward(total)
    filled = {name: grads.get(name, np.zeros_like(values)) for name, values in store.items()}
    return float(task_loss.values), float(total.values), filled


def epoch_work(plan, config, bank, epoch):
    """(task, images, batch) per trained task for each step of ``epoch``,
    drawn as ``train`` draws them."""
    per_task = []
    for task_id in plan.train_tasks:
        task = TASKS[task_id]
        images = bank.split(f"train_{task_id}")
        rng = harness.seeded_rng(plan.seed, "epoch", epoch, task_id)
        per_task.append((task, images, harness._epoch_batches(images, task, config, rng)))
    steps = max(len(batches) for _, _, batches in per_task)
    return [[(task, images, batches[step % len(batches)]) for task, images, batches in per_task]
            for step in range(steps)]


@pytest.fixture(scope="module")
def unequal(tmp_path_factory):
    """A tiny config whose task-B split has more images than task A's (so
    multitask runs more task-B batches than task-A ones, and the last
    batch of each is short) and its dm-a checkpoint."""
    tmp = tmp_path_factory.mktemp("unequal")
    config = tiny_config(tmp, train_b_count=5)
    (dm_a,) = run_experiment(config)
    return config, dm_a.checkpoint_final


class TestStreamedStep:
    @pytest.mark.parametrize("kind,lam", [
        ("ewc", 150.0), ("ewc", 0.0), ("l2", 1.0), ("finetune", 0.0), ("multitask", 0.0),
    ])
    def test_bitwise_equal_to_the_one_graph_step(self, unequal, kind, lam):
        config, checkpoint = unequal
        bank = SampleBank(*load_data(config))
        plan = build_regime(kind, lam, 1, checkpoint if REGIMES[kind].sequential else None,
                            trunk=config.trunk)
        streamed = ParamStore(plan.store, spec=plan.store.spec)
        oracle = ParamStore(plan.store, spec=plan.store.spec)
        v_streamed, v_oracle = {}, {}
        sizes = set()
        for epoch in (1, 2):
            for step, work in enumerate(epoch_work(plan, config, bank, epoch)):
                sizes.update(len(batch) for _, _, batch in work)
                loss, total, grads = harness._train_step(streamed, plan, work, config, epoch, step)
                o_loss, o_total, o_grads = one_graph_step(oracle, plan, work, config)
                assert (loss.hex(), total.hex()) == (o_loss.hex(), o_total.hex())
                for name, grad in o_grads.items():
                    if name in grads:
                        assert grads[name].tobytes() == grad.tobytes(), name
                    else:  # no term reached it
                        assert not grad.any(), name
                unreached = set(o_grads) - set(grads)
                assert unreached == ({"head.taskA.weights", "head.taskA.bias"} if kind == "finetune" else set())
                # a missing entry updates as a zero gradient does
                network.sgd_update(streamed, grads, v_streamed, config.learning_rate, config.momentum)
                network.sgd_update(oracle, o_grads, v_oracle, config.learning_rate, config.momentum)
                for name in oracle:
                    assert streamed[name].tobytes() == oracle[name].tobytes(), name
        assert sizes == {2, 4}  # full batches and a short last one
        if kind == "multitask":
            assert len(epoch_work(plan, config, bank, 1)) == 3  # task A has 2 batches

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_applies_no_update(self, tmp_path, monkeypatch):
        config = tiny_config(tmp_path)
        plan = build_regime("dm-a", 0.0, 1, trunk=config.trunk)
        plan.store["trunk.1.bias"][0] = np.inf
        updates = []
        monkeypatch.setattr(harness, "sgd_update", lambda *args: updates.append(args))
        with pytest.raises(DivergenceError, match="epoch 1, batch 0"):
            train(plan, config, SampleBank(*load_data(config)), tmp_path / "run")
        assert updates == []

    def test_run_files_are_pinned(self, tmp_path):
        # digests computed with the one-graph step of the same numeric
        # core (CORE_VERSION 2); a BLAS that rounds differently moves them
        config = tiny_config(tmp_path, regime="multitask,ewc", train_b_count=5, **{"lambda": "150"})
        records = {r.regime: r for r in run_experiment(config)}
        digests = {}
        for kind in ("multitask", "ewc"):
            run_dir = tmp_path / "exp" / "runs" / records[kind].run_id
            for name in ("metrics.csv", "losses.csv", "final.ckpt"):
                digests[kind, name] = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        assert digests == PINNED_RUN_FILES

    def test_step_memory_does_not_grow_with_batch_size(self, tmp_path, monkeypatch):
        # the traced peak between consecutive updates: one patch's arrays
        # at a time, whatever the batch holds
        update = harness.sgd_update
        peaks = {}
        for batch_size in (2, 8):
            config = tiny_config(tmp_path / str(batch_size), batch_size=batch_size,
                                 patches_per_image=8, epochs=1)
            plan = build_regime("dm-a", 0.0, 1, trunk=config.trunk)
            bank = SampleBank(*load_data(config))
            samples = []

            def traced_update(*args):
                update(*args)
                samples.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()

            monkeypatch.setattr(harness, "sgd_update", traced_update)
            tracemalloc.start()
            try:
                train(plan, config, bank, tmp_path / str(batch_size) / "run")
            finally:
                tracemalloc.stop()
            assert len(samples) >= 3
            peaks[batch_size] = max(samples[1:])  # the first interval holds the set-up
        assert peaks[8] <= 1.5 * peaks[2], peaks


# sha256 of a tiny sweep's run files (multitask, and ewc at lambda 150)
PINNED_RUN_FILES = {
    ("multitask", "metrics.csv"): "581e41b2b75d9a22759992aa3d4f46437b7b7d5de7a3eae0b3c5e2d4b53d2de2",
    ("multitask", "losses.csv"): "981817e3ef8237a305d521e21a32b92a046893a2f5cb63da748a9a5d4794e1a8",
    ("multitask", "final.ckpt"): "9680e3def66e290db7034b73cf4c01b8c1685fa491a42475d1ee754435603e4c",
    ("ewc", "metrics.csv"): "58b6636f6565b10fb82a41df0fd9cc448c792d0b26389ac69327b88a84b7370f",
    ("ewc", "losses.csv"): "8192fec36ec037a73eb777b45d1a04cfae9305548e4ad3c58406ceb218b3045d",
    ("ewc", "final.ckpt"): "5ab18c99d1210f506ff8c57442be1f5d1f2280bd5e631e74497b4898f15e7a38",
}


@pytest.fixture
def trained(monkeypatch) -> list[tuple[str, float]]:
    """(regime, lambda) of every run that trains from here on."""
    calls = []
    train_fn = harness.train

    def counted_train(plan, *args, **kwargs):
        calls.append((plan.kind, plan.lam))
        return train_fn(plan, *args, **kwargs)

    monkeypatch.setattr(harness, "train", counted_train)
    return calls


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("exp")
    config = tiny_config(tmp, regime="dm-a,dm-b,multitask,finetune,l2,ewc",
                         **{"lambda": "1"})
    records = run_experiment(config)
    return tmp / "exp", config, records


class TestExperiment:
    def test_run_count(self, experiment):
        out, config, records = experiment
        # dm-a, dm-b once; multitask, finetune, l2, ewc once per (seed[, lam])
        assert len(records) == 1 + 1 + 1 + 1 + 1 + 1

    def test_sequential_regimes_never_touch_task_a_training_data(self, experiment):
        out, config, records = experiment
        for record in records:
            if record.regime in ("finetune", "l2", "ewc"):
                assert "train_a" not in record.splits_used

    def test_penalty_zero_for_unregularized(self, experiment):
        out, config, records = experiment
        for record in records:
            if record.regime in ("dm-a", "dm-b", "multitask", "finetune"):
                lines = (out / "runs" / record.run_id / "losses.csv").read_text().splitlines()
                assert lines[0] == harness.LOSS_HEADER
                assert len(lines) == 1 + config.epochs + 1
                assert all(line.split(",")[3] == "0.0" for line in lines[1:])

    def test_curves_csv_header_and_rows(self, experiment):
        out, config, records = experiment
        lines = (out / "curves.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        parsed = [MetricRow.from_csv_line(line) for line in lines[1:]]
        assert len(parsed) == sum(len(r.rows) for r in records)

    def test_summary_marks_untrained_tasks(self, experiment):
        out, config, records = experiment
        text = (out / "summary.txt").read_text()
        lines = text.splitlines()
        dm_a_row = next(line for line in lines if line.startswith("DM-A"))
        assert dm_a_row.rstrip().endswith("-")
        dm_b_row = next(line for line in lines if line.startswith("DM-B"))
        assert dm_b_row.count("-") >= 3

    def test_plots_written_with_sorted_legend(self, experiment):
        out, config, records = experiment
        for regime in ("l2", "ewc"):
            svg = (out / "plots" / f"{regime}.svg").read_text()
            assert "<svg" in svg and "polyline" in svg

    def test_rerun_skips_completed_runs(self, experiment):
        out, config, records = experiment
        curves_before = (out / "curves.csv").read_bytes()
        again = run_experiment(config)
        assert len(again) == len(records)
        assert (out / "curves.csv").read_bytes() == curves_before

    def test_rerun_generates_no_data_and_leaves_every_file_in_place(self, experiment, monkeypatch):
        out, config, records = experiment
        files = sorted(p for p in out.rglob("*") if p.is_file())
        assert {"curves.csv", "summary.txt", "summary.csv", "manifest.txt"} <= {p.name for p in files}
        before = {p: (p.read_bytes(), p.stat().st_mtime_ns, p.stat().st_ino) for p in files}
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(synthtasks, "generate_sample",
                            counted("generate_sample", synthtasks.generate_sample))
        monkeypatch.setattr(harness, "build_eval_patches",
                            counted("build_eval_patches", harness.build_eval_patches))
        monkeypatch.setattr(os, "replace", counted("os.replace", os.replace))
        assert len(run_experiment(config)) == len(records)
        assert calls == []
        assert sorted(p for p in out.rglob("*") if p.is_file()) == files
        assert {p: (p.read_bytes(), p.stat().st_mtime_ns, p.stat().st_ino) for p in files} == before

    def test_rerun_formats_no_row(self, experiment, monkeypatch):
        # a hit's curves.csv lines are its metrics.csv lines as read
        out, config, records = experiment
        curves = (out / "curves.csv").read_bytes()
        calls = []
        csv_line = MetricRow.csv_line
        monkeypatch.setattr(MetricRow, "csv_line", lambda row: calls.append(row) or csv_line(row))
        run_experiment(config)
        assert calls == []
        assert (out / "curves.csv").read_bytes() == curves

    def test_rerun_builds_the_manifest_text_once(self, tmp_path, monkeypatch):
        # manifest.txt is written from the text the run ids hash
        config = tiny_config(tmp_path)
        write_dataset(tmp_path / "data", *load_data(config))
        config = tiny_config(tmp_path, data_manifest=tmp_path / "data" / "manifest.txt")
        (first,) = run_experiment(config)
        calls = []
        text = synthtasks.manifest_text
        monkeypatch.setattr(harness, "manifest_text", lambda *args: calls.append(args) or text(*args))
        (again,) = run_experiment(config)
        assert len(calls) == 1
        assert again.run_id == first.run_id == run_id("dm-a", 0.0, 1, digest_of(config))
        assert (tmp_path / "exp" / "manifest.txt").read_text() == text(*load_data(config))

    def test_curves_csv_joins_the_runs_metrics_lines_in_sweep_order(self, tmp_path):
        config = tiny_config(tmp_path, regime="ewc,finetune,l2", **{"lambda": "2, 0.5"})
        out = tmp_path / "exp"
        for _ in ("fresh sweep", "all-hit re-run"):
            records = run_experiment(config)
            assert [(r.regime, r.lam) for r in records] == [
                ("dm-a", 0.0), ("finetune", 0.0), ("l2", 2.0), ("l2", 0.5), ("ewc", 2.0), ("ewc", 0.5)
            ]
            bodies = [(out / "runs" / r.run_id / "metrics.csv").read_text().split("\n", 1)[1]
                      for r in records]
            assert (out / "curves.csv").read_text() == CSV_HEADER + "\n" + "".join(bodies)

    def test_extended_sweep_trains_only_the_new_lambda(self, tmp_path, trained):
        run_experiment(tiny_config(tmp_path / "grow", regime="l2", **{"lambda": "0.5"}))
        trained.clear()
        grown = run_experiment(tiny_config(tmp_path / "grow", regime="l2", **{"lambda": "0.5, 2"}))
        assert trained == [("l2", 2.0)]
        fresh = run_experiment(tiny_config(tmp_path / "fresh", regime="l2", **{"lambda": "2"}))
        new = next(r for r in grown if r.lam == 2.0)
        assert new.run_id == next(r for r in fresh if r.lam == 2.0).run_id
        grown_csv = tmp_path / "grow" / "exp" / "runs" / new.run_id / "metrics.csv"
        fresh_csv = tmp_path / "fresh" / "exp" / "runs" / new.run_id / "metrics.csv"
        assert grown_csv.read_bytes() == fresh_csv.read_bytes()

    def test_sweep_counting_with_shared_prerequisite(self, tmp_path):
        config = tiny_config(tmp_path, regime="l2,ewc", seeds="1,2",
                             **{"lambda": "0.5, 1, 2"})
        records = run_experiment(config)
        # 2 regularizers x 3 lambdas x 2 seeds, plus one shared dm-a run
        assert len(records) == 12 + 1
        assert sum(1 for r in records if r.regime == "dm-a") == 1

    def test_csv_bytes_reproducible_across_out_dirs(self, tmp_path):
        texts = []
        for name in ("first", "second"):
            config = tiny_config(tmp_path / name, regime="dm-a,finetune")
            run_experiment(config)
            texts.append((tmp_path / name / "exp" / "curves.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_run_record_reload_matches(self, experiment):
        out, config, records = experiment
        for record in records:
            reloaded = load_run_record(out / "runs" / record.run_id, record.run_id)
            assert [r.csv_line() for r in reloaded.rows] == [r.csv_line() for r in record.rows]
            assert reloaded.splits_used == record.splits_used
            assert reloaded.checkpoint_final == record.checkpoint_final

    def test_checkpoint_paths_follow_the_run_directory(self, experiment, tmp_path):
        # a record.txt written with absolute checkpoint paths (as earlier
        # versions did) still loads, and its paths are ignored
        out, config, records = experiment
        moved = tmp_path / "moved"
        shutil.copytree(out / "runs" / records[0].run_id, moved)
        with open(moved / "record.txt", "a") as fh:
            fh.write("checkpoint_epoch0=/gone/epoch0.ckpt\ncheckpoint_final=/gone/final.ckpt\n")
        reloaded = load_run_record(moved, records[0].run_id)
        assert reloaded.checkpoint_final == str(moved / "final.ckpt")

    def test_metrics_csv_rows_in_evaluation_order(self, experiment):
        # per epoch the patch rows of task A's classes, then task B's; the
        # final full-image rows last, in the same order
        out, config, records = experiment
        multitask = next(r for r in records if r.regime == "multitask")
        lines = (out / "runs" / multitask.run_id / "metrics.csv").read_text().splitlines()
        rows = [MetricRow.from_csv_line(line) for line in lines[1:]]
        order = [("a", "csf"), ("a", "gm"), ("a", "wm"), ("b", "wml")]
        patch = [(r.epoch, r.task, r.class_name) for r in rows if r.scope == "patch"]
        assert patch == [(e, t, c) for e in range(config.epochs + 1) for t, c in order]
        full = [(r.epoch, r.task, r.class_name) for r in rows if r.scope == "full"]
        assert full == [(config.epochs, t, c) for t, c in order]
        assert [r.scope for r in rows] == ["patch"] * len(patch) + ["full"] * len(full)

    def test_malformed_metrics_row_is_a_config_error(self, experiment, tmp_path):
        out, config, records = experiment
        copy = tmp_path / "copy"
        shutil.copytree(out / "runs" / records[0].run_id, copy)
        lines = (copy / "metrics.csv").read_text().splitlines()
        lines[3] += ",extra"
        (copy / "metrics.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=r"metrics\.csv:4"):
            load_run_record(copy, records[0].run_id)

    def test_metrics_row_of_another_run_is_a_config_error(self, experiment, tmp_path):
        out, config, records = experiment
        copy = tmp_path / "copy"
        shutil.copytree(out / "runs" / records[0].run_id, copy)
        lines = (copy / "metrics.csv").read_text().splitlines()
        for column, value in ((0, "0123456789ab"), (1, "dm-b"), (2, "1"), (3, "2")):
            edited = list(lines)
            fields = edited[3].split(",")
            fields[column] = value
            edited[3] = ",".join(fields)
            (copy / "metrics.csv").write_text("\n".join(edited) + "\n")
            with pytest.raises(ConfigError, match=r"metrics\.csv:4: row of run .* in the directory of run"):
                load_run_record(copy, records[0].run_id)

    @pytest.mark.parametrize("damage,match", [
        (lambda d: (d / "record.txt").write_text("run_id\n"), r"record\.txt:1"),
        (lambda d: (d / "record.txt").write_text(
            "".join(line + "\n" for line in (d / "record.txt").read_text().splitlines()
                    if not line.startswith("duration_s="))), "duration_s"),
        (lambda d: (d / "metrics.csv").unlink(), r"metrics\.csv"),
    ], ids=["line-without-equals", "no-duration", "no-metrics-csv"])
    def test_damaged_run_directory_is_a_config_error(self, experiment, tmp_path, damage, match):
        out, config, records = experiment
        copy = tmp_path / "copy"
        shutil.copytree(out / "runs" / records[0].run_id, copy)
        damage(copy)
        with pytest.raises(ConfigError, match=match):
            load_run_record(copy, records[0].run_id)

    def test_epoch0_task_a_curve_matches_dm_a_final_eval(self, experiment):
        out, config, records = experiment
        by_regime = {r.regime: r for r in records}
        dm_a = by_regime["dm-a"]
        dm_a_final = {
            (r.task, r.class_name): r.dice
            for r in dm_a.rows
            if r.scope == "patch" and r.epoch == config.epochs
        }
        for kind in ("finetune", "l2", "ewc"):
            rec = by_regime[kind]
            epoch0 = {
                (r.task, r.class_name): r.dice
                for r in rec.rows
                if r.scope == "patch" and r.epoch == 0 and r.task == "a"
            }
            for key, value in epoch0.items():
                assert value == dm_a_final[key]


class TestRegimeIdentities:
    def test_ewc_lambda_zero_identical_to_finetune(self, tmp_path):
        config = tiny_config(tmp_path, regime="finetune,ewc", **{"lambda": "0"})
        records = run_experiment(config)
        by_regime = {}
        for r in records:
            by_regime.setdefault(r.regime, r)
        ft = (tmp_path / "exp" / "runs" / by_regime["finetune"].run_id / "metrics.csv").read_text()
        ez = (tmp_path / "exp" / "runs" / by_regime["ewc"].run_id / "metrics.csv").read_text()
        assert project(ft) == project(ez)
        ck_ft = network.load_checkpoint(by_regime["finetune"].checkpoint_final)
        ck_ez = network.load_checkpoint(by_regime["ewc"].checkpoint_final)
        for name in ck_ft.params:
            assert ck_ft.params[name].tobytes() == ck_ez.params[name].tobytes()

    def test_l2_identical_to_ewc_with_unit_fisher(self, tmp_path):
        config = tiny_config(tmp_path, regime="dm-a")
        records = run_experiment(config)
        dm_a = records[0]

        # rewrite the checkpoint's fisher payload with all-ones values
        ckpt = network.load_checkpoint(dm_a.checkpoint_final)
        ones = FisherDiagonal(
            ParamStore({name: np.ones(values.shape) for name, values in ckpt.params.items()}),
            FisherProvenance("train_a", "taskA", "empirical", 1),
        )
        ones_path = tmp_path / "ones.ckpt"
        network.save_checkpoint(ckpt.params, ones_path, metadata=ckpt.metadata, fisher=ones)

        manifest, gen = load_data(config)
        lam = 0.5
        outputs = {}
        for kind, ckpt_path in (("l2", dm_a.checkpoint_final), ("ewc", str(ones_path))):
            plan = build_regime(kind, lam, 1, ckpt_path, trunk=config.trunk)
            bank = SampleBank(manifest, gen)
            record = train(plan, config, bank, tmp_path / f"run_{kind}")
            outputs[kind] = record
        l2_csv = (tmp_path / "run_l2" / "metrics.csv").read_text()
        ewc_csv = (tmp_path / "run_ewc" / "metrics.csv").read_text()
        assert project(l2_csv) == project(ewc_csv)
        ck_l2 = network.load_checkpoint(outputs["l2"].checkpoint_final)
        ck_ewc = network.load_checkpoint(outputs["ewc"].checkpoint_final)
        for name in ck_l2.params:
            assert ck_l2.params[name].tobytes() == ck_ewc.params[name].tobytes()


class TestRunStore:
    def test_run_ids_follow_manifest_content_not_path(self, tmp_path, trained):
        data = tmp_path / "data"
        write_dataset(data, *load_data(tiny_config(tmp_path)))
        first = run_experiment(tiny_config(tmp_path, data_manifest=data / "manifest.txt"))
        trained.clear()
        # a copy of the same manifest elsewhere keeps the ids: all cache hits
        copy = tmp_path / "copy" / "manifest.txt"
        copy.parent.mkdir()
        shutil.copy(data / "manifest.txt", copy)
        moved = run_experiment(tiny_config(tmp_path, data_manifest=copy))
        assert trained == []
        assert [r.run_id for r in moved] == [r.run_id for r in first]

        # the manifest rewritten in place with other data retrains
        write_dataset(data, *load_data(tiny_config(tmp_path, data_seed=8)))
        edited = run_experiment(tiny_config(tmp_path, data_manifest=data / "manifest.txt"))
        assert trained == [("dm-a", 0.0)]
        assert edited[0].run_id != first[0].run_id

    def test_interrupted_run_is_repaired(self, tmp_path, trained):
        records = run_experiment(tiny_config(tmp_path, regime="finetune"))
        out = tmp_path / "exp"
        run_dir = out / "runs" / next(r.run_id for r in records if r.regime == "finetune")
        kept = ("final.ckpt", "metrics.csv", "losses.csv")
        before = {name: (run_dir / name).read_bytes() for name in kept}
        curves = (out / "curves.csv").read_bytes()
        # a crash mid-run: a torn checkpoint, a stray temporary file, no record.txt
        (run_dir / "final.ckpt").write_bytes(before["final.ckpt"][:100])
        (run_dir / "metrics.csv.tmp").write_text("run_id,regime\n")
        (run_dir / "record.txt").unlink()
        trained.clear()
        run_experiment(tiny_config(tmp_path, regime="finetune"))
        assert trained == [("finetune", 0.0)]
        assert {name: (run_dir / name).read_bytes() for name in kept} == before
        assert (out / "curves.csv").read_bytes() == curves
        assert list(out.rglob("*.tmp")) == []

    def test_a_run_directory_holding_another_run_is_a_config_error(self, tmp_path):
        # dm-a's record and rows copied into the finetune run's directory
        config = tiny_config(tmp_path, regime="finetune")
        dm_a, finetune = (r.run_id for r in run_experiment(config))
        runs = tmp_path / "exp" / "runs"
        record = (runs / finetune / "record.txt").read_bytes()
        for name in ("record.txt", "metrics.csv"):
            shutil.copy(runs / dm_a / name, runs / finetune / name)
        where = re.escape(str(runs / finetune / "record.txt"))
        with pytest.raises(ConfigError, match=rf"{where}:1: names run {dm_a}, not {finetune}"):
            run_experiment(config)
        # its own record over dm-a's rows
        (runs / finetune / "record.txt").write_bytes(record)
        where = re.escape(str(runs / finetune / "metrics.csv"))
        with pytest.raises(ConfigError, match=rf"{where}:2: row of run {dm_a} \(dm-a "):
            run_experiment(config)

    def test_rerun_removes_a_stray_tmp_and_restores_an_edited_report(self, tmp_path):
        config = tiny_config(tmp_path)
        run_experiment(config)
        out = tmp_path / "exp"
        path = out / "curves.csv"
        curves, mtime = path.read_bytes(), path.stat().st_mtime_ns
        (out / "curves.csv.tmp").write_bytes(curves[:50])
        run_experiment(config)
        assert not (out / "curves.csv.tmp").exists()
        assert (path.read_bytes(), path.stat().st_mtime_ns) == (curves, mtime)

        path.write_bytes(curves.replace(b",dm-a,", b",dm-b,"))
        run_experiment(config)
        assert path.read_bytes() == curves
        assert list(out.rglob("*.tmp")) == []

    def test_all_hit_rerun_makes_no_failing_unlink(self, tmp_path, trained, monkeypatch):
        config = tiny_config(tmp_path, regime="finetune")
        run_experiment(config)
        trained.clear()
        failed = []
        unlink = os.unlink

        def checked_unlink(path, *args, **kwargs):
            try:
                return unlink(path, *args, **kwargs)
            except OSError:
                failed.append(os.fspath(path))
                raise

        monkeypatch.setattr(os, "unlink", checked_unlink)
        run_experiment(config)
        assert trained == []
        assert failed == []

    def test_failed_replace_keeps_the_previous_file(self, tmp_path, monkeypatch):
        config = tiny_config(tmp_path)
        run_experiment(config)
        out = tmp_path / "exp"
        # an edited curves.csv makes run_experiment write it again, and
        # the replacement fails after the temporary file is written
        curves = (out / "curves.csv").read_bytes().replace(b",dm-a,", b",dm-b,")
        (out / "curves.csv").write_bytes(curves)

        def failing_replace(src, dst):
            raise OSError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="curves.csv"):
            run_experiment(config)
        assert (out / "curves.csv").read_bytes() == curves
        assert list(out.rglob("*.tmp")) == []

    def test_failed_artifact_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        config = tiny_config(tmp_path)
        run_experiment(config)
        out = tmp_path / "exp"
        curves = (out / "curves.csv").read_bytes()
        # an unencodable character makes the curves.csv write raise at
        # the UTF-8 encode step, before any file is opened
        csv_text = harness._csv_text
        monkeypatch.setattr(harness, "_csv_text", lambda lines: csv_text(lines) + "\udc80")
        with pytest.raises(UnicodeEncodeError):
            run_experiment(config)
        assert (out / "curves.csv").read_bytes() == curves
        assert list(out.rglob("*.tmp")) == []


def nested_loop_plots(rows: list[MetricRow], plot_dir) -> None:
    """Reference for emit_plots: each plot series filtered from all of a
    regime's rows, one (class, lambda) pair at a time."""
    plot_dir.mkdir(parents=True)
    by_regime: dict[str, list[MetricRow]] = {}
    for row in rows:
        if row.scope == "patch":
            by_regime.setdefault(row.regime, []).append(row)
    for regime in sorted(by_regime):
        rrows = by_regime[regime]
        lams = sorted({r.lam for r in rrows})
        panels = []
        for task_id, class_name in harness.CLASS_ORDER:
            series = []
            for lam in lams:
                per_epoch: dict[int, list[float]] = {}
                for r in rrows:
                    if (r.task, r.class_name, r.lam) == (task_id, class_name, lam):
                        per_epoch.setdefault(r.epoch, []).append(r.dice)
                if not per_epoch:
                    continue
                pts = [(float(e), 100.0 * sum(v) / len(v)) for e, v in sorted(per_epoch.items())]
                series.append((f"λ={lam:g}", pts))
            if series:
                panels.append((f"task {task_id.upper()}: {class_name}", series))
        if panels:
            title = REGIMES[regime].label
            (plot_dir / f"{regime}.svg").write_text(svgplot.line_chart_grid(title, panels))


class TestReporting:
    def test_summary_values_match_record_finals(self, tmp_path):
        config = tiny_config(tmp_path)
        records = run_experiment(config)
        text, csv_text = emit_summary_table(group_rows(records[0].rows))
        record = records[0]
        row = csv_text.splitlines()[1].split(",")
        finals = record.final_dice()
        assert row[0] == "DM-A"
        assert row[1] == f"{100.0 * finals[('a', 'csf')]:.1f}"
        assert row[4] == "-"

    def test_plot_bytes_deterministic(self, tmp_path):
        config = tiny_config(tmp_path)
        records = run_experiment(config)
        rows = [r for record in records for r in record.rows]
        a = emit_plots(group_rows(rows), tmp_path / "p1")
        b = emit_plots(group_rows(rows), tmp_path / "p2")
        assert [p.name for p in a] == [p.name for p in b]
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_chart_bytes_are_pinned(self, tmp_path):
        # three lambdas, two seeds, 13 epochs, every class; the digest
        # pins the chart's bytes
        rows = []
        for lam in (30.0, 0.1, 3.0):
            for seed in (1, 2):
                for epoch in range(13):
                    for i, (task, name) in enumerate(harness.CLASS_ORDER):
                        dice = ((epoch * 7 + seed * 3 + i * 5 + int(lam * 10)) % 17) / 17.0
                        rows.append(MetricRow(f"l2-{lam:g}-{seed}", "l2", lam, seed, epoch, "patch",
                                              task, name, dice))
        [path] = emit_plots(group_rows(rows), tmp_path / "plots")
        assert path.name == "l2.svg"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ea1c4b1bbc32df7b68694f4aee736d94e78055dfb989076262570e3631d18673"
        )

    def test_plots_match_the_nested_loop_grouping(self, tmp_path):
        rng = np.random.default_rng(5)
        grid = [("dm-a", 0.0, ("a",)), ("multitask", 0.0, ("a", "b"))]
        grid += [(kind, lam, ("a", "b")) for kind in ("l2", "ewc") for lam in (0.1, 3.0)]
        grid += [("l2", 30.0, ("b",))]  # a lambda with one task's rows only
        rows = []
        for kind, lam, task_ids in grid:
            for seed in (1, 2, 3):
                rid = f"{kind}-{lam:g}-{seed}"
                for epoch in range(4):
                    for task_id, class_name in harness.CLASS_ORDER:
                        if task_id in task_ids:
                            rows.append(MetricRow(rid, kind, lam, seed, epoch, "patch",
                                                  task_id, class_name, float(rng.random())))
                rows.append(MetricRow(rid, kind, lam, seed, 3, "full", task_ids[0], "x", 0.5))
        rows = [rows[i] for i in rng.permutation(len(rows))]
        written = emit_plots(group_rows(rows), tmp_path / "plots")
        nested_loop_plots(rows, tmp_path / "reference")
        assert sorted(p.name for p in (tmp_path / "reference").iterdir()) == sorted(p.name for p in written)
        for path in written:
            assert path.read_bytes() == (tmp_path / "reference" / path.name).read_bytes()

    def test_polyline_point_count_matches_epochs(self, tmp_path):
        config = tiny_config(tmp_path)
        records = run_experiment(config)
        rows = [r for record in records for r in record.rows]
        paths = emit_plots(group_rows(rows), tmp_path / "plots")
        svg = paths[0].read_text()
        first = svg.split('<polyline points="')[1].split('"')[0]
        assert len(first.split(" ")) == config.epochs + 1  # epoch 0 included


class TestEvalPatches:
    def test_eval_patches_seeded_by_data_not_run(self, tmp_path):
        config = tiny_config(tmp_path)
        manifest, gen = load_data(config)
        bank = SampleBank(manifest, gen)
        val = bank.split("validation")
        a1 = build_eval_patches(val, TASKS["a"], config)
        a2 = build_eval_patches(val, TASKS["a"], config)
        assert all(np.array_equal(x[0], y[0]) for x, y in zip(a1, a2))
