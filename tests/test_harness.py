"""Config parsing, training loop determinism, regime identities, firewall,
experiment orchestration and artifact emission.

Runs here use a miniature scale (small images, few samples, two epochs)
so the whole module stays fast; the acceptance module exercises the full
default scale.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from ewclab import harness, network, svgplot, synthtasks, tensor
from ewclab.continual import REGIMES, FisherDiagonal, FisherProvenance, build_regime
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
    load_data,
    load_run_record,
    parse_config,
    run_experiment,
    run_id,
    train,
)
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
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(overrides={"seeds": "1,1"})

    def test_run_id_stable_across_out_dirs(self, tmp_path):
        a = tiny_config(tmp_path / "one")
        b = tiny_config(tmp_path / "two")
        assert config_digest(a) == config_digest(b)
        assert run_id("dm-a", 0.0, 1, config_digest(a)) == run_id("dm-a", 0.0, 1, config_digest(b))

    def test_run_id_changes_with_core_version(self, tmp_path, monkeypatch):
        config = tiny_config(tmp_path)
        before = run_id("ewc", 150.0, 1, config_digest(config))
        monkeypatch.setattr(tensor, "CORE_VERSION", tensor.CORE_VERSION + 1)
        assert run_id("ewc", 150.0, 1, config_digest(config)) != before


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

    def test_epoch0_checkpoint_is_pretraining_state(self, tmp_path):
        config = tiny_config(tmp_path)
        manifest, gen = load_data(config)
        bank = SampleBank(manifest, gen)
        plan = build_regime("dm-a", 0.0, 1, trunk=config.trunk)
        record = train(plan, config, bank, tmp_path / "run")
        ckpt0 = network.load_checkpoint(record.checkpoint_epoch0)
        fresh = network.init_network(ckpt0.params.spec, plan_seed_init := __import__("ewclab.harness", fromlist=["derive_seed"]).derive_seed(1, "init"))
        for name in fresh:
            assert ckpt0.params[name].tobytes() == fresh[name].tobytes()

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
                assert all(em.penalty_mean == 0.0 for em in record.epoch_metrics)

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

    def test_rerun_generates_no_data_and_rewrites_the_same_bytes(self, experiment, monkeypatch):
        out, config, records = experiment
        artifacts = ["curves.csv", "summary.txt", "summary.csv"]
        artifacts += [f"plots/{p.name}" for p in sorted((out / "plots").iterdir())]
        before = {name: (out / name).read_bytes() for name in artifacts}
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
        assert len(run_experiment(config)) == len(records)
        assert calls == []
        assert {name: (out / name).read_bytes() for name in artifacts} == before

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
            reloaded = load_run_record(out / "runs" / record.run_id)
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
        reloaded = load_run_record(moved)
        assert reloaded.checkpoint_epoch0 == str(moved / "epoch0.ckpt")
        assert reloaded.checkpoint_final == str(moved / "final.ckpt")

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
            np.ones(ckpt.params.total_params),
            tuple(ckpt.params.entry_table()),
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

    def test_failed_artifact_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        config = tiny_config(tmp_path)
        run_experiment(config)
        out = tmp_path / "exp"
        curves = (out / "curves.csv").read_bytes()
        # an unencodable character makes the curves.csv write raise
        # after the file is opened
        csv_line = MetricRow.csv_line
        monkeypatch.setattr(MetricRow, "csv_line", lambda row: csv_line(row) + "\udc80")
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
        text, csv_text = emit_summary_table(records[0].rows)
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
        a = emit_plots(rows, tmp_path / "p1")
        b = emit_plots(rows, tmp_path / "p2")
        assert [p.name for p in a] == [p.name for p in b]
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

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
        written = emit_plots(rows, tmp_path / "plots")
        nested_loop_plots(rows, tmp_path / "reference")
        assert sorted(p.name for p in (tmp_path / "reference").iterdir()) == sorted(p.name for p in written)
        for path in written:
            assert path.read_bytes() == (tmp_path / "reference" / path.name).read_bytes()

    def test_polyline_point_count_matches_epochs(self, tmp_path):
        config = tiny_config(tmp_path)
        records = run_experiment(config)
        rows = [r for record in records for r in record.rows]
        paths = emit_plots(rows, tmp_path / "plots")
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
