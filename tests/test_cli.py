"""CLI subcommands, overrides and exit codes."""

from __future__ import annotations

import pytest

from ewclab.cli import main
from ewclab.network import load_checkpoint

TINY = [
    "--seeds", "1", "--epochs", "2", "--image-size", "32",
    "--train-a-count", "3", "--train-b-count", "3", "--val-count", "3",
    "--patch-size", "16", "--eval-patches", "6", "--trunk", "6,6",
    "--fisher-samples", "8", "--patches-per-image", "2", "--batch-size", "4",
]


def run(argv):
    return main(argv)


class TestExitCodes:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_speed = 9\n")
        code = run(["train", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "warp_speed" in capsys.readouterr().err

    def test_missing_regime_exits_2(self, tmp_path, capsys):
        code = run(["train", "--out", str(tmp_path)] + TINY)
        assert code == 2

    def test_sequential_without_checkpoint_exits_3(self, tmp_path, capsys):
        code = run(["train", "--regime", "finetune", "--out", str(tmp_path)] + TINY)
        assert code == 3
        assert "checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["-1", "nan", "0.1,0.1000001"])
    def test_negative_or_non_finite_lambda_exits_2_before_any_run(self, tmp_path, capsys, lam):
        code = run(["run-experiment", "--regime", "l2", f"--lambda={lam}", "--out", str(tmp_path)] + TINY)
        assert code == 2
        assert "lambda" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("key,value", [("trunk", "0,4"), ("tile", "-5"), ("seeds", "1,1")])
    def test_out_of_range_config_exits_2_before_any_run(self, tmp_path, capsys, key, value):
        # after TINY, whose own trunk and seeds it overrides
        code = run(["run-experiment", "--regime", "dm-a", "--out", str(tmp_path)] + TINY + [f"--{key}={value}"])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_ewc_on_checkpoint_without_task_a_exits_3(self, tmp_path, capsys):
        assert run(["train", "--regime", "dm-b", "--out", str(tmp_path)] + TINY) == 0
        ckpt = next((tmp_path / "runs").iterdir()) / "final.ckpt"
        code = run(["train", "--regime", "ewc", "--lambda", "1", "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "e")] + TINY)
        assert code == 3


class TestCommands:
    def test_generate_data(self, tmp_path, capsys):
        code = run(["generate-data", "--out", str(tmp_path), "--images"] + TINY)
        assert code == 0
        data = tmp_path / "data"
        assert (data / "manifest.txt").exists()
        assert list((data / "images").glob("*.ppm"))
        assert not list(data.rglob("*.bin"))

    def test_train_evaluate_fisher_round_trip(self, tmp_path, capsys):
        out = str(tmp_path)
        assert run(["train", "--regime", "dm-a", "--out", out] + TINY) == 0
        stdout = capsys.readouterr().out
        assert "full task a" in stdout
        ckpt = next((tmp_path / "runs").iterdir()) / "final.ckpt"

        assert run(["evaluate", "--checkpoint", str(ckpt), "--out", out] + TINY) == 0
        stdout = capsys.readouterr().out
        assert "task a csf" in stdout

        # with the same config, the fisher step recomputes exactly the
        # payload the dm-a run embedded
        aug = tmp_path / "aug.ckpt"
        assert run(["fisher", "--checkpoint", str(ckpt), "--out-checkpoint", str(aug),
                    "--out", out] + TINY) == 0
        embedded, recomputed = load_checkpoint(ckpt).fisher, load_checkpoint(aug).fisher
        assert recomputed is not None
        assert recomputed.values.tobytes() == embedded.values.tobytes()
        assert recomputed.provenance == embedded.provenance

    def test_moved_output_directory_reruns(self, tmp_path, capsys):
        first, moved = tmp_path / "o1", tmp_path / "o2"
        assert run(["run-experiment", "--regime", "finetune", "--out", str(first)] + TINY) == 0
        first.rename(moved)
        capsys.readouterr()
        code = run(["run-experiment", "--regime", "finetune,ewc", "--lambda", "1",
                    "--out", str(moved)] + TINY)
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.count("skip") == 2  # the shared dm-a run and finetune
        assert "run ewc" in stdout

    def test_run_experiment_report_plot(self, tmp_path, capsys):
        out = str(tmp_path)
        code = run(["run-experiment", "--regime", "dm-a,l2", "--lambda", "0.5", "--out", out] + TINY)
        assert code == 0
        assert (tmp_path / "summary.txt").exists()
        capsys.readouterr()

        assert run(["report", "--out", out] + TINY) == 0
        stdout = capsys.readouterr().out
        assert "DM-A" in stdout and "L2" in stdout

        assert run(["plot", "--out", out] + TINY) == 0
        assert (tmp_path / "plots" / "l2.svg").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_4(self, tmp_path, capsys):
        more_steps = ["--epochs", "3", "--patches-per-image", "6"]
        out = str(tmp_path)
        assert run(["train", "--regime", "dm-a", "--out", out] + TINY + more_steps) == 0
        ckpt = next((tmp_path / "runs").iterdir()) / "final.ckpt"
        code = run(["train", "--regime", "l2", "--lambda", "1e6", "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "diverge")] + TINY + more_steps)
        assert code == 4
        assert "diverged" in capsys.readouterr().err

    def test_seed_flag_sets_single_seed(self, tmp_path):
        out = str(tmp_path)
        assert run(["train", "--regime", "dm-b", "--out", out, "--seed", "5"] + TINY[2:]) == 0
        record_txt = next((tmp_path / "runs").iterdir()) / "record.txt"
        assert "seed=5" in record_txt.read_text()
