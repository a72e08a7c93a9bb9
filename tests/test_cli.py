"""CLI subcommands, overrides and exit codes."""

from __future__ import annotations

import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ewclab.cli import main
from ewclab.harness import CSV_HEADER
from ewclab.network import (
    FisherDiagonal,
    FisherProvenance,
    NetworkSpec,
    ParamStore,
    init_network,
    load_checkpoint,
    save_checkpoint,
)

TINY = [
    "--seeds", "1", "--epochs", "2", "--image-size", "32",
    "--train-a-count", "3", "--train-b-count", "3", "--val-count", "3",
    "--patch-size", "16", "--eval-patches", "6", "--trunk", "6,6",
    "--fisher-samples", "8", "--patches-per-image", "2", "--batch-size", "4",
]


def run(argv):
    return main(argv)


def rename_nth(data: bytes, n: int) -> bytes:
    """A checkpoint's bytes with the ``n``-th 'head.taskA.bias' entry name
    (1: the parameters', 2: the Fisher payload's) renamed to an earlier
    entry's name of the same length."""
    at = -1
    for _ in range(n):
        at = data.index(b"head.taskA.bias", at + 1)
    return data[:at] + b"trunk.0.kernels" + data[at + len(b"trunk.0.kernels"):]


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

    @pytest.mark.parametrize("lam", ["-1", "nan", "0.1,0.1000001", "0.0123456789"])
    def test_negative_or_non_finite_lambda_exits_2_before_any_run(self, tmp_path, capsys, lam):
        code = run(["run-experiment", "--regime", "l2", f"--lambda={lam}", "--out", str(tmp_path)] + TINY)
        assert code == 2
        assert "lambda" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("key,value", [
        ("trunk", "0,4"), ("tile", "-5"), ("seeds", "1,1"),
        ("learning_rate", "nan"), ("learning_rate", "inf"), ("data_seed", "-1"),
    ])
    def test_out_of_range_config_exits_2_before_any_run(self, tmp_path, capsys, key, value):
        # after TINY, whose own trunk and seeds it overrides
        flag = f"--{key.replace('_', '-')}={value}"
        code = run(["run-experiment", "--regime", "dm-a", "--out", str(tmp_path)] + TINY + [flag])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["report", "plot"])
    @pytest.mark.parametrize("bad_row", [
        "r1,ewc,1,1,two,patch,a,csf,0.5",  # non-integer epoch
        "r1,ewc,1,1,2,patch,a,csf,0.5,0.7",  # a field too many
    ])
    def test_malformed_curves_row_exits_2(self, tmp_path, capsys, command, bad_row):
        curves = tmp_path / "curves.csv"
        curves.write_text("\n".join([CSV_HEADER, "r1,ewc,1,1,2,full,a,csf,0.5", bad_row]) + "\n")
        assert run([command, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{curves}:3" in err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert run(["train", "--config", str(missing), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(missing) in err

    def test_missing_data_manifest_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        code = run(["run-experiment", "--regime", "dm-a", "--data-manifest", str(missing),
                    "--out", str(tmp_path)] + TINY)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("prerequisite error: ") and str(missing) in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("edit", [
        lambda lines: [line for line in lines if not line.startswith("train_a_seeds=")],
        lambda lines: [("train_a_seeds=1,x" if line.startswith("train_a_seeds=") else line)
                       for line in lines],
    ], ids=["missing-key", "unparsable-value"])
    def test_malformed_data_manifest_names_the_key(self, tmp_path, capsys, edit):
        assert run(["generate-data", "--out", str(tmp_path)] + TINY) == 0
        manifest = tmp_path / "data" / "manifest.txt"
        manifest.write_text("\n".join(edit(manifest.read_text().splitlines())) + "\n")
        capsys.readouterr()
        code = run(["run-experiment", "--regime", "dm-a", "--data-manifest", str(manifest),
                    "--out", str(tmp_path)] + TINY)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "train_a_seeds" in err

    @pytest.mark.parametrize("key", ["train_a_seeds", "validation_seeds"])
    def test_data_split_with_no_seed_exits_1(self, tmp_path, capsys, key):
        assert run(["generate-data", "--out", str(tmp_path)] + TINY) == 0
        manifest = tmp_path / "data" / "manifest.txt"
        manifest.write_text("".join(f"{key}=\n" if line.startswith(f"{key}=") else line
                                    for line in manifest.read_text().splitlines(True)))
        capsys.readouterr()
        code = run(["train", "--regime", "dm-a", "--data-manifest", str(manifest),
                    "--out", str(tmp_path)] + TINY)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(manifest) in err and key in err
        assert not (tmp_path / "runs").exists()

    def test_damaged_run_directory_exits_2(self, tmp_path, capsys):
        sweep = ["run-experiment", "--regime", "dm-a", "--out", str(tmp_path)] + TINY
        assert run(sweep) == 0
        run_dir = next((tmp_path / "runs").iterdir())
        record = (run_dir / "record.txt").read_text()
        metrics = (run_dir / "metrics.csv").read_text()
        no_duration = "".join(
            line + "\n" for line in record.splitlines() if not line.startswith("duration_s=")
        )
        for name, text, where in [
            ("record.txt", record + "stray\n", "record.txt:7"),
            ("record.txt", no_duration, "duration_s"),
            ("metrics.csv", None, "metrics.csv"),
        ]:
            if text is None:
                (run_dir / name).unlink()
            else:
                (run_dir / name).write_text(text)
            capsys.readouterr()
            assert run(sweep) == 2, where
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and str(run_dir) in err and where in err
            (run_dir / "record.txt").write_text(record)
            (run_dir / "metrics.csv").write_text(metrics)
        assert run(sweep) == 0

    def test_run_directory_of_another_run_exits_2(self, tmp_path, capsys):
        sweep = ["run-experiment", "--regime", "finetune", "--out", str(tmp_path)] + TINY
        assert run(sweep) == 0
        curves = (tmp_path / "curves.csv").read_bytes()
        finetune = next(line for line in curves.decode().splitlines() if ",finetune," in line)
        finetune_dir = tmp_path / "runs" / finetune.split(",")[0]
        dm_a_dir = next(d for d in (tmp_path / "runs").iterdir() if d != finetune_dir)
        for name in ("record.txt", "metrics.csv"):
            (finetune_dir / name).write_bytes((dm_a_dir / name).read_bytes())
        capsys.readouterr()
        assert run(sweep) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{finetune_dir / 'record.txt'}:1: names run" in err
        assert (tmp_path / "curves.csv").read_bytes() == curves

    def test_ewc_on_checkpoint_without_task_a_exits_3(self, tmp_path, capsys):
        # a dm-b checkpoint lacks the task-A head; a multitask one has a
        # task-B head besides it
        for regime in ("dm-b", "multitask"):
            out = tmp_path / regime
            assert run(["train", "--regime", regime, "--out", str(out)] + TINY) == 0
            ckpt = next((out / "runs").iterdir()) / "final.ckpt"
            capsys.readouterr()
            for command in (["train", "--regime", "ewc", "--lambda", "1"], ["fisher"]):
                code = run(command + ["--checkpoint", str(ckpt), "--out", str(tmp_path / "e")] + TINY)
                assert code == 3, (regime, command)
                err = capsys.readouterr().err
                assert err.startswith("prerequisite error: ") and "taskB" in err, (regime, command)

    def test_checkpoint_unlike_its_header_exits_1(self, tmp_path, capsys):
        # a trunk=6,6 store under a header that says trunk=6,6,6
        ckpt = tmp_path / "net.ckpt"
        store = init_network(NetworkSpec(in_channels=2, trunk=(6, 6), heads={"taskA": 4}), seed=1)
        save_checkpoint(ParamStore(store, spec=NetworkSpec(2, (6, 6, 6), {"taskA": 4})), ckpt)
        code = run(["evaluate", "--checkpoint", str(ckpt), "--out", str(tmp_path)] + TINY)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trunk.2.kernels" in err

    @pytest.mark.parametrize("damage,message", [
        (lambda data: data[: len(data) // 2], r"truncated checkpoint while reading .* \(byte offset \d+\)"),
        (lambda data: b"NOPE" + data[4:], r"bad magic b'NOPE', expected b'EWC1' \(byte offset 0\)"),
        (lambda data: data[:4] + bytes([9]) + data[5:], r"unsupported version 9 \(byte offset 4\)"),
        (lambda data: data.replace(b"trunk=6,6\n", b"trunk=6,7\n", 1), r"entry 'trunk.1.kernels': .* in the file"),
        (lambda data: data.replace(b"FISHER", b"FISHEX", 1), r"bad fisher sentinel b'FISHEX' \(byte offset \d+\)"),
        (lambda data: data.replace(b"FISHER\x06", b"FISHER\x07", 1), r"fisher entry count 7 != header 6"),
        (lambda data: data + b"\0\0", r"2 trailing bytes \(byte offset \d+\)"),
        (lambda data: data.replace(b"heads=taskA:4", b"heads=taskA:1", 1), r"header: head 'taskA' needs >= 2"),
        (lambda data: rename_nth(data, 1), r"entry 'trunk.0.kernels' repeated \(byte offset \d+\)"),
        (lambda data: rename_nth(data, 2), r"entry 'trunk.0.kernels' repeated \(byte offset \d+\)"),
    ], ids=["truncated", "magic", "version", "layout", "fisher-sentinel", "fisher-count", "trailing", "spec",
            "repeated-entry", "repeated-fisher-entry"])
    def test_damaged_checkpoint_exits_1_naming_the_file(self, tmp_path, capsys, damage, message):
        ckpt = tmp_path / "net.ckpt"
        store = init_network(NetworkSpec(in_channels=2, trunk=(6, 6), heads={"taskA": 4}), seed=1)
        save_checkpoint(store, ckpt, fisher=FisherDiagonal.ones_like(store))
        ckpt.write_bytes(damage(ckpt.read_bytes()))
        code = run(["evaluate", "--checkpoint", str(ckpt), "--out", str(tmp_path)] + TINY)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}"), err
        assert re.search(message, err), err

    @pytest.mark.parametrize("short,long,values", [
        ("--out", "--out-dir", ("a", "b")),
        ("--seed", "--seeds", ("3", "1,2")),
    ], ids=["out", "seed"])
    def test_two_spellings_of_one_key_exit_2(self, tmp_path, capsys, monkeypatch, short, long, values):
        monkeypatch.chdir(tmp_path)  # every output path, the default 'out' too, is under tmp_path
        argv = ["run-experiment", "--regime", "dm-a", short, values[0], long, values[1]] + TINY[2:]  # TINY less --seeds
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {short} and {long} both given"), err
        assert list(tmp_path.iterdir()) == []

    def test_fisher_payload_unlike_the_parameters_exits_1_before_any_run(self, tmp_path, capsys, save_unchecked):
        # a task-A checkpoint whose Fisher payload lacks one entry
        ckpt = tmp_path / "a.ckpt"
        store = init_network(NetworkSpec(in_channels=2, trunk=(6, 6), heads={"taskA": 4}), seed=1)
        ones = {name: np.ones(values.shape) for name, values in store.items() if name != "trunk.1.bias"}
        fisher = FisherDiagonal(ParamStore(ones), FisherProvenance("train_a", "taskA", "empirical", 8))
        save_unchecked(store, ckpt, fisher=fisher)
        code = run(["train", "--regime", "ewc", "--lambda", "1", "--checkpoint", str(ckpt),
                    "--out", str(tmp_path)] + TINY)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'trunk.1.bias'" in err and "Fisher payload" in err
        assert not (tmp_path / "runs").exists()

    def test_invalid_generator_settings_exit_2_before_any_run(self, tmp_path, capsys):
        # a manifest (with a matching config_hash) whose tissue rings are
        # not nested is rejected where it is read
        assert run(["generate-data", "--out", str(tmp_path)] + TINY) == 0
        manifest = tmp_path / "data" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        lines = [("generator.wm_radius=0.6,0.7" if line.startswith("generator.wm_radius=") else line)
                 for line in lines if not line.startswith("config_hash=")]
        manifest.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run(["train", "--regime", "dm-a", "--data-manifest", str(manifest),
                    "--out", str(tmp_path / "exp")] + TINY)
        assert code == 2
        assert "nested" in capsys.readouterr().err
        assert not (tmp_path / "exp" / "runs").exists()

    @pytest.mark.parametrize("command", [
        ["fisher"], ["evaluate"], ["train", "--regime", "finetune"],
    ], ids=["fisher", "evaluate", "train"])
    def test_missing_checkpoint_exits_3(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.ckpt"
        code = run(command + ["--checkpoint", str(missing), "--out", str(tmp_path)] + TINY)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("prerequisite error: ") and str(missing) in err
        assert not (tmp_path / "runs").exists()


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

    def test_a_narrower_sweep_or_plot_removes_stale_plots(self, tmp_path, capsys):
        out = str(tmp_path)
        assert run(["run-experiment", "--regime", "l2", "--lambda", "0.5", "--out", out] + TINY) == 0
        assert sorted(p.name for p in (tmp_path / "plots").iterdir()) == ["dm-a.svg", "l2.svg"]
        (tmp_path / "plots" / "notes.txt").write_text("kept\n")
        assert run(["run-experiment", "--regime", "dm-b", "--out", out] + TINY) == 0
        assert sorted(p.name for p in (tmp_path / "plots").iterdir()) == ["dm-b.svg", "notes.txt"]

        assert run(["run-experiment", "--regime", "l2", "--lambda", "0.5", "--out", out] + TINY) == 0
        curves = tmp_path / "curves.csv"
        lines = curves.read_text().splitlines()
        curves.write_text("\n".join(line for line in lines if ",l2," not in line) + "\n")
        assert run(["plot", "--out", out] + TINY) == 0
        assert sorted(p.name for p in (tmp_path / "plots").iterdir()) == ["dm-a.svg", "notes.txt"]

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

    def test_each_command_reads_the_data_manifest_once(self, tmp_path, monkeypatch):
        assert run(["generate-data", "--out", str(tmp_path)] + TINY) == 0
        manifest = str(tmp_path / "data" / "manifest.txt")
        reads = []
        real_open = open

        def counted_open(file, *args, **kwargs):
            reads.append(str(file) == manifest)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counted_open)
        data = ["--data-manifest", manifest, "--out", str(tmp_path / "exp")] + TINY
        sweep = ["run-experiment", "--regime", "dm-a,finetune,l2", "--lambda", "0.1,0.3"] + data
        # a fresh 4-run sweep, its all-hit re-run, then one run
        for argv in (sweep, sweep, ["train", "--regime", "dm-b"] + data):
            reads.clear()
            assert run(argv) == 0
            assert sum(reads) == 1, argv

    def test_seed_flag_sets_single_seed(self, tmp_path):
        out = str(tmp_path)
        assert run(["train", "--regime", "dm-b", "--out", out, "--seed", "5"] + TINY[2:]) == 0
        record_txt = next((tmp_path / "runs").iterdir()) / "record.txt"
        assert "seed=5" in record_txt.read_text()


def test_python_dash_m_runs_the_cli_from_a_checkout():
    # no install: only src/ on the path, as in a plain checkout
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "ewclab", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "run-experiment" in done.stdout


def test_importing_the_package_gives_the_one_blas_thread_bits():
    # OpenBLAS splits this GEMM (layer 2's kernel gradient) by thread and
    # the parts round differently; with numpy loaded first or not, ewclab
    # leaves the one-thread bits under a two-thread environment
    src = Path(__file__).resolve().parents[1] / "src"
    gemm = (
        "import hashlib\n"
        "import numpy as np\n"
        "rng = np.random.default_rng(0)\n"
        "a, b = rng.standard_normal((24, 432)), rng.standard_normal((432, 108))\n"
        "print(hashlib.sha256((a @ b).tobytes()).hexdigest())\n"
    )

    def digest(prelude: str, threads: str) -> str:
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", prelude + gemm], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout

    one_thread = digest("", "1")
    for prelude in ("import numpy\nimport ewclab\n", "import ewclab\n"):
        assert digest(prelude, "2") == one_thread, prelude


def test_artifacts_are_utf8_under_an_ascii_locale(tmp_path):
    # the C locale with coercion and UTF-8 mode off: the preferred encoding is ASCII
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C",
           "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    overrides = dict(zip((flag[2:].replace("-", "_") for flag in TINY[::2]), TINY[1::2]))
    overrides.update({"regime": "dm-a,l2", "lambda": "0.5", "out_dir": str(tmp_path)})
    code = (
        "import locale\n"
        "from ewclab.harness import parse_config, run_experiment\n"
        "assert locale.getpreferredencoding(False).lower() in ('ascii', 'ansi_x3.4-1968')\n"
        f"run_experiment(parse_config(overrides={overrides!r}))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "L2 λ=0.5" in (tmp_path / "summary.txt").read_text(encoding="utf-8")
    assert "λ=0.5" in (tmp_path / "plots" / "l2.svg").read_text(encoding="utf-8")


def test_cli_prints_utf8_under_an_ascii_locale(tmp_path):
    # the summary's method labels hold 'λ', which the locale cannot encode
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C",
           "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    out = ["--out", str(tmp_path)] + TINY
    summary = None
    for argv in (["run-experiment", "--regime", "dm-a,l2", "--lambda", "0.5"] + out, ["report"] + out):
        done = subprocess.run([sys.executable, "-m", "ewclab", *argv], env=env,
                              capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
        summary = (tmp_path / "summary.txt").read_bytes()
        assert "L2 λ=0.5".encode("utf-8") in summary
        assert done.stdout.endswith(summary + (b"\n" if argv[0] == "run-experiment" else b""))


# ---------------------------------------------------------------------------
# key=value files: config files, run records, checkpoint headers and data
# manifests share one reader; text that is not UTF-8 is an error
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def finished_sweep(tmp_path_factory):
    """A completed one-run sweep: its manifest, run record, rows, curves
    and final checkpoint."""
    out = tmp_path_factory.mktemp("sweep")
    assert run(["run-experiment", "--regime", "dm-a", "--out", str(out)] + TINY) == 0
    return out


@pytest.fixture
def lab(finished_sweep, tmp_path):
    """A copy of the finished sweep, with a config file that re-runs it:
    each key=value kind -> (its file, the command that reads it, the exit
    code of its errors)."""
    out = tmp_path / "out"
    shutil.copytree(finished_sweep, out)
    run_dir = next((out / "runs").iterdir())
    config = out / "sweep.cfg"
    settings = dict(zip((flag[2:].replace("-", "_") for flag in TINY[::2]), TINY[1::2]))
    settings.update(regime="dm-a", out_dir=str(out))
    config.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    rerun = ["run-experiment", "--regime", "dm-a", "--out", str(out)] + TINY
    return {
        "config": (config, ["run-experiment", "--config", str(config)], 2),
        "record": (run_dir / "record.txt", rerun, 2),
        "checkpoint": (run_dir / "final.ckpt",
                       ["evaluate", "--checkpoint", str(run_dir / "final.ckpt"), "--out", str(out)] + TINY, 1),
        "manifest": (out / "manifest.txt",
                     ["generate-data", "--data-manifest", str(out / "manifest.txt"), "--out", str(out)] + TINY, 1),
    }


def edit_lines(path, edit):
    """Rewrite the key=value lines of ``path`` (of a checkpoint, its
    header's, fixing up the header length) as ``edit`` returns them."""
    data = path.read_bytes()
    start, end = 0, len(data)
    if path.suffix == ".ckpt":
        (size,) = struct.unpack("<I", data[5:9])
        start, end = 9, 9 + size
    text = "".join(line + "\n" for line in edit(data[start:end].decode("utf-8").splitlines())).encode("utf-8")
    head = data[:5] + struct.pack("<I", len(text)) if start else b""
    path.write_bytes(head + text + data[end:])


# per format: a required key, and a key given a value it cannot parse (a
# config file has no required key)
REQUIRED_KEY = {"config": None, "record": "duration_s", "checkpoint": "entries", "manifest": "train_a_seeds"}
TYPED_KEY = {"config": "epochs", "record": "seed", "checkpoint": "in_channels", "manifest": "master_seed"}
KINDS = list(REQUIRED_KEY)


class TestKeyValueFiles:
    @pytest.mark.parametrize("kind", KINDS)
    def test_blank_and_comment_lines_are_skipped(self, lab, capsys, kind):
        path, argv, _ = lab[kind]
        assert run(argv) == 0
        before = capsys.readouterr().out
        edit_lines(path, lambda lines: ["# a comment", "", *lines[:2], "   ", "  # note = x", *lines[2:], ""])
        assert run(argv) == 0, capsys.readouterr().err
        assert capsys.readouterr().out == before

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_line_without_equals_names_the_file_and_line(self, lab, capsys, kind):
        path, argv, code = lab[kind]
        edit_lines(path, lambda lines: [lines[0], "stray", *lines[1:]])
        assert run(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("config error: " if code == 2 else "error: ")
        assert str(path) in err and ":2: malformed line 'stray'" in err

    @pytest.mark.parametrize("kind", [kind for kind in KINDS if REQUIRED_KEY[kind]])
    def test_a_missing_key_is_named(self, lab, capsys, kind):
        path, argv, code = lab[kind]
        key = REQUIRED_KEY[kind]
        edit_lines(path, lambda lines: [line for line in lines if not line.startswith(f"{key}=")])
        assert run(argv) == code
        err = capsys.readouterr().err
        assert str(path) in err and f"missing key {key!r}" in err

    @pytest.mark.parametrize("kind", KINDS)
    def test_an_unparsable_value_names_the_key(self, lab, capsys, kind):
        path, argv, code = lab[kind]
        key = TYPED_KEY[kind]
        edit_lines(path, lambda lines: [
            f"{key}=x" if line.partition("=")[0].strip() == key else line for line in lines
        ])
        assert run(argv) == code
        err = capsys.readouterr().err
        assert f"{key!r}" in err and "cannot parse 'x'" in err

    @pytest.mark.parametrize("kind,damage", [
        ("config", lambda data: data + "# caf\xe9\n".encode("latin-1")),
        ("record", lambda data: data + b"note=\xff\n"),
        ("manifest", lambda data: data + b"# \xff\n"),
        ("curves", lambda data: data + b"\xff\n"),
        ("checkpoint", lambda data: data.replace(b"regime=dm-a", b"regime=dm-\xff", 1)),
        ("entry-name", lambda data: data.replace(b"trunk.0.bias", b"trunk.0.bia\xff", 1)),
    ], ids=["config", "record", "manifest", "curves", "checkpoint-header", "checkpoint-entry-name"])
    def test_text_that_is_not_utf8_is_an_error_not_a_traceback(self, lab, kind, damage):
        out = lab["config"][0].parent
        path, argv, code = {
            **lab,
            "curves": (out / "curves.csv", ["report", "--out", str(out)], 2),
            "entry-name": lab["checkpoint"],
        }[kind]
        path.write_bytes(damage(path.read_bytes()))
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-m", "ewclab", *argv], env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
        assert str(path) in done.stderr and "not UTF-8" in done.stderr
