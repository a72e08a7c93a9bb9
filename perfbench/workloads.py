"""The three benchmark workloads.

Each workload builds its inputs from the seed alone (it is the data seed
and the run seed), hands ewclab only the resulting config, and checks
every output it gets back against the first repeat of the same run.
``setup`` prepares what a user would already have before the measured
operation; ``op`` runs one measured operation and returns an
:class:`OpResult`.  README.md says why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ewclab import continual, harness, metrics, network, synthtasks
from ewclab.synthtasks import TASK_A, TASK_B, TASKS, SampleBank
from hostspeed import HostSpeed

# momentum SGD diverges once lr * 2 * lambda * (max trunk Fisher) passes
# 2 * (1 + momentum) = 3.8.  After a 3-epoch prerequisite the max trunk
# Fisher reached 0.4 (seed 34), so 1500 and 500 diverged on some seeds;
# 150, the smallest value of the default EWC grid, keeps every seed
# checked below the bound (margin 1.8 at most)
EWC_LAMBDA = 150.0
GRID_EPOCHS = 1
# one list serves both regularizers: small enough that l2 is stable, as
# many values as each default grid
GRID_LAMBDAS = (0.03, 0.3, 3.0, 30.0)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the benchmark, tests shrink them."""

    image_size: int = 64
    train_count: int = 22
    val_count: int = 25
    patch_size: int = 24
    patches_per_image: int = 12
    eval_patches: int = 24
    trunk: tuple[int, ...] = (12, 12, 24)
    prereq_epochs: int = 3
    ewc_epochs: int = 2
    fisher_patches: int = 256
    tile: int = 16
    grid_train_count: int = 4
    grid_val_count: int = 4
    grid_eval_patches: int = 8
    grid_fisher_samples: int = 16
    reruns_per_pass: int = 25


Span = tuple[float, float]  # perf_counter at its start and end
# perf_counter at its start and end, and the process CPU seconds in between
Item = tuple[float, float, float]


def start() -> tuple[float, float]:
    """perf_counter and process CPU time now: the start of an item."""
    return time.perf_counter(), time.process_time()


def item_since(begin: tuple[float, float]) -> Item:
    return begin[0], time.perf_counter(), time.process_time() - begin[1]


@dataclass
class OpResult:
    # the timed phases of the operation; host-speed samples inside them
    # are not counted
    spans: list[Span]
    items: list[Item] = field(default_factory=list)
    attempted: int = 1
    failed: int = 0
    dice: dict[str, float] = field(default_factory=dict)


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def run_outputs(run_dir: Path) -> str:
    """Digest of a run's metrics.csv, losses.csv and final checkpoint: the
    Dice values alone would not show a change in the last bits."""
    h = hashlib.sha256()
    for name in ("metrics.csv", "losses.csv", "final.ckpt"):
        h.update((run_dir / name).read_bytes())
    return h.hexdigest()


def task_dice(final: dict[tuple[str, str], float]) -> dict[str, float]:
    """Mean final full-image Dice over each task's foreground classes."""
    out = {}
    for task in (TASK_A, TASK_B):
        values = [final[(task.task_id, c)] for c in task.foreground if (task.task_id, c) in final]
        out[f"task_{task.task_id}"] = sum(values) / len(values) if values else 0.0
    return out


class Workload:
    name = ""
    setup_repeats = 3
    min_ops = 3

    def __init__(self, seed: int, work: Path, sizes: Sizes = Sizes()):
        self.seed = seed
        self.work = work
        self.sizes = sizes
        self.host = HostSpeed()
        self.reference: dict[str, object] = {}

    def fresh_dir(self, stem: str) -> Path:
        path = self.work / stem
        shutil.rmtree(path, ignore_errors=True)
        return path

    def agrees(self, key: str, value) -> bool:
        """True when ``value`` matches the first value seen under ``key``."""
        return self.reference.setdefault(key, value) == value

    def install(self, patcher) -> None:
        """Hooks that stay in place for the whole measured loop."""

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> OpResult:
        raise NotImplementedError


class TaskAPrerequisite(Workload):
    """Set-up shared by seq-ewc and consolidate: generate the data set and
    train the short task-A run whose checkpoint carries a Fisher payload."""

    def config(self, **overrides) -> harness.ExperimentConfig:
        s = self.sizes
        return harness.ExperimentConfig(
            seeds=(self.seed,), data_seed=self.seed, image_size=s.image_size,
            train_a_count=s.train_count, train_b_count=s.train_count, val_count=s.val_count,
            patch_size=s.patch_size, patches_per_image=s.patches_per_image,
            eval_patches=s.eval_patches, trunk=s.trunk, **overrides,
        )

    def setup(self) -> None:
        config = self.config(epochs=self.sizes.prereq_epochs)
        self.bank = SampleBank(*harness.load_data(config))
        for split in ("train_a", "train_b"):
            self.bank.split(split)
        validation = self.bank.split("validation")
        self.eval_sets = {
            t.task_id: harness.build_eval_patches(validation, t, config) for t in TASKS.values()
        }
        plan = continual.build_regime("dm-a", 0.0, self.seed, trunk=config.trunk)
        run_dir = self.fresh_dir("task-a")
        self.record = harness.train(plan, config, self.bank, run_dir, eval_sets=self.eval_sets)
        self.checkpoint = self.record.checkpoint_final
        self.setup_ok = self.agrees("task-a", run_outputs(run_dir))


class StepClock:
    """Latency of each training step, read off the SGD updates.

    A step is the interval between two consecutive ``sgd_update`` calls
    of one epoch; the patch evaluation that closes an epoch resets the
    clock so its time is not charged to a step.  While ``active``, a
    host-speed sample is taken at the first update and then after every
    second step, outside the step intervals.
    """

    def __init__(self, host: HostSpeed):
        self.host = host
        self.active = False
        self._reset()

    def _reset(self) -> None:
        self.steps: list[Item] = []
        self._last: tuple[float, float] | None = None

    def take(self) -> list[Item]:
        """The steps so far; then start afresh."""
        taken = self.steps
        self._reset()
        return taken

    def install(self, patcher) -> None:
        sgd_update = harness.sgd_update
        evaluate_model = metrics.evaluate_model

        def timed_sgd_update(*args, **kwargs):
            sgd_update(*args, **kwargs)
            if not self.active:
                return
            if self._last is not None:
                self.steps.append(item_since(self._last))
            if len(self.steps) % 2 == 0:
                self.host.sample()
            self._last = start()

        def resetting_evaluate_model(*args, **kwargs):
            self._last = None
            return evaluate_model(*args, **kwargs)

        patcher.replace(harness, "sgd_update", timed_sgd_update)
        patcher.replace(metrics, "evaluate_model", resetting_evaluate_model)


class SeqEwc(TaskAPrerequisite):
    """One EWC run on task B from the task-A checkpoint; items are
    training steps."""

    name = "seq-ewc"
    min_ops = 3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.clock = StepClock(self.host)

    def install(self, patcher) -> None:
        self.clock.install(patcher)

    def op(self, index: int) -> OpResult:
        config = self.config(epochs=self.sizes.ewc_epochs)
        run_dir = self.fresh_dir(f"ewc-{index}")
        self.clock.take()
        self.clock.active = True
        try:
            t0 = time.perf_counter()
            plan = continual.build_regime(
                "ewc", EWC_LAMBDA, self.seed, self.checkpoint, trunk=config.trunk
            )
            record = harness.train(plan, config, self.bank, run_dir, eval_sets=self.eval_sets)
            span = (t0, time.perf_counter())
        finally:
            self.clock.active = False
        ok = self.agrees("ewc", run_outputs(run_dir))
        shutil.rmtree(run_dir)
        return OpResult([span], self.clock.take(), failed=int(not ok),
                        dice=task_dice(record.final_dice()))


class Consolidate(TaskAPrerequisite):
    """Fisher in both modes over a large patch set, full-size prediction
    of every validation image untiled and tiled, and a checkpoint round
    trip with the Fisher payload; items are validation images."""

    name = "consolidate"
    min_ops = 4  # 4 passes over 25 validation images give >= 100 items

    def setup(self) -> None:
        super().setup()
        ckpt = network.load_checkpoint(self.checkpoint)
        self.params = ckpt.params
        config = self.config(fisher_samples=self.sizes.fisher_patches)
        self.patches = harness.fisher_patches(self.bank.split("train_a"), TASK_A, config)
        self.label_seed = harness.derive_seed(config.data_seed, "fisher", "labels")

    def op(self, index: int) -> OpResult:
        failed = 0
        items = []
        t0 = time.perf_counter()
        for mode in ("empirical", "sampled"):
            fisher = continual.estimate_fisher(
                self.params, self.patches, TASK_A.head, mode=mode,
                rng_seed=self.label_seed, dataset_id="train_a",
            )
            failed += not self.agrees(f"fisher-{mode}", digest(fisher.values))
            self.host.sample()
        spans = [(t0, time.perf_counter())]
        for i, sample in enumerate(self.bank.split("validation")):
            self.host.sample()
            begin = start()
            maps = [
                metrics.predict_full(self.params, TASK_A.head, sample.channels, tile=tile)
                for tile in (0, self.sizes.tile)
            ]
            items.append(item_since(begin))
            failed += not self.agrees(f"predict-{i}", digest(*maps))
        self.host.sample()
        t = time.perf_counter()
        path = self.work / "roundtrip.ckpt"
        network.save_checkpoint(self.params, path, metadata={"seed": str(self.seed)}, fisher=fisher)
        back = network.load_checkpoint(path)
        spans += [(t0, t1) for t0, t1, _ in items] + [(t, time.perf_counter())]
        same = (
            back.fisher is not None
            and digest(back.params.flat(), back.fisher.values)
            == digest(self.params.flat(), fisher.values)
        )
        failed += not same
        return OpResult(spans, items, attempted=2 + len(items) + 1, failed=failed,
                        dice=task_dice(self.record.final_dice()))


class Grid(Workload):
    """A five-regime sweep into an empty directory, then repeated re-runs
    over the completed directory; items are re-runs."""

    name = "grid"
    setup_repeats = 9
    min_ops = 4  # 4 passes of 25 re-runs give >= 100 items

    def install(self, patcher) -> None:
        """A host-speed sample after every run the sweep trains, so the
        sweep's time is adjusted by the host's speed while it ran."""
        train = harness.train

        def sampled_train(*args, **kwargs):
            record = train(*args, **kwargs)
            self.host.sample()
            return record

        patcher.replace(harness, "train", sampled_train)

    def setup(self) -> None:
        """Generate the data set on disk, as ``ewclab generate-data``
        does; the sweep reads its manifest."""
        s = self.sizes
        config = harness.ExperimentConfig(
            regimes=("dm-a", "multitask", "finetune", "l2", "ewc"), lambdas=GRID_LAMBDAS,
            seeds=(self.seed,), data_seed=self.seed, epochs=GRID_EPOCHS,
            image_size=s.image_size, train_a_count=s.grid_train_count,
            train_b_count=s.grid_train_count, val_count=s.grid_val_count,
            patch_size=s.patch_size, patches_per_image=s.patches_per_image,
            eval_patches=s.grid_eval_patches, fisher_samples=s.grid_fisher_samples,
            trunk=s.trunk,
        )
        # the manifest path is part of every run id, so it never changes
        data_dir = self.fresh_dir("data")
        synthtasks.write_dataset(data_dir, *harness.load_data(config))
        self.config = replace(config, data_manifest=str(data_dir / "manifest.txt"))
        self.setup_ok = self.agrees("manifest", (data_dir / "manifest.txt").read_bytes())

    def op(self, index: int) -> OpResult:
        out = self.fresh_dir(f"grid-{index}")
        config = replace(self.config, out_dir=str(out))
        t0 = time.perf_counter()
        records = harness.run_experiment(config)
        span = (t0, time.perf_counter())
        curves = (out / "curves.csv").read_bytes()
        failed = int((out / "failures.txt").exists() or not self.agrees("curves.csv", curves))
        items = []
        for _ in range(self.sizes.reruns_per_pass):
            self.host.sample()
            begin = start()
            harness.run_experiment(config)
            items.append(item_since(begin))
            failed += (out / "curves.csv").read_bytes() != curves
        self.host.sample()
        shutil.rmtree(out)
        ewc = max((r for r in records if r.regime == "ewc"), key=lambda r: r.lam)
        return OpResult([span], items, attempted=1 + len(items), failed=failed,
                        dice=task_dice(ewc.final_dice()))


WORKLOADS = {w.name: w for w in (SeqEwc, Consolidate, Grid)}
