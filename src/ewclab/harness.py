"""Config-driven training loop and experiment orchestration.

One experiment executes the requested regimes over the lambda and seed
grids, reusing a single shared task-A pre-training run (with its embedded
Fisher payload) for every sequential regime.  All randomness flows from
named, hashed seed streams, so a (config, seed) pair reproduces the same
CSV bytes on the same platform.
"""

from __future__ import annotations

import hashlib
import operator
import os
import time
from dataclasses import dataclass, fields as dataclass_fields
from functools import reduce
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from . import metrics, network, svgplot, tensor
from .atomic import comma_list, decode_text, parse_field, read_fields, read_file, write_text
from .continual import (
    REGIMES,
    RegimePlan,
    build_regime,
    canonical_regime,
    derive_seed,
    estimate_fisher,
    ewc_penalty,
    fisher_job,
)
from .errors import ConfigError, ContractError, DivergenceError, PrerequisiteError
from .forks import Helper
from .network import FisherDiagonal, ParamStore, leaf_tensors, output_margin, sgd_update
from .synthtasks import (
    TASKS,
    GeneratorConfig,
    SampleBank,
    ScanSample,
    SplitManifest,
    TaskDef,
    make_splits,
    manifest_text,
    parse_manifest,
)
from .tensor import Graph, GradientMap, Tensor, backward, log_softmax, nll_loss, reshape, scale

Array = np.ndarray

CSV_HEADER = "run_id,regime,lambda,seed,epoch,scope,task,class,dice"
LOSS_HEADER = "run_id,epoch,loss_mean,penalty_mean"

# canonical panel/column order for reports and plots
CLASS_ORDER = tuple((t.task_id, name) for t in TASKS.values() for name in t.foreground)


def seeded_rng(*parts) -> np.random.Generator:
    """Generator for a named seed stream; stable across runs and platforms."""
    return np.random.default_rng(derive_seed(*parts))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    regimes: tuple[str, ...] = ()
    lambdas: tuple[float, ...] = ()  # empty: each regime's default grid
    seeds: tuple[int, ...] = (1, 2, 3)
    epochs: int = 20
    batch_size: int = 8
    learning_rate: float = 0.015
    momentum: float = 0.9
    fisher_mode: str = "empirical"
    fisher_samples: int = 64
    data_manifest: str = ""
    out_dir: str = "out"
    checkpoint: str = ""
    image_size: int = 64
    train_a_count: int = 22
    train_b_count: int = 22
    val_count: int = 25
    data_seed: int = 7
    patch_size: int = 24
    patches_per_image: int = 12
    eval_patches: int = 24
    trunk: tuple[int, ...] = (12, 12, 24)
    tile: int = 0

    def grid_for(self, kind: str) -> tuple[float, ...]:
        """Lambda grid for a regime: ``(0.0,)`` for one without a penalty,
        else the config's list when given, else the regime's default grid."""
        regime = REGIMES[kind]
        return (self.lambdas or regime.lambdas) if regime.penalty else (0.0,)

    def validate(self) -> None:
        for key in ("epochs", "batch_size", "image_size", "train_a_count", "train_b_count",
                    "val_count", "patch_size", "patches_per_image", "eval_patches",
                    "fisher_samples"):
            if getattr(self, key) < 1:
                raise ConfigError(f"config key {key!r} must be positive")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("config key 'learning_rate' must be finite and positive")
        if self.data_seed < 0:
            raise ConfigError("config key 'data_seed' must be non-negative")
        if not 0 <= self.momentum < 1:
            raise ConfigError("config key 'momentum' must lie in [0, 1)")
        if self.fisher_mode not in ("empirical", "sampled"):
            raise ConfigError(f"config key 'fisher_mode' must be empirical or sampled, got {self.fisher_mode!r}")
        if not self.trunk:
            raise ConfigError("config key 'trunk' must list at least one layer width")
        if min(self.trunk) < 1:
            raise ConfigError("config key 'trunk' must list positive layer widths")
        if self.tile < 0:
            raise ConfigError("config key 'tile' must be non-negative")
        if self.patch_size < 2 * len(self.trunk) + 1:
            raise ConfigError(
                f"config key 'patch_size' {self.patch_size} smaller than the receptive field "
                f"{2 * len(self.trunk) + 1}"
            )
        if self.patch_size > self.image_size:
            raise ConfigError("config key 'patch_size' exceeds 'image_size'")
        if not self.seeds:
            raise ConfigError("config key 'seeds' must not be empty")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError("config key 'seeds' lists a seed twice")
        for lam in self.lambdas:
            # run ids and every artifact write lambda as '%g': training uses that value
            if not (np.isfinite(lam) and lam >= 0 and float(f"{lam:g}") == lam):
                raise ConfigError(
                    f"config key 'lambda' takes finite values >= 0 equal to their %g text, got {lam!r}"
                )
        if len(set(self.lambdas)) < len(self.lambdas):
            raise ConfigError("config key 'lambda' lists a value twice")
        for kind in self.regimes:
            canonical_regime(kind)


# external key name -> dataclass attribute (external names match the file syntax)
_KEY_TO_ATTR = {"regime": "regimes", "lambda": "lambdas"}
_ATTR_TO_KEY = {v: k for k, v in _KEY_TO_ATTR.items()}


def _parse_value(attr: str, raw: str, default):
    raw = raw.strip()
    try:
        if isinstance(default, tuple):
            cast = canonical_regime if attr == "regimes" else float if attr == "lambdas" else int
            return comma_list(cast)(raw)
        return type(default)(raw)
    except (ValueError, ContractError) as exc:
        key = _ATTR_TO_KEY.get(attr, attr)
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} ({exc})") from None


def parse_config(path: str | Path | None = None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Config from an optional key=value file plus CLI overrides; flags
    win over file values.  Unknown keys are rejected by name."""
    defaults = ExperimentConfig()
    attrs = {f.name: getattr(defaults, f.name) for f in dataclass_fields(defaults)}
    values = dict(attrs)

    def apply(key: str, raw: str, where: str) -> None:
        attr = _KEY_TO_ATTR.get(key, key)
        if attr not in attrs:
            raise ConfigError(f"unknown config key {key!r} in {where}")
        values[attr] = _parse_value(attr, raw, attrs[attr])

    if path is not None:
        for lineno, key, raw in read_fields(read_file(path, ConfigError, "config file"), ConfigError, str(path)):
            apply(key.strip(), raw, f"{path}:{lineno}")
    for key, raw in (overrides or {}).items():
        apply(key, raw, "command line")

    config = ExperimentConfig(**values)
    config.validate()
    return config


def dump_config(config: ExperimentConfig) -> str:
    """Canonical key=value text; re-parsing reproduces the config."""
    lines = []
    for f in dataclass_fields(config):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ", ".join(f"{v:g}" if isinstance(v, float) else str(v) for v in value)
        lines.append(f"{_ATTR_TO_KEY.get(f.name, f.name)} = {value}")
    return "\n".join(lines) + "\n"


def config_digest(config: ExperimentConfig, manifest: str) -> str:
    """Hash over everything that shapes a single run's trajectory: the
    config, for a data manifest its content (``manifest``, the
    :func:`manifest_text` of what :func:`load_data` parsed; not its path)
    and the numeric core's version.  The sweep lists and output location
    are excluded so run ids stay stable across sweeps, output directories
    and copies of a manifest; editing its data in place changes them,
    editing its comments does not."""
    skip = {"regimes", "lambdas", "seeds", "out_dir"}
    lines = []
    for f in dataclass_fields(config):
        if f.name in skip:
            continue
        value = getattr(config, f.name)
        if f.name == "data_manifest" and value:
            value = "sha256:" + hashlib.sha256(manifest.encode()).hexdigest()
        lines.append(f"{f.name}={value}")
    lines.append(f"core_version={tensor.CORE_VERSION}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def run_id(regime: str, lam: float, seed: int, digest: str) -> str:
    """Id of one run of a config whose :func:`config_digest` is ``digest``."""
    text = f"{regime}|{lam:g}|{seed}|{digest}"
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_data(config: ExperimentConfig) -> tuple[SplitManifest, GeneratorConfig]:
    """The splits and generator settings, with the generator settings
    validated: the data manifest's, or the config's own.  The one reader
    of the manifest; a command calls it once and passes its result on."""
    if config.data_manifest:
        data = read_file(config.data_manifest, PrerequisiteError, "data manifest")
        manifest, gen_config = parse_manifest(data, config.data_manifest)
    else:
        counts = (config.train_a_count, config.train_b_count, config.val_count)
        manifest = make_splits(counts, config.data_seed)
        gen_config = GeneratorConfig(image_size=config.image_size)
    gen_config.validate()
    return manifest, gen_config


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


class MetricRow(NamedTuple):
    run_id: str
    regime: str
    lam: float
    seed: int
    epoch: int
    scope: str
    task: str
    class_name: str
    dice: float

    def csv_line(self) -> str:
        return (
            f"{self.run_id},{self.regime},{self.lam:g},{self.seed},{self.epoch},"
            f"{self.scope},{self.task},{self.class_name},{self.dice!r}"
        )

    @classmethod
    def from_csv_line(cls, line: str) -> "MetricRow":
        rid, regime, lam, seed, epoch, scope, task, class_name, value = line.split(",")
        return cls(rid, regime, float(lam), int(seed), int(epoch), scope, task, class_name, float(value))


@dataclass
class RunRecord:
    """One completed run: its rows, and ``lines``, the metrics.csv body
    lines they were written as (or read from), which curves.csv joins."""

    run_id: str
    regime: str
    lam: float
    seed: int
    rows: list[MetricRow]
    lines: list[str]
    checkpoint_final: str = ""
    splits_used: tuple[str, ...] = ()
    duration_s: float = 0.0

    def final_dice(self) -> dict[tuple[str, str], float]:
        return {(r.task, r.class_name): r.dice for r in self.rows if r.scope == "full"}


class PlanData:
    """Per-run view of the sample bank restricted to the plan's input
    manifest; the data firewall for sequential regimes."""

    def __init__(self, bank: SampleBank, allowed: tuple[str, ...], kind: str):
        self._bank = bank
        self._allowed = frozenset(allowed)
        self._kind = kind
        self.accessed: set[str] = set()

    def split(self, name: str) -> list[ScanSample]:
        if name not in self._allowed:
            raise ContractError(
                f"regime {self._kind!r} may not stream split {name!r}; allowed: {sorted(self._allowed)}"
            )
        self.accessed.add(name)
        return self._bank.split(name)


# ---------------------------------------------------------------------------
# patch sampling
# ---------------------------------------------------------------------------


def extract_patch(sample: ScanSample, task: TaskDef, top: int, left: int, size: int, margin: int):
    """Input window plus the task's label window matching the network
    output (margin pixels inside the input window)."""
    patch = sample.channels[:, top : top + size, left : left + size]
    labels = task.labels_of(sample)[
        top + margin : top + size - margin, left + margin : left + size - margin
    ]
    return patch, labels


def _foreground(sample: ScanSample, task: TaskDef) -> Array:
    """The task's foreground pixels of ``sample``, as ``np.argwhere`` rows."""
    return np.argwhere(task.labels_of(sample) > 0)


def draw_positions(
    sample: ScanSample,
    fg: Array,
    count: int,
    size: int,
    rng: np.random.Generator,
) -> list[tuple[int, int]]:
    """Patch corners, half biased to be centered on a foreground pixel
    (``fg``, the task's :func:`_foreground` of ``sample``), clamped to the
    image; sparse classes stay in view."""
    max_corner = sample.channels.shape[1] - size
    out = []
    for _ in range(count):
        if len(fg) and rng.random() < 0.5:
            cy, cx = fg[int(rng.integers(len(fg)))].tolist()
            top = min(max(cy - size // 2, 0), max_corner)
            left = min(max(cx - size // 2, 0), max_corner)
        else:
            top = int(rng.integers(0, max_corner + 1))
            left = int(rng.integers(0, max_corner + 1))
        out.append((top, left))
    return out


def _patch_set(images: list[ScanSample], task: TaskDef, config: ExperimentConfig, count: int, rng):
    """``count`` (patch, label window) pairs, one drawn position per
    patch, taking the images in turn."""
    margin = len(config.trunk)
    fgs = [_foreground(sample, task) for sample in images[:count]]
    items = []
    for i in range(count):
        sample = images[i % len(images)]
        top, left = draw_positions(sample, fgs[i % len(images)], 1, config.patch_size, rng)[0]
        items.append(extract_patch(sample, task, top, left, config.patch_size, margin))
    return items


def build_eval_patches(
    validation: list[ScanSample], task: TaskDef, config: ExperimentConfig
) -> list[tuple[Array, Array]]:
    """Fixed validation patch set for per-epoch curves; seeded by the
    data seed (not the run seed) so every regime sees the same patches."""
    rng = seeded_rng(config.data_seed, "eval", task.task_id)
    return _patch_set(validation, task, config, config.eval_patches, rng)


def _epoch_batches(
    images: list[ScanSample],
    task: TaskDef,
    config: ExperimentConfig,
    rng: np.random.Generator,
) -> list[list[tuple[int, int, int]]]:
    draws = []
    for idx, sample in enumerate(images):
        fg = _foreground(sample, task)
        for top, left in draw_positions(sample, fg, config.patches_per_image, config.patch_size, rng):
            draws.append((idx, top, left))
    order = rng.permutation(len(draws))
    shuffled = [draws[i] for i in order]
    return [shuffled[i : i + config.batch_size] for i in range(0, len(shuffled), config.batch_size)]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _patch_loss(leaves, spec, sample: ScanSample, task: TaskDef, top: int, left: int, config) -> Tensor:
    """Mean per-pixel NLL of one training patch, built on the step's leaves."""
    patch, labels = extract_patch(sample, task, top, left, config.patch_size, output_margin(spec))
    logits = network.forward_logits(leaves, spec, patch, task.head)
    k = logits.values.shape[0]
    return nll_loss(log_softmax(reshape(logits, (k, logits.values.size // k))), labels.reshape(-1))


def _helper_share(n: int) -> int:
    """How many of a job's ``n`` items the helper takes, from the first:
    half, rounded up."""
    return (n + 1) // 2


def _step_units(plan: RegimePlan, work) -> list[tuple[int, int] | None]:
    """A step's gradient terms in the order one backward over its whole
    loss adds them into the parameters: the penalty (``None``), then
    (task, patch) index pairs, the tasks last to first, each batch from
    its last patch to its first."""
    units: list[tuple[int, int] | None] = [None] if plan.fisher is not None else []
    for t in reversed(range(len(work))):
        units.extend((t, i) for i in reversed(range(len(work[t][2]))))
    return units


def _scored(store: ParamStore, plan: RegimePlan, work, config, units, epoch: int, step: int,
            grads: GradientMap | None) -> Iterator[tuple[float, GradientMap]]:
    """(value, gradient map) of each of ``units``, in order, on one leaf
    set at ``store``: each term's forward and backward run before the
    next is built, so this holds one patch's arrays at a time.  A
    patch's gradient is scaled by 1/len(batch).  Each gradient goes into
    ``grads``, or into a fresh map per unit when it is None.  A
    non-finite value raises :class:`DivergenceError` before its
    backward."""
    leaves = leaf_tensors(store, Graph())
    for unit in units:
        if unit is None:
            term, factor = ewc_penalty(leaves, plan.anchor, plan.fisher, plan.lam), None
        else:
            task, images, batch = work[unit[0]]
            idx, top, left = batch[unit[1]]
            term, factor = _patch_loss(leaves, store.spec, images[idx], task, top, left, config), 1.0 / len(batch)
        value = float(term.values)
        if not np.isfinite(value):
            raise DivergenceError(epoch, step)
        term_grads = backward(term if factor is None else scale(term, factor), grads)
        del term  # its graph's arrays go before the next term's are built
        yield value, term_grads


def _train_step(store: ParamStore, plan: RegimePlan, work, config, epoch: int, step: int,
                helper: Helper):
    """One SGD step's task loss, total loss and gradient map at ``store``.

    ``work`` lists (task, training images, batch) per trained task, in
    the plan's order.  The step's terms (:func:`_step_units`) add their
    gradients into one map in the order one backward over the step's
    whole loss would, so the gradients have that pass's bits; so does
    the loss, summed as that graph summed it (the patches in batch
    order, times 1/len(batch), task by task, then the penalty).
    Entries no term reaches are absent from the map.

    The ``helper`` (:class:`forks.Helper`) scores the first half of the
    terms and folds them into one map, as one process folds them
    (:func:`_step_job`), while this process scores the second half, one
    map per term, and then adds each into the helper's map in order.
    Each entry takes one contribution per term, so those are the same
    adds in the same order, and no bit moves, wherever the helper's job
    runs.

    A non-finite term or total raises :class:`DivergenceError` before
    any update.  Errors are those of one process: the helper's terms
    come first, so its divergence or error wins over one of this
    process's terms.
    """
    units = _step_units(plan, work)
    split = _helper_share(len(units))
    helper.submit("step", [batch for _, _, batch in work], epoch, step, split)
    try:
        own = list(_scored(store, plan, work, config, units[split:], epoch, step, None))
    finally:  # the helper's terms come first: their error is raised first
        values, grads = helper.result()
        if values is None:  # one of the helper's terms is not finite
            raise DivergenceError(epoch, step)
    for value, term_grads in own:
        values.append(value)
        for name, grad in term_grads.items():
            prev = grads.get(name)
            if prev is None:
                grads[name] = grad
            else:
                prev += grad
    value_of = dict(zip(units, values))
    means = []
    for t, (_, _, batch) in enumerate(work):
        # a left fold over the batch, as the graph's sum added
        means.append(reduce(operator.add, [value_of[t, i] for i in range(len(batch))]) * (1.0 / len(batch)))
    loss = reduce(operator.add, means)
    total = loss if plan.fisher is None else loss + value_of[None]
    if not np.isfinite(total):
        raise DivergenceError(epoch, step)
    return loss, total, grads


def _step_job(store: ParamStore, plan: RegimePlan, config, trained: list[tuple[TaskDef, list]]):
    """The helper's ``step`` job: ``job(batches, epoch, step, split)``
    scores the first ``split`` terms of the step whose batch positions
    are ``batches``, one per task of ``trained``, at ``store``, folded
    into one map as one process folds them.  It returns the terms'
    values and map, or no values for a non-finite term."""

    def job(batches, epoch: int, step: int, split: int):
        work = [(task, images, batch) for (task, images), batch in zip(trained, batches)]
        grads: GradientMap = {}
        try:
            values = [value for value, _ in _scored(
                store, plan, work, config, _step_units(plan, work)[:split], epoch, step, grads)]
        except DivergenceError:
            return None, {}
        return values, grads

    return job


def train(
    plan: RegimePlan,
    config: ExperimentConfig,
    bank: SampleBank,
    run_dir: str | Path,
    eval_sets: dict[str, list] | None = None,
) -> RunRecord:
    """Execute one run: SGD with momentum over seed-shuffled patch
    batches, per-epoch patch-scope validation, full-image final scores,
    the final checkpoint.  The run directory is created only then, so a
    run that diverges leaves none; ``record.txt``, written last, marks
    it complete.

    Every run hands half its work to one :class:`forks.Helper`, forked
    before the first scoring when two processes are available; without
    one, this process computes that half through the same job.  The
    helper scores half of each step's terms, bit for bit (see
    :func:`_train_step`), and half of each scoring: the first half of
    each eval task's patches at every patch scoring, and of the
    validation images at the full scoring.  Dice comes from int64
    confusion counts, whose sums do not depend on their order, so the
    helper's counts added to this process's give the one process's
    scores.  A dm-a run's helper then scores the second half of the
    Fisher estimate (:func:`task_a_fisher`).  After the last job the
    helper's request pipe is closed, so it exits while the run's files
    are written; it is reaped before ``train`` returns or raises."""
    t0 = time.monotonic()
    config.validate()
    rid = run_id(plan.kind, plan.lam, plan.seed, config_digest(config, manifest_text(bank.manifest, bank.config)))
    data = PlanData(bank, plan.input_splits, plan.kind)

    # a copy: the plan's store stays as built, so a plan trains the same twice
    store = ParamStore(plan.store, spec=plan.store.spec)
    tasks = [TASKS[t] for t in plan.train_tasks]
    eval_tasks = [TASKS[t] for t in plan.eval_tasks]

    validation = data.split("validation")
    if eval_sets is None:
        eval_sets = {t.task_id: build_eval_patches(validation, t, config) for t in eval_tasks}
    trained = [(task, data.split(f"train_{task.task_id}")) for task in tasks]

    def patch_counts(t: int, split: int) -> Array:
        """Confusion counts of the first ``split`` of eval task ``t``'s patches."""
        task = eval_tasks[t]
        return metrics.patch_counts(store, task.head, task, eval_sets[task.task_id][:split])

    def full_counts(split: int) -> list[Array]:
        """Each eval task's confusion counts over the first ``split`` images."""
        return metrics.full_counts(store, eval_tasks, validation[:split], config.tile)

    rows: list[MetricRow] = []

    def score(epoch: int, scope: str, helper: Helper) -> None:
        """Append one evaluation's Dice rows, tasks then classes in order;
        full scope scores every task in one pass over the images.  This
        process enters ``metrics.evaluate_model`` once per task at every
        patch scoring."""
        if scope == "full":
            split = _helper_share(len(validation))
            helper.submit("full", split)
            scores = metrics.evaluate_full(store, eval_tasks, validation[split:], config.tile, helper.result)
        else:
            splits = [_helper_share(len(eval_sets[task.task_id])) for task in eval_tasks]
            for t, split in enumerate(splits):
                helper.submit("patch", t, split)
            scores = {
                task.task_id: metrics.evaluate_model(
                    store, task.head, task, eval_sets[task.task_id][split:], scope, helper.result)
                for task, split in zip(eval_tasks, splits)
            }
        rows.extend(
            MetricRow(rid, plan.kind, plan.lam, plan.seed, epoch, scope, task.task_id, name, value)
            for task in eval_tasks
            for name, value in scores[task.task_id].items()
        )

    losses: list[tuple[int, float | None, float]] = [(0, None, 0.0)]  # epoch, loss, penalty
    velocity: dict[str, Array] = {}
    # each epoch draws patches_per_image patches per image, in batches
    steps = max(-(-len(images) * config.patches_per_image // config.batch_size) for _, images in trained)
    jobs = {
        "step": _step_job(store, plan, config, trained),
        "patch": patch_counts,
        "full": full_counts,
        # a dm-a run's Fisher estimate: its second half
        "fisher": lambda samples: fisher_job(store, *_task_a_inputs(data.split("train_a"), config), samples),
    }

    with Helper(jobs, store) as helper:
        score(0, "patch", helper)
        # a diverging step overflows before DivergenceError names its
        # epoch and step; the helper's jobs take the same setting
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(1, config.epochs + 1):
                per_task_batches = [
                    _epoch_batches(images, task, config, seeded_rng(plan.seed, "epoch", epoch, task.task_id))
                    for task, images in trained
                ]
                loss_sum = 0.0
                penalty_sum = 0.0
                for step in range(steps):
                    work = [(task, images, batches[step % len(batches)])
                            for (task, images), batches in zip(trained, per_task_batches)]
                    loss_value, total_value, grads = _train_step(store, plan, work, config, epoch, step, helper)
                    loss_sum += loss_value
                    penalty_sum += total_value - loss_value
                    sgd_update(store, grads, velocity, config.learning_rate, config.momentum)
                losses.append((epoch, loss_sum / steps, penalty_sum / steps))
                score(epoch, "patch", helper)
        score(config.epochs, "full", helper)
        fisher = task_a_fisher(store, data.split("train_a"), config, helper) if plan.kind == "dm-a" else None
        helper.finish()  # no job is left: it exits while the files are written

        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        ckpt_final = run_dir / "final.ckpt"
        meta = {"regime": plan.kind, "seed": str(plan.seed), "lambda": f"{plan.lam:g}", "epoch": str(config.epochs)}
        network.save_checkpoint(store, ckpt_final, metadata=meta, fisher=fisher)

        record = RunRecord(
            run_id=rid,
            regime=plan.kind,
            lam=plan.lam,
            seed=plan.seed,
            rows=rows,
            lines=[row.csv_line() for row in rows],
            checkpoint_final=str(ckpt_final),
            splits_used=tuple(sorted(data.accessed)),
            duration_s=time.monotonic() - t0,
        )
        _write_run_dir(record, losses, config, run_dir)
    return record


def fisher_patches(images: list[ScanSample], task: TaskDef, config: ExperimentConfig):
    """Seed-determined task-A patches for the importance estimate."""
    rng = seeded_rng(config.data_seed, "fisher")
    return _patch_set(images, task, config, config.fisher_samples, rng)


def _task_a_inputs(images: list[ScanSample], config: ExperimentConfig) -> tuple:
    """The task-A Fisher estimate's data, head, mode and label seed."""
    task = TASKS["a"]
    return (fisher_patches(images, task, config), task.head, config.fisher_mode,
            derive_seed(config.data_seed, "fisher", "labels"))


def task_a_fisher(store: ParamStore, images: list[ScanSample], config: ExperimentConfig,
                  helper: Helper | None = None) -> FisherDiagonal:
    """The task-A importance estimate that dm-a runs embed in their final
    checkpoint and ``ewclab fisher`` recomputes: seed-determined patches
    and, in sampled mode, seed-determined labels.  A dm-a run's
    ``helper``, whose ``fisher`` job scores these same inputs at
    ``store``, scores the second half (see :func:`estimate_fisher`)."""
    data, head, mode, rng_seed = _task_a_inputs(images, config)
    return estimate_fisher(store, data, head, mode=mode, rng_seed=rng_seed, dataset_id="train_a",
                           helper=helper)


# ---------------------------------------------------------------------------
# run directory layout
# ---------------------------------------------------------------------------


def _csv_text(lines: list[str]) -> str:
    return "\n".join([CSV_HEADER, *lines]) + "\n"


def _write_run_dir(record: RunRecord, losses: list[tuple], config: ExperimentConfig, run_dir: Path) -> None:
    """The run's text files; ``record.txt`` last, because its presence
    marks the run complete."""
    write_text(run_dir / "config.txt", dump_config(config))
    write_text(run_dir / "metrics.csv", _csv_text(record.lines))
    loss_lines = [LOSS_HEADER]
    for epoch, loss, penalty in losses:
        loss_lines.append(f"{record.run_id},{epoch},{'' if loss is None else repr(loss)},{penalty!r}")
    write_text(run_dir / "losses.csv", "\n".join(loss_lines) + "\n")
    write_text(
        run_dir / "record.txt",
        "\n".join(
            [
                f"run_id={record.run_id}",
                f"regime={record.regime}",
                f"lambda={record.lam:g}",
                f"seed={record.seed}",
                f"splits_used={','.join(record.splits_used)}",
                f"duration_s={record.duration_s:.3f}",
            ]
        )
        + "\n",
    )


def read_metric_rows(path) -> tuple[list[MetricRow], list[str]]:
    """Rows of a metrics.csv or curves.csv, and the body lines they were
    parsed from.  A missing file, text that is not UTF-8, a wrong header
    or a malformed row is a config error naming the file (and line)."""
    lines = decode_text(read_file(path, ConfigError, "metric rows"), ConfigError, os.fspath(path)).splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path} does not carry the expected header")
    del lines[0]
    rows = []
    for lineno, line in enumerate(lines, start=2):
        try:
            rows.append(MetricRow.from_csv_line(line))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: malformed row {line!r} ({exc})") from None
    return rows, lines


def load_run_record(run_dir, run_id: str) -> RunRecord:
    """Rebuild the record of run ``run_id`` from its completed directory
    (idempotent skip).  The final checkpoint path is derived from
    ``run_dir``, so a moved output directory still resolves it; unread
    record.txt keys are ignored.  A missing file, a malformed line, a
    missing or unparsable key, a record.txt of another run and a metrics
    row of another run are config errors naming the file (and line)."""
    run_dir = os.fspath(run_dir)
    path = os.path.join(run_dir, "record.txt")
    fields = {}
    for lineno, key, value in read_fields(read_file(path, ConfigError, "run record"), ConfigError, path):
        if key == "run_id" and value != run_id:
            raise ConfigError(f"{path}:{lineno}: names run {value}, not {run_id}")
        fields[key] = value
    # direct calls, not a partial: an all-hit re-run reads every run's record
    ident = (
        parse_field(fields, ConfigError, path, "run_id", str),
        parse_field(fields, ConfigError, path, "regime", str),
        parse_field(fields, ConfigError, path, "lambda", float),
        parse_field(fields, ConfigError, path, "seed", int),
    )
    splits_used = parse_field(fields, ConfigError, path, "splits_used", comma_list(str))
    duration_s = parse_field(fields, ConfigError, path, "duration_s", float)
    metrics_path = os.path.join(run_dir, "metrics.csv")
    rows, lines = read_metric_rows(metrics_path)
    for lineno, row in enumerate(rows, start=2):
        if row[:4] != ident:
            raise ConfigError(
                f"{metrics_path}:{lineno}: row of run {row.run_id} ({row.regime} lambda={row.lam:g} "
                f"seed={row.seed}) in the directory of run {ident[0]} ({ident[1]} "
                f"lambda={ident[2]:g} seed={ident[3]})"
            )
    return RunRecord(*ident, rows, lines, checkpoint_final=os.path.join(run_dir, "final.ckpt"),
                     splits_used=splits_used, duration_s=duration_s)


# ---------------------------------------------------------------------------
# experiment orchestration
# ---------------------------------------------------------------------------


def run_experiment(config: ExperimentConfig, progress=None) -> list[RunRecord]:
    """Execute the regime x lambda x seed grid under the output directory.

    Regimes run in ``REGIMES`` order, each once at the first seed or per
    seed, and a penalized regime per lambda too.  The task-A run doubles
    as the shared prerequisite of every sequential regime and runs
    whenever one is requested.  Completed run ids are skipped, and the
    validation samples and eval patches are built only once a run
    trains, so a sweep of cache hits generates no data.  A diverging run
    is recorded in failures.txt without aborting the sweep; a sweep
    without failures removes the file.
    """
    config.validate()
    if not config.regimes:
        raise ConfigError("config key 'regime' is required for an experiment")
    requested = {canonical_regime(k) for k in config.regimes}
    sequential = any(REGIMES[k].sequential for k in requested)
    if sequential:
        requested.add("dm-a")  # the shared task-A run every sequential regime starts from
    data = load_data(config)
    out = Path(config.out_dir)
    runs_dir = os.path.join(out, "runs")  # a plain string: a hit builds no Path
    os.makedirs(runs_dir, exist_ok=True)
    manifest = manifest_text(*data)
    write_text(out / "manifest.txt", manifest)
    digest = config_digest(config, manifest)
    bank = SampleBank(*data)
    eval_sets: dict[str, list] = {}  # filled by the first run that trains

    records: list[RunRecord] = []
    failures: list[str] = []
    note = progress or (lambda msg: None)

    def ensure(kind: str, lam: float, seed: int, checkpoint_path: str | None,
               critical: bool) -> RunRecord | None:
        rid = run_id(kind, lam, seed, digest)
        run_dir = os.path.join(runs_dir, rid)
        if os.path.exists(os.path.join(run_dir, "record.txt")):  # written last: the run completed
            note(f"skip {kind} lambda={lam:g} seed={seed} ({rid}, already done)")
            record = load_run_record(run_dir, rid)
            records.append(record)
            return record
        note(f"run {kind} lambda={lam:g} seed={seed} ({rid})")
        plan = build_regime(
            kind, lam, seed, checkpoint_path, trunk=tuple(config.trunk)
        )
        if not eval_sets:
            validation = bank.split("validation")
            eval_sets.update(
                (t.task_id, build_eval_patches(validation, t, config)) for t in TASKS.values()
            )
        try:
            record = train(plan, config, bank, run_dir, eval_sets=eval_sets)
        except DivergenceError as exc:
            failures.append(f"{rid},{kind},{lam:g},{seed},{exc}")
            note(f"FAILED {rid}: {exc}")
            write_text(out / "failures.txt", "\n".join(failures) + "\n")
            if critical:
                raise
            return None
        records.append(record)
        return record

    checkpoint = None
    for kind, regime in REGIMES.items():  # the table lists the task-A run first
        if kind not in requested:
            continue
        seeds = config.seeds if regime.per_seed else config.seeds[:1]
        for lam in config.grid_for(kind):
            for seed in seeds:
                # a sequential sweep cannot proceed without the task-A run
                record = ensure(kind, lam, seed, checkpoint, critical=kind == "dm-a" and sequential)
                if kind == "dm-a" and record is not None:
                    checkpoint = record.checkpoint_final

    if not failures and os.path.exists(out / "failures.txt"):
        os.unlink(out / "failures.txt")

    write_text(out / "curves.csv", _csv_text([line for record in records for line in record.lines]))
    groups = group_rows([row for record in records for row in record.rows])
    write_summary(groups, out)
    emit_plots(groups, out / "plots")
    return records


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _method_label(regime: str, lam: float) -> str:
    r = REGIMES[regime]
    return f"{r.label} λ={lam:g}" if r.penalty else r.label


# (regime, lambda, task, class) -> (epoch -> patch-scope Dice values,
# full-scope Dice values), each list in row order
RowGroups = dict[tuple[str, float, str, str], tuple[dict[int, list[float]], list[float]]]


def group_rows(rows: list[MetricRow]) -> RowGroups:
    """The rows grouped once for the summary table and the plots; rows of
    another scope are ignored."""
    groups: RowGroups = {}
    for _, regime, lam, _, epoch, scope, task, class_name, dice in rows:
        key = (regime, lam, task, class_name)
        cell = groups.get(key)
        if cell is None:
            cell = groups[key] = ({}, [])
        if scope == "patch":
            cell[0].setdefault(epoch, []).append(dice)
        elif scope == "full":
            cell[1].append(dice)
    return groups


def _lambdas(groups: RowGroups, scope: int) -> dict[str, list[float]]:
    """regime -> its lambdas, ascending, that have rows of the scope
    (0 patch, 1 full)."""
    lams: dict[str, set[float]] = {}
    for (regime, lam, _, _), cell in groups.items():
        if cell[scope]:
            lams.setdefault(regime, set()).add(lam)
    return {regime: sorted(values) for regime, values in lams.items()}


def emit_summary_table(groups: RowGroups) -> tuple[str, str]:
    """Final full-image DSC% per method (seed means), one row per
    regime (+lambda) in table order; '-' marks tasks the method never
    trained."""
    headers = ["Method"] + [name.upper() for _, name in CLASS_ORDER]
    body = []
    lams = _lambdas(groups, 1)
    for regime in REGIMES:
        for lam in lams.get(regime, ()):
            row = [_method_label(regime, lam)]
            for task, name in CLASS_ORDER:
                values = groups.get((regime, lam, task, name), ((), ()))[1]
                row.append("-" if not values else f"{100.0 * sum(values) / len(values):.1f}")
            body.append(row)

    widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h) for i, h in enumerate(headers)]
    def fmt_row(row):
        return "  ".join(v.ljust(w) if i == 0 else v.rjust(w) for i, (v, w) in enumerate(zip(row, widths)))

    text_lines = [fmt_row(headers), fmt_row(["-" * w for w in widths])]
    text_lines += [fmt_row(row) for row in body]
    text = "\n".join(text_lines) + "\n"
    csv_text = "\n".join([",".join(headers).lower()] + [",".join(row) for row in body]) + "\n"
    return text, csv_text


def write_summary(groups: RowGroups, out_dir: Path) -> str:
    """Write the summary table as summary.txt and summary.csv under
    ``out_dir``; returns the text table."""
    text, csv_text = emit_summary_table(groups)
    write_text(out_dir / "summary.txt", text)
    write_text(out_dir / "summary.csv", csv_text)
    return text


def emit_plots(groups: RowGroups, plot_dir: str | Path) -> list[Path]:
    """One SVG per regime of ``REGIMES`` (like the summary, rows of any
    other regime are ignored): panels per class in task order, one line
    per lambda (legend ascending), patch-scope DSC% against epoch.  The
    SVG of a regime without rows is removed; other files stay."""
    plot_dir = Path(plot_dir)
    plot_dir.mkdir(parents=True, exist_ok=True)
    written = []
    lams = _lambdas(groups, 0)
    for regime in sorted(REGIMES):
        panels = []
        for task, name in CLASS_ORDER:
            series = []
            for lam in lams.get(regime, ()):
                by_epoch = groups.get((regime, lam, task, name), ({}, ()))[0]
                if by_epoch:
                    points = [(float(e), 100.0 * sum(v) / len(v)) for e, v in sorted(by_epoch.items())]
                    series.append((f"λ={lam:g}", points))
            if series:
                panels.append((f"task {task.upper()}: {name}", series))
        if not panels:
            continue
        svg = svgplot.line_chart_grid(REGIMES[regime].label, panels)
        path = plot_dir / f"{regime}.svg"
        write_text(path, svg)
        written.append(path)
    names = {path.name for path in written}
    for regime in REGIMES:  # a plot of an earlier, wider sweep
        stale = os.path.join(plot_dir, f"{regime}.svg")
        if f"{regime}.svg" not in names and os.path.exists(stale):
            os.unlink(stale)
    return written
