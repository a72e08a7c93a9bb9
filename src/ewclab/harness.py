"""Config-driven training loop and experiment orchestration.

One experiment executes the requested regimes over the lambda and seed
grids, reusing a single shared task-A pre-training run (with its embedded
Fisher payload) for every sequential regime.  All randomness flows from
named, hashed seed streams, so a (config, seed) pair reproduces the same
CSV bytes on the same platform.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import metrics, network, svgplot, tensor
from .atomic import write_text
from .continual import (
    REGIMES,
    FisherDiagonal,
    RegimePlan,
    build_regime,
    canonical_regime,
    estimate_fisher,
    ewc_penalty,
)
from .errors import ConfigError, ContractError, DivergenceError
from .network import ParamStore, init_network, leaf_tensors, output_margin, sgd_update
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
from .tensor import Graph, add, add_n, backward, log_softmax, nll_loss, reshape, scale

Array = np.ndarray

CSV_HEADER = "run_id,regime,lambda,seed,epoch,scope,task,class,dice"
LOSS_HEADER = "run_id,epoch,loss_mean,penalty_mean"

TASK_SPLIT = {"a": "train_a", "b": "train_b"}
# canonical panel/column order for reports and plots
CLASS_ORDER = (("a", "csf"), ("a", "gm"), ("a", "wm"), ("b", "wml"))


def seeded_rng(*parts) -> np.random.Generator:
    """Generator for a named seed stream; stable across runs and platforms."""
    return np.random.default_rng(derive_seed(*parts))


def derive_seed(*parts) -> int:
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


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
        """Lambda grid for a regime: the config's list when given, else
        the regime's default grid."""
        return self.lambdas or REGIMES[kind].lambdas

    def validate(self) -> None:
        for key in ("epochs", "batch_size", "image_size", "train_a_count", "train_b_count",
                    "val_count", "patch_size", "patches_per_image", "eval_patches",
                    "fisher_samples"):
            if getattr(self, key) < 1:
                raise ConfigError(f"config key {key!r} must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("config key 'learning_rate' must be positive")
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
            if not (np.isfinite(lam) and lam >= 0):
                raise ConfigError(f"config key 'lambda' must be finite and non-negative, got {lam:g}")
        # run ids and every artifact carry lambda as '%g'
        if len({f"{lam:g}" for lam in self.lambdas}) < len(self.lambdas):
            raise ConfigError("config key 'lambda' lists values that coincide when written as %g")
        for kind in self.regimes:
            canonical_regime(kind)


# external key name -> dataclass attribute (external names match the file syntax)
_KEY_TO_ATTR = {"regime": "regimes", "lambda": "lambdas"}
_ATTR_TO_KEY = {v: k for k, v in _KEY_TO_ATTR.items()}


def _parse_value(attr: str, raw: str, default):
    raw = raw.strip()
    try:
        if isinstance(default, tuple):
            items = [v.strip() for v in raw.split(",") if v.strip() != ""]
            if attr == "regimes":
                return tuple(canonical_regime(v) for v in items)
            cast = float if attr == "lambdas" else int
            return tuple(cast(v) for v in items)
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
        text = Path(path).read_text()
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"malformed line {lineno} in {path}: {line!r}")
            key, raw = stripped.split("=", 1)
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


def config_digest(config: ExperimentConfig) -> str:
    """Hash over everything that shapes a single run's trajectory: the
    config, the data manifest's content (not its path) and the numeric
    core's version.  The sweep lists and output location are excluded so
    run ids stay stable across sweeps, output directories and copies of
    a manifest; editing a manifest in place changes them."""
    skip = {"regimes", "lambdas", "seeds", "out_dir"}
    lines = []
    for f in dataclass_fields(config):
        if f.name in skip:
            continue
        value = getattr(config, f.name)
        if f.name == "data_manifest" and value:
            value = "sha256:" + hashlib.sha256(Path(value).read_bytes()).hexdigest()
        lines.append(f"{f.name}={value}")
    lines.append(f"core_version={tensor.CORE_VERSION}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def run_id(regime: str, lam: float, seed: int, digest: str) -> str:
    """Id of one run of a config whose :func:`config_digest` is ``digest``."""
    text = f"{regime}|{lam:g}|{seed}|{digest}"
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def generator_config(config: ExperimentConfig) -> GeneratorConfig:
    return GeneratorConfig(image_size=config.image_size)


def load_data(config: ExperimentConfig) -> tuple[SplitManifest, GeneratorConfig]:
    if config.data_manifest:
        return parse_manifest(Path(config.data_manifest).read_text())
    counts = (config.train_a_count, config.train_b_count, config.val_count)
    return make_splits(counts, config.data_seed), generator_config(config)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricRow:
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
class EpochMetrics:
    epoch: int
    loss_mean: float | None
    penalty_mean: float
    dice: dict[tuple[str, str], float]


@dataclass
class RunRecord:
    run_id: str
    regime: str
    lam: float
    seed: int
    rows: list[MetricRow]
    epoch_metrics: list[EpochMetrics] = field(default_factory=list)
    checkpoint_epoch0: str = ""
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


def draw_positions(
    sample: ScanSample,
    task: TaskDef,
    count: int,
    size: int,
    rng: np.random.Generator,
    fg_bias: float = 0.5,
) -> list[tuple[int, int]]:
    """Patch corners, half biased to be centered on a foreground pixel of
    the task (clamped to the image); sparse classes stay in view."""
    h = sample.channels.shape[1]
    max_corner = h - size
    fg = np.argwhere(task.labels_of(sample) > 0)
    out = []
    for _ in range(count):
        if fg.size and rng.random() < fg_bias:
            cy, cx = fg[int(rng.integers(len(fg)))]
            top = int(np.clip(cy - size // 2, 0, max_corner))
            left = int(np.clip(cx - size // 2, 0, max_corner))
        else:
            top = int(rng.integers(0, max_corner + 1))
            left = int(rng.integers(0, max_corner + 1))
        out.append((top, left))
    return out


def build_eval_patches(
    validation: list[ScanSample], task: TaskDef, config: ExperimentConfig
) -> list[tuple[Array, Array]]:
    """Fixed validation patch set for per-epoch curves; seeded by the
    data seed (not the run seed) so every regime sees the same patches."""
    rng = seeded_rng(config.data_seed, "eval", task.task_id)
    margin = len(config.trunk)
    items = []
    for i in range(config.eval_patches):
        sample = validation[i % len(validation)]
        top, left = draw_positions(sample, task, 1, config.patch_size, rng)[0]
        items.append(extract_patch(sample, task, top, left, config.patch_size, margin))
    return items


def _epoch_batches(
    images: list[ScanSample],
    task: TaskDef,
    config: ExperimentConfig,
    rng: np.random.Generator,
) -> list[list[tuple[int, int, int]]]:
    draws = []
    for idx, sample in enumerate(images):
        for top, left in draw_positions(sample, task, config.patches_per_image, config.patch_size, rng):
            draws.append((idx, top, left))
    order = rng.permutation(len(draws))
    shuffled = [draws[i] for i in order]
    return [shuffled[i : i + config.batch_size] for i in range(0, len(shuffled), config.batch_size)]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _mean_patch_loss(leaves, spec, images, batch, task: TaskDef, config, margin):
    losses = []
    for idx, top, left in batch:
        patch, labels = extract_patch(images[idx], task, top, left, config.patch_size, margin)
        logits = network.forward_logits(leaves, spec, patch, task.head)
        k = logits.values.shape[0]
        n = logits.values.size // k
        lp = log_softmax(reshape(logits, (k, n)))
        losses.append(nll_loss(lp, labels.reshape(-1)))
    return scale(add_n(losses), 1.0 / len(losses))


def train(
    plan: RegimePlan,
    config: ExperimentConfig,
    bank: SampleBank,
    run_dir: str | Path,
    eval_sets: dict[str, list] | None = None,
) -> RunRecord:
    """Execute one run: SGD with momentum over seed-shuffled patch
    batches, per-epoch patch-scope validation, full-image final scores,
    checkpoints at epoch 0 and the final epoch."""
    t0 = time.monotonic()
    config.validate()
    rid = run_id(plan.kind, plan.lam, plan.seed, config_digest(config))
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    data = PlanData(bank, plan.input_splits, plan.kind)

    if plan.scratch_spec is not None:
        store = init_network(plan.scratch_spec, derive_seed(plan.seed, "init"))
    else:
        store = network.attach_head(
            plan.checkpoint.params, plan.attach[0], plan.attach[1], derive_seed(plan.seed, "head")
        )
    spec = store.spec
    margin = output_margin(spec)
    tasks = [TASKS[t] for t in plan.train_tasks]
    eval_tasks = [TASKS[t] for t in plan.eval_tasks]

    validation = data.split("validation")
    if eval_sets is None:
        eval_sets = {t.task_id: build_eval_patches(validation, t, config) for t in eval_tasks}

    meta = {"regime": plan.kind, "seed": str(plan.seed), "lambda": f"{plan.lam:g}"}
    ckpt0 = run_dir / "epoch0.ckpt"
    network.save_checkpoint(store, ckpt0, metadata={**meta, "epoch": "0"})

    def patch_eval(epoch: int) -> dict[tuple[str, str], float]:
        out: dict[tuple[str, str], float] = {}
        for task in eval_tasks:
            records = metrics.evaluate_model(
                store, task.head, task, eval_sets[task.task_id], "patch", epoch=epoch
            )
            for r in records:
                out[(r.task, r.class_name)] = r.dice
        return out

    epoch_metrics = [EpochMetrics(0, None, 0.0, patch_eval(0))]

    train_images = {task.task_id: data.split(TASK_SPLIT[task.task_id]) for task in tasks}
    velocity: dict[str, Array] = {}

    for epoch in range(1, config.epochs + 1):
        per_task_batches = {
            task.task_id: _epoch_batches(
                train_images[task.task_id], task, config, seeded_rng(plan.seed, "epoch", epoch, task.task_id)
            )
            for task in tasks
        }
        steps = max(len(b) for b in per_task_batches.values())
        loss_sum = 0.0
        penalty_sum = 0.0
        for step in range(steps):
            graph = Graph()
            # leaves for every entry: the anchored task-A head takes part
            # in the penalty even though task-B batches never touch it
            leaves = leaf_tensors(store, graph)
            task_losses = []
            for task in tasks:
                batches = per_task_batches[task.task_id]
                batch = batches[step % len(batches)]
                task_losses.append(
                    _mean_patch_loss(leaves, spec, train_images[task.task_id], batch, task, config, margin)
                )
            task_loss = task_losses[0] if len(task_losses) == 1 else add(task_losses[0], task_losses[1])
            total = task_loss
            if plan.fisher is not None:
                total = add(task_loss, ewc_penalty(leaves, plan.anchor, plan.fisher, plan.lam))
            total_value = float(total.values)
            if not np.isfinite(total_value):
                raise DivergenceError(epoch, step)
            loss_value = float(task_loss.values)
            loss_sum += loss_value
            penalty_sum += total_value - loss_value
            grads = backward(total)
            sgd_update(store, grads, velocity, config.learning_rate, config.momentum)
        epoch_metrics.append(
            EpochMetrics(epoch, loss_sum / steps, penalty_sum / steps, patch_eval(epoch))
        )

    final_records = []
    for task in eval_tasks:
        final_records += metrics.evaluate_model(
            store, task.head, task, validation, "full", epoch=config.epochs, tile=config.tile
        )

    fisher = task_a_fisher(store, data.split("train_a"), config) if plan.kind == "dm-a" else None
    ckpt_final = run_dir / "final.ckpt"
    network.save_checkpoint(store, ckpt_final, metadata={**meta, "epoch": str(config.epochs)}, fisher=fisher)

    rows = []
    for em in epoch_metrics:
        for (task_id, class_name) in sorted(em.dice):
            rows.append(
                MetricRow(rid, plan.kind, plan.lam, plan.seed, em.epoch, "patch",
                          task_id, class_name, em.dice[(task_id, class_name)])
            )
    for r in final_records:
        rows.append(MetricRow(rid, plan.kind, plan.lam, plan.seed, r.epoch, "full", r.task, r.class_name, r.dice))

    record = RunRecord(
        run_id=rid,
        regime=plan.kind,
        lam=plan.lam,
        seed=plan.seed,
        rows=rows,
        epoch_metrics=epoch_metrics,
        checkpoint_epoch0=str(ckpt0),
        checkpoint_final=str(ckpt_final),
        splits_used=tuple(sorted(data.accessed)),
        duration_s=time.monotonic() - t0,
    )
    _write_run_dir(record, config, run_dir)
    return record


def fisher_patches(images: list[ScanSample], task: TaskDef, config: ExperimentConfig):
    """Seed-determined task-A patches for the importance estimate."""
    rng = seeded_rng(config.data_seed, "fisher")
    margin = len(config.trunk)
    out = []
    for i in range(config.fisher_samples):
        sample = images[i % len(images)]
        top, left = draw_positions(sample, task, 1, config.patch_size, rng)[0]
        out.append(extract_patch(sample, task, top, left, config.patch_size, margin))
    return out


def task_a_fisher(store: ParamStore, images: list[ScanSample], config: ExperimentConfig) -> FisherDiagonal:
    """The task-A importance estimate that dm-a runs embed in their final
    checkpoint and ``ewclab fisher`` recomputes: seed-determined patches
    and, in sampled mode, seed-determined labels."""
    task = TASKS["a"]
    return estimate_fisher(
        store,
        fisher_patches(images, task, config),
        task.head,
        mode=config.fisher_mode,
        rng_seed=derive_seed(config.data_seed, "fisher", "labels"),
        dataset_id="train_a",
    )


# ---------------------------------------------------------------------------
# run directory layout
# ---------------------------------------------------------------------------


def _csv_text(rows: list[MetricRow]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_line() for r in rows]) + "\n"


def _write_run_dir(record: RunRecord, config: ExperimentConfig, run_dir: Path) -> None:
    write_text(run_dir / "config.txt", dump_config(config))
    write_text(run_dir / "metrics.csv", _csv_text(record.rows))
    loss_lines = [LOSS_HEADER]
    for em in record.epoch_metrics:
        loss = "" if em.loss_mean is None else repr(em.loss_mean)
        loss_lines.append(f"{record.run_id},{em.epoch},{loss},{em.penalty_mean!r}")
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
    write_text(run_dir / "done", "ok\n")


def load_run_record(run_dir: str | Path) -> RunRecord:
    """Rebuild a record from a completed run directory (idempotent skip).
    Checkpoint paths are derived from ``run_dir``, so a moved output
    directory still resolves them; unread record.txt keys are ignored."""
    run_dir = Path(run_dir)
    fields_txt = {}
    for line in (run_dir / "record.txt").read_text().splitlines():
        key, value = line.split("=", 1)
        fields_txt[key] = value
    lines = (run_dir / "metrics.csv").read_text().splitlines()
    rows = [MetricRow.from_csv_line(line) for line in lines[1:]]
    return RunRecord(
        run_id=fields_txt["run_id"],
        regime=fields_txt["regime"],
        lam=float(fields_txt["lambda"]),
        seed=int(fields_txt["seed"]),
        rows=rows,
        checkpoint_epoch0=str(run_dir / "epoch0.ckpt"),
        checkpoint_final=str(run_dir / "final.ckpt"),
        splits_used=tuple(s for s in fields_txt["splits_used"].split(",") if s),
        duration_s=float(fields_txt["duration_s"]),
    )


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
    out = Path(config.out_dir)
    runs_dir = out / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    manifest, gen_config = load_data(config)
    write_text(out / "manifest.txt", manifest_text(manifest, gen_config))
    digest = config_digest(config)
    bank = SampleBank(manifest, gen_config)
    eval_sets: dict[str, list] = {}  # filled by the first run that trains

    records: list[RunRecord] = []
    failures: list[str] = []
    note = progress or (lambda msg: None)

    def ensure(kind: str, lam: float, seed: int, checkpoint_path: str | None,
               critical: bool) -> RunRecord | None:
        rid = run_id(kind, lam, seed, digest)
        run_dir = runs_dir / rid
        if (run_dir / "done").exists():
            note(f"skip {kind} lambda={lam:g} seed={seed} ({rid}, already done)")
            record = load_run_record(run_dir)
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
        lams = config.grid_for(kind) if regime.penalty else (0.0,)
        seeds = config.seeds if regime.per_seed else config.seeds[:1]
        for lam in lams:
            for seed in seeds:
                # a sequential sweep cannot proceed without the task-A run
                record = ensure(kind, lam, seed, checkpoint, critical=kind == "dm-a" and sequential)
                if kind == "dm-a" and record is not None:
                    checkpoint = record.checkpoint_final

    if not failures:
        (out / "failures.txt").unlink(missing_ok=True)

    all_rows = [row for record in records for row in record.rows]
    write_text(out / "curves.csv", _csv_text(all_rows))
    text, csv_text = emit_summary_table(all_rows)
    write_text(out / "summary.txt", text)
    write_text(out / "summary.csv", csv_text)
    emit_plots(all_rows, out / "plots")
    return records


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _method_label(regime: str, lam: float) -> str:
    r = REGIMES[regime]
    return f"{r.label} λ={lam:g}" if r.penalty else r.label


def emit_summary_table(rows: list[MetricRow]) -> tuple[str, str]:
    """Final full-image DSC% per method (seed means), one row per
    regime (+lambda) in table order; '-' marks tasks the method never
    trained."""
    cells: dict[tuple[str, float], dict[tuple[str, str], list[float]]] = {}
    for r in rows:
        if r.scope == "full":
            cell = cells.setdefault((r.regime, r.lam), {})
            cell.setdefault((r.task, r.class_name), []).append(r.dice)

    order = []
    for regime in REGIMES:
        for key in sorted((k for k in cells if k[0] == regime), key=lambda k: k[1]):
            order.append(key)

    headers = ["Method", "CSF", "GM", "WM", "WML"]
    body = []
    for regime, lam in order:
        cell = cells[(regime, lam)]
        row = [_method_label(regime, lam)]
        for tc in CLASS_ORDER:
            values = cell.get(tc)
            row.append("-" if not values else f"{100.0 * sum(values) / len(values):.1f}")
        body.append(row)

    widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h) for i, h in enumerate(headers)]
    def fmt_row(row):
        return "  ".join(v.ljust(w) if i == 0 else v.rjust(w) for i, (v, w) in enumerate(zip(row, widths)))

    text_lines = [fmt_row(headers), fmt_row(["-" * w for w in widths])]
    text_lines += [fmt_row(row) for row in body]
    text = "\n".join(text_lines) + "\n"
    csv_text = "\n".join(["method,csf,gm,wm,wml"] + [",".join(row) for row in body]) + "\n"
    return text, csv_text


def emit_plots(rows: list[MetricRow], plot_dir: str | Path) -> list[Path]:
    """One SVG per regime of ``REGIMES`` (like the summary, rows of any
    other regime are ignored): panels per class in task order, one line
    per lambda (legend ascending), patch-scope DSC% against epoch."""
    plot_dir = Path(plot_dir)
    plot_dir.mkdir(parents=True, exist_ok=True)
    # regime -> (task, class) -> lambda -> epoch -> Dice values in row order
    groups: dict[str, dict[tuple[str, str], dict[float, dict[int, list[float]]]]] = {}
    for r in rows:
        if r.scope == "patch":
            by_lam = groups.setdefault(r.regime, {}).setdefault((r.task, r.class_name), {})
            by_lam.setdefault(r.lam, {}).setdefault(r.epoch, []).append(r.dice)

    written = []
    for regime in sorted(groups.keys() & REGIMES.keys()):
        panels = []
        for task_id, class_name in CLASS_ORDER:
            by_lam = groups[regime].get((task_id, class_name))
            if not by_lam:
                continue
            series = [
                (f"λ={lam:g}",
                 [(float(e), 100.0 * sum(v) / len(v)) for e, v in sorted(by_lam[lam].items())])
                for lam in sorted(by_lam)
            ]
            panels.append((f"task {task_id.upper()}: {class_name}", series))
        if not panels:
            continue
        svg = svgplot.line_chart_grid(REGIMES[regime].label, panels)
        path = plot_dir / f"{regime}.svg"
        write_text(path, svg)
        written.append(path)
    return written
