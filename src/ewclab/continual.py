"""Diagonal Fisher information estimation and the anchored quadratic
penalty that defines the regularized training regimes.

The per-parameter importance is the average squared gradient of the
per-sample log-likelihood (mean over pixels), taken either with the
dataset's labels (``empirical``) or with labels drawn per pixel from the
model's own predictive distribution (``sampled``).  The penalty anchors
parameters to a converged snapshot, weighted by those importances;
an all-ones importance vector turns it into the plain L2 anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import network
from .errors import AlignmentError, ContractError, DataError, PrerequisiteError
from .network import NetworkSpec, ParamStore
from .synthtasks import TASK_A, TASKS
from .tensor import Graph, Tensor, backward, log_softmax, nll_loss, reshape

Array = np.ndarray

# entry table rows: (name, shape, flat offset), as ParamStore.entry_table()
EntryTable = tuple[tuple[str, tuple[int, ...], int], ...]


@dataclass(frozen=True)
class FisherProvenance:
    dataset_id: str
    head: str
    mode: str
    samples: int


class FisherDiagonal:
    """Per-parameter non-negative importances, flat-aligned to the store
    they were estimated on.  Parameters added later (new heads) have no
    entry, so their importance is zero."""

    def __init__(self, values: Array, entry_table: EntryTable, provenance: FisherProvenance):
        self.values = np.asarray(values, dtype=np.float64)
        self.entry_table = tuple(entry_table)
        self.provenance = provenance
        total = sum(int(np.prod(shape, dtype=np.int64)) for _, shape, _ in self.entry_table)
        if self.values.shape != (total,):
            raise AlignmentError(
                f"fisher length {self.values.shape} does not cover its entry table ({total})"
            )
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            raise AlignmentError("fisher values must be finite and non-negative")

    def __len__(self) -> int:
        return self.values.size

    def to_entries(self) -> Iterator[tuple[str, Array]]:
        for name, shape, offset in self.entry_table:
            size = int(np.prod(shape, dtype=np.int64))
            yield name, self.values[offset : offset + size].reshape(shape)

    @classmethod
    def from_entries(cls, entries: Sequence[tuple[str, Array]], provenance: FisherProvenance) -> "FisherDiagonal":
        table = []
        offset = 0
        chunks = []
        for name, values in entries:
            table.append((name, values.shape, offset))
            offset += values.size
            chunks.append(np.asarray(values, dtype=np.float64).reshape(-1))
        flat = np.concatenate(chunks) if chunks else np.zeros(0)
        return cls(flat, tuple(table), provenance)

    @classmethod
    def ones_like(cls, store: ParamStore) -> "FisherDiagonal":
        """Unit importances: the plain L2 anchor."""
        prov = FisherProvenance(dataset_id="", head="", mode="unit", samples=0)
        return cls(np.ones(store.total_params), tuple(store.entry_table()), prov)


class AnchorParams:
    """Immutable flat snapshot of converged parameters, with the entry
    table that defines its alignment."""

    def __init__(self, values: Array, entry_table: EntryTable):
        self.values = np.asarray(values, dtype=np.float64).copy()
        self.values.flags.writeable = False
        self.entry_table = tuple(entry_table)

    def __len__(self) -> int:
        return self.values.size

    @classmethod
    def from_store(cls, store: ParamStore) -> "AnchorParams":
        return cls(store.flat(), tuple(store.entry_table()))

    def slice_of(self, name: str, shape: tuple[int, ...], offset: int) -> Array:
        size = int(np.prod(shape, dtype=np.int64))
        return self.values[offset : offset + size].reshape(shape)


# ---------------------------------------------------------------------------
# Fisher estimation
# ---------------------------------------------------------------------------

def _sample_labels(log_probs: Array, rng: np.random.Generator) -> Array:
    """One label per pixel, drawn from the predictive distribution."""
    probs = np.exp(log_probs)
    cum = np.cumsum(probs, axis=0)
    cum /= cum[-1:]
    u = rng.random(log_probs.shape[1])
    return (u[None, :] < cum).argmax(axis=0)


def score_samples(
    params: ParamStore,
    data: Sequence[tuple[Array, Array]],
    head: str,
    mode: str = "empirical",
    rng_seed: int = 0,
) -> Iterator[Array]:
    """Per-sample score vectors: the gradient of each sample's mean
    per-pixel log-likelihood, flattened over all store entries in flat
    index order.  ``data`` yields (patch, label map) pairs; in ``sampled``
    mode the given labels are ignored and fresh ones are drawn per pixel.
    """
    if len(data) == 0:
        raise DataError("cannot estimate Fisher information from an empty dataset")
    if mode not in ("empirical", "sampled"):
        raise ContractError(f"unknown fisher mode {mode!r}")
    spec = params.spec
    if spec is None:
        raise ContractError("store has no network spec")
    names = network.forward_names(spec, head)
    classes = spec.heads[head]
    rng = np.random.default_rng(rng_seed)
    table = params.entry_table()
    total = params.total_params
    for patch, labels in data:
        graph = Graph()
        leaves = network.leaf_tensors(params, graph, names)
        logits = network.forward_logits(leaves, spec, patch, head)
        n = logits.values.shape[1] * logits.values.shape[2]
        log_probs = log_softmax(reshape(logits, (classes, n)))
        if mode == "sampled":
            y = _sample_labels(log_probs.values, rng)
        else:
            y = np.asarray(labels).reshape(-1)
        loss = nll_loss(log_probs, y)  # mean negative log-likelihood
        grads = backward(loss)
        score = np.zeros(total)
        for name, shape, offset in table:
            g = grads.get(name)
            if g is not None:
                size = int(np.prod(shape, dtype=np.int64))
                score[offset : offset + size] = -g.reshape(-1)
        yield score


def estimate_fisher(
    params: ParamStore,
    data: Sequence[tuple[Array, Array]],
    head: str,
    mode: str = "empirical",
    rng_seed: int = 0,
    dataset_id: str = "",
) -> FisherDiagonal:
    """Average squared per-sample score, accumulated in ascending sample
    order: F_i = (1/M) * sum_m g_{m,i}^2.  Deterministic given inputs and
    seed."""
    sumsq = np.zeros(params.total_params)
    count = 0
    for score in score_samples(params, data, head, mode, rng_seed):
        sumsq += score * score
        count += 1
    return FisherDiagonal(
        sumsq / count,
        tuple(params.entry_table()),
        FisherProvenance(dataset_id=dataset_id, head=head, mode=mode, samples=count),
    )


# ---------------------------------------------------------------------------
# anchored penalty
# ---------------------------------------------------------------------------


def ewc_penalty(
    leaves: Mapping[str, Tensor],
    anchor: AnchorParams,
    fisher: FisherDiagonal,
    lam: float,
) -> Tensor:
    """lam * sum_i F_i (theta_i - anchor_i)^2 over anchored entries, as a
    differentiable scalar; parameters without an anchor entry (a new task
    head) contribute nothing and receive an exactly-zero gradient.

    The gradient w.r.t. theta is exactly 2 * lam * F * (theta - anchor).
    """
    if fisher.entry_table != anchor.entry_table:
        for (fn, fs, fo), (an, a_s, ao) in zip(fisher.entry_table, anchor.entry_table):
            if (fn, fs, fo) != (an, a_s, ao):
                raise AlignmentError(f"fisher/anchor entry mismatch at {an!r}")
        raise AlignmentError("fisher and anchor entry tables differ in length")
    lam = float(lam)

    anchored: list[tuple[Tensor, Array, Array]] = []
    total = 0.0
    for name, shape, offset in anchor.entry_table:
        leaf = leaves.get(name)
        if leaf is None:
            raise AlignmentError(f"anchored entry {name!r} missing from parameters")
        if leaf.shape != shape:
            raise AlignmentError(
                f"anchored entry {name!r} shape {leaf.shape} != anchor shape {shape}"
            )
        a = anchor.slice_of(name, shape, offset)
        f = fisher.values[offset : offset + a.size].reshape(shape)
        diff = leaf.values - a
        total += lam * float((f * diff * diff).sum())
        anchored.append((leaf, a, f))

    def vjp(g: Array) -> tuple[Array, ...]:
        return tuple(g * 2.0 * lam * f * (leaf.values - a) for leaf, a, f in anchored)

    return Tensor.op(np.asarray(total), [leaf for leaf, _, _ in anchored], vjp)


# ---------------------------------------------------------------------------
# experiment regimes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Regime:
    """One regime of the comparison: what it trains and scores, where its
    parameters come from, its penalty and how the sweep runs it."""

    label: str  # report label
    train_tasks: tuple[str, ...]
    eval_tasks: tuple[str, ...]
    sequential: bool  # starts from the task-A checkpoint
    penalty: str | None = None  # None, "unit" importances (l2) or "fisher" (ewc)
    lambdas: tuple[float, ...] = (0.0,)  # default lambda grid
    per_seed: bool = True  # else once, at the first seed


# The regimes in sweep and report order.  The two regularizers live on
# very different lambda scales: the Fisher importances average ~1e-4
# while the L2 anchor weights every parameter at 1, and plain momentum
# SGD diverges once lr * 2 * lambda * max importance crosses the
# stability bound.  An empty 'lambda' config entry resolves to the grid
# of the regime at hand.
REGIMES: dict[str, Regime] = {
    "dm-a": Regime("DM-A", ("a",), ("a",), sequential=False, per_seed=False),
    "dm-b": Regime("DM-B", ("b",), ("b",), sequential=False, per_seed=False),
    "multitask": Regime("Multi-task", ("a", "b"), ("a", "b"), sequential=False),
    "finetune": Regime("Fine-tune", ("b",), ("a", "b"), sequential=True),
    "l2": Regime("L2", ("b",), ("a", "b"), sequential=True, penalty="unit",
                 lambdas=(0.01, 0.03, 0.1, 0.3)),
    "ewc": Regime("EWC", ("b",), ("a", "b"), sequential=True, penalty="fisher",
                  lambdas=(150.0, 500.0, 1500.0, 3000.0)),
}

_REGIME_ALIASES = {"dma": "dm-a", "dmb": "dm-b", "multi-task": "multitask", "fine-tune": "finetune"}


def canonical_regime(kind: str) -> str:
    key = kind.strip().lower()
    key = _REGIME_ALIASES.get(key, key)
    if key not in REGIMES:
        raise ContractError(f"unknown regime {kind!r}; expected one of {tuple(REGIMES)}")
    return key


@dataclass
class RegimePlan:
    """Executable description of one run: where parameters come from,
    which head to add, which splits may be streamed, and the anchored
    penalty.  ``anchor`` and ``fisher`` are set for penalized regimes
    (unit importances or the checkpoint's Fisher), and None otherwise."""

    kind: str
    lam: float
    seed: int
    scratch_spec: NetworkSpec | None  # from-scratch regimes
    checkpoint: "network.Checkpoint | None"  # sequential regimes
    attach: tuple[str, int] | None
    train_tasks: tuple[str, ...]
    eval_tasks: tuple[str, ...]
    input_splits: tuple[str, ...]
    anchor: AnchorParams | None = None
    fisher: FisherDiagonal | None = None


def build_regime(
    kind: str,
    lam: float = 0.0,
    seed: int = 0,
    checkpoint_path: str | None = None,
    trunk: tuple[int, ...] = (12, 12, 24),
    in_channels: int = 2,
) -> RegimePlan:
    """Plan for one experiment run.

    Sequential regimes need an existing task-A checkpoint; a Fisher
    penalty additionally needs its embedded Fisher payload.  Missing
    prerequisites raise :class:`PrerequisiteError`; a negative or
    non-finite lambda raises :class:`ContractError`.
    """
    kind = canonical_regime(kind)
    regime = REGIMES[kind]
    lam = float(lam)
    if not (np.isfinite(lam) and lam >= 0):
        raise ContractError(f"lambda must be finite and non-negative, got {lam}")
    splits = tuple(f"train_{t}" for t in regime.train_tasks) + ("validation",)

    if not regime.sequential:
        heads = {TASKS[t].head: TASKS[t].n_classes for t in regime.train_tasks}
        spec = NetworkSpec(in_channels=in_channels, trunk=tuple(trunk), heads=heads)
        return RegimePlan(kind, 0.0, seed, spec, None, None,
                          regime.train_tasks, regime.eval_tasks, splits)

    if not checkpoint_path or not Path(checkpoint_path).exists():
        raise PrerequisiteError(
            f"regime {kind!r} needs a task-A checkpoint; not found at {checkpoint_path!r}"
        )
    ckpt = network.load_checkpoint(checkpoint_path)
    if TASK_A.head not in (ckpt.params.spec.heads if ckpt.params.spec else {}):
        raise PrerequisiteError(
            f"checkpoint {checkpoint_path!r} has no {TASK_A.head!r} head; not a task-A checkpoint"
        )
    if regime.penalty == "fisher" and ckpt.fisher is None:
        raise PrerequisiteError(
            f"regime {kind!r} needs a Fisher payload inside {checkpoint_path!r}; "
            "run the fisher step on the task-A checkpoint first"
        )
    anchor = fisher = None
    if regime.penalty:
        anchor = AnchorParams.from_store(ckpt.params)
        fisher = ckpt.fisher if regime.penalty == "fisher" else FisherDiagonal.ones_like(ckpt.params)
    (new_task,) = (TASKS[t] for t in regime.train_tasks)
    return RegimePlan(
        kind, lam, seed, None, ckpt, (new_task.head, new_task.n_classes),
        regime.train_tasks, regime.eval_tasks, splits, anchor=anchor, fisher=fisher,
    )
