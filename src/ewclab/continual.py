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
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import network
from .errors import AlignmentError, ContractError, DataError, PrerequisiteError
from .network import NetworkSpec, ParamStore
from .synthtasks import TASK_A, TASK_B
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
        prov = FisherProvenance(dataset_id="", head="", mode="l2", samples=0)
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

# builds per-pixel log-probabilities [K, N] for one patch from leaf tensors
ForwardFn = Callable[[Mapping[str, Tensor], Array], Tensor]


def _default_forward(store: ParamStore, head: str) -> tuple[ForwardFn, list[str]]:
    spec = store.spec
    if spec is None:
        raise ContractError("store has no network spec; pass an explicit forward")
    names = network.forward_names(spec, head)
    classes = spec.heads[head]

    def fn(leaves: Mapping[str, Tensor], patch: Array) -> Tensor:
        logits = network.forward_logits(leaves, spec, patch, head)
        n = logits.values.shape[1] * logits.values.shape[2]
        return log_softmax(reshape(logits, (classes, n)))

    return fn, names


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
    forward: ForwardFn | None = None,
    names: list[str] | None = None,
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
    if forward is None:
        forward, names = _default_forward(params, head)
    rng = np.random.default_rng(rng_seed)
    table = params.entry_table()
    total = params.total_params
    for patch, labels in data:
        graph = Graph()
        leaves = network.leaf_tensors(params, graph, names)
        log_probs = forward(leaves, patch)
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
    forward: ForwardFn | None = None,
    names: list[str] | None = None,
) -> FisherDiagonal:
    """Average squared per-sample score, accumulated in ascending sample
    order: F_i = (1/M) * sum_m g_{m,i}^2.  Deterministic given inputs and
    seed."""
    sumsq = np.zeros(params.total_params)
    count = 0
    for score in score_samples(params, data, head, mode, rng_seed, forward, names):
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

REGIMES = ("dm-a", "dm-b", "multitask", "finetune", "l2", "ewc")
SEQUENTIAL_REGIMES = ("finetune", "l2", "ewc")

_REGIME_ALIASES = {
    "dm-a": "dm-a", "dma": "dm-a",
    "dm-b": "dm-b", "dmb": "dm-b",
    "multitask": "multitask", "multi-task": "multitask",
    "finetune": "finetune", "fine-tune": "finetune",
    "l2": "l2",
    "ewc": "ewc",
}


def canonical_regime(kind: str) -> str:
    key = kind.strip().lower()
    if key not in _REGIME_ALIASES:
        raise ContractError(f"unknown regime {kind!r}; expected one of {REGIMES}")
    return _REGIME_ALIASES[key]


@dataclass
class RegimePlan:
    """Executable description of one run: where parameters come from,
    which head to add, which splits may be streamed, and the anchored
    penalty.  ``anchor`` and ``fisher`` are set for l2 (unit importances)
    and ewc, and None for every unregularized regime."""

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

    Sequential kinds (finetune, l2, ewc) need an existing task-A
    checkpoint; ewc additionally needs its embedded Fisher payload.
    Missing prerequisites raise :class:`PrerequisiteError`; a negative or
    non-finite lambda raises :class:`ContractError`.
    """
    kind = canonical_regime(kind)
    lam = float(lam)
    if not (np.isfinite(lam) and lam >= 0):
        raise ContractError(f"lambda must be finite and non-negative, got {lam}")

    def spec_for(heads: dict[str, int]) -> NetworkSpec:
        return NetworkSpec(in_channels=in_channels, trunk=tuple(trunk), heads=heads)

    if kind == "dm-a":
        return RegimePlan(
            kind, 0.0, seed, spec_for({TASK_A.head: TASK_A.n_classes}), None, None,
            train_tasks=("a",), eval_tasks=("a",), input_splits=("train_a", "validation"),
        )
    if kind == "dm-b":
        return RegimePlan(
            kind, 0.0, seed, spec_for({TASK_B.head: TASK_B.n_classes}), None, None,
            train_tasks=("b",), eval_tasks=("b",), input_splits=("train_b", "validation"),
        )
    if kind == "multitask":
        return RegimePlan(
            kind, 0.0, seed,
            spec_for({TASK_A.head: TASK_A.n_classes, TASK_B.head: TASK_B.n_classes}), None, None,
            train_tasks=("a", "b"), eval_tasks=("a", "b"),
            input_splits=("train_a", "train_b", "validation"),
        )

    # sequential regimes start from the task-A checkpoint
    if not checkpoint_path or not Path(checkpoint_path).exists():
        raise PrerequisiteError(
            f"regime {kind!r} needs a task-A checkpoint; not found at {checkpoint_path!r}"
        )
    ckpt = network.load_checkpoint(checkpoint_path)
    if TASK_A.head not in (ckpt.params.spec.heads if ckpt.params.spec else {}):
        raise PrerequisiteError(
            f"checkpoint {checkpoint_path!r} has no {TASK_A.head!r} head; not a task-A checkpoint"
        )
    if kind == "ewc" and ckpt.fisher is None:
        raise PrerequisiteError(
            f"regime 'ewc' needs a Fisher payload inside {checkpoint_path!r}; "
            "run the fisher step on the task-A checkpoint first"
        )
    anchor = fisher = None
    if kind in ("l2", "ewc"):
        anchor = AnchorParams.from_store(ckpt.params)
        fisher = FisherDiagonal.ones_like(ckpt.params) if kind == "l2" else ckpt.fisher
    return RegimePlan(
        kind, lam, seed, None, ckpt,
        attach=(TASK_B.head, TASK_B.n_classes),
        train_tasks=("b",), eval_tasks=("a", "b"), input_splits=("train_b", "validation"),
        anchor=anchor, fisher=fisher,
    )
