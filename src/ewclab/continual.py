"""Diagonal Fisher information estimation and the anchored quadratic
penalty that defines the regularized training regimes.

The per-parameter importance is the average squared gradient of the
per-sample log-likelihood (mean over pixels), taken either with the
dataset's labels (``empirical``) or with labels drawn per pixel from the
model's own predictive distribution (``sampled``).  The penalty anchors
parameters to a converged snapshot, weighted by those importances;
unit importances turn it into the plain L2 anchor.
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import network
from .errors import ContractError, DataError, PrerequisiteError
from .network import FisherDiagonal, FisherProvenance, NetworkSpec, ParamStore, attach_head, init_network
from .synthtasks import TASK_A, TASKS
from .tensor import Graph, Tensor, backward, log_softmax, nll_loss, reshape

Array = np.ndarray


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


def _check_inputs(params: ParamStore, data: Sequence, mode: str, head: str) -> None:
    if len(data) == 0:
        raise DataError("cannot estimate Fisher information from an empty dataset")
    if mode not in ("empirical", "sampled"):
        raise ContractError(f"unknown fisher mode {mode!r}")
    if params.spec is None:
        raise ContractError("store has no network spec")
    network.check_head(params.spec, head)


def _sample_loss(params: ParamStore, patch: Array, labels: Array, head: str, rng) -> Tensor:
    """One sample's mean per-pixel NLL on fresh leaves; with an ``rng``
    (sampled mode) the labels are drawn from the model instead."""
    logits = network.forward_logits(network.leaf_tensors(params, Graph()), params.spec, patch, head)
    classes = logits.values.shape[0]
    log_probs = log_softmax(reshape(logits, (classes, logits.values.size // classes)))
    y = np.asarray(labels).reshape(-1) if rng is None else _sample_labels(log_probs.values, rng)
    return nll_loss(log_probs, y)


def _sample_grads(
    params: ParamStore, data: Sequence, head: str, mode: str, rng_seed: int, samples: range,
) -> Iterator[dict[str, Array]]:
    """The loss gradient of each sample in ``samples``, in order.  The
    sampled labels come from one stream that draws one uniform per
    output pixel, sample by sample from sample 0, so the uniforms of the
    samples before ``samples`` are drawn and discarded first."""
    rng = None
    if mode == "sampled":
        rng = np.random.default_rng(rng_seed)
        trim = 2 * network.output_margin(params.spec)
        for i in range(samples.start):
            height, width = np.shape(data[i][0])[-2:]
            rng.random((height - trim) * (width - trim))
    for i in samples:
        patch, labels = data[i]
        yield backward(_sample_loss(params, patch, labels, head, rng))


def score_samples(
    params: ParamStore,
    data: Sequence[tuple[Array, Array]],
    head: str,
    mode: str = "empirical",
    rng_seed: int = 0,
) -> Iterator[dict[str, Array]]:
    """Per-sample scores: the gradient of each sample's mean per-pixel
    log-likelihood, as one ``{name: array}`` map over the store entries
    that likelihood reaches (the trunk and ``head``; another head has no
    entry).  ``data`` yields (patch, label map) pairs; in ``sampled``
    mode the given labels are ignored and fresh ones are drawn per pixel.
    """
    _check_inputs(params, data, mode, head)
    for grads in _sample_grads(params, data, head, mode, rng_seed, range(len(data))):
        yield {name: -g for name, g in grads.items()}


# Fewest samples worth a process of their own: forking a ~50 MB process,
# moving its chunk's squares back and joining it took 7-8 ms on a 2-vCPU
# host, about ten samples' scoring with the default network.
FISHER_MIN_CHUNK = 32


def _fisher_chunks(samples: int) -> list[range]:
    """Contiguous sample ranges, one per process: at most one per
    available core, and ``FISHER_MIN_CHUNK`` samples or more each.  Only
    Linux splits: Windows has no fork, and macOS' Accelerate is not
    fork-safe."""
    procs = 1
    if sys.platform == "linux":
        procs = max(1, min(len(os.sched_getaffinity(0)), samples // FISHER_MIN_CHUNK))
    bounds = [samples * k // procs for k in range(procs + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _square_rows(params, data, head, mode, rng_seed, samples: range, reached) -> Iterator[Array]:
    """One flat row per sample of ``samples``, in order: the squared
    gradient of each ``reached`` entry, in store order.  (Squaring the
    gradient has the bits of squaring the negated score.)"""
    for grads in _sample_grads(params, data, head, mode, rng_seed, samples):
        yield np.concatenate([(grads[name] * grads[name]).reshape(-1) for name in reached])


def _fork_scorer(params, data, head, mode, rng_seed, samples: range, reached, inherited) -> tuple[int, int]:
    """Fork a child that writes :func:`_square_rows` of ``samples`` to a
    pipe once it has scored them all, so a full pipe never stalls it
    while the calling process scores its own chunk.  Returns (pid, read
    end).

    The child closes the ``inherited`` read ends, so each pipe has one
    reader, and a closed read end fails its write with EPIPE.  It leaves
    only by ``os._exit``: it never flushes the parent's buffered output
    or runs exit hooks.  On any error it exits non-zero having written
    nothing.  (numpy's OpenBLAS stops its idle thread pool before a
    fork, so the child starts from the one thread that forked.)"""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    status = 1
    try:
        os.close(read_end)
        for pipe in inherited:
            pipe.close()
        rows = list(_square_rows(params, data, head, mode, rng_seed, samples, reached))
        with open(write_end, "wb") as out:
            for row in rows:
                out.write(row)
        status = 0
    finally:
        os._exit(status)


def estimate_fisher(
    params: ParamStore,
    data: Sequence[tuple[Array, Array]],
    head: str,
    mode: str = "empirical",
    rng_seed: int = 0,
    dataset_id: str = "",
) -> FisherDiagonal:
    """Average squared per-sample score, accumulated in ascending sample
    order: F_i = (1/M) * sum_m g_{m,i}^2, zero for an entry no score
    reaches.  Deterministic given inputs and seed.

    The samples split into contiguous chunks (:func:`_fisher_chunks`).
    This process scores the first chunk and a forked child each other
    one.  One loop then adds every sample's row of squares into one flat
    sum, chunk by chunk in sample order: this process's own rows, each
    child's whole rows from its pipe, and the rows of the samples a
    child did not deliver, which this process scores itself.  So the
    sums have the bits of one process's fold whatever the split, and a
    child's error is raised here as one process raises it.  Every child
    is reaped and every pipe closed before this returns or raises.
    """
    _check_inputs(params, data, mode, head)
    # the entries one sample's likelihood reaches: the trunk and ``head``
    reached = [name for name in params if not name.startswith("head.") or name.startswith(f"head.{head}.")]
    sizes = [params[name].size for name in reached]
    total, row = np.zeros(sum(sizes)), np.empty(sum(sizes))
    chunks = _fisher_chunks(len(data))
    pids, pipes = [], []
    try:
        try:
            for samples in chunks[1:]:
                pid, read_end = _fork_scorer(params, data, head, mode, rng_seed, samples, reached, pipes)
                pids.append(pid)
                pipes.append(open(read_end, "rb"))
        except OSError:
            pass  # no process to spare: the chunks without a child are scored here
        for samples, pipe in zip_longest(chunks, [None, *pipes]):
            done = 0
            while pipe is not None and done < len(samples) and pipe.readinto(row) == row.nbytes:
                done += 1
                total += row
            for scored in _square_rows(params, data, head, mode, rng_seed, samples[done:], reached):
                total += scored
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
    means = dict(zip(reached, np.split(total / len(data), np.cumsum(sizes)[:-1])))
    return FisherDiagonal(
        ParamStore({name: means.get(name, np.zeros(v.size)).reshape(v.shape) for name, v in params.items()}),
        FisherProvenance(dataset_id=dataset_id, head=head, mode=mode, samples=len(data)),
    )


# ---------------------------------------------------------------------------
# anchored penalty
# ---------------------------------------------------------------------------


def ewc_penalty(
    leaves: Mapping[str, Tensor],
    anchor: ParamStore,
    fisher: FisherDiagonal,
    lam: float,
) -> Tensor:
    """lam * sum_i F_i (theta_i - anchor_i)^2 over anchored entries, as a
    differentiable scalar; parameters without an anchor entry (a new task
    head) contribute nothing and are not among the penalty's parents, so
    a backward pass of the penalty gives them no gradient entry.

    The gradient w.r.t. theta is exactly 2 * lam * F * (theta - anchor).
    ``fisher`` and ``leaves`` hold an entry of the anchor's shape for each
    anchor entry, as the task-A checkpoint's layout check at load ensures.
    """
    lam = float(lam)
    importance = fisher.importance
    anchored = [(leaves[name], a, importance[name]) for name, a in anchor.items()]
    total = 0.0
    for leaf, a, f in anchored:
        diff = leaf.values - a
        total += lam * float((f * diff * diff).sum())

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


def derive_seed(*parts) -> int:
    """Seed of a named stream; stable across runs and platforms."""
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def load_task_a_checkpoint(path: str | None, needed_by: str) -> network.Checkpoint:
    """The checkpoint at ``path``, whose only head must be task A's.  No
    path, no file or any other set of heads raise
    :class:`PrerequisiteError`."""
    if not path:
        raise PrerequisiteError(f"{needed_by} needs a task-A checkpoint; none given")
    ckpt = network.load_checkpoint(path)
    heads = list(ckpt.params.spec.heads)
    if heads != [TASK_A.head]:
        raise PrerequisiteError(
            f"checkpoint {str(path)!r} has heads {heads}; a task-A checkpoint has "
            f"the {TASK_A.head!r} head only"
        )
    return ckpt


@dataclass
class RegimePlan:
    """Executable description of one run: the store it starts from, which
    splits may be streamed, and the anchored penalty.  ``anchor`` (the
    read-only task-A parameters) and ``fisher`` are set for penalized
    regimes (unit importances or the checkpoint's Fisher), and None
    otherwise."""

    kind: str
    lam: float
    seed: int
    store: ParamStore
    train_tasks: tuple[str, ...]
    eval_tasks: tuple[str, ...]
    input_splits: tuple[str, ...]
    anchor: ParamStore | None = None
    fisher: FisherDiagonal | None = None


def build_regime(
    kind: str,
    lam: float = 0.0,
    seed: int = 0,
    checkpoint_path: str | None = None,
    trunk: tuple[int, ...] = (12, 12, 24),
) -> RegimePlan:
    """Plan for one experiment run.

    Scratch regimes start from a seeded initialization; sequential ones
    from the task-A checkpoint with a seeded new head, and a Fisher
    penalty additionally needs the checkpoint's Fisher payload.  Missing
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
        store = init_network(NetworkSpec(trunk=tuple(trunk), heads=heads), derive_seed(seed, "init"))
        return RegimePlan(kind, 0.0, seed, store, regime.train_tasks, regime.eval_tasks, splits)

    ckpt = load_task_a_checkpoint(checkpoint_path, f"regime {kind!r}")
    if regime.penalty == "fisher" and ckpt.fisher is None:
        raise PrerequisiteError(
            f"regime {kind!r} needs a Fisher payload inside {checkpoint_path!r}; "
            "run the fisher step on the task-A checkpoint first"
        )
    (new_task,) = (TASKS[t] for t in regime.train_tasks)
    store = attach_head(ckpt.params, new_task.head, new_task.n_classes, derive_seed(seed, "head"))
    anchor = fisher = None
    if regime.penalty:
        anchor = ckpt.params
        for values in anchor.values():
            values.flags.writeable = False
        fisher = ckpt.fisher if regime.penalty == "fisher" else FisherDiagonal.ones_like(anchor)
    return RegimePlan(
        kind, lam, seed, store, regime.train_tasks, regime.eval_tasks, splits,
        anchor=anchor, fisher=fisher,
    )
