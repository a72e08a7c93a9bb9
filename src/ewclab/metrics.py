"""Dice similarity evaluation over patches and full images.

Per-class scores are pooled: confusion counts are summed over the whole
sample set first and a single Dice value is computed from the pooled
counts (micro-averaging), rather than averaging per-image scores.  A
class absent from both prediction and reference is *undefined*, not 0 or
1, and is excluded from results.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError
from .network import ParamStore, forward_heads, output_margin
from .synthtasks import TaskDef

Array = np.ndarray


def dice(pred: Array, truth: Array, class_id: int) -> float | None:
    """2|P n T| / (|P| + |T|) for one class; None when the class is absent
    from both maps."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise DimensionError(f"prediction shape {pred.shape} != truth shape {truth.shape}")
    p = pred == class_id
    t = truth == class_id
    denom = int(p.sum()) + int(t.sum())
    if denom == 0:
        return None
    return 2.0 * int(np.count_nonzero(p & t)) / denom


def predict_full(store: ParamStore, head: str, channels: Array, tile: int = 0) -> Array:
    """Label map of one head for the predictable interior of a full image:
    the one-head case of :func:`predict_full_heads`."""
    return predict_full_heads(store, (head,), channels, tile)[0]


def predict_full_heads(
    store: ParamStore, heads: Sequence[str], channels: Array, tile: int = 0
) -> list[Array]:
    """Label map of each head in ``heads`` for the predictable interior of
    a full image.

    Valid convolutions trim ``margin`` pixels per border, so the output
    covers rows/cols [margin, H - margin).  The interior is tiled with
    output windows of side ``tile`` (0 = one window for the whole image);
    neighbouring input windows overlap by the receptive margin and the
    overlap is discarded.  Each window runs the trunk once for all the
    heads, and its features are released before the next window's pass.
    """
    margin = output_margin(store.spec)
    c, h, w = channels.shape
    oh, ow = h - 2 * margin, w - 2 * margin
    if oh < 1 or ow < 1:
        raise DimensionError(f"image {channels.shape} smaller than receptive field")
    if tile <= 0:
        tile = max(oh, ow)
    outs = [np.zeros((oh, ow), dtype=np.int64) for _ in heads]
    for top in range(0, oh, tile):
        th = min(tile, oh - top)
        for left in range(0, ow, tile):
            tw = min(tile, ow - left)
            window = channels[:, top : top + th + 2 * margin, left : left + tw + 2 * margin]
            for out, logits in zip(outs, forward_heads(store, window, heads)):
                out[top : top + th, left : left + tw] = logits.argmax(axis=0)
    return outs


def interior(labels: Array, margin: int) -> Array:
    return labels[margin:-margin, margin:-margin] if margin else labels


def _confusion_counts(pred: Array, truth: Array, n_classes: int) -> Array:
    """Flat k x k confusion counts, cell truth * k + prediction, of one
    (prediction, truth) pair."""
    if pred.shape != truth.shape:
        raise DimensionError(f"prediction shape {pred.shape} != truth shape {truth.shape}")
    k = n_classes
    cells = np.asarray(truth, dtype=np.int64) * k + pred
    return np.bincount(cells.reshape(-1), minlength=k * k)


def _confusion_dice(confusion: Array, n_classes: int) -> list[float | None]:
    """Dice per class id from flat pooled confusion counts; None for a
    class absent from every prediction and truth."""
    confusion = confusion.reshape(n_classes, n_classes)  # [truth, prediction]
    hits = np.diag(confusion)
    sizes = confusion.sum(axis=0) + confusion.sum(axis=1)  # |P| + |T|
    return [None if size == 0 else 2.0 * int(hit) / int(size) for hit, size in zip(hits, sizes)]


def pooled_counts(pairs, n_classes: int) -> Array:
    """Flat k x k confusion counts pooled over every (prediction, truth)
    pair."""
    confusion = np.zeros(n_classes * n_classes, dtype=np.int64)
    for pred, truth in pairs:
        confusion += _confusion_counts(pred, truth, n_classes)
    return confusion


def _class_scores(task: TaskDef, scores: list[float | None]) -> dict[str, float]:
    """Foreground class name -> Dice in class order, undefined ones left out."""
    return {
        task.class_names[class_id]: scores[class_id]
        for class_id in range(1, task.n_classes)
        if scores[class_id] is not None
    }


def full_counts(store: ParamStore, tasks: Sequence[TaskDef], samples, tile: int = 0) -> list[Array]:
    """Flat confusion counts of each task's head over full images, pooled
    image by image: the counts behind :func:`evaluate_full`.

    ``samples`` are :class:`ScanSample`; each task's head is scored on the
    predictable interior against the task's label map.  Every image runs
    the trunk once per window for all the tasks' heads.
    """
    margin = output_margin(store.spec)
    heads = [task.head for task in tasks]
    confusions = [np.zeros(task.n_classes * task.n_classes, dtype=np.int64) for task in tasks]
    for s in samples:
        maps = predict_full_heads(store, heads, s.channels, tile)
        for task, pred, confusion in zip(tasks, maps, confusions):
            confusion += _confusion_counts(pred, interior(task.labels_of(s), margin), task.n_classes)
        del maps  # released before the next image's trunk pass
    return confusions


def evaluate_full(
    store: ParamStore, tasks: Sequence[TaskDef], samples, tile: int = 0,
    more_counts: Callable[[], list[Array]] | None = None,
) -> dict[str, dict[str, float]]:
    """Pooled full-image Dice per foreground class name of each task, keyed
    by task id, from :func:`full_counts` over ``samples``.  Undefined
    classes are excluded.

    ``more_counts``, when given, returns each task's counts of further
    images scored elsewhere; they are added once these images are
    counted.  Integer sums do not depend on their order, so the scores
    are those of one pass over all the images.
    """
    confusions = full_counts(store, tasks, samples, tile)
    if more_counts is not None:
        for confusion, more in zip(confusions, more_counts()):
            confusion += more
    return {
        task.task_id: _class_scores(task, _confusion_dice(confusion, task.n_classes))
        for task, confusion in zip(tasks, confusions)
    }


def patch_counts(store: ParamStore, head: str, task: TaskDef, samples) -> Array:
    """Flat confusion counts of ``head`` over (patch, truth window) pairs,
    whose truth already matches the network's output window: the counts
    behind :func:`evaluate_model`."""
    pairs = ((forward_heads(store, patch, (head,))[0].argmax(axis=0), truth) for patch, truth in samples)
    return pooled_counts(pairs, task.n_classes)


def evaluate_model(store: ParamStore, head: str, task: TaskDef, samples, scope: str,
                   more_counts: Callable[[], Array] | None = None) -> dict[str, float]:
    """Pooled Dice per foreground class name over (patch, truth window)
    pairs (:func:`patch_counts`), in class order; undefined classes are
    excluded.  ``scope`` must be ``'patch'``: full images are scored by
    :func:`evaluate_full`.  ``more_counts`` adds the counts of further
    pairs scored elsewhere, as in :func:`evaluate_full`.
    """
    if scope != "patch":
        raise DimensionError(f"unknown scope {scope!r}")
    confusion = patch_counts(store, head, task, samples)
    if more_counts is not None:
        confusion += more_counts()
    return _class_scores(task, _confusion_dice(confusion, task.n_classes))
