"""Dice similarity evaluation over patches and full images.

Per-class scores are pooled: confusion counts are summed over the whole
sample set first and a single Dice value is computed from the pooled
counts (micro-averaging), rather than averaging per-image scores.  A
class absent from both prediction and reference is *undefined*, not 0 or
1, and is excluded from results.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .network import ParamStore, forward_pass, output_margin
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


def predict_patch(store: ParamStore, head: str, patch: Array) -> Array:
    """Argmax-over-logits label map for one patch."""
    return forward_pass(store, patch, head).argmax(axis=0)


def predict_full(store: ParamStore, head: str, channels: Array, tile: int = 0) -> Array:
    """Label map for the predictable interior of a full image.

    Valid convolutions trim ``margin`` pixels per border, so the output
    covers rows/cols [margin, H - margin).  The interior is tiled with
    output windows of side ``tile`` (0 = one window for the whole image);
    neighbouring input windows overlap by the receptive margin and the
    overlap is discarded.
    """
    margin = output_margin(store.spec)
    c, h, w = channels.shape
    oh, ow = h - 2 * margin, w - 2 * margin
    if oh < 1 or ow < 1:
        raise DimensionError(f"image {channels.shape} smaller than receptive field")
    if tile <= 0:
        tile = max(oh, ow)
    out = np.zeros((oh, ow), dtype=np.int64)
    for top in range(0, oh, tile):
        th = min(tile, oh - top)
        for left in range(0, ow, tile):
            tw = min(tile, ow - left)
            window = channels[:, top : top + th + 2 * margin, left : left + tw + 2 * margin]
            out[top : top + th, left : left + tw] = predict_patch(store, head, window)
    return out


def interior(labels: Array, margin: int) -> Array:
    return labels[margin:-margin, margin:-margin] if margin else labels


def pooled_dice(pairs, n_classes: int) -> list[float | None]:
    """Dice per class id from one k x k confusion pooled over every
    (prediction, truth) pair; None for a class absent from all maps."""
    k = n_classes
    confusion = np.zeros(k * k, dtype=np.int64)
    for pred, truth in pairs:
        if pred.shape != truth.shape:
            raise DimensionError(f"prediction shape {pred.shape} != truth shape {truth.shape}")
        cells = np.asarray(truth, dtype=np.int64) * k + pred
        confusion += np.bincount(cells.reshape(-1), minlength=k * k)
    confusion = confusion.reshape(k, k)  # [truth, prediction]
    hits = np.diag(confusion)
    sizes = confusion.sum(axis=0) + confusion.sum(axis=1)  # |P| + |T|
    return [None if size == 0 else 2.0 * int(hit) / int(size) for hit, size in zip(hits, sizes)]


def evaluate_model(
    store: ParamStore,
    head: str,
    task: TaskDef,
    samples,
    scope: str,
    tile: int = 0,
) -> dict[str, float]:
    """Pooled Dice per foreground class name over a sample set, in class
    order.

    scope 'patch': ``samples`` are (patch, truth window) pairs whose truth
    already matches the network's output window.  scope 'full':
    ``samples`` are :class:`ScanSample`; truth is the task's label map
    restricted to the predictable interior.  Undefined classes are
    excluded from the result.
    """
    if scope not in ("patch", "full"):
        raise DimensionError(f"unknown scope {scope!r}")
    margin = output_margin(store.spec)
    if scope == "patch":
        pairs = ((predict_patch(store, head, patch), truth) for patch, truth in samples)
    else:
        pairs = (
            (predict_full(store, head, s.channels, tile=tile), interior(task.labels_of(s), margin))
            for s in samples
        )
    scores = pooled_dice(pairs, task.n_classes)
    return {
        task.class_names[class_id]: scores[class_id]
        for class_id in range(1, task.n_classes)
        if scores[class_id] is not None
    }
