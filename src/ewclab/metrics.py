"""Dice similarity evaluation over patches and full images.

Per-class scores are pooled: confusion counts are summed over the whole
sample set first and a single Dice value is computed from the pooled
counts (micro-averaging), rather than averaging per-image scores.  A
class absent from both prediction and reference is *undefined*, not 0 or
1, and is excluded from results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .network import ParamStore, forward_pass, output_margin
from .synthtasks import ScanSample, TaskDef

Array = np.ndarray


@dataclass
class ConfusionCounts:
    """Per-class true-positive / false-positive / false-negative pixel
    counts; additive across images."""

    tp: Array
    fp: Array
    fn: Array

    @classmethod
    def zeros(cls, n_classes: int) -> "ConfusionCounts":
        return cls(
            np.zeros(n_classes, dtype=np.int64),
            np.zeros(n_classes, dtype=np.int64),
            np.zeros(n_classes, dtype=np.int64),
        )

    @classmethod
    def from_maps(cls, pred: Array, truth: Array, n_classes: int) -> "ConfusionCounts":
        if pred.shape != truth.shape:
            raise DimensionError(f"prediction shape {pred.shape} != truth shape {truth.shape}")
        counts = cls.zeros(n_classes)
        for c in range(n_classes):
            p = pred == c
            t = truth == c
            counts.tp[c] = np.count_nonzero(p & t)
            counts.fp[c] = np.count_nonzero(p & ~t)
            counts.fn[c] = np.count_nonzero(~p & t)
        return counts

    def add(self, other: "ConfusionCounts") -> None:
        self.tp += other.tp
        self.fp += other.fp
        self.fn += other.fn

    def dice(self, class_id: int) -> float | None:
        denom = int(2 * self.tp[class_id] + self.fp[class_id] + self.fn[class_id])
        if denom == 0:
            return None
        return 2.0 * int(self.tp[class_id]) / denom


@dataclass(frozen=True)
class DiceRecord:
    task: str
    class_name: str
    dice: float | None
    scope: str  # 'patch' | 'full'
    epoch: int


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
    return forward_pass(store, patch, head).values.argmax(axis=0)


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


def evaluate_model(
    store: ParamStore,
    head: str,
    task: TaskDef,
    samples,
    scope: str,
    epoch: int = 0,
    tile: int = 0,
) -> list[DiceRecord]:
    """Pooled per-class Dice over a sample set.

    scope 'patch': ``samples`` are (patch, truth window) pairs whose truth
    already matches the network's output window.  scope 'full':
    ``samples`` are :class:`ScanSample`; truth is the task's label map
    restricted to the predictable interior.  Undefined classes are
    excluded from the result.
    """
    if scope not in ("patch", "full"):
        raise DimensionError(f"unknown scope {scope!r}")
    counts = ConfusionCounts.zeros(task.n_classes)
    margin = output_margin(store.spec)
    for item in samples:
        if scope == "patch":
            patch, truth = item
            pred = predict_patch(store, head, patch)
        else:
            sample: ScanSample = item
            pred = predict_full(store, head, sample.channels, tile=tile)
            truth = interior(task.labels_of(sample), margin)
        counts.add(ConfusionCounts.from_maps(pred, truth, task.n_classes))
    records = []
    for class_id in range(1, task.n_classes):
        value = counts.dice(class_id)
        if value is not None:
            records.append(DiceRecord(task.task_id, task.class_names[class_id], value, scope, epoch))
    return records

