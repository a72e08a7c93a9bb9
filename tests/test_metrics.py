"""Dice computation and pooled evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from ewclab.errors import DimensionError
from ewclab.metrics import (
    ConfusionCounts,
    dice,
    evaluate_model,
    interior,
    predict_full,
    predict_patch,
)
from ewclab.network import NetworkSpec, init_network, output_margin
from ewclab.synthtasks import TASK_A, TASK_B, GeneratorConfig, generate_sample


class TestDice:
    def test_identity(self):
        m = np.array([[0, 1], [1, 0]])
        assert dice(m, m, 1) == 1.0

    def test_disjoint(self):
        assert dice(np.array([1, 0]), np.array([0, 1]), 1) == 0.0

    def test_half_overlap_counted_by_hand(self):
        pred = np.array([[1, 1], [0, 0]])
        truth = np.array([[1, 0], [1, 0]])
        assert dice(pred, truth, 1) == 0.5

    def test_undefined_when_absent_from_both(self):
        assert dice(np.zeros((2, 2)), np.zeros((2, 2)), 1) is None

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            p = rng.integers(0, 3, size=(6, 6))
            t = rng.integers(0, 3, size=(6, 6))
            for c in range(3):
                assert dice(p, t, c) == dice(t, p, c)

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            p = rng.integers(0, 2, size=(5, 5))
            t = rng.integers(0, 2, size=(5, 5))
            d = dice(p, t, 1)
            if d is not None:
                assert 0.0 <= d <= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            dice(np.zeros((2, 2)), np.zeros((3, 2)), 0)


class TestPooling:
    def test_pooled_differs_from_mean_of_per_image(self):
        # image 1: tiny overlap; image 2: large exact match.  Pooled Dice
        # uses global counts, not the average of per-image values.
        pred1 = np.array([[1, 0], [0, 0]])
        truth1 = np.array([[0, 1], [0, 0]])
        pred2 = np.ones((4, 4), dtype=np.int64)
        truth2 = np.ones((4, 4), dtype=np.int64)
        counts = ConfusionCounts.zeros(2)
        counts.add(ConfusionCounts.from_maps(pred1, truth1, 2))
        counts.add(ConfusionCounts.from_maps(pred2, truth2, 2))
        # hand count: TP=16, FP=1, FN=1 -> 32/34
        assert counts.dice(1) == pytest.approx(32.0 / 34.0)
        per_image_mean = (0.0 + 1.0) / 2.0
        assert counts.dice(1) != pytest.approx(per_image_mean)

    def test_pooled_equals_concatenated_brute_force(self):
        rng = np.random.default_rng(3)
        preds = [rng.integers(0, 3, size=(5, 5)) for _ in range(4)]
        truths = [rng.integers(0, 3, size=(5, 5)) for _ in range(4)]
        counts = ConfusionCounts.zeros(3)
        for p, t in zip(preds, truths):
            counts.add(ConfusionCounts.from_maps(p, t, 3))
        big_p = np.concatenate([p.reshape(-1) for p in preds])
        big_t = np.concatenate([t.reshape(-1) for t in truths])
        for c in range(3):
            assert counts.dice(c) == dice(big_p, big_t, c)


class TestEvaluateModel:
    def setup_method(self):
        self.config = GeneratorConfig(image_size=32)
        spec = NetworkSpec(in_channels=2, trunk=(6, 6), heads={"taskA": 4, "taskB": 2})
        self.store = init_network(spec, seed=3)
        self.margin = output_margin(spec)
        self.samples = [generate_sample(s, self.config) for s in (11, 12)]

    def test_full_scope_perfect_oracle(self):
        # bypass the net: feed predictions equal to truth through the
        # pooled-count path by evaluating dice on identical maps
        truth = interior(self.samples[0].labels_a, self.margin)
        counts = ConfusionCounts.from_maps(truth, truth, 4)
        for c in range(4):
            d = counts.dice(c)
            assert d is None or d == 1.0

    def test_all_background_predictor_gives_zero_lesion_dice(self):
        zeroed = {n: np.zeros_like(self.store[n]) for n in self.store}
        from ewclab.network import ParamStore

        # all-zero logits -> argmax picks class 0 everywhere
        dead = ParamStore(zeroed, spec=self.store.spec)
        records = evaluate_model(dead, "taskB", TASK_B, self.samples, "full")
        wml = [r for r in records if r.class_name == "wml"]
        assert len(wml) == 1
        assert wml[0].dice == 0.0

    def test_full_scope_shapes_and_records(self):
        records = evaluate_model(self.store, "taskA", TASK_A, self.samples, "full", epoch=3)
        assert all(r.scope == "full" and r.epoch == 3 and r.task == "a" for r in records)
        names = {r.class_name for r in records}
        assert names <= {"csf", "gm", "wm"}

    def test_patch_scope(self):
        m = self.margin
        patch = self.samples[0].channels[:, :14, :14]
        truth = self.samples[0].labels_a[m : 14 - m, m : 14 - m]
        records = evaluate_model(self.store, "taskA", TASK_A, [(patch, truth)], "patch")
        assert all(r.scope == "patch" for r in records)

    def test_tiled_prediction_matches_single_pass(self):
        channels = self.samples[0].channels
        whole = predict_full(self.store, "taskA", channels, tile=0)
        tiled = predict_full(self.store, "taskA", channels, tile=7)
        assert whole.shape == tiled.shape
        assert np.array_equal(whole, tiled)

    def test_predict_patch_argmax(self):
        patch = self.samples[0].channels[:, :10, :10]
        from ewclab.network import forward_pass

        logits = forward_pass(self.store, patch, "taskA").values
        assert np.array_equal(predict_patch(self.store, "taskA", patch), logits.argmax(axis=0))

