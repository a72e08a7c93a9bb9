"""Dice computation and pooled evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from ewclab.errors import DimensionError, HeadError
from ewclab.metrics import (
    dice,
    evaluate_full,
    evaluate_model,
    interior,
    pooled_dice,
    predict_full,
    predict_full_heads,
)
from ewclab.network import NetworkSpec, forward_heads, forward_logits, init_network, leaf_tensors, output_margin
from ewclab.synthtasks import TASK_A, TASK_B, GeneratorConfig, generate_sample
from ewclab.tensor import Graph


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
        pooled = pooled_dice([(pred1, truth1), (pred2, truth2)], 2)
        # hand count: TP=16, FP=1, FN=1 -> 32/34
        assert pooled[1] == pytest.approx(32.0 / 34.0)
        per_image_mean = (dice(pred1, truth1, 1) + dice(pred2, truth2, 1)) / 2.0
        assert per_image_mean == 0.5
        assert pooled[1] != pytest.approx(per_image_mean)

    def test_pooled_equals_concatenated_brute_force(self):
        rng = np.random.default_rng(3)
        preds = [rng.integers(0, 3, size=(5, 5)) for _ in range(4)]
        truths = [rng.integers(0, 3, size=(5, 5)) for _ in range(4)]
        pooled = pooled_dice(zip(preds, truths), 3)
        big_p = np.concatenate([p.reshape(-1) for p in preds])
        big_t = np.concatenate([t.reshape(-1) for t in truths])
        assert pooled == [dice(big_p, big_t, c) for c in range(3)]

    def test_class_absent_everywhere_is_undefined(self):
        pred = np.array([[0, 2], [2, 0]])
        truth = np.array([[0, 0], [2, 2]], dtype=np.uint8)
        assert pooled_dice([(pred, truth)], 3) == [0.5, None, 0.5]

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            pooled_dice([(np.zeros((2, 2), dtype=int), np.zeros((3, 2), dtype=int))], 2)


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
        pooled = pooled_dice([(truth, truth)], 4)
        assert pooled == [dice(truth, truth, c) for c in range(4)]
        assert set(pooled) <= {None, 1.0}

    def test_all_background_predictor_gives_zero_lesion_dice(self):
        zeroed = {n: np.zeros_like(self.store[n]) for n in self.store}
        from ewclab.network import ParamStore

        # all-zero logits -> argmax picks class 0 everywhere
        dead = ParamStore(zeroed, spec=self.store.spec)
        assert evaluate_full(dead, [TASK_B], self.samples) == {"b": {"wml": 0.0}}

    def test_full_scope_shapes_and_records(self):
        # the defined foreground classes in class order, each equal to the
        # Dice oracle over all interiors concatenated
        scores = evaluate_full(self.store, [TASK_A], self.samples)["a"]
        preds = [predict_full(self.store, "taskA", s.channels).reshape(-1) for s in self.samples]
        truths = [interior(s.labels_a, self.margin).reshape(-1) for s in self.samples]
        oracle = {
            name: dice(np.concatenate(preds), np.concatenate(truths), c)
            for c, name in enumerate(TASK_A.class_names)
            if c > 0
        }
        assert scores == {name: value for name, value in oracle.items() if value is not None}
        assert list(scores) == [n for n in ("csf", "gm", "wm") if n in scores]

    def test_patch_scope(self):
        m = self.margin
        patch = self.samples[0].channels[:, :14, :14]
        truth = self.samples[0].labels_a[m : 14 - m, m : 14 - m]
        scores = evaluate_model(self.store, "taskA", TASK_A, [(patch, truth)], "patch")
        pred = forward_heads(self.store, patch, ("taskA",))[0].argmax(axis=0)
        oracle = {name: dice(pred, truth, c) for c, name in enumerate(TASK_A.class_names) if c > 0}
        assert scores == {name: value for name, value in oracle.items() if value is not None}

    def test_tiled_prediction_matches_single_pass(self):
        channels = self.samples[0].channels
        whole = predict_full(self.store, "taskA", channels, tile=0)
        tiled = predict_full(self.store, "taskA", channels, tile=7)
        assert whole.shape == tiled.shape
        assert np.array_equal(whole, tiled)

    @pytest.mark.parametrize("tile", [0, 7])
    @pytest.mark.parametrize("heads", [{"taskB": 2}, {"taskA": 4, "taskB": 2}])
    def test_evaluate_full_equals_the_per_task_scores(self, heads, tile):
        spec = NetworkSpec(in_channels=2, trunk=(6, 6), heads=heads)
        store = init_network(spec, seed=5)
        samples = self.samples + [generate_sample(13, self.config)]
        tasks = [task for task in (TASK_A, TASK_B) if task.head in heads]
        scores = evaluate_full(store, tasks, samples, tile=tile)
        assert list(scores) == [task.task_id for task in tasks]
        for s in samples:
            maps = predict_full_heads(store, [task.head for task in tasks], s.channels, tile=tile)
            for task, labels in zip(tasks, maps):
                # the graph forward over the whole image, one head at a time
                graph = forward_logits(leaf_tensors(store, Graph()), spec, s.channels, task.head)
                assert labels.tobytes() == graph.values.argmax(axis=0).tobytes()
                assert labels.tobytes() == predict_full(store, task.head, s.channels, tile=tile).tobytes()
        for task in tasks:
            pairs = [
                (predict_full(store, task.head, s.channels, tile=tile), interior(task.labels_of(s), self.margin))
                for s in samples
            ]
            reference = pooled_dice(pairs, task.n_classes)
            expect = {task.class_names[c]: v for c, v in enumerate(reference) if c > 0 and v is not None}
            assert scores[task.task_id] == expect
            assert evaluate_full(store, [task], samples, tile=tile) == {task.task_id: expect}

    def test_evaluate_full_of_a_missing_head_raises(self):
        spec = NetworkSpec(in_channels=2, trunk=(6, 6), heads={"taskA": 4})
        store = init_network(spec, seed=5)
        with pytest.raises(HeadError, match="taskB"):
            evaluate_full(store, [TASK_A, TASK_B], self.samples)

    def test_patch_is_the_only_scope(self):
        with pytest.raises(DimensionError, match="'full'"):
            evaluate_model(self.store, "taskA", TASK_A, self.samples, "full")

    def test_patch_prediction_is_the_logit_argmax(self):
        # scored against the argmax of the head's graph logits, the patch
        # scope's prediction matches it on every pixel: each class present
        # has Dice 1
        patch = self.samples[0].channels[:, :10, :10]
        logits = forward_logits(leaf_tensors(self.store, Graph()), self.store.spec, patch, "taskA")
        truth = logits.values.argmax(axis=0)
        scores = evaluate_model(self.store, "taskA", TASK_A, [(patch, truth)], "patch")
        assert scores == {TASK_A.class_names[c]: 1.0 for c in np.unique(truth) if c > 0}
        assert scores

    def test_inference_builds_no_graph(self, monkeypatch):
        from ewclab import tensor

        nodes = []
        register = tensor.Graph._register

        def counted(graph, node):
            nodes.append(node)
            return register(graph, node)

        monkeypatch.setattr(tensor.Graph, "_register", counted)
        m = self.margin
        patches = [(s.channels[:, :14, :14], s.labels_a[m : 14 - m, m : 14 - m]) for s in self.samples]
        evaluate_model(self.store, "taskA", TASK_A, patches, "patch")
        evaluate_full(self.store, [TASK_B], self.samples, tile=7)
        evaluate_full(self.store, [TASK_A, TASK_B], self.samples)
        for tile in (0, 7):
            predict_full(self.store, "taskA", self.samples[0].channels, tile=tile)
        assert nodes == []
        # the counter sees the graphs training builds
        from ewclab.network import forward_logits, leaf_tensors

        forward_logits(leaf_tensors(self.store, tensor.Graph()), self.store.spec, patches[0][0], "taskA")
        assert nodes
