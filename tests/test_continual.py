"""Fisher estimation, anchored penalty, objective and regime plans."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from ewclab import continual
from ewclab.continual import (
    build_regime,
    canonical_regime,
    estimate_fisher,
    ewc_penalty,
    score_samples,
)
from ewclab.errors import (
    ContractError,
    DataError,
    FormatError,
    HeadError,
    LabelError,
    PrerequisiteError,
)
from ewclab.network import (
    FisherDiagonal,
    FisherProvenance,
    NetworkSpec,
    ParamStore,
    attach_head,
    init_network,
    leaf_tensors,
    save_checkpoint,
)
from ewclab.tensor import Graph, Tensor, add, backward, log_softmax, nll_loss, reshape


def tiny_net(seed=0, heads=None):
    spec = NetworkSpec(in_channels=1, trunk=(3,), heads=heads or {"taskA": 2})
    return init_network(spec, seed=seed)


def leaves_of(store):
    return leaf_tensors(store, Graph())


def copy_of(store):
    return ParamStore(store, spec=store.spec)


def task_a_checkpoint(tmp_path, with_fisher=True):
    store = tiny_net(seed=5, heads={"taskA": 4})
    fisher = None
    if with_fisher:
        rng = np.random.default_rng(0)
        data = [(rng.normal(size=(1, 5, 5)), rng.integers(0, 4, size=9)) for _ in range(3)]
        fisher = estimate_fisher(store, data, "taskA")
    path = tmp_path / "dm_a.ckpt"
    save_checkpoint(store, path, metadata={"regime": "dm-a"}, fisher=fisher)
    return path


def tiny_data(n, seed=0, size=5, classes=2):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        patch = rng.normal(size=(1, size, size))
        labels = rng.integers(0, classes, size=(size - 2) * (size - 2))
        out.append((patch, labels))
    return out


class TestEstimateFisher:
    def test_logistic_unit_analytic(self):
        # an all-zero network has zero features and logits equal to the
        # head bias: p = (0.5, 0.5) at every pixel, so with every label 0
        # d log p(y) / d b = onehot(y) - p = (0.5, -0.5), and no other
        # entry gets a gradient
        store = tiny_net()
        for name in store:
            store[name][...] = 0.0
        data = [(np.ones((1, 5, 5)), np.zeros(9, dtype=int))]
        (score,) = score_samples(store, data, "taskA")
        fisher = estimate_fisher(store, data, "taskA")
        for name in store:
            entry_score = score[name].reshape(-1)
            entry_fisher = fisher.importance[name].reshape(-1)
            if name == "head.taskA.bias":
                assert entry_score.tolist() == [0.5, -0.5]
                assert entry_fisher.tolist() == [0.25, 0.25]
            else:
                assert not entry_score.any() and not entry_fisher.any(), name

    def test_disconnected_parameter_has_zero_fisher(self):
        # a second head takes no part in the first head's likelihood
        store = tiny_net(seed=4, heads={"taskA": 2, "taskB": 2})
        fisher = estimate_fisher(store, tiny_data(3, seed=1), "taskA").importance
        assert fisher["head.taskA.weights"].any()
        for name in ("head.taskB.weights", "head.taskB.bias"):
            assert np.all(fisher[name] == 0.0)

    def test_matches_brute_force_loop_both_modes(self):
        store = tiny_net(seed=3)
        data = tiny_data(12, seed=5)
        for mode in ("empirical", "sampled"):
            fisher = estimate_fisher(store, data, "taskA", mode=mode, rng_seed=77)
            # independent loop: one forward/backward per sample via the
            # public network path, squared then averaged
            from ewclab.network import forward_logits

            sumsq = np.zeros(store.flat().size)
            rng = np.random.default_rng(77)
            for patch, labels in data:
                graph = Graph()
                leaves = leaf_tensors(store, graph)
                logits = forward_logits(leaves, store.spec, patch, "taskA")
                k = logits.values.shape[0]
                n = logits.values.size // k
                lp = log_softmax(reshape(logits, (k, n)))
                if mode == "sampled":
                    probs = np.exp(lp.values)
                    cum = np.cumsum(probs, axis=0)
                    cum /= cum[-1:]
                    u = rng.random(n)
                    labels = (u[None, :] < cum).argmax(axis=0)
                grads = backward(nll_loss(lp, np.asarray(labels).reshape(-1)))
                flat = np.concatenate([(-grads[name]).reshape(-1) for name in store])
                sumsq += flat * flat
            brute = sumsq / len(data)
            scale = np.maximum(np.maximum(np.abs(brute), np.abs(fisher.values)), 1e-300)
            assert np.max(np.abs(brute - fisher.values) / scale) < 1e-12

    def test_non_negative_and_finite(self):
        store = tiny_net(seed=1)
        fisher = estimate_fisher(store, tiny_data(8, seed=2), "taskA")
        assert np.all(fisher.values >= 0.0)
        assert np.all(np.isfinite(fisher.values))

    def test_deterministic_given_seed(self):
        store = tiny_net(seed=1)
        data = tiny_data(6, seed=9)
        a = estimate_fisher(store, data, "taskA", mode="sampled", rng_seed=5)
        b = estimate_fisher(store, data, "taskA", mode="sampled", rng_seed=5)
        assert a.values.tobytes() == b.values.tobytes()

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            estimate_fisher(tiny_net(), [], "taskA")

    def test_unknown_head_rejected(self):
        with pytest.raises(HeadError):
            estimate_fisher(tiny_net(), tiny_data(2), "nope")

    def test_zero_mean_score_in_sampled_mode(self):
        # score components over model-sampled labels have zero mean;
        # with M draws the sample mean stays within 3 standard errors
        store = tiny_net(seed=13)
        base = tiny_data(4, seed=21)
        data = [base[i % len(base)] for i in range(2000)]
        scores = np.stack([
            np.concatenate([s.reshape(-1) for s in score.values()])
            for score in score_samples(store, data, "taskA", mode="sampled", rng_seed=3)
        ])
        m = scores.shape[0]
        mean = scores.mean(axis=0)
        sem = scores.std(axis=0, ddof=1) / math.sqrt(m)
        assert np.all(np.abs(mean) <= 3.0 * sem + 1e-15)


def serial_fold(store, data, mode, seed):
    """The Fisher's bytes as one process folds ``score_samples``."""
    sumsq = {name: np.zeros_like(values) for name, values in store.items()}
    for score in score_samples(store, data, "taskA", mode, seed):
        for name, s in score.items():
            sumsq[name] += s * s
    return np.concatenate([(total / len(data)).reshape(-1) for total in sumsq.values()]).tobytes()


def two_size_data(n, seed=0):
    """Patches of 5 and 6 pixels a side, so the samples draw 9 and 16
    sampled labels each."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        size = 6 if i % 2 else 5
        out.append((rng.normal(size=(1, size, size)), rng.integers(0, 2, size=(size - 2) ** 2)))
    return out


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.fixture
def split(monkeypatch):
    """``split(procs)`` makes ``estimate_fisher`` use ``procs`` processes
    from ``procs`` samples on; returns the list its forks append to."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def force(procs):
        monkeypatch.setattr(continual, "FISHER_MIN_CHUNK", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(procs)))
        monkeypatch.setattr(os, "fork", counting_fork)
        return forks

    return force


@pytest.mark.skipif(sys.platform != "linux", reason="the Fisher estimate splits on Linux only")
class TestSplitFisher:
    def test_chunks(self, monkeypatch):
        chunks = continual._fisher_chunks
        least = continual.FISHER_MIN_CHUNK
        assert chunks(least * 2 - 1) == [range(least * 2 - 1)]
        for cores in range(1, 9):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
            assert chunks(64) == ([range(0, 32), range(32, 64)] if cores >= 2 else [range(64)])
            for n in [1, least - 1, least, 2 * least - 1, 2 * least, 3 * least + 1, 100, 256, 257, 1000]:
                got = chunks(n)
                assert [i for samples in got for i in samples] == list(range(n))
                assert all(samples.step == 1 for samples in got)
                assert 1 <= len(got) <= cores
                assert len(got) == 1 or min(map(len, got)) >= least
        monkeypatch.setattr(sys, "platform", "darwin")
        assert chunks(1000) == [range(1000)]

    @pytest.mark.parametrize("procs", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 7])
    @pytest.mark.parametrize("mode", ["empirical", "sampled"])
    def test_bytes_match_serial_fold(self, split, mode, n, procs):
        store = tiny_net(seed=3)
        data = two_size_data(n, seed=n)
        expected = serial_fold(store, data, mode, 41)
        forks = split(procs)
        fds = open_fds()
        fisher = estimate_fisher(store, data, "taskA", mode=mode, rng_seed=41)
        assert len(forks) == min(procs, n) - 1
        assert open_fds() == fds
        assert fisher.values.tobytes() == expected
        assert fisher.provenance.samples == n

    def test_child_error_is_raised_as_one_process_raises_it(self, split):
        store = tiny_net(seed=3)
        data = two_size_data(7)
        patch, labels = data[-1]
        labels = labels.copy()
        labels[-1] = 5
        data[-1] = (patch, labels)
        with pytest.raises(LabelError) as serial:
            estimate_fisher(store, data, "taskA")
        forks = split(3)
        fds = open_fds()
        with pytest.raises(LabelError, match=f"^{re.escape(str(serial.value))}$"):
            estimate_fisher(store, data, "taskA")
        assert len(forks) == 2
        assert open_fds() == fds

    def test_pipe_that_ends_mid_row_leaves_the_rest_here(self, split, monkeypatch):
        # each child's pipe ends half-way through its second row: its first
        # row is added, and this process scores the rest of its chunk
        store = tiny_net(seed=3)
        data = two_size_data(7)
        expected = serial_fold(store, data, "sampled", 41)
        forks = split(3)
        real_fork_scorer = continual._fork_scorer
        row_bytes = store.flat().nbytes

        def cut_fork_scorer(*args):
            pid, read_end = real_fork_scorer(*args)
            with open(read_end, "rb") as pipe:
                delivered = pipe.read()
            assert len(delivered) == len(args[5]) * row_bytes
            read_cut, write_cut = os.pipe()
            with open(write_cut, "wb") as out:
                out.write(delivered[:row_bytes * 3 // 2])
            return pid, read_cut

        monkeypatch.setattr(continual, "_fork_scorer", cut_fork_scorer)
        fds = open_fds()
        fisher = estimate_fisher(store, data, "taskA", mode="sampled", rng_seed=41)
        assert len(forks) == 2
        assert fisher.values.tobytes() == expected
        assert open_fds() == fds

    def test_unknown_head_forks_nothing(self, split):
        store = tiny_net(seed=3)
        data = two_size_data(7)
        with pytest.raises(HeadError) as serial:
            continual._sample_loss(store, *data[0], "taskB", None)
        forks = split(3)
        with pytest.raises(HeadError, match=f"^{re.escape(str(serial.value))}$"):
            estimate_fisher(store, data, "taskB")
        assert forks == []

    def test_failed_fork_leaves_the_chunks_here(self, split, monkeypatch):
        store = tiny_net(seed=3)
        data = two_size_data(7)
        expected = serial_fold(store, data, "sampled", 41)
        split(3)

        def no_fork():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", no_fork)
        fds = open_fds()
        fisher = estimate_fisher(store, data, "taskA", mode="sampled", rng_seed=41)
        assert fisher.values.tobytes() == expected
        assert open_fds() == fds

    def test_children_do_not_flush_buffered_output(self):
        # stdout to a pipe is block-buffered: a child that flushed on its
        # way out would print the parent's pending line again
        code = textwrap.dedent("""
            import os
            import numpy as np
            from ewclab import continual
            from ewclab.network import NetworkSpec, init_network
            continual.FISHER_MIN_CHUNK = 1
            os.sched_getaffinity = lambda pid: {0, 1, 2}
            store = init_network(NetworkSpec(in_channels=1, trunk=(3,), heads={"taskA": 2}), seed=0)
            rng = np.random.default_rng(0)
            data = [(rng.normal(size=(1, 5, 5)), rng.integers(0, 2, size=9)) for _ in range(3)]
            print("before the split")
            continual.estimate_fisher(store, data, "taskA")
        """)
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == b"before the split\n"


class TestPenalty:
    def test_zero_displacement(self):
        store = tiny_net(seed=4)
        anchor = copy_of(store)
        fisher = FisherDiagonal.ones_like(store)
        assert ewc_penalty(leaves_of(store), anchor, fisher, lam=2.5).values == 0.0

    def test_lambda_zero(self):
        store = tiny_net(seed=4)
        anchor = copy_of(store)
        moved = copy_of(store)
        moved["trunk.0.kernels"][...] += 1.0
        pen = ewc_penalty(leaves_of(moved), anchor, FisherDiagonal.ones_like(store), lam=0.0)
        assert pen.values == 0.0
        grads = backward(pen)
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_direct_evaluation(self):
        store = ParamStore({"w": np.array([1.0, 1.0])})
        anchor = ParamStore({"w": np.zeros(2)})
        fisher = FisherDiagonal(ParamStore({"w": np.array([1.0, 2.0])}),
                                FisherProvenance("", "", "", 0))
        pen = ewc_penalty(leaves_of(store), anchor, fisher, lam=0.5)
        assert pen.values == pytest.approx(1.5, rel=1e-15)

    def test_gradient_exact(self):
        store = tiny_net(seed=6)
        anchor = copy_of(store)
        moved = copy_of(store)
        rng = np.random.default_rng(8)
        for name in moved:
            moved[name][...] += rng.normal(scale=0.1, size=moved[name].shape)
        fisher = estimate_fisher(store, tiny_data(4, seed=3), "taskA")
        lam = 1.7
        graph = Graph()
        leaves = leaf_tensors(moved, graph)
        grads = backward(ewc_penalty(leaves, anchor, fisher, lam))
        importance = fisher.importance
        for name in anchor:
            expect = 2.0 * lam * importance[name] * (moved[name] - anchor[name])
            assert np.max(np.abs(grads[name] - expect)) < 1e-12

    def test_new_head_contributes_nothing_and_gets_no_gradient(self):
        store = tiny_net(seed=6)
        anchor = copy_of(store)
        fisher = FisherDiagonal.ones_like(store)
        grown = attach_head(store, "taskB", 2, seed=1)
        grown["head.taskB.weights"][...] += 5.0  # large displacement, no anchor
        graph = Graph()
        leaves = leaf_tensors(grown, graph)
        pen = ewc_penalty(leaves, anchor, fisher, lam=3.0)
        assert pen.values == 0.0
        grads = backward(pen)
        assert set(grads) == set(anchor)
        assert "head.taskB.weights" not in grads and "head.taskB.bias" not in grads

    # The penalty's anchor and importances come from one task-A
    # checkpoint, whose Fisher payload must hold the parameters' entries:
    # a payload that does not is rejected at load, before any plan exists.

    def test_fisher_and_anchor_tables_must_match(self, tmp_path, save_unchecked):
        store = tiny_net(seed=6)
        grown = attach_head(store, "taskB", 2, seed=1)
        path = tmp_path / "dm_a.ckpt"
        save_unchecked(store, path, fisher=FisherDiagonal.ones_like(grown))
        with pytest.raises(FormatError, match="'head.taskB.weights': .* in the Fisher payload"):
            build_regime("ewc", 1.0, 1, str(path))

    def test_alignment_mismatch_names_entry(self, tmp_path, save_unchecked):
        store = tiny_net(seed=6)
        ones = FisherDiagonal.ones_like(store).importance
        renamed = ParamStore({("x" + n if n == "trunk.0.bias" else n): ones[n] for n in ones})
        path = tmp_path / "dm_a.ckpt"
        save_unchecked(store, path, fisher=FisherDiagonal(renamed, FisherProvenance("", "", "", 0)))
        with pytest.raises(FormatError, match="'xtrunk.0.bias': .* in the Fisher payload"):
            build_regime("ewc", 1.0, 1, str(path))


class TestTotalLoss:
    """``train``'s objective: the task loss, plus the plan's anchored
    penalty iff the plan carries importances."""

    def test_mode_none_is_task_loss_bitwise(self, tmp_path):
        # unregularized plans carry no penalty, so the objective is the
        # task loss tensor itself
        path = str(task_a_checkpoint(tmp_path))
        plans = [build_regime(kind, seed=1) for kind in ("dm-a", "dm-b", "multitask")]
        plans.append(build_regime("finetune", seed=1, checkpoint_path=path))
        for plan in plans:
            assert plan.anchor is None and plan.fisher is None

    def test_zero_displacement_keeps_task_loss(self):
        store = tiny_net(seed=2)
        anchor = copy_of(store)
        graph = Graph()
        leaves = leaf_tensors(store, graph)
        task = Tensor.const(np.asarray(0.7), graph)
        penalty = ewc_penalty(leaves, anchor, FisherDiagonal.ones_like(store), lam=4.0)
        assert add(task, penalty).values == 0.7

    def test_l2_and_ewc_with_unit_fisher_bit_identical(self, tmp_path):
        # the l2 plan's penalty equals the ewc plan's with its importances
        # replaced by ones, in value and gradients, bitwise
        path = str(task_a_checkpoint(tmp_path))
        l2 = build_regime("l2", lam=0.8, seed=1, checkpoint_path=path)
        ewc = build_regime("ewc", lam=0.8, seed=1, checkpoint_path=path)
        unit = FisherDiagonal(
            ParamStore({name: np.ones(f.shape) for name, f in ewc.fisher.importance.items()}),
            ewc.fisher.provenance,
        )
        moved = attach_head(l2.anchor, "taskB", 2, seed=1)
        rng = np.random.default_rng(1)
        for name in moved:
            moved[name][...] += rng.normal(scale=0.05, size=moved[name].shape)

        def run(anchor, fisher, lam):
            out = ewc_penalty(leaves_of(moved), anchor, fisher, lam)
            return out.values.copy(), backward(out)

        lv_l2, g_l2 = run(l2.anchor, l2.fisher, l2.lam)
        lv_ewc, g_ewc = run(ewc.anchor, unit, ewc.lam)
        assert lv_l2 > 0.0
        assert lv_l2.tobytes() == lv_ewc.tobytes()
        assert set(g_l2) == set(g_ewc)
        for name in g_l2:
            assert g_l2[name].tobytes() == g_ewc[name].tobytes()


class TestBuildRegime:
    def test_dm_a_plan(self):
        plan = build_regime("DM-A", seed=1, trunk=(3,))
        assert plan.kind == "dm-a"
        assert plan.train_tasks == ("a",)
        assert plan.input_splits == ("train_a", "validation")
        assert plan.anchor is None and plan.fisher is None
        assert plan.store.spec.heads == {"taskA": 4}

    def test_finetune_equals_ewc_lambda_zero_structurally(self, tmp_path):
        path = task_a_checkpoint(tmp_path)
        ft = build_regime("finetune", seed=1, checkpoint_path=str(path))
        ewc0 = build_regime("ewc", lam=0.0, seed=1, checkpoint_path=str(path))
        assert ft.store.spec.heads == ewc0.store.spec.heads == {"taskA": 4, "taskB": 2}
        assert ft.train_tasks == ewc0.train_tasks == ("b",)
        assert ft.input_splits == ewc0.input_splits
        assert ewc0.lam == 0.0
        # both start from the same bits
        assert list(ft.store) == list(ewc0.store)
        for name in ft.store:
            assert ft.store[name].tobytes() == ewc0.store[name].tobytes()

    def test_anchor_rejects_in_place_writes(self, tmp_path):
        plan = build_regime("l2", lam=1.0, seed=1, checkpoint_path=str(task_a_checkpoint(tmp_path)))
        for name in plan.anchor:
            with pytest.raises(ValueError, match="read-only"):
                plan.anchor[name][...] += 1.0

    def test_ewc_without_fisher_rejected(self, tmp_path):
        path = task_a_checkpoint(tmp_path, with_fisher=False)
        with pytest.raises(PrerequisiteError, match="Fisher"):
            build_regime("ewc", lam=1.0, seed=1, checkpoint_path=str(path))

    @pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_lambda_rejected(self, tmp_path, lam):
        path = str(task_a_checkpoint(tmp_path))
        for kind in ("l2", "ewc"):
            with pytest.raises(ContractError, match="lambda"):
                build_regime(kind, lam=lam, seed=1, checkpoint_path=path)

    def test_sequential_without_checkpoint_rejected(self, tmp_path):
        with pytest.raises(PrerequisiteError):
            build_regime("finetune", seed=1, checkpoint_path=str(tmp_path / "missing.ckpt"))

    def test_sequential_plans_never_stream_task_a_training_data(self, tmp_path):
        path = task_a_checkpoint(tmp_path)
        for kind in ("finetune", "l2", "ewc"):
            plan = build_regime(kind, lam=1.0, seed=1, checkpoint_path=str(path))
            assert "train_a" not in plan.input_splits

    def test_multitask_plan(self):
        plan = build_regime("multi-task", seed=1)
        assert plan.kind == "multitask"
        assert plan.train_tasks == ("a", "b")
        assert set(plan.store.spec.heads) == {"taskA", "taskB"}

    def test_unknown_kind(self):
        with pytest.raises(ContractError):
            canonical_regime("sgd")
