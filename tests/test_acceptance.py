"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-3 check the numeric core against independent oracles; 4 checks
the regime identities bitwise; 5-9 check the continual-learning
phenomenology on the default experiment grid (trained once per session,
roughly ten minutes of CPU); 10 re-asserts the metric examples, the
checkpoint round trip and the data firewall.  Run with ``-s`` to see the
per-criterion lines.
"""

from __future__ import annotations

import math
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from ewclab import metrics, network
from ewclab.continual import build_regime, estimate_fisher, score_samples
from ewclab.harness import (
    load_data,
    parse_config,
    run_experiment,
    train,
)
from ewclab.network import (
    FisherDiagonal,
    FisherProvenance,
    NetworkSpec,
    ParamStore,
    init_network,
    leaf_tensors,
)
from ewclab.synthtasks import SampleBank
from ewclab.tensor import (
    Graph,
    Tensor,
    add,
    backward,
    conv2d,
    finite_diff_grad,
    log_softmax,
    matmul,
    nll_loss,
    relu,
    reshape,
)

ALL_REGIMES = "dm-a,dm-b,multitask,finetune,l2,ewc"


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def experiment(tmp_path_factory):
    """The full default grid: shared DM-A prerequisite, DM-B, multitask
    and finetune per seed, both regularizer sweeps."""
    out = tmp_path_factory.mktemp("acceptance") / "exp"
    config = parse_config(overrides={"regime": ALL_REGIMES, "out_dir": str(out)})
    records = run_experiment(config)
    return config, records, out


def seed_mean_dice(records, regime: str, lam: float, task: str) -> list[float]:
    """Per-seed mean of final full-image dice over the task's classes."""
    out = []
    for record in records:
        if (record.regime, record.lam) != (regime, lam):
            continue
        values = [v for (t, _), v in record.final_dice().items() if t == task]
        if values:
            out.append(sum(values) / len(values))
    return out


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness
# ---------------------------------------------------------------------------


def _mlp_case(rng):
    """Random two-layer MLP with margin-checked ReLU pre-activations."""
    n_in, n_hidden, n_out, n_cols = (
        int(rng.integers(4, 17)),
        int(rng.integers(8, 49)),
        int(rng.integers(2, 9)),
        int(rng.integers(2, 10)),
    )
    params = {
        "w1": rng.normal(size=(n_hidden, n_in)),
        "b1": rng.normal(size=(n_hidden, 1)),
        "w2": rng.normal(size=(n_out, n_hidden)),
        "b2": rng.normal(size=(n_out, 1)),
    }
    x = rng.normal(size=(n_in, n_cols))
    labels = rng.integers(0, n_out, size=n_cols)
    ones = np.ones((1, n_cols))

    def loss_fn(margins=None):
        g = Graph()
        leaves = {k: Tensor.param(k, v, g) for k, v in params.items()}
        pre = add(matmul(leaves["w1"], Tensor.const(x, g)), matmul(leaves["b1"], Tensor.const(ones, g)))
        if margins is not None:
            margins.append(np.min(np.abs(pre.values)))
        z = add(matmul(leaves["w2"], relu(pre)), matmul(leaves["b2"], Tensor.const(ones, g)))
        return nll_loss(log_softmax(z), labels)

    return params, loss_fn


def _conv_case(rng):
    """Random conv net: two valid 3x3 convs + 1x1 head on a small patch."""
    c_in, c_mid, c_out, n_classes, size = (
        int(rng.integers(1, 4)),
        int(rng.integers(3, 11)),
        int(rng.integers(4, 15)),
        int(rng.integers(2, 5)),
        int(rng.integers(8, 15)),
    )
    params = {
        "k1": rng.normal(size=(c_mid, c_in, 3, 3)) * 0.7,
        "c1": rng.normal(size=c_mid),
        "k2": rng.normal(size=(c_out, c_mid, 3, 3)) * 0.5,
        "c2": rng.normal(size=c_out),
        "hw": rng.normal(size=(n_classes, c_out, 1, 1)),
        "hb": rng.normal(size=n_classes),
    }
    x = rng.normal(size=(c_in, size, size))
    n_px = (size - 4) * (size - 4)
    labels = rng.integers(0, n_classes, size=n_px)

    def loss_fn(margins=None):
        g = Graph()
        leaves = {k: Tensor.param(k, v, g) for k, v in params.items()}
        pre1 = conv2d(Tensor.const(x, g), leaves["k1"], leaves["c1"])
        pre2 = conv2d(relu(pre1), leaves["k2"], leaves["c2"])
        if margins is not None:
            margins.append(min(np.min(np.abs(pre1.values)), np.min(np.abs(pre2.values))))
        logits = conv2d(relu(pre2), leaves["hw"], leaves["hb"])
        return nll_loss(log_softmax(reshape(logits, (n_classes, n_px))), labels)

    return params, loss_fn


def test_c01_gradient_correctness():
    t0 = time.monotonic()
    worst = 0.0
    total_params = 0
    for case in range(20):
        builder = _conv_case if case % 3 == 2 else _mlp_case
        seed = 1000 + case
        # deterministic reseed until every ReLU input clears the finite
        # difference step by a wide margin (kinks break central differences)
        while True:
            margins = []
            params, loss_fn = builder(np.random.default_rng(seed))
            loss_fn(margins)
            if min(margins) > 1e-3:
                break
            seed += 7919
        n_params = sum(v.size for v in params.values())
        assert n_params <= 5000
        total_params += n_params
        grads = backward(loss_fn())
        fd = finite_diff_grad(lambda: float(loss_fn().values), params, h=1e-5)
        for name in params:
            scale = np.maximum(np.maximum(np.abs(grads[name]), np.abs(fd[name])), 1e-4)
            worst = max(worst, float(np.max(np.abs(grads[name] - fd[name]) / scale)))
    elapsed = time.monotonic() - t0
    report(
        1, "gradient correctness", worst < 1e-5 and elapsed < 30.0,
        f"20 nets, {total_params} params total, max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: Fisher oracle equivalence
# ---------------------------------------------------------------------------


def test_c02_fisher_oracle_equivalence():
    t0 = time.monotonic()
    spec = NetworkSpec(in_channels=1, trunk=(4, 4), heads={"taskA": 2})
    store = init_network(spec, seed=17)
    n_params = store.flat().size
    assert n_params <= 500
    rng = np.random.default_rng(5)
    data = [
        (rng.normal(size=(1, 7, 7)), rng.integers(0, 2, size=9))
        for _ in range(32)
    ]
    worst = 0.0
    for mode in ("empirical", "sampled"):
        fisher = estimate_fisher(store, data, "taskA", mode=mode, rng_seed=99)
        # independent brute-force loop: one graph per sample, square, average
        sumsq = np.zeros(n_params)
        label_rng = np.random.default_rng(99)
        for patch, labels in data:
            graph = Graph()
            leaves = leaf_tensors(store, graph)
            logits = network.forward_logits(leaves, spec, patch, "taskA")
            lp = log_softmax(reshape(logits, (2, 9)))
            if mode == "sampled":
                probs = np.exp(lp.values)
                cum = np.cumsum(probs, axis=0)
                cum /= cum[-1:]
                labels = (label_rng.random(9)[None, :] < cum).argmax(axis=0)
            grads = backward(nll_loss(lp, np.asarray(labels).reshape(-1)))
            flat = np.concatenate([-grads[name].reshape(-1) for name in store])
            sumsq += flat * flat
        brute = sumsq / len(data)
        scale = np.maximum(np.maximum(np.abs(brute), np.abs(fisher.values)), 1e-300)
        worst = max(worst, float(np.max(np.abs(brute - fisher.values) / scale)))
    elapsed = time.monotonic() - t0
    report(
        2, "fisher oracle equivalence", worst < 1e-12 and elapsed < 10.0,
        f"{n_params} params, 32 samples, both modes, max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: zero-mean score
# ---------------------------------------------------------------------------


def test_c03_zero_mean_score():
    t0 = time.monotonic()
    spec = NetworkSpec(in_channels=1, trunk=(3,), heads={"taskA": 2})
    store = init_network(spec, seed=13)
    rng = np.random.default_rng(21)
    base = [(rng.normal(size=(1, 6, 6)), np.zeros(16, dtype=np.int64)) for _ in range(4)]
    data = [base[i % len(base)] for i in range(2048)]
    scores = np.stack([
        np.concatenate([s.reshape(-1) for s in score.values()])
        for score in score_samples(store, data, "taskA", mode="sampled", rng_seed=3)
    ])
    m = scores.shape[0]
    sample_mean = scores.mean(axis=0)
    sem = scores.std(axis=0, ddof=1) / math.sqrt(m)
    ratio = np.abs(sample_mean) / np.maximum(3.0 * sem, 1e-15)
    elapsed = time.monotonic() - t0
    report(
        3, "zero-mean score (sampled labels)",
        bool(np.all(np.abs(sample_mean) <= 3.0 * sem + 1e-15)) and elapsed < 30.0,
        f"{m} draws, {scores.shape[1]} components, worst |mean|/3SE {ratio.max():.2f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 4: regime identities
# ---------------------------------------------------------------------------


def _projection(csv_path: Path) -> str:
    """metrics.csv restricted to the trajectory columns
    (epoch,scope,task,class,dice); run id, regime and lambda necessarily
    differ between the paired runs."""
    lines = csv_path.read_text().splitlines()
    return "\n".join(",".join(line.split(",")[4:]) for line in lines[1:])


def _params_bytes(ckpt_path: str) -> list[bytes]:
    params = network.load_checkpoint(ckpt_path).params
    return [params[name].tobytes() for name in params]


def test_c04_regime_identities(experiment, tmp_path):
    config, records, out = experiment
    dm_a = next(r for r in records if r.regime == "dm-a")

    # (a) ewc lambda=0 vs finetune, same seed, fresh out dir reusing the
    # shared dm-a run directory (run ids are config-hashed, not path-bound)
    side = tmp_path / "identity_a"
    (side / "runs").mkdir(parents=True)
    shutil.copytree(out / "runs" / dm_a.run_id, side / "runs" / dm_a.run_id)
    config_a = parse_config(
        overrides={"regime": "finetune,ewc", "lambda": "0", "seeds": "1", "out_dir": str(side)}
    )
    pair = run_experiment(config_a)
    ft = next(r for r in pair if r.regime == "finetune")
    ez = next(r for r in pair if r.regime == "ewc")
    same_a = (
        _projection(side / "runs" / ft.run_id / "metrics.csv")
        == _projection(side / "runs" / ez.run_id / "metrics.csv")
        and _params_bytes(ft.checkpoint_final) == _params_bytes(ez.checkpoint_final)
    )

    # (b) l2 vs ewc with the Fisher payload replaced by ones, matched lambda
    ckpt = network.load_checkpoint(dm_a.checkpoint_final)
    ones = FisherDiagonal(
        ParamStore({name: np.ones(values.shape) for name, values in ckpt.params.items()}),
        FisherProvenance("train_a", "taskA", "empirical", 1),
    )
    ones_path = tmp_path / "ones.ckpt"
    network.save_checkpoint(ckpt.params, ones_path, metadata=ckpt.metadata, fisher=ones)
    manifest, gen = load_data(config)
    lam = 0.1
    runs = {}
    for kind, ckpt_path in (("l2", dm_a.checkpoint_final), ("ewc", str(ones_path))):
        plan = build_regime(kind, lam, 1, ckpt_path, trunk=config.trunk)
        runs[kind] = train(plan, config, SampleBank(manifest, gen), tmp_path / f"identity_b_{kind}")
    same_b = (
        _projection(tmp_path / "identity_b_l2" / "metrics.csv")
        == _projection(tmp_path / "identity_b_ewc" / "metrics.csv")
        and _params_bytes(runs["l2"].checkpoint_final) == _params_bytes(runs["ewc"].checkpoint_final)
    )
    report(
        4, "regime identities",
        same_a and same_b,
        f"ewc(0)==finetune: {same_a}; l2(lam)==ewc(lam, F=1): {same_b}",
    )


# ---------------------------------------------------------------------------
# criteria 5-9: phenomenology on the default grid
# ---------------------------------------------------------------------------


def test_c05_catastrophic_forgetting(experiment):
    config, records, _ = experiment
    dm_a_level = mean(seed_mean_dice(records, "dm-a", 0.0, "a"))
    ft_a = seed_mean_dice(records, "finetune", 0.0, "a")
    drop = dm_a_level - mean(ft_a)
    runtime = sum(
        r.duration_s for r in records if r.regime in ("dm-a", "finetune")
    )
    report(
        5, "catastrophic forgetting",
        drop >= 0.30 and runtime < 600.0,
        f"DM-A {dm_a_level:.3f} -> finetune {mean(ft_a):.3f} (drop {drop:.3f}, "
        f"seeds {[round(v, 3) for v in ft_a]}), {runtime:.0f}s",
    )


def test_c06_ewc_mitigation(experiment):
    config, records, _ = experiment
    dm_a_level = mean(seed_mean_dice(records, "dm-a", 0.0, "a"))
    ft_b = mean(seed_mean_dice(records, "finetune", 0.0, "b"))
    witnesses = []
    for lam in config.grid_for("ewc"):
        a = mean(seed_mean_dice(records, "ewc", lam, "a"))
        b = mean(seed_mean_dice(records, "ewc", lam, "b"))
        if a >= dm_a_level - 0.10 and b >= 0.8 * ft_b:
            witnesses.append((lam, round(a, 3), round(b, 3)))
    report(
        6, "ewc mitigation",
        bool(witnesses),
        f"bars A>={dm_a_level - 0.10:.3f} B>={0.8 * ft_b:.3f}; witnesses {witnesses}",
    )


def test_c07_ewc_beats_l2_at_matched_task_b(experiment):
    config, records, _ = experiment
    best = None
    for l_lam in config.grid_for("l2"):
        for e_lam in config.grid_for("ewc"):
            l_b = mean(seed_mean_dice(records, "l2", l_lam, "b"))
            e_b = mean(seed_mean_dice(records, "ewc", e_lam, "b"))
            diff = abs(l_b - e_b)
            if best is None or diff < best[0]:
                best = (diff, l_lam, e_lam)
    diff, l_lam, e_lam = best
    l2_a = seed_mean_dice(records, "l2", l_lam, "a")
    ewc_a = seed_mean_dice(records, "ewc", e_lam, "a")
    inversions = sum(1 for e, l in zip(ewc_a, l2_a) if e < l)
    ok = diff <= 0.05 and mean(ewc_a) >= mean(l2_a) and inversions <= 1
    report(
        7, "ewc beats l2 at matched task-B",
        ok,
        f"pair l2 lam={l_lam:g} / ewc lam={e_lam:g}, dB={diff:.3f}; "
        f"A: ewc {mean(ewc_a):.3f} vs l2 {mean(l2_a):.3f}, seed inversions {inversions}",
    )


def test_c08_tradeoff_monotonicity(experiment):
    config, records, _ = experiment
    details = []
    ok = True
    for regime in ("l2", "ewc"):
        lams = sorted(config.grid_for(regime))
        a_curve = [mean(seed_mean_dice(records, regime, lam, "a")) for lam in lams]
        b_curve = [mean(seed_mean_dice(records, regime, lam, "b")) for lam in lams]
        inv_a = sum(1 for x, y in zip(a_curve, a_curve[1:]) if y < x)
        inv_b = sum(1 for x, y in zip(b_curve, b_curve[1:]) if y > x)
        ok = ok and inv_a <= 1 and inv_b <= 1
        details.append(
            f"{regime}: A{[round(v, 2) for v in a_curve]} inv {inv_a}, "
            f"B{[round(v, 2) for v in b_curve]} inv {inv_b}"
        )
    report(8, "trade-off monotonicity", ok, "; ".join(details))


def test_c09_multitask_upper_bound(experiment):
    config, records, _ = experiment
    dm_a_level = mean(seed_mean_dice(records, "dm-a", 0.0, "a"))
    dm_b_level = mean(seed_mean_dice(records, "dm-b", 0.0, "b"))
    mt_a = mean(seed_mean_dice(records, "multitask", 0.0, "a"))
    mt_b = mean(seed_mean_dice(records, "multitask", 0.0, "b"))
    ok = mt_a >= dm_a_level - 0.05 and mt_b >= dm_b_level - 0.05
    report(
        9, "multitask upper bound",
        ok,
        f"A {mt_a:.3f} vs DM-A {dm_a_level:.3f}; B {mt_b:.3f} vs DM-B {dm_b_level:.3f}",
    )


# ---------------------------------------------------------------------------
# criterion 10: metric unit suite, checkpoint round trip, data firewall
# ---------------------------------------------------------------------------


def test_c10_metric_suite_checkpoint_firewall(experiment, tmp_path):
    config, records, _ = experiment
    m = np.array([[0, 1], [1, 0]])
    dice_ok = (
        metrics.dice(m, m, 1) == 1.0
        and metrics.dice(np.array([1, 0]), np.array([0, 1]), 1) == 0.0
        and metrics.dice(np.array([[1, 1], [0, 0]]), np.array([[1, 0], [1, 0]]), 1) == 0.5
        and metrics.dice(np.zeros((2, 2)), np.zeros((2, 2)), 1) is None
    )

    store = init_network(NetworkSpec(in_channels=2, trunk=(4, 4), heads={"taskA": 4}), seed=23)
    path = tmp_path / "round.ckpt"
    network.save_checkpoint(store, path, metadata={"regime": "dm-a"})
    loaded = network.load_checkpoint(path).params
    ckpt_ok = all(loaded[name].tobytes() == store[name].tobytes() for name in store)

    sequential = [r for r in records if r.regime in ("finetune", "l2", "ewc")]
    firewall_ok = bool(sequential) and all(
        "train_a" not in r.splits_used for r in sequential
    )
    report(
        10, "metric suite / checkpoint / firewall",
        dice_ok and ckpt_ok and firewall_ok,
        f"dice {dice_ok}, checkpoint {ckpt_ok}, firewall over {len(sequential)} sequential runs {firewall_ok}",
    )
