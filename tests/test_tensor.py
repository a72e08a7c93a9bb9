"""Unit tests for the autodiff tensor layer."""

from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest

from ewclab.errors import ContractError, DimensionError, LabelError
from ewclab.tensor import (
    Graph,
    Tensor,
    add,
    backward,
    conv2d,
    conv_forward,
    finite_diff_grad,
    log_softmax,
    matmul,
    nll_loss,
    relu,
    reshape,
    scale,
)


def make(values, name=None, graph=None):
    g = graph or Graph()
    arr = np.asarray(values, dtype=np.float64)
    return Tensor.param(name, arr, g) if name else Tensor.const(arr, g)


def dot(a, b):
    """sum(a * b) over same-size tensors, as a scalar built from reshape
    and matmul."""
    n = a.values.size
    return reshape(matmul(reshape(a, (1, n)), reshape(b, (n, 1))), ())


def total(a):
    """Sum of all elements, as a scalar."""
    return dot(a, Tensor.const(np.ones(a.shape), a.graph))


# relative error with an absolute scale floor: below the floor the finite
# difference noise (~1e-10 for h=1e-5) dominates any true signal
def rel_err(a, b, floor=1e-4):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


class TestMatmul:
    def test_identity(self):
        a = make(np.eye(2))
        b = make([[1.0, 2.0], [3.0, 4.0]], graph=a.graph)
        assert np.array_equal(matmul(a, b).values, b.values)

    def test_zero(self):
        a = make([[1.0, 2.0]])
        b = make([[0.0], [0.0]], graph=a.graph)
        assert np.array_equal(matmul(a, b).values, [[0.0]])

    def test_hand_expanded(self):
        a = make([[1.0, 2.0], [3.0, 4.0]])
        b = make([[5.0], [6.0]], graph=a.graph)
        assert np.array_equal(matmul(a, b).values, [[17.0], [39.0]])

    def test_shape_mismatch_names_both_shapes(self):
        a = make(np.zeros((2, 3)))
        b = make(np.zeros((2, 3)), graph=a.graph)
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(a, b)


def reference_conv_vjp(xv, kv, gv):
    """conv2d's gradients (dx, dk, db) from the wide-row taps and GEMMs,
    with dx scattered by one strided 2-D add per tap: the oracle the
    kernel must equal bit for bit."""
    c, h, w = xv.shape
    o, _, k, _ = kv.shape
    hp, wp = h - k + 1, w - k + 1
    n = hp * w
    span = n - (k - 1)
    xf = xv.reshape(c, h * w)
    taps = np.zeros((c, k * k, n))
    for i in range(k):
        for j in range(k):
            taps[:, i * k + j, :span] = xf[:, i * w + j : i * w + j + span]
    taps = taps.reshape(c * k * k, n)
    g_wide = np.zeros((o, hp, w))
    g_wide[:, :, :wp] = gv
    g_wide = g_wide.reshape(o, n)
    dk = (g_wide @ taps.T).reshape(o, c, k, k)
    dtaps = (kv.reshape(o, c * k * k).T @ g_wide).reshape(c, k * k, n)
    dx = np.zeros((c, h * w))
    for i in range(k):
        for j in range(k):
            dx[:, i * w + j : i * w + j + span] += dtaps[:, i * k + j, :span]
    return dx.reshape(c, h, w), dk, gv.sum(axis=(1, 2))


class TestConv2d:
    def test_zero_input_gives_bias_planes(self):
        g = Graph()
        x = make(np.zeros((2, 5, 5)), graph=g)
        k = make(np.random.default_rng(0).normal(size=(3, 2, 3, 3)), graph=g)
        b = make([1.0, -2.0, 0.5], graph=g)
        out = conv2d(x, k, b).values
        for o, bias in enumerate([1.0, -2.0, 0.5]):
            assert np.all(out[o] == bias)

    def test_all_ones_sums_window(self):
        g = Graph()
        x = make(np.ones((1, 3, 3)), graph=g)
        k = make(np.ones((1, 1, 3, 3)), graph=g)
        b = make([0.0], graph=g)
        assert conv2d(x, k, b).values.reshape(()) == 9.0

    def test_centered_delta_extracts_interior(self):
        ramp = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
        g = Graph()
        x = make(ramp, graph=g)
        kernel = np.zeros((1, 1, 3, 3))
        kernel[0, 0, 1, 1] = 1.0
        k = make(kernel, graph=g)
        b = make([0.0], graph=g)
        out = conv2d(x, k, b).values
        # brute-force sliding window oracle
        expect = np.zeros((1, 2, 2))
        for i in range(2):
            for j in range(2):
                expect[0, i, j] = (ramp[0, i : i + 3, j : j + 3] * kernel[0, 0]).sum()
        assert np.array_equal(out, expect)
        assert np.array_equal(out[0], ramp[0, 1:3, 1:3])

    def test_matches_brute_force_on_random_input(self):
        rng = np.random.default_rng(7)
        xv = rng.normal(size=(3, 6, 7))
        kv = rng.normal(size=(4, 3, 3, 3))
        bv = rng.normal(size=4)
        g = Graph()
        out = conv2d(make(xv, graph=g), make(kv, graph=g), make(bv, graph=g)).values
        expect = np.zeros((4, 4, 5))
        for o in range(4):
            for i in range(4):
                for j in range(5):
                    expect[o, i, j] = (xv[:, i : i + 3, j : j + 3] * kv[o]).sum() + bv[o]
        assert np.allclose(out, expect, atol=1e-12)

    def test_one_by_one_kernel(self):
        rng = np.random.default_rng(3)
        xv = rng.normal(size=(2, 4, 4))
        kv = rng.normal(size=(3, 2, 1, 1))
        g = Graph()
        out = conv2d(make(xv, graph=g), make(kv, graph=g), make(np.zeros(3), graph=g)).values
        expect = np.einsum("oc,chw->ohw", kv[:, :, 0, 0], xv)
        assert np.allclose(out, expect, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3])
    def test_all_gradients_match_finite_differences(self, k):
        # training-like layer: several channels, a non-square map, and x
        # as a named parameter so its input gradient is reported
        rng = np.random.default_rng(21 + k)
        params = {
            "x": rng.normal(size=(4, 12, 11)),
            "k": rng.normal(size=(5, 4, k, k)),
            "b": rng.normal(size=5),
        }
        weights = rng.normal(size=(5, 13 - k, 12 - k))

        def loss_fn():
            g = Graph()
            leaves = {name: Tensor.param(name, v, g) for name, v in params.items()}
            out = conv2d(leaves["x"], leaves["k"], leaves["b"])
            return dot(out, Tensor.const(weights, g))

        grads = backward(loss_fn())
        fd = finite_diff_grad(lambda: loss_fn().values, params)
        for name in params:
            assert rel_err(grads[name], fd[name]).max() < 1e-5, name

    def test_constant_input_gets_no_gradient(self):
        rng = np.random.default_rng(4)
        xv = rng.normal(size=(3, 9, 8))
        params = {"k": rng.normal(size=(2, 3, 3, 3)), "b": rng.normal(size=2)}
        weights = rng.normal(size=(2, 7, 6))

        def build():
            g = Graph()
            out = conv2d(Tensor.const(xv, g), Tensor.param("k", params["k"], g), Tensor.param("b", params["b"], g))
            return out, dot(out, Tensor.const(weights, g))

        out, loss = build()
        dx, dk, db = out.vjp(weights)
        assert dx is None
        grads = backward(loss)
        assert set(grads) == {"k", "b"}
        fd = finite_diff_grad(lambda: build()[1].values, params)
        for name in params:
            assert rel_err(grads[name], fd[name]).max() < 1e-5, name

    def test_input_smaller_than_kernel(self):
        g = Graph()
        x = make(np.zeros((1, 2, 2)), graph=g)
        k = make(np.zeros((1, 1, 3, 3)), graph=g)
        with pytest.raises(DimensionError):
            conv2d(x, k, make(np.zeros(1), graph=g))

    @pytest.mark.parametrize("x_shape,k_shape,b_shape,match", [
        ((1, 4, 4, 1), (1, 1, 3, 3), (1,), "expects"),
        ((1, 4, 4), (1, 1, 3), (1,), "expects"),
        ((2, 4, 4), (1, 1, 3, 3), (1,), "channel mismatch"),
        ((1, 4, 4), (1, 1, 2, 2), (1,), "odd and square"),
        ((1, 4, 4), (1, 1, 3, 1), (1,), "odd and square"),
        ((1, 2, 4), (1, 1, 3, 3), (1,), "smaller than kernel"),
        ((1, 4, 4), (2, 1, 3, 3), (1,), "bias shape"),
    ])
    def test_shape_errors_are_the_same_on_arrays(self, x_shape, k_shape, b_shape, match):
        arrays = np.zeros(x_shape), np.zeros(k_shape), np.zeros(b_shape)
        with pytest.raises(DimensionError, match=match) as on_arrays:
            conv_forward(*arrays)
        g = Graph()
        with pytest.raises(DimensionError) as on_tensors:
            conv2d(*(make(a, graph=g) for a in arrays))
        assert str(on_arrays.value) == str(on_tensors.value)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("named_x", [True, False], ids=["named-x", "constant-x"])
    def test_vjp_bitwise_equals_the_2d_scatter(self, k, named_x):
        rng = np.random.default_rng(40 + k)
        for _ in range(20):
            c, o = rng.integers(1, 13, size=2)
            h, w = rng.integers(k, k + 16, size=2)
            xv = rng.normal(size=(c, h, w))
            xv[xv < -0.5] = 0.0
            kv = rng.normal(size=(o, c, k, k))
            bv = rng.normal(size=o)
            gv = rng.normal(size=(o, h - k + 1, w - k + 1))
            gv[rng.random(gv.shape) < 0.3] = -0.0
            gv[rng.random(gv.shape) < 0.1] = 0.0
            gv[:, 0] = -0.0  # a whole output row of negative zeros
            g = Graph()
            x = Tensor.param("x", xv, g) if named_x else Tensor.const(xv, g)
            out = conv2d(x, Tensor.param("k", kv, g), Tensor.param("b", bv, g))
            expect = reference_conv_vjp(xv, kv, gv)
            got = out.vjp(gv)
            if named_x:
                assert got[0].tobytes() == expect[0].tobytes()
            else:
                assert got[0] is None
            assert got[1].tobytes() == expect[1].tobytes()
            assert got[2].tobytes() == expect[2].tobytes()


class TestRelu:
    def test_sign_cases(self):
        assert np.array_equal(relu(make([-1.0, 0.0, 2.0])).values, [0.0, 0.0, 2.0])

    def test_identity_on_positives(self):
        v = np.array([0.5, 3.0, 1e-9])
        assert np.array_equal(relu(make(v)).values, v)

    def test_gradient_of_sum(self):
        g = Graph()
        x = Tensor.param("x", np.array([-1.0, 2.0]), g)
        grads = backward(total(relu(x)))
        assert np.array_equal(grads["x"], [0.0, 1.0])

    def test_subgradient_at_zero_is_zero(self):
        g = Graph()
        x = Tensor.param("x", np.array([0.0]), g)
        grads = backward(total(relu(x)))
        assert grads["x"][0] == 0.0


class TestLogSoftmax:
    def test_uniform_logits(self):
        out = log_softmax(make(np.zeros((4, 3)))).values
        assert np.allclose(out, math.log(0.25), atol=1e-15)

    def test_shift_invariance_within_tolerance(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(scale=10.0, size=(5, 8))
        a = log_softmax(make(logits)).values
        b = log_softmax(make(logits + 123.456)).values
        assert np.max(np.abs(a - b)) < 1e-12

    def test_two_class_direct_evaluation(self):
        out = log_softmax(make(np.array([[0.0], [math.log(3.0)]]))).values
        assert out[0, 0] == pytest.approx(math.log(0.25), rel=1e-14)
        assert out[1, 0] == pytest.approx(math.log(0.75), rel=1e-14)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            logits = rng.uniform(-50.0, 50.0, size=(rng.integers(2, 7), rng.integers(1, 9)))
            out = log_softmax(make(logits)).values
            assert np.max(np.abs(np.exp(out).sum(axis=0) - 1.0)) < 1e-12

    def test_extreme_logits_stay_finite(self):
        out = log_softmax(make(np.array([[50.0, -50.0], [-50.0, 50.0]]))).values
        assert np.all(np.isfinite(out))


class TestNllLoss:
    def test_perfect_prediction(self):
        lp = np.log(np.array([[1.0 - 1e-12, 1e-12], [1e-12, 1.0 - 1e-12]]))
        loss = nll_loss(make(lp), np.array([0, 1])).values
        assert loss == pytest.approx(0.0, abs=1e-11)

    def test_uniform_prediction_is_log_k(self):
        k = 5
        lp = np.full((k, 7), math.log(1.0 / k))
        loss = nll_loss(make(lp), np.zeros(7, dtype=np.int64)).values
        assert loss == pytest.approx(math.log(k), rel=1e-14)

    def test_two_pixel_direct_arithmetic(self):
        lp = np.log(np.array([[0.9, 0.2], [0.1, 0.8]]))
        loss = nll_loss(make(lp), np.array([0, 1])).values
        assert loss == pytest.approx(0.16425203348601788, rel=1e-14)

    def test_out_of_range_label_reports_index(self):
        lp = make(np.zeros((2, 3)))
        with pytest.raises(LabelError, match="index 1"):
            nll_loss(lp, np.array([0, 7, 1]))


class TestBackward:
    def test_quadratic(self):
        g = Graph()
        theta = Tensor.param("theta", np.array([1.0, -2.0]), g)
        loss = dot(theta, theta)
        grads = backward(loss)
        assert np.array_equal(grads["theta"], [2.0, -4.0])

    def test_disconnected_parameter_gets_zero(self):
        g = Graph()
        used = Tensor.param("used", np.array([3.0]), g)
        unused = Tensor.param("unused", np.array([[1.0, 2.0]]), g)
        # an operation on a parameter that does not feed the loss
        side = Tensor.param("side", np.array([5.0]), g)
        dot(side, side)
        loss = dot(used, used)
        late = Tensor.param("late", np.array([1.0, 1.0]), g)
        grads = backward(loss)
        assert set(grads) == {"used", "unused", "side", "late"}
        assert np.array_equal(grads["unused"], np.zeros((1, 2)))
        assert np.array_equal(grads["side"], [0.0])
        assert np.array_equal(grads["late"], [0.0, 0.0])
        assert np.array_equal(grads["used"], [6.0])

    def test_dropped_loss_frees_its_operations_without_the_cycle_collector(self):
        rng = np.random.default_rng(8)
        gc.disable()
        try:
            g = Graph()
            leaves = {"k": Tensor.param("k", rng.normal(size=(2, 1, 3, 3)), g),
                      "b": Tensor.param("b", np.zeros(2), g)}
            hidden = relu(conv2d(Tensor.const(rng.normal(size=(1, 6, 6)), g), leaves["k"], leaves["b"]))
            ref = weakref.ref(hidden.values)
            loss = total(hidden)
            del hidden
            backward(loss)
            assert ref() is not None
            del loss, leaves
            # the graph is still alive and must not hold the node's array
            assert ref() is None
        finally:
            gc.enable()

    def test_non_scalar_loss_rejected(self):
        g = Graph()
        x = Tensor.param("x", np.array([1.0, 2.0]), g)
        with pytest.raises(ContractError):
            backward(relu(x))

    def test_shared_node_accumulates(self):
        g = Graph()
        x = Tensor.param("x", np.array([2.0]), g)
        # loss = x*x + x*x = 2x^2, grad = 4x
        loss = add(dot(x, x), dot(x, x))
        assert backward(loss)["x"][0] == 8.0

    def test_two_layer_net_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        params = {
            "w1": rng.normal(size=(6, 4)),
            "b1": rng.normal(size=(6, 1)),
            "w2": rng.normal(size=(3, 6)),
            "b2": rng.normal(size=(3, 1)),
        }
        x = rng.normal(size=(4, 5))
        labels = rng.integers(0, 3, size=5)

        def loss_fn():
            g = Graph()
            leaves = {k: Tensor.param(k, v, g) for k, v in params.items()}
            h1 = relu(add(matmul(leaves["w1"], Tensor.const(x, g)), matmul(leaves["b1"], Tensor.const(np.ones((1, 5)), g))))
            z = add(matmul(leaves["w2"], h1), matmul(leaves["b2"], Tensor.const(np.ones((1, 5)), g)))
            return nll_loss(log_softmax(z), labels)

        grads = backward(loss_fn())
        fd = finite_diff_grad(lambda: loss_fn().values, params, h=1e-5)
        worst = max(rel_err(grads[k], fd[k]).max() for k in params)
        assert worst < 1e-6

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(9)
        xv = rng.normal(size=(2, 6, 6))
        kv = rng.normal(size=(3, 2, 3, 3))
        bv = rng.normal(size=3)
        labels = rng.integers(0, 3, size=16)

        def run():
            g = Graph()
            out = conv2d(Tensor.const(xv, g), Tensor.param("k", kv, g), Tensor.param("b", bv, g))
            loss = nll_loss(log_softmax(reshape(out, (3, 16))), labels)
            return loss.values.copy(), backward(loss)

        l1, g1 = run()
        l2, g2 = run()
        assert l1.tobytes() == l2.tobytes()
        for k in g1:
            assert g1[k].tobytes() == g2[k].tobytes()


class TestHelpers:
    def test_scale_of_a_sum(self):
        g = Graph()
        terms = [Tensor.param(f"t{i}", np.array(float(i)), g) for i in range(4)]
        mean = scale(add(add(add(terms[0], terms[1]), terms[2]), terms[3]), 0.25)
        assert mean.values == pytest.approx(1.5)
        grads = backward(mean)
        assert all(grads[f"t{i}"] == pytest.approx(0.25) for i in range(4))

    def test_reshape_round_trip_gradient(self):
        g = Graph()
        x = Tensor.param("x", np.arange(6, dtype=np.float64).reshape(2, 3), g)
        loss = dot(reshape(x, (6,)), reshape(x, (6,)))
        assert np.array_equal(backward(loss)["x"], 2.0 * x.values)

    def test_cross_graph_mix_rejected(self):
        a = make([1.0])
        b = make([1.0])
        with pytest.raises(ContractError):
            add(a, b)


class TestFiniteDiff:
    def test_product_rule(self):
        params = {"a": np.array([3.0]), "b": np.array([5.0])}
        fd = finite_diff_grad(lambda: float(params["a"][0] * params["b"][0]), params)
        assert fd["a"][0] == pytest.approx(5.0, rel=1e-8)
        assert fd["b"][0] == pytest.approx(3.0, rel=1e-8)

    def test_constant_function(self):
        params = {"a": np.array([1.0, 2.0])}
        fd = finite_diff_grad(lambda: 7.0, params)
        assert np.array_equal(fd["a"], np.zeros(2))

    def test_square_at_zero(self):
        params = {"a": np.array([0.0])}
        fd = finite_diff_grad(lambda: float(params["a"][0] ** 2), params)
        assert fd["a"][0] == pytest.approx(0.0, abs=1e-12)

    def test_restores_parameters(self):
        params = {"a": np.array([1.5, -2.5])}
        before = params["a"].copy()
        finite_diff_grad(lambda: float(params["a"].sum()), params)
        assert np.array_equal(params["a"], before)
