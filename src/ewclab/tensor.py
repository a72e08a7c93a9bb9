"""Dense float64 tensors with reverse-mode automatic differentiation.

Every :class:`Tensor` is a node of one :class:`Graph`, created either as a
leaf (named parameter or unnamed constant) or as the output of a
primitive operation that keeps its parents and its backward rule.  The
graph itself holds no operation nodes: it numbers nodes in creation order
and lists its named leaves, so a loss's arrays are freed as soon as the
loss is dropped.  A backward pass walks the nodes reachable from the loss
in descending creation number, which is always a valid topological order,
and accumulates gradients into fixed-order buffers so repeated passes are
bit-identical.  It can also add into a gradient map that earlier passes
filled: a sum of terms on one graph then runs term by term, each term's
arrays dropped before the next is built, with the bits of one pass over
the sum when the terms run in the order that pass would reach them.

Only the operations a small patch-based segmentation network needs are
provided; there is no broadcasting, no GPU path and no higher-order
differentiation.  Inference needs no graph: it runs on plain arrays
through :func:`conv_forward`, the kernel under the :func:`conv2d` op.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ContractError, DimensionError, LabelError

Array = np.ndarray
# Maps parameter name -> gradient array, shape-matching the parameter.
GradientMap = dict[str, Array]

# Version of the numeric core.  Run ids hash it, so bump it whenever a
# change can alter the bits a training run produces (such as a kernel's
# summation order): an output directory then never mixes runs of two cores.
CORE_VERSION = 2


class Graph:
    """Creation counter and named leaves of one computation.

    Operation nodes are reachable only from their children, never from
    the graph, so nothing keeps a dropped loss's arrays alive.
    """

    def __init__(self):
        self._count = 0
        self._params: list[Tensor] = []

    def _register(self, node: "Tensor") -> int:
        if node.name is not None:
            self._params.append(node)
        self._count += 1
        return self._count - 1

    def parameters(self) -> list["Tensor"]:
        return list(self._params)


class Tensor:
    """One node of a computation: a float64 array plus its backward rule.

    Tensors are immutable once created; optimizers mutate the raw arrays
    held by a parameter store between passes, never a live graph.
    """

    __slots__ = ("values", "graph", "name", "parents", "vjp", "node_id")

    def __init__(
        self,
        values: Array,
        graph: Graph,
        *,
        name: str | None = None,
        parents: tuple["Tensor", ...] = (),
        vjp: Callable[[Array], tuple[Array, ...]] | None = None,
    ):
        self.values = np.asarray(values, dtype=np.float64)
        self.graph = graph
        self.name = name
        self.parents = parents
        self.vjp = vjp
        self.node_id = graph._register(self)

    @staticmethod
    def param(name: str, values: Array, graph: Graph) -> "Tensor":
        """Named leaf; its gradient appears in the backward result."""
        return Tensor(values, graph, name=name)

    @staticmethod
    def const(values: Array, graph: Graph) -> "Tensor":
        """Unnamed leaf treated as a constant (no gradient reported)."""
        return Tensor(values, graph)

    @staticmethod
    def op(
        values: Array,
        parents: Sequence["Tensor"],
        vjp: Callable[[Array], tuple[Array, ...]],
    ) -> "Tensor":
        """Result node of a primitive; ``vjp(grad_out)`` returns one
        gradient per parent, in parent order, or None for a parent that
        takes no gradient."""
        parents = tuple(parents)
        graph = parents[0].graph
        for p in parents[1:]:
            if p.graph is not graph:
                raise ContractError("operands belong to different graphs")
        return Tensor(values, graph, parents=parents, vjp=vjp)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def __repr__(self) -> str:
        tag = self.name or ("leaf" if not self.parents else "op")
        return f"Tensor({tag}, shape={self.shape})"


def backward(loss: Tensor, grads: GradientMap | None = None) -> GradientMap:
    """Reverse-mode gradients of a scalar loss for the named parameters on
    the loss's graph.

    Without ``grads``, the result maps every named parameter of the graph
    to its gradient, all-zero for one the loss does not reach.  With
    ``grads``, the loss's gradients are added into that map, which is
    returned: an entry's first contribution is stored as it is, later ones
    are added with ``+=``, and entries the loss does not reach are left
    alone (an absent one stays absent).  Contributions arrive in the order
    the walk visits the nodes reachable from the loss, descending creation
    number, so two passes over identical inputs are bit-identical, and
    terms run one after another into one map give the bits of one pass
    over their sum when they run in the order that pass reaches them.
    """
    if loss.values.shape != ():
        raise ContractError(f"loss must be a scalar, got shape {loss.values.shape}")
    out: GradientMap = {} if grads is None else grads
    reachable = {loss.node_id: loss}
    stack = [loss]
    while stack:
        for parent in stack.pop().parents:
            if parent.node_id not in reachable:
                reachable[parent.node_id] = parent
                stack.append(parent)
    # a named leaf's gradient goes straight into the map; every other
    # node's into a buffer keyed by its creation number
    buffers: dict[int, Array] = {}

    def accumulate(node: Tensor, grad: Array) -> None:
        acc, key = (out, node.name) if node.name is not None else (buffers, node.node_id)
        prev = acc.get(key)
        if prev is None:
            acc[key] = np.array(grad, dtype=np.float64)
        else:
            prev += grad

    accumulate(loss, np.ones((), dtype=np.float64))
    for node_id in sorted(reachable, reverse=True):
        node = reachable[node_id]
        if not node.parents:
            continue
        # an operation's buffer is dead once its vjp has consumed it
        grad = buffers.pop(node_id, None)
        if grad is None:
            continue
        for parent, pgrad in zip(node.parents, node.vjp(grad)):
            if pgrad is not None:
                accumulate(parent, pgrad)
    if grads is not None:
        return out
    return {
        p.name: np.zeros_like(p.values) if out.get(p.name) is None else out[p.name]
        for p in loss.graph.parameters()
    }


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a [m,k] and b [k,n]."""
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    av, bv = a.values, b.values

    def vjp(g: Array) -> tuple[Array, Array]:
        return g @ bv.T, av.T @ g

    return Tensor.op(av @ bv, (a, b), vjp)


def conv_forward(x: Array, kernels: Array, bias: Array) -> tuple[Array, Array]:
    """Valid 2-D convolution of plain arrays, stride 1, cross-correlation
    convention (kernels are not flipped): the one conv kernel, serving
    both :func:`conv2d` and graph-free inference.

    x: [C,H,W], kernels: [O,C,K,K] with odd square K, bias: [O].  Returns
    the output [O, H-K+1, W-K+1] and the taps matrix [C*K*K, (H-K+1)*W]
    the product was taken over (for K = 1, a view of x).
    """
    if x.ndim != 3 or kernels.ndim != 4:
        raise DimensionError(
            f"conv2d expects [C,H,W] input and [O,C,K,K] kernels, got {x.shape} and {kernels.shape}"
        )
    c, h, w = x.shape
    o, kc, kh, kw = kernels.shape
    if kc != c:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape}, kernels {kernels.shape}")
    if kh != kw or kh % 2 != 1:
        raise DimensionError(f"conv2d kernels must be odd and square, got {kernels.shape}")
    if h < kh or w < kw:
        raise DimensionError(f"conv2d input {x.shape} smaller than kernel {kernels.shape}")
    if bias.shape != (o,):
        raise DimensionError(f"conv2d bias shape {bias.shape} != ({o},)")
    k = kh
    hp, wp = h - k + 1, w - k + 1
    if k == 1:
        # a 1x1 conv's taps are the input itself
        taps = x.reshape(c, h * w)
    else:
        # "Wide" rows: with x flattened to [C, H*W], tap (i, j) of output
        # row r starts at r*W + i*W + j, so each tap over all rows is one
        # contiguous slice.  Each wide output row has W columns; its last
        # K-1 straddle two input rows and are dropped.  The last tap's
        # slice must end inside x, so the final K-1 wide columns (dropped
        # ones) read zeros instead.
        n = hp * w
        span = n - (k - 1)
        xf = x.reshape(c, h * w)
        taps = np.empty((c, k * k, n))
        taps[:, :, span:] = 0.0
        for i in range(k):
            for j in range(k):
                taps[:, i * k + j, :span] = xf[:, i * w + j : i * w + j + span]
        taps = taps.reshape(c * k * k, n)
    out = (kernels.reshape(o, c * k * k) @ taps).reshape(o, hp, w)[:, :, :wp] + bias[:, None, None]
    return out, taps


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Graph op of :func:`conv_forward`.  An unnamed leaf ``x`` is a
    constant: the backward rule returns None for it and never computes
    its gradient."""
    out, taps = conv_forward(x.values, kernels.values, bias.values)
    c, h, w = x.shape
    o, _, k, _ = kernels.shape
    hp, wp = out.shape[1:]
    n = hp * w
    kmat = kernels.values.reshape(o, c * k * k)
    wants_dx = x.name is not None or bool(x.parents)

    def vjp(g: Array) -> tuple[Array | None, Array, Array]:
        g_wide = np.zeros((o, hp, w))
        g_wide[:, :, :wp] = g
        g_wide = g_wide.reshape(o, n)
        dk = (g_wide @ taps.T).reshape(o, c, k, k)
        db = g.sum(axis=(1, 2))
        if not wants_dx:
            return None, dk, db
        # Tap t = (i, j) adds its rows of dtaps into dx shifted by i*W + j.
        # Copied into a buffer with dx's channel stride, that shifted add
        # is one 1-D add over all channels.  Where a 2-D scatter would add
        # nothing, it adds dtaps' dropped wide columns (g_wide is zero
        # there) or the buffer's zero fill: all +-0.0, and adding +-0.0 to
        # a sum begun at +0.0 changes no bit.
        dtaps = (kmat.T @ g_wide).reshape(c, k * k, n)
        tap = np.zeros((c, h * w))
        flat = tap.reshape(-1)
        dx = np.zeros(c * h * w)
        for i in range(k):
            for j in range(k):
                shift = i * w + j
                tap[:, :n] = dtaps[:, i * k + j]
                dx[shift:] += flat[: flat.size - shift]
        return dx.reshape(c, h, w), dk, db

    return Tensor.op(out, (x, kernels, bias), vjp)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); the subgradient at exactly 0 is 0."""
    mask = x.values > 0.0

    def vjp(g: Array) -> tuple[Array]:
        return (g * mask,)

    return Tensor.op(np.where(mask, x.values, 0.0), (x,), vjp)


def log_softmax(logits: Tensor) -> Tensor:
    """Per-column log-probabilities of logits [K,N], stabilized by max
    subtraction so finite inputs always give finite outputs."""
    if logits.values.ndim != 2 or logits.shape[0] < 2:
        raise DimensionError(f"log_softmax expects [K>=2, N] logits, got {logits.shape}")
    z = logits.values - logits.values.max(axis=0, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=0, keepdims=True))
    soft = np.exp(out)

    def vjp(g: Array) -> tuple[Array]:
        return (g - soft * g.sum(axis=0, keepdims=True),)

    return Tensor.op(out, (logits,), vjp)


def nll_loss(log_probs: Tensor, labels: Array) -> Tensor:
    """Mean negative log-likelihood over pixels.

    log_probs: [K,N] per-column log-probabilities; labels: int array [N].
    The result is -(1/N) * sum_n log_probs[y_n, n].
    """
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise LabelError(f"labels must be integers, got dtype {labels.dtype}")
    k, n = log_probs.shape
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} != ({n},)")
    bad = np.nonzero((labels < 0) | (labels >= k))[0]
    if bad.size:
        i = int(bad[0])
        raise LabelError(f"label {int(labels[i])} at index {i} outside [0, {k})")
    idx = np.arange(n)
    out = -log_probs.values[labels, idx].sum() / n

    def vjp(g: Array) -> tuple[Array]:
        dlp = np.zeros((k, n))
        dlp[labels, idx] = (-1.0 / n) * g
        return (dlp,)

    return Tensor.op(np.asarray(out), (log_probs,), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors (no broadcasting)."""
    if a.shape != b.shape:
        raise DimensionError(f"add shapes differ: {a.shape} vs {b.shape}")

    def vjp(g: Array) -> tuple[Array, Array]:
        return g, g

    return Tensor.op(a.values + b.values, (a, b), vjp)


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)

    def vjp(g: Array) -> tuple[Array]:
        return (g * factor,)

    return Tensor.op(a.values * factor, (a,), vjp)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape, dtype=np.int64)) != a.values.size:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}")
    old = a.shape

    def vjp(g: Array) -> tuple[Array]:
        return (g.reshape(old),)

    return Tensor.op(a.values.reshape(shape), (a,), vjp)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


def finite_diff_grad(
    f: Callable[[], float],
    params: Mapping[str, Array],
    h: float = 1e-5,
) -> GradientMap:
    """Central-difference gradient of ``f`` w.r.t. every coordinate of
    ``params``: (f(x+h) - f(x-h)) / 2h.

    ``params`` values are perturbed in place and restored; ``f`` takes no
    arguments and must read the current parameter values.  This is the
    test oracle for :func:`backward` and stays independent of it.
    """
    if h <= 0:
        raise ContractError("finite difference step must be positive")
    out: GradientMap = {}
    for name, arr in params.items():
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(f())
            flat[i] = orig - h
            fm = float(f())
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        out[name] = grad
    return out
