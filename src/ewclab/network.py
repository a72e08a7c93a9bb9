"""Patch-based segmentation network: shared conv trunk, per-task heads,
parameter store and bit-exact checkpoint persistence.

The trunk is a stack of valid 3x3 convolutions with ReLU; each head is a
1x1 convolution over the last trunk feature map, so every head reads the
same shared representation.  Parameters live in a :class:`ParamStore`, a
name -> array map in insertion order; the task-A anchor and the Fisher
importances are stores too, matched to the parameters by name.  Training
and the Fisher estimate build a computation graph with
:func:`forward_logits`, which holds a leaf per store entry, so a gradient
map always covers the whole store.  Inference (:func:`forward_heads`)
builds no graph: it runs the same conv kernel on the store's arrays, the
trunk once for all the heads it scores.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, Mapping, Sequence

import numpy as np

from .atomic import atomic_open, comma_list, decode_text, parse_field, read_fields, read_file
from .errors import AlignmentError, DimensionError, FormatError, HeadError, PrerequisiteError
from .tensor import Graph, GradientMap, Tensor, conv2d, conv_forward, relu, relu_forward

Array = np.ndarray

CHECKPOINT_MAGIC = b"EWC1"
CHECKPOINT_VERSION = 1
FISHER_SENTINEL = b"FISHER"

# header keys owned by the file format; user metadata must not collide
RESERVED_HEADER_KEYS = frozenset(
    {"in_channels", "trunk", "heads", "entries", "fisher_entries",
     "fisher_mode", "fisher_head", "fisher_dataset", "fisher_samples"}
)


@dataclass
class NetworkSpec:
    """Architecture description: input channels, trunk widths, head classes."""

    in_channels: int = 2
    trunk: tuple[int, ...] = (12, 12, 24)
    heads: dict[str, int] = field(default_factory=dict)

    def validate(self) -> None:
        if self.in_channels < 1:
            raise DimensionError(f"in_channels must be positive, got {self.in_channels}")
        if not self.trunk:
            raise DimensionError("trunk needs at least one layer")
        for name, classes in self.heads.items():
            if classes < 2:
                raise HeadError(f"head {name!r} needs >= 2 classes, got {classes}")

    def copy(self) -> "NetworkSpec":
        return NetworkSpec(self.in_channels, tuple(self.trunk), dict(self.heads))


def output_margin(spec: NetworkSpec) -> int:
    """Pixels trimmed from each image border by the valid 3x3 trunk
    (the 1x1 heads do not shrink the map)."""
    return len(spec.trunk)


class ParamStore(Mapping[str, Array]):
    """Ordered, named collection of parameter arrays.

    Mapping name -> float64 array, iterated in insertion order; adding a
    name twice raises :class:`HeadError`.
    """

    def __init__(self, entries: Mapping[str, Array] | None = None, spec: NetworkSpec | None = None):
        self._entries: dict[str, Array] = {}
        self.spec = spec
        if entries:
            for name, arr in entries.items():
                self.add(name, arr)

    def add(self, name: str, values: Array) -> None:
        if name in self._entries:
            raise HeadError(f"duplicate parameter entry {name!r}")
        self._entries[name] = np.array(values, dtype=np.float64)

    def __getitem__(self, name: str) -> Array:
        return self._entries[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def flat(self) -> Array:
        """Concatenated copy of all entries in store order."""
        if not self._entries:
            return np.zeros(0)
        return np.concatenate([a.reshape(-1) for a in self._entries.values()])


@dataclass(frozen=True)
class FisherProvenance:
    dataset_id: str
    head: str
    mode: str
    samples: int


@dataclass(frozen=True, eq=False)
class FisherDiagonal:
    """Per-parameter non-negative importances, a store with the entry
    names and shapes of the parameters they were estimated on.
    Parameters added later (new heads) have no entry, so their importance
    is zero."""

    importance: ParamStore
    provenance: FisherProvenance

    def __post_init__(self) -> None:
        for name, values in self.importance.items():
            if np.any(values < 0) or not np.all(np.isfinite(values)):
                raise AlignmentError(f"fisher values must be finite and non-negative; {name!r} is not")

    @property
    def values(self) -> Array:
        """Every importance in one flat array, in store order."""
        return self.importance.flat()

    @classmethod
    def ones_like(cls, store: ParamStore) -> "FisherDiagonal":
        """Unit importances: the plain L2 anchor."""
        ones = ParamStore({name: np.ones(values.shape) for name, values in store.items()})
        return cls(ones, FisherProvenance(dataset_id="", head="", mode="unit", samples=0))


def _he_kernels(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Array:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def entry_shapes(spec: NetworkSpec) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter entry ``spec`` implies, in store
    order: each trunk layer's kernels and bias, then each head's."""
    shapes = {}
    prev = spec.in_channels
    for i, width in enumerate(spec.trunk):
        shapes[f"trunk.{i}.kernels"] = (width, prev, 3, 3)
        shapes[f"trunk.{i}.bias"] = (width,)
        prev = width
    for name, classes in spec.heads.items():
        shapes[f"head.{name}.weights"] = (classes, prev, 1, 1)
        shapes[f"head.{name}.bias"] = (classes,)
    return shapes


def init_network(spec: NetworkSpec, seed: int) -> ParamStore:
    """He-initialized parameters (zero-mean Gaussian, variance 2/fan_in)
    for kernels and head weights, zero biases; deterministic per seed."""
    spec.validate()
    rng = np.random.default_rng(seed)
    store = ParamStore(spec=spec.copy())
    for name, shape in entry_shapes(spec).items():
        if name.endswith(".bias"):
            store.add(name, np.zeros(shape))
        else:
            store.add(name, _he_kernels(rng, shape, math.prod(shape[1:])))
    return store


def attach_head(store: ParamStore, head_name: str, classes: int, seed: int) -> ParamStore:
    """New store with trunk and existing heads copied bit-for-bit and a
    freshly initialized head appended after them."""
    if store.spec is None:
        raise HeadError("store has no network spec; cannot attach a head")
    if head_name in store.spec.heads:
        raise HeadError(f"head {head_name!r} already exists")
    if classes < 2:
        raise HeadError(f"head {head_name!r} needs >= 2 classes, got {classes}")
    new_spec = store.spec.copy()
    new_spec.heads[head_name] = classes
    out = ParamStore(store, spec=new_spec)
    rng = np.random.default_rng(seed)
    width = new_spec.trunk[-1]
    out.add(f"head.{head_name}.weights", _he_kernels(rng, (classes, width, 1, 1), width))
    out.add(f"head.{head_name}.bias", np.zeros(classes))
    return out


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def leaf_tensors(store: ParamStore, graph: Graph) -> dict[str, Tensor]:
    """Named leaf tensors for every store entry, in store order, so the
    gradient map of any loss on ``graph`` covers the whole store."""
    return {name: Tensor.param(name, values, graph) for name, values in store.items()}


def forward_logits(leaves: Mapping[str, Tensor], spec: NetworkSpec, patch: Array, head: str) -> Tensor:
    """Build the logits graph for one patch using pre-made leaf tensors
    (shared leaves let a whole batch accumulate into one GradientMap)."""
    if head not in spec.heads:
        raise HeadError(f"unknown head {head!r}; have {sorted(spec.heads)}")
    weights, bias = leaves[f"head.{head}.weights"], leaves[f"head.{head}.bias"]
    x = Tensor.const(np.asarray(patch, dtype=np.float64), weights.graph)
    for i in range(len(spec.trunk)):
        x = relu(conv2d(x, leaves[f"trunk.{i}.kernels"], leaves[f"trunk.{i}.bias"]))
    return conv2d(x, weights, bias)


def forward_heads(store: ParamStore, patch: Array, heads: Sequence[str]) -> list[Array]:
    """Per-pixel logits [classes, H', W'] of each head in ``heads`` for one
    patch; a pure function of (params, patch).  H' = H - 2 * len(trunk),
    likewise W'.  The trunk runs once, and every head's 1x1 conv reads
    its last feature map; the patch and every head are checked first.

    Inference builds no graph: the same conv and ReLU kernels as
    :func:`forward_logits` run on the store's arrays, and each result
    has the bits of ``forward_logits(...).values``.
    """
    spec = store.spec
    if spec is None:
        raise HeadError("store has no network spec")
    patch = np.asarray(patch, dtype=np.float64)
    if patch.ndim != 3 or patch.shape[0] != spec.in_channels:
        raise DimensionError(
            f"patch must be [{spec.in_channels},H,W], got {patch.shape}"
        )
    margin = output_margin(spec)
    if patch.shape[1] < 2 * margin + 1 or patch.shape[2] < 2 * margin + 1:
        raise DimensionError(
            f"patch {patch.shape} smaller than receptive field {2 * margin + 1}"
        )
    for head in heads:
        if head not in spec.heads:
            raise HeadError(f"unknown head {head!r}; have {sorted(spec.heads)}")
    x = patch
    for i in range(len(spec.trunk)):
        y = conv_forward(x, store[f"trunk.{i}.kernels"], store[f"trunk.{i}.bias"])[0]
        x = relu_forward(y, out=y)  # relu's kernel, in place on the conv's fresh output
    return [conv_forward(x, store[f"head.{h}.weights"], store[f"head.{h}.bias"])[0] for h in heads]


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------
#
# magic "EWC1", version u8=1,
# u32 header length, header: UTF-8 "key=value" lines (network spec,
#   entry count, optional fisher provenance, user metadata),
# per entry: u32 name length, name UTF-8, u8 rank, rank * u32 dims,
#   raw little-endian binary64 payload,
# optional: sentinel "FISHER", u32 count, then count entries in the same
#   per-entry layout holding the Fisher values for anchored parameters.


@dataclass
class Checkpoint:
    """In-memory image of a checkpoint file."""

    params: ParamStore
    metadata: dict[str, str]
    fisher: FisherDiagonal | None = None


def _dump_header(spec: NetworkSpec, n_entries: int, metadata: dict[str, str], fisher) -> bytes:
    lines = [
        f"in_channels={spec.in_channels}",
        "trunk=" + ",".join(str(w) for w in spec.trunk),
        "heads=" + ",".join(f"{n}:{c}" for n, c in spec.heads.items()),
        f"entries={n_entries}",
    ]
    if fisher is not None:
        prov = fisher.provenance
        lines += [
            f"fisher_entries={len(fisher.importance)}",
            f"fisher_mode={prov.mode}",
            f"fisher_head={prov.head}",
            f"fisher_dataset={prov.dataset_id}",
            f"fisher_samples={prov.samples}",
        ]
    for key, value in metadata.items():
        if key in RESERVED_HEADER_KEYS:
            raise FormatError(f"metadata key {key!r} is reserved by the checkpoint format")
        line = f"{key}={value}"
        if list(read_fields(line.encode("utf-8"), FormatError, f"metadata {line!r}")) != [(1, key, str(value))]:
            raise FormatError(f"metadata {line!r} would not read back as key {key!r}, value {value!r}")
        lines.append(line)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _write_entry(fh, name: str, values: Array) -> None:
    raw = name.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)
    fh.write(struct.pack("<B", values.ndim))
    for d in values.shape:
        fh.write(struct.pack("<I", d))
    fh.write(values.astype("<f8", copy=False).tobytes())


def save_checkpoint(
    store: ParamStore, path, metadata: dict[str, str] | None = None, fisher: FisherDiagonal | None = None
) -> None:
    """Write a bit-exact checkpoint; optionally embeds a Fisher payload.

    A Fisher payload must hold the entries of the store's network spec,
    as :func:`load_checkpoint` requires: otherwise a :class:`FormatError`
    names the first entry that differs, before any file is opened.  The
    bytes go to a temporary file beside ``path`` that then replaces it,
    so a save that fails or is interrupted leaves any earlier file at
    ``path`` as it was.
    """
    if store.spec is None:
        raise FormatError("cannot checkpoint a store without a network spec")
    if fisher is not None:
        _check_layout(fisher.importance, entry_shapes(store.spec), "the Fisher payload", "the parameters")
    header = _dump_header(store.spec, len(store), metadata or {}, fisher)
    with atomic_open(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<B", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for name, arr in store.items():
            _write_entry(fh, name, arr)
        if fisher is not None:
            fh.write(FISHER_SENTINEL)
            fh.write(struct.pack("<I", len(fisher.importance)))
            for name, values in fisher.importance.items():
                _write_entry(fh, name, values)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(f"truncated checkpoint while reading {what}", offset=self.pos)
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def _read_entry(r: _Reader, path) -> tuple[str, Array]:
    name_len = r.u32("entry name length")
    error = partial(FormatError, offset=r.pos)
    name = decode_text(r.take(name_len, "entry name"), error, f"{path} entry name")
    rank = r.u8(f"rank of {name!r}")
    dims = tuple(r.u32(f"dim {i} of {name!r}") for i in range(rank))
    count = math.prod(dims)  # a Python int: a huge count cannot wrap, so it reads as truncation
    payload = r.take(count * 8, f"payload of {name!r}")
    return name, np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)


def _parse_head(part: str) -> tuple[str, int]:
    name, classes = part.split(":")
    return name, int(classes)


def _check_layout(store: ParamStore, expected: Mapping[str, tuple[int, ...]], where: str, against: str) -> None:
    """A :class:`FormatError` naming the first entry whose name or shape in
    ``store`` (read from ``where``) differs from ``expected``."""
    found = {name: values.shape for name, values in store.items()}
    if found != expected:
        name = next(n for n in {**found, **expected} if found.get(n) != expected.get(n))
        raise FormatError(
            f"entry {name!r}: {found.get(name, 'missing')} in {where}, "
            f"{expected.get(name, 'none')} in {against}"
        )


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a missing file raises :class:`PrerequisiteError`,
    and bad magic, version, header lines or values, an entry name that is
    not UTF-8, entries other than those the header's network spec implies,
    a Fisher payload unlike the parameters' names and shapes, or truncation
    raise :class:`FormatError` (with the failing byte offset if there is one)."""
    data = read_file(path, PrerequisiteError, "checkpoint")
    r = _Reader(data)
    magic = r.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}", offset=0)
    version = r.u8("version")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    header_len = r.u32("header length")
    where = f"{path} header"
    header = {key: value for _, key, value in read_fields(r.take(header_len, "header"), FormatError, where)}
    field = partial(parse_field, header, FormatError, where)
    spec = NetworkSpec(
        in_channels=field("in_channels", int),
        trunk=field("trunk", comma_list(int)),
        heads=field("heads", lambda text: dict(comma_list(_parse_head)(text))),
    )
    store = ParamStore(spec=spec)
    for _ in range(field("entries", int)):
        store.add(*_read_entry(r, path))
    shapes = entry_shapes(spec)
    _check_layout(store, shapes, "the file", "the header's network spec")

    fisher = None
    if "fisher_entries" in header:
        expected = field("fisher_entries", int)
        provenance = FisherProvenance(
            dataset_id=header.get("fisher_dataset", ""),
            head=header.get("fisher_head", ""),
            mode=header.get("fisher_mode", ""),
            samples=field("fisher_samples", int, default="0"),
        )
        sentinel = r.take(len(FISHER_SENTINEL), "fisher sentinel")
        if sentinel != FISHER_SENTINEL:
            raise FormatError(
                f"bad fisher sentinel {sentinel!r}", offset=r.pos - len(FISHER_SENTINEL)
            )
        count = r.u32("fisher entry count")
        if count != expected:
            raise FormatError(f"fisher entry count {count} != header {expected}")
        importance = ParamStore()
        for _ in range(count):
            importance.add(*_read_entry(r, path))
        _check_layout(importance, shapes, "the Fisher payload", "the parameters")
        fisher = FisherDiagonal(importance, provenance)
    if r.pos != len(data):
        raise FormatError(f"{len(data) - r.pos} trailing bytes", offset=r.pos)
    metadata = {k: v for k, v in header.items() if k not in RESERVED_HEADER_KEYS}
    return Checkpoint(params=store, metadata=metadata, fisher=fisher)


# ---------------------------------------------------------------------------
# optimizer-facing helper
# ---------------------------------------------------------------------------


def sgd_update(
    store: ParamStore,
    grads: GradientMap,
    velocity: dict[str, Array],
    learning_rate: float,
    momentum: float,
) -> None:
    """Classic momentum step, applied to entries in store order.  An entry
    missing from ``grads`` (no loss term reached it) only coasts on its
    velocity: with a positive learning rate that is bit for bit the step
    an all-zero gradient gives, since ``v - 0.0`` is ``v``, signed zeros
    included."""
    for name, arr in store.items():
        v = velocity.get(name)
        if v is None:
            v = np.zeros_like(arr)
            velocity[name] = v
        v *= momentum
        grad = grads.get(name)
        if grad is not None:
            v -= learning_rate * grad
        arr += v
