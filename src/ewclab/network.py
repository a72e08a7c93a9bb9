"""Patch-based segmentation network: shared conv trunk, per-task heads,
parameter store and bit-exact checkpoint persistence.

The trunk is a stack of valid 3x3 convolutions with ReLU; each head is a
1x1 convolution over the last trunk feature map, so every head reads the
same shared representation.  Parameters live in a :class:`ParamStore`
whose insertion order defines a stable flat index space [0, K): the
Fisher diagonal and anchor snapshots align to it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from .atomic import atomic_open
from .errors import DimensionError, FormatError, HeadError
from .tensor import Graph, GradientMap, Tensor, conv2d, relu

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

    Mapping name -> float64 array.  Entry order assigns each parameter a
    contiguous flat index range; ranges are disjoint and cover [0, K).
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

    def __setitem__(self, name: str, values: Array) -> None:
        """Replace an existing entry in place; shape must match so flat
        indexing stays stable.  New entries go through :meth:`add`."""
        if name not in self._entries:
            raise HeadError(f"unknown parameter entry {name!r}")
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != self._entries[name].shape:
            raise DimensionError(
                f"entry {name!r} shape {self._entries[name].shape} cannot become {arr.shape}"
            )
        self._entries[name][...] = arr

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_params(self) -> int:
        return sum(a.size for a in self._entries.values())

    def entry_table(self) -> list[tuple[str, tuple[int, ...], int]]:
        """(name, shape, flat offset) per entry, in store order."""
        table = []
        offset = 0
        for name, arr in self._entries.items():
            table.append((name, arr.shape, offset))
            offset += arr.size
        return table

    def flat(self) -> Array:
        """Concatenated copy of all entries in flat-index order."""
        if not self._entries:
            return np.zeros(0)
        return np.concatenate([a.reshape(-1) for a in self._entries.values()])


def _he_kernels(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Array:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def init_network(spec: NetworkSpec, seed: int) -> ParamStore:
    """He-initialized parameters (zero-mean Gaussian, variance 2/fan_in)
    for kernels and head weights, zero biases; deterministic per seed."""
    spec.validate()
    rng = np.random.default_rng(seed)
    store = ParamStore(spec=spec.copy())
    prev = spec.in_channels
    for i, width in enumerate(spec.trunk):
        store.add(f"trunk.{i}.kernels", _he_kernels(rng, (width, prev, 3, 3), prev * 9))
        store.add(f"trunk.{i}.bias", np.zeros(width))
        prev = width
    for name, classes in spec.heads.items():
        store.add(f"head.{name}.weights", _he_kernels(rng, (classes, prev, 1, 1), prev))
        store.add(f"head.{name}.bias", np.zeros(classes))
    return store


def attach_head(store: ParamStore, head_name: str, classes: int, seed: int) -> ParamStore:
    """New store with trunk and existing heads copied bit-for-bit and a
    freshly initialized head appended (fresh flat indices at the end)."""
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


def head_entry_names(head: str) -> tuple[str, str]:
    return f"head.{head}.weights", f"head.{head}.bias"


def leaf_tensors(store: ParamStore, graph: Graph, names: list[str] | None = None) -> dict[str, Tensor]:
    """Named leaf tensors for the given entries (all entries if None)."""
    picked = list(store) if names is None else names
    return {name: Tensor.param(name, store[name], graph) for name in picked}


def forward_names(spec: NetworkSpec, head: str) -> list[str]:
    """Entries participating in a forward pass through ``head``."""
    if head not in spec.heads:
        raise HeadError(f"unknown head {head!r}; have {sorted(spec.heads)}")
    names = []
    for i in range(len(spec.trunk)):
        names += [f"trunk.{i}.kernels", f"trunk.{i}.bias"]
    names += list(head_entry_names(head))
    return names


def forward_logits(leaves: Mapping[str, Tensor], spec: NetworkSpec, patch: Array, head: str) -> Tensor:
    """Build the logits graph for one patch using pre-made leaf tensors
    (shared leaves let a whole batch accumulate into one GradientMap)."""
    wname, bname = head_entry_names(head)
    graph = leaves[wname].graph
    x = Tensor.const(np.asarray(patch, dtype=np.float64), graph)
    for i in range(len(spec.trunk)):
        x = relu(conv2d(x, leaves[f"trunk.{i}.kernels"], leaves[f"trunk.{i}.bias"]))
    return conv2d(x, leaves[wname], leaves[bname])


def forward_pass(store: ParamStore, patch: Array, head: str) -> Tensor:
    """Per-pixel logits [classes, H', W'] for one patch; a pure function
    of (params, patch).  H' = H - 2 * len(trunk), likewise W'."""
    spec = store.spec
    if spec is None:
        raise HeadError("store has no network spec")
    names = forward_names(spec, head)
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
    graph = Graph()
    leaves = leaf_tensors(store, graph, names)
    return forward_logits(leaves, spec, patch, head)


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
    fisher: "object | None" = None  # continual.FisherDiagonal when present


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
            f"fisher_entries={len(fisher.entry_table)}",
            f"fisher_mode={prov.mode}",
            f"fisher_head={prov.head}",
            f"fisher_dataset={prov.dataset_id}",
            f"fisher_samples={prov.samples}",
        ]
    for key in metadata:
        if key in RESERVED_HEADER_KEYS:
            raise FormatError(f"metadata key {key!r} is reserved by the checkpoint format")
        if "=" in key or "\n" in key or "\n" in str(metadata[key]):
            raise FormatError(f"metadata key/value must be single-line without '=': {key!r}")
        lines.append(f"{key}={metadata[key]}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _write_entry(fh, name: str, values: Array) -> None:
    raw = name.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)
    fh.write(struct.pack("<B", values.ndim))
    for d in values.shape:
        fh.write(struct.pack("<I", d))
    fh.write(values.astype("<f8", copy=False).tobytes())


def save_checkpoint(store: ParamStore, path, metadata: dict[str, str] | None = None, fisher=None) -> None:
    """Write a bit-exact checkpoint; optionally embeds a Fisher payload.

    The bytes go to a temporary file beside ``path`` that then replaces
    it, so a save that fails or is interrupted leaves any earlier file at
    ``path`` as it was.
    """
    if store.spec is None:
        raise FormatError("cannot checkpoint a store without a network spec")
    header = _dump_header(store.spec, len(store), metadata or {}, fisher)
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<B", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for name, arr in store.items():
            _write_entry(fh, name, arr)
        if fisher is not None:
            fh.write(FISHER_SENTINEL)
            fh.write(struct.pack("<I", len(fisher.entry_table)))
            for name, values in fisher.to_entries():
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


def _read_entry(r: _Reader) -> tuple[str, Array]:
    name_len = r.u32("entry name length")
    name = r.take(name_len, "entry name").decode("utf-8")
    rank = r.u8(f"rank of {name!r}")
    dims = tuple(r.u32(f"dim {i} of {name!r}") for i in range(rank))
    count = int(np.prod(dims, dtype=np.int64)) if dims else 1
    payload = r.take(count * 8, f"payload of {name!r}")
    return name, np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)


def _parse_header(text: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for line in text.splitlines():
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"malformed header line {line!r}")
        key, value = line.split("=", 1)
        fields[key] = value
    return fields


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; bad magic, version or truncation raise
    :class:`FormatError` with the failing byte offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data)
    magic = r.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}", offset=0)
    version = r.u8("version")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    header_len = r.u32("header length")
    header = _parse_header(r.take(header_len, "header").decode("utf-8"))
    for key in ("in_channels", "trunk", "heads", "entries"):
        if key not in header:
            raise FormatError(f"header missing {key!r}")
    spec = NetworkSpec(
        in_channels=int(header["in_channels"]),
        trunk=tuple(int(w) for w in header["trunk"].split(",") if w),
        heads={
            part.split(":")[0]: int(part.split(":")[1])
            for part in header["heads"].split(",")
            if part
        },
    )
    store = ParamStore(spec=spec)
    for _ in range(int(header["entries"])):
        name, values = _read_entry(r)
        store.add(name, values)

    fisher = None
    if "fisher_entries" in header:
        sentinel = r.take(len(FISHER_SENTINEL), "fisher sentinel")
        if sentinel != FISHER_SENTINEL:
            raise FormatError(
                f"bad fisher sentinel {sentinel!r}", offset=r.pos - len(FISHER_SENTINEL)
            )
        count = r.u32("fisher entry count")
        if count != int(header["fisher_entries"]):
            raise FormatError(
                f"fisher entry count {count} != header {header['fisher_entries']}"
            )
        entries = [_read_entry(r) for _ in range(count)]
        from .continual import FisherDiagonal, FisherProvenance  # avoids an import cycle

        fisher = FisherDiagonal.from_entries(
            entries,
            FisherProvenance(
                dataset_id=header.get("fisher_dataset", ""),
                head=header.get("fisher_head", ""),
                mode=header.get("fisher_mode", ""),
                samples=int(header.get("fisher_samples", 0)),
            ),
        )
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
    """Classic momentum step, applied to entries in store order; entries
    missing from ``grads`` see a zero gradient (their velocity decays)."""
    for name, arr in store.items():
        v = velocity.get(name)
        if v is None:
            v = np.zeros_like(arr)
            velocity[name] = v
        g = grads.get(name)
        v *= momentum
        if g is not None:
            v -= learning_rate * g
        arr += v
