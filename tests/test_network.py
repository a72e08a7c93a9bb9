"""Network construction, forward pass, head attachment and checkpoints."""

from __future__ import annotations

import hashlib
import re
import struct

import numpy as np
import pytest

from ewclab.continual import estimate_fisher
from ewclab.errors import DimensionError, FormatError, HeadError
from ewclab.network import (
    FisherDiagonal,
    FisherProvenance,
    NetworkSpec,
    ParamStore,
    attach_head,
    entry_shapes,
    forward_heads,
    forward_logits,
    init_network,
    leaf_tensors,
    load_checkpoint,
    output_margin,
    save_checkpoint,
)
from ewclab.tensor import Graph


def small_spec(heads=None):
    return NetworkSpec(in_channels=2, trunk=(4, 4), heads=heads or {"taskA": 4})


def rewrite_header(path, key, value):
    """Replace the value of header line ``key`` in the checkpoint at
    ``path``, fixing up the header length."""
    data = path.read_bytes()
    (size,) = struct.unpack("<I", data[5:9])
    lines = data[9 : 9 + size].decode("utf-8").splitlines()
    header = "".join(
        (f"{key}={value}" if line.split("=", 1)[0] == key else line) + "\n" for line in lines
    ).encode("utf-8")
    path.write_bytes(data[:5] + struct.pack("<I", len(header)) + header + data[9 + size :])


class TestInit:
    def test_deterministic_per_seed(self):
        a = init_network(small_spec(), seed=5)
        b = init_network(small_spec(), seed=5)
        for name in a:
            assert a[name].tobytes() == b[name].tobytes()

    def test_different_seed_differs(self):
        a = init_network(small_spec(), seed=5)
        b = init_network(small_spec(), seed=6)
        assert a["trunk.0.kernels"].tobytes() != b["trunk.0.kernels"].tobytes()

    def test_biases_zero(self):
        store = init_network(small_spec(), seed=1)
        for name in store:
            if name.endswith("bias"):
                assert np.all(store[name] == 0.0)

    def test_he_variance_fan_in_18(self):
        # first conv over 2 channels: fan_in = 2 * 9 = 18; need >= 1000 draws
        spec = NetworkSpec(in_channels=2, trunk=(64,), heads={"taskA": 4})
        store = init_network(spec, seed=11)
        kernels = store["trunk.0.kernels"]
        assert kernels.size == 64 * 2 * 9 >= 1000
        target = 2.0 / 18.0
        assert abs(kernels.var() - target) < 0.3 * target

    def test_entry_order_and_flat_indexing(self):
        store = init_network(small_spec(), seed=0)
        names = list(store)
        assert names == [
            "trunk.0.kernels", "trunk.0.bias",
            "trunk.1.kernels", "trunk.1.bias",
            "head.taskA.weights", "head.taskA.bias",
        ]
        expect = np.concatenate([store[name].reshape(-1) for name in names])
        assert store.flat().tobytes() == expect.tobytes()


class TestForward:
    def test_zero_params_give_zero_logits(self):
        store = init_network(small_spec(), seed=0)
        zeroed = ParamStore({n: np.zeros_like(store[n]) for n in store}, spec=store.spec)
        logits = forward_heads(zeroed, np.ones((2, 9, 9)), ("taskA",))[0]
        assert np.all(logits == 0.0)

    def test_output_spatial_size(self):
        # 3 trunk convs of 3x3 plus a 1x1 head: 17 -> 11
        spec = NetworkSpec(in_channels=2, trunk=(3, 3, 3), heads={"taskA": 4})
        store = init_network(spec, seed=2)
        rng = np.random.default_rng(0)
        logits = forward_heads(store, rng.normal(size=(2, 17, 17)), ("taskA",))[0]
        assert logits.shape == (4, 11, 11)
        assert output_margin(spec) == 3

    def test_pure_function_bitwise(self):
        store = init_network(small_spec(), seed=3)
        patch = np.random.default_rng(1).normal(size=(2, 8, 8))
        a = forward_heads(store, patch, ("taskA",))[0]
        b = forward_heads(store, patch, ("taskA",))[0]
        assert a.tobytes() == b.tobytes()

    def test_unknown_head(self):
        store = init_network(small_spec(), seed=0)
        with pytest.raises(HeadError, match="nope"):
            forward_heads(store, np.zeros((2, 9, 9)), ("nope",))

    def test_every_entry_point_raises_the_same_unknown_head_text(self):
        store = init_network(small_spec({"taskA": 4, "taskB": 2}), seed=0)
        patch = np.zeros((2, 9, 9))
        calls = [
            lambda: forward_logits(leaf_tensors(store, Graph()), store.spec, patch, "nope"),
            lambda: forward_heads(store, patch, ("taskA", "nope")),
            lambda: estimate_fisher(store, [(patch, np.zeros(25, dtype=int))], "nope"),
        ]
        for call in calls:
            with pytest.raises(HeadError) as raised:
                call()
            assert str(raised.value) == "unknown head 'nope'; have ['taskA', 'taskB']"

    def test_patch_too_small(self):
        store = init_network(small_spec(), seed=0)
        with pytest.raises(DimensionError):
            forward_heads(store, np.zeros((2, 4, 4)), ("taskA",))


    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_equal_to_the_graph_forward(self, seed):
        rng = np.random.default_rng(seed)
        heads = {"taskA": int(rng.integers(2, 5))}
        if seed % 2:
            heads["taskB"] = 2
        spec = NetworkSpec(
            in_channels=int(rng.integers(1, 4)),
            trunk=tuple(int(w) for w in rng.integers(1, 13, size=rng.integers(1, 4))),
            heads=heads,
        )
        store = init_network(spec, seed=seed)
        for name in store:  # nonzero biases, so relu sees both signs
            if name.endswith("bias"):
                store[name][...] = rng.normal(size=store[name].shape)
        field = 2 * output_margin(spec) + 1
        for h, w in [(field, field), (field, field + 5), (field + 11, field + 3)]:
            patch = rng.normal(size=(spec.in_channels, h, w))
            shared = forward_heads(store, patch, list(heads)[::-1])
            for head, logits in zip(list(heads)[::-1], shared):
                graph = forward_logits(leaf_tensors(store, Graph()), spec, patch, head).values
                assert forward_heads(store, patch, (head,))[0].tobytes() == graph.tobytes()
                assert logits.tobytes() == graph.tobytes()

    def test_heads_are_checked_before_any_conv(self, monkeypatch):
        from ewclab import network

        spec = NetworkSpec(in_channels=2, trunk=(3, 3), heads={"taskA": 4, "taskB": 2})
        store = init_network(spec, seed=0)
        convs = []
        conv_forward = network.conv_forward

        def counted(x, kernels, bias):
            convs.append(kernels.shape)
            return conv_forward(x, kernels, bias)

        monkeypatch.setattr(network, "conv_forward", counted)
        with pytest.raises(HeadError, match="nope"):
            forward_heads(store, np.zeros((2, 9, 9)), ["taskA", "nope"])
        assert convs == []
        # one trunk pass, then one 1x1 conv per head
        forward_heads(store, np.zeros((2, 9, 9)), ["taskB", "taskA"])
        assert convs == [(3, 2, 3, 3), (3, 3, 3, 3), (2, 3, 1, 1), (4, 3, 1, 1)]


class TestAttachHead:
    def test_trunk_untouched_and_old_head_identical(self):
        store = init_network(small_spec(), seed=4)
        patch = np.random.default_rng(2).normal(size=(2, 9, 9))
        before = forward_heads(store, patch, ("taskA",))[0]
        grown = attach_head(store, "taskB", 2, seed=99)
        for name in store:
            assert grown[name].tobytes() == store[name].tobytes()
        after = forward_heads(grown, patch, ("taskA",))[0]
        assert before.tobytes() == after.tobytes()

    def test_new_entries_present_with_fresh_indices(self):
        store = init_network(small_spec(), seed=4)
        grown = attach_head(store, "taskB", 2, seed=99)
        assert "head.taskB.weights" in grown and "head.taskB.bias" in grown
        width = store.spec.trunk[-1]
        assert grown.flat().size == store.flat().size + 2 * width + 2
        # appended entries keep the earlier entries' order
        assert list(grown)[: len(store)] == list(store)

    def test_duplicate_head_rejected(self):
        store = init_network(small_spec(), seed=4)
        with pytest.raises(HeadError, match="taskA"):
            attach_head(store, "taskA", 4, seed=0)

    def test_original_store_not_mutated_by_training_the_copy(self):
        store = init_network(small_spec(), seed=4)
        grown = attach_head(store, "taskB", 2, seed=99)
        grown["trunk.0.kernels"][:] = 0.0
        assert not np.all(store["trunk.0.kernels"] == 0.0)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        store = init_network(small_spec(), seed=7)
        path = tmp_path / "net.ckpt"
        save_checkpoint(store, path, metadata={"regime": "dm-a", "seed": "7", "epoch": "20"})
        ckpt = load_checkpoint(path)
        assert list(ckpt.params) == list(store)
        for name in store:
            assert ckpt.params[name].tobytes() == store[name].tobytes()
        assert ckpt.metadata == {"regime": "dm-a", "seed": "7", "epoch": "20"}
        assert ckpt.params.spec.heads == {"taskA": 4}
        assert ckpt.fisher is None

    def test_save_load_save_identical_bytes(self, tmp_path):
        store = init_network(small_spec(), seed=8)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(store, p1, metadata={"k": "v"})
        save_checkpoint(load_checkpoint(p1).params, p2, metadata={"k": "v"})
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_magic(self, tmp_path):
        store = init_network(small_spec(), seed=7)
        path = tmp_path / "net.ckpt"
        save_checkpoint(store, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        store = init_network(small_spec(), seed=7)
        path = tmp_path / "net.ckpt"
        save_checkpoint(store, path)
        data = bytearray(path.read_bytes())
        data[4] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)

    def test_truncation_reports_offset(self, tmp_path):
        store = init_network(small_spec(), seed=7)
        path = tmp_path / "net.ckpt"
        save_checkpoint(store, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError, match="byte offset"):
            load_checkpoint(path)

    def test_fisher_payload_round_trip(self, tmp_path):
        store = init_network(small_spec(), seed=7)
        rng = np.random.default_rng(3)
        fisher = FisherDiagonal(
            ParamStore({name: rng.uniform(0.0, 2.0, size=values.shape) for name, values in store.items()}),
            FisherProvenance("train_a", "taskA", "empirical", 32),
        )
        path = tmp_path / "net.ckpt"
        save_checkpoint(store, path, metadata={"regime": "dm-a"}, fisher=fisher)
        ckpt = load_checkpoint(path)
        assert ckpt.fisher is not None
        assert ckpt.fisher.values.tobytes() == fisher.values.tobytes()
        assert list(ckpt.fisher.importance) == list(fisher.importance)
        for name, values in fisher.importance.items():
            assert ckpt.fisher.importance[name].shape == values.shape
        assert ckpt.fisher.provenance.mode == "empirical"
        assert ckpt.fisher.provenance.samples == 32
        assert ckpt.metadata == {"regime": "dm-a"}

    def test_failed_save_keeps_the_file_it_would_replace(self, tmp_path):
        from types import SimpleNamespace

        store = init_network(small_spec(), seed=7)
        path = tmp_path / "net.ckpt"
        save_checkpoint(store, path, metadata={"regime": "dm-a"})
        before = path.read_bytes()
        with pytest.raises(FormatError, match="reserved"):
            save_checkpoint(store, path, metadata={"trunk": "x"})

        # a failure after writing started (the header and the parameters
        # are written, then an importance's bytes cannot be read) leaves
        # the old file too
        class BrokenArray:
            def __init__(self, shape):
                self.shape, self.ndim = shape, len(shape)

            def astype(self, *args, **kwargs):
                raise OSError("disk gone")

        fisher = SimpleNamespace(
            provenance=FisherProvenance("train_a", "taskA", "empirical", 1),
            importance={name: BrokenArray(values.shape) for name, values in store.items()},
        )
        with pytest.raises(OSError, match="disk gone"):
            save_checkpoint(store, path, fisher=fisher)
        assert path.read_bytes() == before
        assert load_checkpoint(path).metadata == {"regime": "dm-a"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.ckpt"]

    def test_reserved_metadata_key_rejected(self, tmp_path):
        store = init_network(small_spec(), seed=7)
        with pytest.raises(FormatError, match="reserved"):
            save_checkpoint(store, tmp_path / "x.ckpt", metadata={"entries": "1"})

    @pytest.mark.parametrize("key,value", [
        ("note", "a\nb"), ("note", "a\rb"), ("note", "a\x85b"), ("note", "a\u2028b"), ("a=b", "c"), ("#note", "c"),
    ], ids=["newline", "carriage-return", "next-line", "line-separator", "equals-in-key", "comment-key"])
    def test_metadata_that_would_not_read_back_is_refused_before_any_file(self, tmp_path, key, value):
        store = init_network(small_spec(), seed=7)
        with pytest.raises(FormatError, match="metadata"):
            save_checkpoint(store, tmp_path / "x.ckpt", metadata={key: value})
        assert list(tmp_path.iterdir()) == []

    def test_metadata_reads_back_as_itself(self, tmp_path):
        metadata = {" spaced ": " a=b ", "note#": "#x", "": ""}
        path = tmp_path / "x.ckpt"
        save_checkpoint(init_network(small_spec(), seed=7), path, metadata=metadata)
        assert load_checkpoint(path).metadata == metadata

    @pytest.mark.parametrize("key,value", [
        ("in_channels", "two"), ("trunk", "a"), ("heads", "taskA"), ("heads", "taskA:x"),
        ("entries", "abc"), ("fisher_entries", "4x"), ("fisher_samples", "x"),
    ])
    def test_unparsable_header_value_names_the_key(self, tmp_path, key, value):
        store = init_network(small_spec(), seed=7)
        path = tmp_path / "net.ckpt"
        save_checkpoint(store, path, fisher=FisherDiagonal.ones_like(store))
        rewrite_header(path, key, value)
        with pytest.raises(FormatError, match=key):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value,entry", [
        ("trunk", "4,4,4", "trunk.2.kernels"),  # missing
        ("trunk", "4", "trunk.1.kernels"),  # extra
        ("trunk", "4,5", "trunk.1.kernels"),  # misshaped
        ("in_channels", "3", "trunk.0.kernels"),
        ("heads", "taskA:4,taskB:2", "head.taskB.weights"),
        ("heads", "taskA:3", "head.taskA.weights"),
    ])
    def test_header_spec_unlike_the_entries_names_the_entry(self, tmp_path, key, value, entry):
        store = init_network(small_spec(), seed=7)
        path = tmp_path / "net.ckpt"
        save_checkpoint(store, path)
        rewrite_header(path, key, value)
        with pytest.raises(FormatError, match=re.escape(repr(entry))):
            load_checkpoint(path)

    @pytest.mark.parametrize("spec,message", [
        (NetworkSpec(in_channels=2, trunk=(), heads={"taskA": 4}), "trunk needs at least one layer"),
        (NetworkSpec(in_channels=0, trunk=(4,), heads={"taskA": 4}), "in_channels must be positive"),
        (NetworkSpec(in_channels=2, trunk=(4,), heads={"taskA": 1}), "'taskA' needs >= 2 classes"),
    ], ids=["empty-trunk", "no-input-channels", "one-class-head"])
    def test_header_spec_that_does_not_validate_is_refused_at_load(self, tmp_path, spec, message):
        # save writes what it is given; load checks the spec as init_network does
        store = ParamStore({name: np.zeros(shape) for name, shape in entry_shapes(spec).items()}, spec=spec)
        path = tmp_path / "net.ckpt"
        save_checkpoint(store, path)
        with pytest.raises(FormatError, match=re.escape(f"{path} header: ") + ".*" + re.escape(message)):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,entry", [
        (lambda entries: entries.pop("head.taskA.bias"), "head.taskA.bias"),
        (lambda entries: entries.update(extra=np.zeros(2)), "extra"),
        (lambda entries: entries.update({"trunk.1.kernels": np.zeros((4, 4, 1, 1))}), "trunk.1.kernels"),
        (lambda entries: entries.update({"trunk.0.bias": np.zeros(5)}), "trunk.0.bias"),
    ], ids=["missing", "extra", "kernel-shape", "bias-shape"])
    def test_entries_unlike_the_spec_names_the_entry(self, tmp_path, edit, entry):
        store = init_network(small_spec(), seed=7)
        entries = dict(store)
        edit(entries)
        path = tmp_path / "net.ckpt"
        save_checkpoint(ParamStore(entries, spec=store.spec), path)
        with pytest.raises(FormatError, match=re.escape(repr(entry))):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,entry", [
        (lambda entries: entries.pop("trunk.1.bias"), "trunk.1.bias"),
        (lambda entries: entries.update(extra=np.ones(2)), "extra"),
        (lambda entries: entries.update({"head.taskA.bias": np.ones(3)}), "head.taskA.bias"),
    ], ids=["missing", "extra", "misshaped"])
    def test_fisher_payload_unlike_the_parameters_names_the_entry(self, tmp_path, edit, entry, save_unchecked):
        store = init_network(small_spec(), seed=7)
        entries = dict(FisherDiagonal.ones_like(store).importance)
        edit(entries)
        path = tmp_path / "net.ckpt"
        save_unchecked(store, path, fisher=FisherDiagonal(ParamStore(entries), FisherProvenance("", "", "", 0)))
        with pytest.raises(FormatError, match=re.escape(repr(entry)) + ".*Fisher payload"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,entry", [
        (lambda entries: entries.pop("trunk.1.bias"), "trunk.1.bias"),
        (lambda entries: entries.update(extra=np.ones(2)), "extra"),
        (lambda entries: entries.update({"head.taskA.bias": np.ones(3)}), "head.taskA.bias"),
    ], ids=["missing", "extra", "misshaped"])
    def test_fisher_payload_unlike_the_parameters_is_not_saved(self, tmp_path, edit, entry):
        store = init_network(small_spec(), seed=7)
        entries = dict(FisherDiagonal.ones_like(store).importance)
        edit(entries)
        fisher = FisherDiagonal(ParamStore(entries), FisherProvenance("", "", "", 0))
        with pytest.raises(FormatError, match=re.escape(repr(entry)) + ".*Fisher payload"):
            save_checkpoint(store, tmp_path / "net.ckpt", fisher=fisher)
        assert list(tmp_path.iterdir()) == []  # no file and no .tmp

    def test_entry_size_beyond_int64_reads_as_truncation(self, tmp_path):
        # rank 8 with every dim 65536: 2**128 values, which wraps to 0 in
        # int64 arithmetic
        store = init_network(small_spec(), seed=7)
        path = tmp_path / "net.ckpt"
        save_checkpoint(store, path)
        data = path.read_bytes()
        (size,) = struct.unpack("<I", data[5:9])
        name = b"trunk.0.kernels"
        rank_at = 9 + size + 4 + len(name)
        assert data[9 + size + 4 : rank_at] == name and data[rank_at] == 4
        huge = struct.pack("<B8I", 8, *[65536] * 8)
        path.write_bytes(data[:rank_at] + huge + data[rank_at + 1 + 4 * 4 :])
        with pytest.raises(FormatError, match="truncated checkpoint while reading payload of 'trunk.0.kernels'"):
            load_checkpoint(path)

    def test_file_bytes_are_pinned(self, tmp_path):
        # hand-valued entries, importances and metadata: any change to
        # these bytes is a format change, which needs a new
        # CHECKPOINT_VERSION
        spec = NetworkSpec(in_channels=2, trunk=(3,), heads={"taskA": 2})
        shapes = {"trunk.0.kernels": (3, 2, 3, 3), "trunk.0.bias": (3,),
                  "head.taskA.weights": (2, 3, 1, 1), "head.taskA.bias": (2,)}
        store = ParamStore(
            {name: np.arange(np.prod(shape)).reshape(shape) / 8.0 - 1.0 for name, shape in shapes.items()},
            spec=spec,
        )
        fisher = FisherDiagonal(
            ParamStore({name: np.arange(np.prod(shape)).reshape(shape) * 0.5 for name, shape in shapes.items()}),
            FisherProvenance("train_a", "taskA", "sampled", 64),
        )
        path = tmp_path / "pinned.ckpt"
        save_checkpoint(store, path, metadata={"regime": "dm-a", "seed": "7"}, fisher=fisher)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "bbff012b3dcbbda132fd75f189e4c35413a4265fcdfc8912b7258f4df221217b"
        )
