"""Phantom generator, normalization, splits and dataset files."""

from __future__ import annotations

import builtins
import dataclasses
import errno

import numpy as np
import pytest

from ewclab.errors import ConfigError, DataError, DegenerateInputError, FormatError
from ewclab.synthtasks import (
    CSF,
    GM,
    WM,
    GeneratorConfig,
    SampleBank,
    export_images,
    generate_sample,
    make_splits,
    manifest_text,
    parse_manifest,
    write_dataset,
    zscore_normalize,
)

CONFIG = GeneratorConfig(image_size=48)


def all_seeds(m):
    return m.train_a + m.train_b + m.validation


class TestGenerateSample:
    def test_deterministic(self):
        a = generate_sample(123, CONFIG)
        b = generate_sample(123, CONFIG)
        assert a.channels.tobytes() == b.channels.tobytes()
        assert a.labels_a.tobytes() == b.labels_a.tobytes()
        assert a.labels_b.tobytes() == b.labels_b.tobytes()

    def test_no_lesions_when_count_range_zero(self):
        config = dataclasses.replace(CONFIG, lesion_count=(0, 0))
        sample = generate_sample(7, config)
        assert not sample.labels_b.any()

    def test_lesions_only_inside_wm_over_1000_seeds(self):
        for seed in range(1000):
            s = generate_sample(seed, CONFIG)
            assert np.all(s.labels_a[s.labels_b == 1] == WM)

    def test_regions_nested(self):
        for seed in range(25):
            s = generate_sample(seed, CONFIG)
            # nesting: WM pixels sit inside the GM enclosure, which sits
            # inside the CSF enclosure
            assert {0, 1, 2, 3} >= set(np.unique(s.labels_a).tolist())
            wm = s.labels_a == WM
            gm_or_in = s.labels_a >= GM
            csf_or_in = s.labels_a >= CSF
            assert wm.sum() > 0
            assert np.all(gm_or_in[wm])
            assert np.all(csf_or_in[gm_or_in])

    def test_channels_normalized(self):
        s = generate_sample(9, CONFIG)
        for c in range(2):
            assert abs(s.channels[c].mean()) < 1e-9
            assert abs(s.channels[c].std() - 1.0) < 1e-9

    def test_nesting_violation_rejected(self):
        with pytest.raises(ConfigError, match="nested"):
            dataclasses.replace(CONFIG, wm_radius=(0.6, 0.7)).validate()


class TestZscore:
    def test_two_point_symmetry(self):
        out = zscore_normalize(np.array([[0.0, 2.0]]))
        assert np.allclose(out, [[-1.0, 1.0]])

    def test_idempotent_within_rounding(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(16, 16))
        once = zscore_normalize(x)
        twice = zscore_normalize(once)
        assert np.max(np.abs(once - twice)) < 1e-12

    def test_constant_channel_rejected(self):
        with pytest.raises(DegenerateInputError):
            zscore_normalize(np.full((4, 4), 3.0))


class TestSplits:
    def test_disjoint_and_counted(self):
        m = make_splits((22, 22, 25), master_seed=3)
        seeds = all_seeds(m)
        assert len(seeds) == 69
        assert len(set(seeds)) == 69

    def test_deterministic(self):
        assert make_splits((5, 5, 5), 42) == make_splits((5, 5, 5), 42)

    def test_paper_scale_counts(self):
        m = make_splits((87, 88, 100), master_seed=1)
        assert len(all_seeds(m)) == 275
        assert len(set(all_seeds(m))) == 275

    def test_bad_counts(self):
        with pytest.raises(DataError):
            make_splits((0, 5, 5), 1)


class TestDatasetFiles:
    def test_manifest_round_trip(self):
        m = make_splits((3, 3, 2), 17)
        text = manifest_text(m, CONFIG)
        m2, config2 = parse_manifest(text.encode(), "manifest.txt")
        assert m2 == m
        assert config2 == CONFIG

    def test_manifest_hash_mismatch_detected(self):
        m = make_splits((2, 2, 2), 17)
        text = manifest_text(m, CONFIG).replace(f"config_hash={CONFIG.digest()}", "config_hash=deadbeef")
        with pytest.raises(FormatError, match="config_hash"):
            parse_manifest(text.encode(), "manifest.txt")

    @pytest.mark.parametrize("split", ["train_a", "train_b", "validation"])
    def test_split_with_no_seed_names_the_file_and_key(self, split):
        # a comma list drops empty items, so "1,,2" parses but "" or ","
        # would leave the split with no image
        m = make_splits((2, 2, 2), 17)
        for empty in ("", " , "):
            text = "".join(f"{split}_seeds={empty}\n" if line.startswith(f"{split}_seeds=") else line
                           for line in manifest_text(m, CONFIG).splitlines(True))
            with pytest.raises(FormatError, match=f"^data/manifest.txt: key '{split}_seeds': "):
                parse_manifest(text.encode(), "data/manifest.txt")

    def test_image_export(self, tmp_path):
        m = make_splits((1, 1, 1), 5)
        write_dataset(tmp_path, m, CONFIG, images=True)
        pgms = list((tmp_path / "images").glob("*.pgm"))
        ppms = list((tmp_path / "images").glob("*.ppm"))
        assert pgms and ppms
        header = pgms[0].read_bytes()[:2]
        assert header == b"P5"


    def test_failed_image_export_leaves_no_partial_preview(self, tmp_path, monkeypatch):
        real_open = builtins.open

        class FullDisk:
            """A file that takes one write, then fails like a full disk."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        def failing_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return FullDisk(fh) if "w" in mode else fh

        monkeypatch.setattr(builtins, "open", failing_open)
        with pytest.raises(OSError, match="No space"):
            export_images(generate_sample(3, CONFIG), tmp_path / "s3")
        assert list(tmp_path.iterdir()) == []


class TestSampleBank:
    def test_caches(self):
        bank = SampleBank(make_splits((2, 2, 2), 11), CONFIG)
        assert bank.split("train_a") is bank.split("train_a")
