"""Deterministic synthetic task pair: nested multi-class tissue maps
(task A) and sparse hyperintense lesions inside the innermost tissue
(task B), on shared two-channel images.

Every sample is a pure function of (seed, config).  The three tissue
boundaries share one angular perturbation profile, so nesting holds by
construction; lesion masks are intersected with the innermost region, so
a lesion pixel always lies on that tissue.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path
import numpy as np

from .atomic import atomic_open, comma_list, parse_field, read_fields, write_text
from .errors import ConfigError, DataError, DegenerateInputError, FormatError

Array = np.ndarray

# task-A label values
BACKGROUND, CSF, GM, WM = 0, 1, 2, 3
# task-B label values
LESION = 1


@dataclass(frozen=True)
class TaskDef:
    """Binding between a task id, its head, its classes and its label map."""

    task_id: str
    head: str
    n_classes: int
    class_names: tuple[str, ...]
    label_field: str

    def labels_of(self, sample: "ScanSample") -> Array:
        return getattr(sample, self.label_field)

    @property
    def foreground(self) -> tuple[str, ...]:
        return self.class_names[1:]


TASK_A = TaskDef("a", "taskA", 4, ("background", "csf", "gm", "wm"), "labels_a")
TASK_B = TaskDef("b", "taskB", 2, ("background", "wml"), "labels_b")
TASKS = {"a": TASK_A, "b": TASK_B}


@dataclass(frozen=True)
class GeneratorConfig:
    """Phantom geometry and intensity model.

    Radii are fractions of image_size/2; the three tissue radius ranges
    must be strictly nested.  Intensities are class mean + Gaussian noise,
    z-scored per channel afterwards.
    """

    image_size: int = 64
    csf_radius: tuple[float, float] = (0.74, 0.86)
    gm_radius: tuple[float, float] = (0.50, 0.62)
    wm_radius: tuple[float, float] = (0.28, 0.40)
    boundary_amp: float = 0.05
    aspect: tuple[float, float] = (0.85, 1.15)
    center_jitter: float = 0.04
    # per-class means, indexed by task-A label: background, csf, gm, wm
    channel0_means: tuple[float, float, float, float] = (0.0, 0.2, 0.5, 0.8)
    channel1_means: tuple[float, float, float, float] = (0.0, 0.1, 0.45, 0.4)
    lesion_mean_c0: float = 0.75
    lesion_mean_c1: float = 0.62
    noise_std: float = 0.08
    lesion_count: tuple[int, int] = (1, 4)
    lesion_radius: tuple[float, float] = (1.5, 3.5)

    def validate(self) -> None:
        if self.image_size < 16:
            raise ConfigError(f"image_size too small: {self.image_size}")
        for lo, hi, nm in (
            (*self.csf_radius, "csf_radius"),
            (*self.gm_radius, "gm_radius"),
            (*self.wm_radius, "wm_radius"),
        ):
            if not 0 < lo <= hi < 1:
                raise ConfigError(f"{nm} range {lo, hi} outside (0, 1)")
        if not (self.wm_radius[1] < self.gm_radius[0] and self.gm_radius[1] < self.csf_radius[0]):
            raise ConfigError(
                "tissue radius ranges must be strictly nested: "
                f"wm {self.wm_radius} < gm {self.gm_radius} < csf {self.csf_radius}"
            )
        if self.noise_std <= 0:
            raise ConfigError("noise_std must be positive")
        if self.lesion_radius[0] < 1.0:
            raise ConfigError("lesion radius must be >= 1 pixel")
        if self.lesion_count[0] < 0 or self.lesion_count[0] > self.lesion_count[1]:
            raise ConfigError(f"bad lesion_count range {self.lesion_count}")
        if self.boundary_amp < 0 or self.boundary_amp >= 0.4:
            raise ConfigError(f"boundary_amp {self.boundary_amp} outside [0, 0.4)")

    def digest(self) -> str:
        text = ";".join(f"{k}={v}" for k, v in sorted(vars(self).items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ScanSample:
    """One synthetic case: two channels plus both task label maps."""

    channels: Array  # [2, H, W] z-scored float64
    labels_a: Array  # [H, W] in {0..3}
    labels_b: Array  # [H, W] in {0, 1}
    seed: int


def zscore_normalize(channel: Array) -> Array:
    """(x - mean) / std over all pixels; population std."""
    channel = np.asarray(channel, dtype=np.float64)
    std = channel.std()
    if std == 0.0:
        raise DegenerateInputError("channel has zero variance; cannot z-score")
    return (channel - channel.mean()) / std


def generate_sample(seed: int, config: GeneratorConfig) -> ScanSample:
    """Deterministic phantom for (seed, config); ``config`` has passed
    :meth:`GeneratorConfig.validate`."""
    rng = np.random.default_rng(seed)
    size = config.image_size
    half = size / 2.0

    cx = half + rng.uniform(-1.0, 1.0) * config.center_jitter * size
    cy = half + rng.uniform(-1.0, 1.0) * config.center_jitter * size
    aspect = rng.uniform(*config.aspect)
    r_csf = rng.uniform(*config.csf_radius) * half
    r_gm = rng.uniform(*config.gm_radius) * half
    r_wm = rng.uniform(*config.wm_radius) * half
    # one shared boundary profile keeps the rings strictly nested
    phases = rng.uniform(0.0, 2.0 * np.pi, size=2)
    amps = rng.uniform(0.3, 1.0, size=2) * config.boundary_amp

    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    dx = (xx - cx) / aspect
    dy = (yy - cy) * aspect
    rho = np.hypot(dx, dy)
    phi = np.arctan2(dy, dx)
    profile = 1.0 + amps[0] * np.sin(2.0 * phi + phases[0]) + amps[1] * np.sin(3.0 * phi + phases[1])

    labels_a = np.zeros((size, size), dtype=np.uint8)
    labels_a[rho < r_csf * profile] = CSF
    labels_a[rho < r_gm * profile] = GM
    labels_a[rho < r_wm * profile] = WM

    labels_b = np.zeros((size, size), dtype=np.uint8)
    wm_pixels = np.argwhere(labels_a == WM)
    n_lesions = int(rng.integers(config.lesion_count[0], config.lesion_count[1] + 1))
    if wm_pixels.size:
        for _ in range(n_lesions):
            cy_l, cx_l = wm_pixels[int(rng.integers(len(wm_pixels)))]
            radius = rng.uniform(*config.lesion_radius)
            disc = (yy - cy_l) ** 2 + (xx - cx_l) ** 2 <= radius**2
            labels_b[disc & (labels_a == WM)] = LESION

    mean0 = np.asarray(config.channel0_means)[labels_a]
    mean1 = np.asarray(config.channel1_means)[labels_a]
    lesion = labels_b == LESION
    mean0 = np.where(lesion, config.lesion_mean_c0, mean0)
    mean1 = np.where(lesion, config.lesion_mean_c1, mean1)
    ch0 = mean0 + rng.normal(0.0, config.noise_std, size=(size, size))
    ch1 = mean1 + rng.normal(0.0, config.noise_std, size=(size, size))
    channels = np.stack([zscore_normalize(ch0), zscore_normalize(ch1)])
    return ScanSample(channels=channels, labels_a=labels_a, labels_b=labels_b, seed=int(seed))


@dataclass(frozen=True)
class SplitManifest:
    """Disjoint per-split sample seeds plus the generator that made them."""

    train_a: tuple[int, ...]
    train_b: tuple[int, ...]
    validation: tuple[int, ...]
    master_seed: int

    def seeds_of(self, split: str) -> tuple[int, ...]:
        try:
            return getattr(self, split)
        except AttributeError:
            raise DataError(f"unknown split {split!r}") from None


def make_splits(counts: tuple[int, int, int], master_seed: int) -> SplitManifest:
    """Pairwise-disjoint deterministic seed lists; validation serves both
    tasks."""
    na, nb, nv = counts
    if min(na, nb, nv) < 1:
        raise DataError(f"split counts must be >= 1 each, got {counts}")
    rng = np.random.default_rng(master_seed)
    needed = na + nb + nv
    seeds: list[int] = []
    seen: set[int] = set()
    while len(seeds) < needed:
        for s in rng.integers(0, 2**63, size=needed):
            s = int(s)
            if s not in seen:
                seen.add(s)
                seeds.append(s)
                if len(seeds) == needed:
                    break
    return SplitManifest(
        train_a=tuple(seeds[:na]),
        train_b=tuple(seeds[na : na + nb]),
        validation=tuple(seeds[na + nb :]),
        master_seed=master_seed,
    )


# ---------------------------------------------------------------------------
# on-disk dataset: the manifest, plus PGM/PPM previews
# ---------------------------------------------------------------------------

# split order in the manifest and the previews
SPLITS = ("train_a", "train_b", "validation")


def manifest_text(manifest: SplitManifest, config: GeneratorConfig) -> str:
    lines = [
        f"master_seed={manifest.master_seed}",
        f"counts={len(manifest.train_a)},{len(manifest.train_b)},{len(manifest.validation)}",
        f"config_hash={config.digest()}",
    ]
    for key, value in sorted(vars(config).items()):
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"generator.{key}={value}")
    for split in SPLITS:
        lines.append(f"{split}_seeds=" + ",".join(str(s) for s in manifest.seeds_of(split)))
    return "\n".join(lines) + "\n"


# manifest key -> the generator setting it holds, and a parser into its default's type
_GENERATOR_KEYS = {
    f"generator.{key}": (key, comma_list(type(default[0])) if isinstance(default, tuple) else type(default))
    for key, default in vars(GeneratorConfig()).items()
}


def _seed_list(text: str) -> tuple[int, ...]:
    """A split's seeds: a comma list of at least one int."""
    seeds = comma_list(int)(text)
    if not seeds:
        raise ValueError("a split needs at least one seed")
    return seeds


def parse_manifest(data: bytes, where: str) -> tuple[SplitManifest, GeneratorConfig]:
    """The splits and generator settings of the manifest ``data`` read
    from ``where``; a malformed manifest, or a split with no seed, raises
    :class:`FormatError`."""
    fields = {key: value for _, key, value in read_fields(data, FormatError, where)}
    field = partial(parse_field, fields, FormatError, where)
    config = GeneratorConfig(**{
        name: field(key, parse) for key, (name, parse) in _GENERATOR_KEYS.items() if key in fields
    })
    seeds = [field(f"{split}_seeds", _seed_list) for split in SPLITS]
    manifest = SplitManifest(*seeds, field("master_seed", int))
    if fields.get("config_hash") not in (None, config.digest()):
        raise FormatError(f"{where}: config_hash does not match its generator fields")
    return manifest, config


def write_dataset(out_dir, manifest: SplitManifest, config: GeneratorConfig, images: bool = False) -> None:
    """Emit manifest.txt, from which every sample regenerates; optionally
    PGM channels / PPM label maps of a few samples per split for visual
    inspection."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_text(out / "manifest.txt", manifest_text(manifest, config))
    if images:
        img_dir = out / "images"
        img_dir.mkdir(exist_ok=True)
        for split in SPLITS:
            for seed in manifest.seeds_of(split)[:4]:
                export_images(generate_sample(seed, config), img_dir / f"{split}_{seed}")


LABEL_COLORS_A = np.array([[0, 0, 0], [60, 120, 216], [120, 200, 120], [240, 240, 240]], dtype=np.uint8)
LABEL_COLORS_B = np.array([[0, 0, 0], [230, 60, 60]], dtype=np.uint8)


def _write_netpbm(path: str, magic: str, pixels: Array) -> None:
    h, w = pixels.shape[:2]
    with atomic_open(path) as fh:
        fh.write(f"{magic}\n{w} {h}\n255\n".encode())
        fh.write(pixels.tobytes())


def export_images(sample: ScanSample, base_path) -> None:
    """PGM per channel (min-max scaled) and PPM per label map, each
    written atomically."""
    base = str(base_path)
    for c in range(sample.channels.shape[0]):
        ch = sample.channels[c]
        lo, hi = ch.min(), ch.max()
        gray = np.zeros_like(ch, dtype=np.uint8) if hi == lo else np.round((ch - lo) / (hi - lo) * 255).astype(np.uint8)
        _write_netpbm(f"{base}_ch{c}.pgm", "P5", gray)
    _write_netpbm(f"{base}_labels_a.ppm", "P6", LABEL_COLORS_A[sample.labels_a])
    _write_netpbm(f"{base}_labels_b.ppm", "P6", LABEL_COLORS_B[sample.labels_b])


class SampleBank:
    """Lazy split -> samples cache: a split's samples are generated from
    their manifest seeds on first use.  The training loop's data firewall
    (``harness.PlanData``) sits in front of it."""

    def __init__(self, manifest: SplitManifest, config: GeneratorConfig):
        self.manifest = manifest
        self.config = config
        self._cache: dict[str, list[ScanSample]] = {}

    def split(self, name: str) -> list[ScanSample]:
        if name not in self._cache:
            self._cache[name] = [generate_sample(s, self.config) for s in self.manifest.seeds_of(name)]
        return self._cache[name]
