"""Deterministic synthetic segmentation volumes with acquisition-style shift.

A volume is a short stack of slices containing elliptical blobs that drift
and breathe smoothly from slice to slice.  Blob geometry (and therefore the
mask) is a function of the volume seed alone; everything photometric --
intensities, gamma, blur, speckle, additive noise -- is driven by the domain.
Two domains with the same shape ranges therefore produce pixel-identical
masks for matched (volume_seed, slice_index) while the images differ, which
is what lets one domain stand in for a different scanner on the same anatomy.

Per-sample files use the "SDIM" binary layout; a dataset directory carries a
JSON manifest describing domains, splits, and volume grouping.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy.ndimage import uniform_filter

from .errors import ContractError, FormatError, ValidationError
from .params import check_number, check_seed

SLICES_PER_VOLUME = 10

# Stream tags so geometry and photometrics never share a generator.
_GEOMETRY_TAG = 0x67656F6D
_VOLUME_TAG = 0x766F6C70
_SLICE_TAG = 0x736C6963

_MAX_GEOMETRY_ATTEMPTS = 200
_FG_FRACTION_RANGE = (0.02, 0.5)
_MAX_DRIFT_PER_SLICE = 0.8  # pixels
_RADIUS_WOBBLE = 0.06


def _span(value) -> tuple[float, float]:
    """Scalar-or-range photometric field as an ordered (lo, hi) pair."""
    if isinstance(value, tuple):
        return value
    return (value, value)


@dataclass(frozen=True)
class DomainConfig:
    """Acquisition character of one scanner-like domain.

    Photometric fields (gamma, noise_sigma, speckle_sigma, blur_radius)
    accept either a fixed scalar or a (lo, hi) range sampled once per
    volume, so a single domain can span a family of acquisitions.
    """

    name: str
    image_size: int = 64
    num_blobs: tuple[int, int] = (1, 3)
    blob_radius: tuple[float, float] = (5.0, 14.0)
    fg_intensity: tuple[float, float] = (0.55, 0.85)
    bg_intensity: tuple[float, float] = (0.15, 0.35)
    gamma: float | tuple[float, float] = 1.0
    noise_sigma: float | tuple[float, float] = 0.02
    speckle_sigma: float | tuple[float, float] = 0.05
    blur_radius: int | tuple[int, int] = 1
    seed: int = 0

    def __post_init__(self):
        # Canonicalize JSON lists so round-tripped configs compare equal.
        for field_name in ("num_blobs", "blob_radius", "fg_intensity", "bg_intensity",
                           "gamma", "noise_sigma", "speckle_sigma", "blur_radius"):
            v = getattr(self, field_name)
            if isinstance(v, list):
                object.__setattr__(self, field_name, tuple(v))
        if self.image_size < 8:
            raise ValidationError(f"image_size {self.image_size} too small")
        check_seed(self.seed, f"domain {self.name!r} seed")
        lo, hi = self.num_blobs
        if not 1 <= lo <= hi:
            raise ValidationError(f"num_blobs range {self.num_blobs} invalid")
        rlo, rhi = self.blob_radius
        check_number(rlo, "blob_radius lower end", 1.0)
        check_number(rhi, "blob_radius upper end", rlo, high=self.image_size / 3)
        for label, value in (("fg_intensity", self.fg_intensity), ("bg_intensity", self.bg_intensity),
                             ("gamma", self.gamma), ("noise_sigma", self.noise_sigma),
                             ("speckle_sigma", self.speckle_sigma), ("blur_radius", self.blur_radius)):
            a, b = _span(value)
            check_number(a, f"{label} lower end", 0.0, above=label == "gamma")
            check_number(b, f"{label} upper end", a, high=1.0 if label.endswith("intensity") else None)


def default_source_domain(seed: int = 1001) -> DomainConfig:
    """Narrow single-site acquisition: speckled, low-contrast, sharp."""
    return DomainConfig(
        name="source",
        fg_intensity=(0.5, 0.7),
        bg_intensity=(0.25, 0.45),
        gamma=0.8,
        noise_sigma=0.02,
        speckle_sigma=0.18,
        blur_radius=0,
        seed=seed,
    )


def default_target_domain(seed: int = 2002) -> DomainConfig:
    """Same anatomy statistics as the source; shifted acquisition character."""
    return DomainConfig(
        name="target",
        fg_intensity=(0.42, 0.62),
        bg_intensity=(0.3, 0.5),
        gamma=2.2,
        noise_sigma=0.1,
        speckle_sigma=0.2,
        blur_radius=3,
        seed=seed,
    )


def default_pretrain_domain(seed: int = 3003) -> DomainConfig:
    """Wide randomized acquisition family for training generalist bases.

    Every photometric knob varies per volume across a span covering both
    default domains, standing in for the broad pretraining corpus that the
    narrow-domain fine-tuning methods then specialize away from.
    """
    return DomainConfig(
        name="pretrain",
        fg_intensity=(0.38, 0.88),
        bg_intensity=(0.12, 0.52),
        gamma=(0.7, 2.4),
        noise_sigma=(0.0, 0.12),
        speckle_sigma=(0.0, 0.22),
        blur_radius=(0, 3),
        seed=seed,
    )


@dataclass
class Sample:
    image: np.ndarray  # f32 [H, W] in [0, 1]
    mask: np.ndarray  # bool [H, W]
    volume_id: int
    slice_index: int
    domain: str = ""

    @property
    def foreground_fraction(self) -> float:
        return float(self.mask.mean())


@dataclass(frozen=True)
class _VolumeGeometry:
    centers: np.ndarray  # [n, 2] at slice 0
    radii: np.ndarray  # [n, 2] base semi-axes
    angles: np.ndarray  # [n]
    velocities: np.ndarray  # [n, 2] pixels per slice
    phases: np.ndarray  # [n] radius-wobble phase
    slices: int


def _volume_geometry(dom: DomainConfig, volume_seed: int) -> _VolumeGeometry:
    """Blob layout for one volume, independent of the domain's seed.

    Layouts whose mask would leave [0.02, 0.5] foreground on any slice are
    redrawn; the loop is deterministic, so every domain that shares the shape
    ranges lands on the same accepted layout.
    """
    rng = np.random.default_rng(np.random.SeedSequence([_GEOMETRY_TAG, volume_seed]))
    size = dom.image_size
    for _ in range(_MAX_GEOMETRY_ATTEMPTS):
        n = int(rng.integers(dom.num_blobs[0], dom.num_blobs[1] + 1))
        centers = rng.uniform(0.2 * size, 0.8 * size, size=(n, 2))
        radii = rng.uniform(dom.blob_radius[0], dom.blob_radius[1], size=(n, 2))
        angles = rng.uniform(0.0, np.pi, size=n)
        speed = rng.uniform(0.0, _MAX_DRIFT_PER_SLICE, size=n)
        heading = rng.uniform(0.0, 2 * np.pi, size=n)
        velocities = np.stack([speed * np.cos(heading), speed * np.sin(heading)], axis=1)
        phases = rng.uniform(0.0, 2 * np.pi, size=n)
        geo = _VolumeGeometry(centers, radii, angles, velocities, phases, SLICES_PER_VOLUME)
        fractions = [
            float(_render_mask(dom.image_size, geo, s).mean()) for s in range(geo.slices)
        ]
        if all(_FG_FRACTION_RANGE[0] <= f <= _FG_FRACTION_RANGE[1] for f in fractions):
            return geo
    raise ContractError(
        f"no admissible blob layout for volume_seed {volume_seed} in "
        f"{_MAX_GEOMETRY_ATTEMPTS} attempts; widen the config ranges"
    )


def _blob_support(size: int, center: np.ndarray, radii: np.ndarray, angle: float) -> np.ndarray:
    ys, xs = np.mgrid[0:size, 0:size]
    dx = xs - center[0]
    dy = ys - center[1]
    u = (dx * np.cos(angle) + dy * np.sin(angle)) / radii[0]
    v = (-dx * np.sin(angle) + dy * np.cos(angle)) / radii[1]
    return u * u + v * v <= 1.0


def _slice_blobs(geo: _VolumeGeometry, slice_index: int):
    wobble = 1.0 + _RADIUS_WOBBLE * np.sin(geo.phases + 2 * np.pi * slice_index / geo.slices)
    for i in range(geo.centers.shape[0]):
        yield geo.centers[i] + geo.velocities[i] * slice_index, geo.radii[i] * wobble[i], geo.angles[i]


def _render_mask(size: int, geo: _VolumeGeometry, slice_index: int) -> np.ndarray:
    mask = np.zeros((size, size), dtype=bool)
    for center, radii, angle in _slice_blobs(geo, slice_index):
        mask |= _blob_support(size, center, radii, angle)
    return mask


def generate_sample(dom: DomainConfig, volume_seed: int, slice_index: int) -> Sample:
    """One slice, fully determined by (dom, volume_seed, slice_index)."""
    if not 0 <= slice_index < SLICES_PER_VOLUME:
        raise ValidationError(
            f"slice_index {slice_index} outside [0, {SLICES_PER_VOLUME})"
        )
    return _render_slice(dom, _volume_geometry(dom, volume_seed), volume_seed, slice_index)


def generate_volume(dom: DomainConfig, volume_seed: int) -> list[Sample]:
    """All slices of one volume, equal to ``generate_sample`` slice by slice."""
    geo = _volume_geometry(dom, volume_seed)
    return [_render_slice(dom, geo, volume_seed, s) for s in range(SLICES_PER_VOLUME)]


def _render_slice(dom: DomainConfig, geo: _VolumeGeometry, volume_seed: int, slice_index: int) -> Sample:
    """One slice of the volume whose blob layout is ``geo``."""
    size = dom.image_size
    vol_rng = np.random.default_rng(np.random.SeedSequence([_VOLUME_TAG, dom.seed, volume_seed]))
    background = vol_rng.uniform(*dom.bg_intensity)
    blob_levels = vol_rng.uniform(*dom.fg_intensity, size=geo.centers.shape[0])

    # Ranged photometric fields sample once per volume, in this fixed order;
    # scalar fields consume no draws, so existing fixed-domain datasets keep
    # their exact bytes.
    def per_volume(value, integer=False):
        lo, hi = _span(value)
        if lo == hi:
            return lo
        if integer:
            return int(vol_rng.integers(int(lo), int(hi) + 1))
        return float(vol_rng.uniform(lo, hi))

    gamma = per_volume(dom.gamma)
    blur_radius = per_volume(dom.blur_radius, integer=True)
    speckle_sigma = per_volume(dom.speckle_sigma)
    noise_sigma = per_volume(dom.noise_sigma)

    image = np.full((size, size), background, dtype=np.float64)
    mask = np.zeros((size, size), dtype=bool)
    for i, (center, radii, angle) in enumerate(_slice_blobs(geo, slice_index)):
        support = _blob_support(size, center, radii, angle)
        image[support] = blob_levels[i]
        mask |= support

    slice_rng = np.random.default_rng(
        np.random.SeedSequence([_SLICE_TAG, dom.seed, volume_seed, slice_index])
    )
    image = image**gamma
    if blur_radius > 0:
        image = uniform_filter(image, size=2 * int(blur_radius) + 1, mode="reflect")
    if speckle_sigma > 0:
        image = image * (1.0 + speckle_sigma * slice_rng.standard_normal((size, size)))
    if noise_sigma > 0:
        image = image + noise_sigma * slice_rng.standard_normal((size, size))
    image = np.clip(image, 0.0, 1.0).astype(np.float32)
    return Sample(image=image, mask=mask, volume_id=volume_seed, slice_index=slice_index, domain=dom.name)


# -- SDIM sample files ---------------------------------------------------------

_MAGIC = b"SDIM"
_VERSION = 1
_HEADER = struct.Struct("<4sHHII")  # magic, version, reserved, height, width
_FOOTER = struct.Struct("<II")  # volume_id, slice_index


def sample_to_bytes(sample: Sample) -> bytes:
    h, w = sample.image.shape
    if sample.mask.shape != (h, w):
        raise ValidationError(f"mask shape {sample.mask.shape} != image shape {(h, w)}")
    parts = [
        _HEADER.pack(_MAGIC, _VERSION, 0, h, w),
        np.ascontiguousarray(sample.image, dtype="<f4").tobytes(),
        np.ascontiguousarray(sample.mask, dtype=np.uint8).tobytes(),
        _FOOTER.pack(sample.volume_id, sample.slice_index),
    ]
    return b"".join(parts)


def sample_from_bytes(blob: bytes, domain: str = "") -> Sample:
    if len(blob) < _HEADER.size:
        raise FormatError(f"truncated header: {len(blob)} bytes at offset 0")
    magic, version, _, h, w = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r} at offset 0")
    if version != _VERSION:
        raise FormatError(f"unsupported version {version} at offset 4")
    offset = _HEADER.size
    image_bytes = 4 * h * w
    if len(blob) < offset + image_bytes:
        raise FormatError(f"truncated image data at offset {offset}")
    image = np.frombuffer(blob, dtype="<f4", count=h * w, offset=offset).reshape(h, w).copy()
    offset += image_bytes
    if len(blob) < offset + h * w:
        raise FormatError(f"truncated mask data at offset {offset}")
    mask_raw = np.frombuffer(blob, dtype=np.uint8, count=h * w, offset=offset).reshape(h, w)
    if not np.isin(mask_raw, (0, 1)).all():
        raise FormatError(f"mask bytes outside {{0, 1}} at offset {offset}")
    offset += h * w
    if len(blob) < offset + _FOOTER.size:
        raise FormatError(f"truncated footer at offset {offset}")
    volume_id, slice_index = _FOOTER.unpack_from(blob, offset)
    offset += _FOOTER.size
    if len(blob) != offset:
        raise FormatError(f"trailing bytes at offset {offset}")
    return Sample(
        image=image,
        mask=mask_raw.astype(bool),
        volume_id=volume_id,
        slice_index=slice_index,
        domain=domain,
    )


def write_sample(path: str | Path, sample: Sample) -> None:
    write_file(path, sample_to_bytes(sample))


def read_sample(path: str | Path, domain: str = "") -> Sample:
    return sample_from_bytes(read_file(path, "sample"), domain=domain)


# -- dataset generation ----------------------------------------------------------

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class SplitSizes:
    # Scarce-annotation deployment corpus: 3 labeled training volumes.
    # Parameter-efficient adaptation is aimed at exactly this regime; larger
    # corpora let every method reach the same source optimum.
    source_train: int = 30
    source_val: int = 40
    source_test: int = 60
    target_val: int = 40
    target_test: int = 60

    def __post_init__(self):
        for split, count in asdict(self).items():
            if count < 1:
                raise ValidationError(f"split {split} must have at least one sample")
            if count % SLICES_PER_VOLUME:
                raise ValidationError(
                    f"split {split} size {count} not divisible by {SLICES_PER_VOLUME} "
                    f"(volumes are kept whole)"
                )

    def volumes(self, split: str) -> int:
        return getattr(self, split) // SLICES_PER_VOLUME


def generate_dataset(
    root: str | Path,
    source: DomainConfig | None = None,
    target: DomainConfig | None = None,
    sizes: SplitSizes = SplitSizes(),
) -> dict:
    """Write every sample plus the manifest; returns the manifest dict.

    The source domain supplies train/val/test; the target domain only val and
    test.  Target volumes reuse the matching source split's volume seeds so
    the two domains show the same structures under different acquisition.
    """
    source = source or default_source_domain()
    target = target or default_target_domain()
    if source.name == target.name:
        raise ValidationError("source and target domains need distinct names")
    for attr in ("image_size", "num_blobs", "blob_radius"):
        if getattr(source, attr) != getattr(target, attr):
            raise ValidationError(
                f"source and target must share shape statistics; {attr} differs"
            )

    root = Path(root)
    next_seed = 0

    def allocate(count: int) -> list[int]:
        nonlocal next_seed
        seeds = list(range(next_seed, next_seed + count))
        next_seed += count
        return seeds

    seed_plan = {
        "source_train": allocate(sizes.volumes("source_train")),
        "source_val": allocate(sizes.volumes("source_val")),
        "source_test": allocate(sizes.volumes("source_test")),
    }
    seed_plan["target_val"] = seed_plan["source_val"][: sizes.volumes("target_val")]
    seed_plan["target_test"] = seed_plan["source_test"][: sizes.volumes("target_test")]
    if len(seed_plan["target_val"]) < sizes.volumes("target_val") or len(
        seed_plan["target_test"]
    ) < sizes.volumes("target_test"):
        raise ValidationError("target splits cannot use more volumes than their source split")

    domains = {"source": source, "target": target}
    splits: dict[str, dict] = {}
    for split, seeds in seed_plan.items():
        dom = domains[split.split("_")[0]]
        volumes: dict[str, list[str]] = {}
        for volume_seed in seeds:
            paths = []
            for sample in generate_volume(dom, volume_seed):
                rel = f"{split}/vol{volume_seed:05d}_s{sample.slice_index:02d}.sdim"
                write_sample(root / rel, sample)
                paths.append(rel)
            volumes[str(volume_seed)] = paths
        splits[split] = {
            "domain": dom.name,
            "count": len(seeds) * SLICES_PER_VOLUME,
            "volumes": volumes,
        }

    manifest = {
        "format_version": MANIFEST_VERSION,
        "slices_per_volume": SLICES_PER_VOLUME,
        "image_size": source.image_size,
        "domains": {key: asdict(cfg) for key, cfg in domains.items()},
        "splits": splits,
    }
    write_json(root / MANIFEST_NAME, manifest)
    return manifest


def read_file(path: str | Path, what: str) -> bytes:
    """The one reader of a path a user names; a bad one is a ValidationError naming it."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise ValidationError(f"{what} not found: {path}") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ValidationError(f"{what} {path}: {getattr(exc, 'strerror', None) or exc}") from None


def write_file(path: str | Path, data: bytes) -> None:
    """The one writer, likewise.  Parent directories are made only when a write
    finds them missing, so a directory of many files costs one mkdir, not one per file."""
    path = Path(path)
    try:
        try:
            path.write_bytes(data)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot write {path}: {getattr(exc, 'strerror', None) or exc}") from None


def write_json(path: str | Path, doc) -> None:
    write_file(path, json.dumps(doc, indent=2, sort_keys=True).encode())


def read_json_object(path: str | Path, what: str) -> dict:
    """Parse a JSON file that must hold an object: bytes that are not UTF-8 or
    not JSON are a FormatError with the offset, any other document a ValidationError."""
    try:
        doc = json.loads(read_file(path, what))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what} {path} is not JSON at offset {exc.pos}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} {path} is not UTF-8 at offset {exc.start}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} {path} is not a JSON object")
    return doc


_JSON_NAMES = {dict: "object", str: "string", int: "integer"}


def _require(doc: dict, key: str, kind: type, where: str):
    value = doc.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValidationError(f"{where} lacks key {key!r} holding a JSON {_JSON_NAMES[kind]}")
    return value


def load_manifest(root: str | Path) -> dict:
    path = Path(root) / MANIFEST_NAME
    manifest = read_json_object(path, "manifest")
    version = manifest.get("format_version")
    if version != MANIFEST_VERSION:
        raise FormatError(f"unsupported manifest version {version!r} in {path}")
    for key in ("domains", "splits"):
        _require(manifest, key, dict, f"manifest {path}")
    return manifest


def load_split(root: str | Path, manifest: dict, split: str) -> list[Sample]:
    """Samples of one split, ordered by (volume, slice)."""
    root = Path(root)
    where = f"manifest {root / MANIFEST_NAME}"
    splits = _require(manifest, "splits", dict, where)
    if split not in splits:
        raise ValidationError(f"unknown split {split!r}; available: {sorted(splits)}")
    entry = splits[split]
    where = f"{where} split {split!r}"
    if not isinstance(entry, dict):
        raise ValidationError(f"{where} is not a JSON object")
    count = _require(entry, "count", int, where)
    domain = _require(entry, "domain", str, where)
    volumes = _require(entry, "volumes", dict, where)
    for volume_id, rels in volumes.items():
        if not (volume_id.isdecimal() and isinstance(rels, list) and all(isinstance(r, str) for r in rels)):
            raise ValidationError(f"{where} volume {volume_id!r} must map a decimal id to a list of paths")
    paths = []
    for volume_id in sorted(volumes, key=int):
        for rel in volumes[volume_id]:
            # Lexical, so a dataset assembled from symlinks still loads.
            norm = os.path.normpath(rel)
            if os.path.isabs(norm) or norm == os.pardir or norm.startswith(os.pardir + os.sep):
                raise ValidationError(f"split {split!r} lists {rel!r}, which lies outside {root}")
            paths.append((rel, root / rel))
    if count != len(paths):
        raise ValidationError(
            f"split {split!r} declares count {count} but lists {len(paths)} files"
        )
    samples = []
    for rel, path in paths:
        blob = read_file(path, f"split {split!r} lists {rel!r}, which cannot be read: sample")
        samples.append(sample_from_bytes(blob, domain=domain))
    return samples
