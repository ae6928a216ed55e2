"""Data pipeline: case IO, normalization, slicing, synthetic volumes, splits.

This module owns the on-disk volume formats: `read_volume` and
`write_volume` pick the codec by suffix, and `_case_file` names each file
of a case, for writing and for lookup alike.

Cases follow the BraTS layout `<root>/<case_id>/<case_id>_<modality>.nii`
(NIfTI-1, or gzipped as `.nii.gz`) with a raw-volume fallback
`<root>/<case_id>/<modality>.svol`. Three modalities (T1ce, T2, FLAIR)
become the network's input channels; segmentation labels are remapped from
the raw {0,1,2,4} convention to contiguous {0,1,2,3}. Training happens on
axial 2D slices.

Everything is deterministic: synthetic cases are pure functions of their
seed, and splits are pure functions of (ids, fraction, seed). `load_case`
decodes a case's files on one thread each. Training loads every case up
front (`load_data_root`); evaluation loads one case at a time
(`case_loaders`), so it holds a single case in memory.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ContractError, DataError
from .metrics import one_hot
from .nifti import read_nifti, read_spacing, write_nifti
from .svol import read_svol, write_svol

MODALITIES = ("t1ce", "t2", "flair")
NUM_CLASSES = 4
RAW_LABELS = frozenset({0, 1, 2, 4})
TRAIN_FRACTION = 369 / 494
DEFAULT_CROP = (128, 128)
MIN_FOREGROUND_DEFAULT = 0.001
SYNTH_MIN_DIMS = (8, 64, 64)


@dataclass
class VolumeSample:
    """One case: raw (unnormalized) modality volumes plus its label volume."""
    modalities: dict[str, np.ndarray]   # each [D,H,W] float32
    label: np.ndarray                   # [D,H,W] uint8, values in {0,1,2,3}
    case_id: str
    spacing: Optional[tuple[float, float, float]] = None

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.label.shape


@dataclass
class SliceRecord:
    """One axial training sample cut from a case."""
    image: np.ndarray    # [3,H,W] float32, normalized
    label: np.ndarray    # [H,W] uint8
    case_id: str
    slice_index: int


@dataclass
class SliceBatch:
    images: np.ndarray    # [N,3,H,W] float32
    targets: np.ndarray   # [N,4,H,W] float32 one-hot
    labels: np.ndarray    # [N,H,W] uint8
    source: list[tuple[str, int]]


# ---------------------------------------------------------------------------
# per-volume transforms


def remap_labels(raw: np.ndarray) -> np.ndarray:
    """Map the raw label convention {0,1,2,4} to contiguous {0,1,2,3}."""
    arr = np.asarray(raw)
    bad = [int(v) for v in np.unique(arr) if int(v) not in RAW_LABELS]
    if bad:
        raise DataError(f"unexpected raw label value(s) {bad}; "
                        f"expected a subset of {sorted(RAW_LABELS)}")
    out = arr.astype(np.uint8, copy=True)
    out[out == 4] = 3
    return out


def _nonzero_stats(vol: np.ndarray):
    """Mean and std (floored at 1e-8) of the nonzero voxels; None when there are none."""
    vals = vol[vol != 0]
    if not vals.size:
        return None
    return vals.mean(dtype=np.float64), max(float(vals.std(dtype=np.float64)), 1e-8)


def _zscore(vol: np.ndarray, stats) -> np.ndarray:
    """`vol` z-scored by `stats` at its nonzero voxels; zeros stay zero."""
    if stats is None:
        return vol.copy()
    mu, sigma = stats
    mask = vol != 0
    out = np.zeros(vol.shape, dtype=np.float32)
    out[mask] = ((vol[mask] - mu) / sigma).astype(np.float32)
    return out


def normalize_modality(volume: np.ndarray) -> np.ndarray:
    """Z-score over nonzero (brain) voxels; background zeros stay zero."""
    vol = np.asarray(volume, dtype=np.float32)
    return _zscore(vol, _nonzero_stats(vol))


def crop_offsets(shape_hw: tuple[int, int], crop: tuple[int, int]) -> tuple[int, int]:
    """Top-left corner of a centered crop window."""
    h, w = shape_hw
    ch, cw = crop
    if ch % 32 or cw % 32:
        raise ConfigError(f"crop dims must be divisible by 32, got {crop}")
    if ch > h or cw > w:
        raise ConfigError(f"crop {crop} larger than volume plane {h}x{w}")
    return (h - ch) // 2, (w - cw) // 2


def extract_slices(sample: VolumeSample, crop: tuple[int, int] = DEFAULT_CROP,
                   min_foreground_fraction: float = 0.0) -> list[SliceRecord]:
    """Normalize, center-crop and slice a case along the depth axis.

    Each modality is z-scored by the stats of its whole volume, but only
    inside the crop window. Slices whose foreground (label > 0) fraction
    falls below the threshold are dropped; training passes a small positive
    threshold while evaluation passes 0.0 to keep every slice.
    """
    d, h, w = sample.dims
    ch, cw = crop
    oh, ow = crop_offsets((h, w), crop)
    normed = []
    for m in MODALITIES:
        vol = np.asarray(sample.modalities[m], dtype=np.float32)
        normed.append(_zscore(vol[:, oh:oh + ch, ow:ow + cw], _nonzero_stats(vol)))
    labels = sample.label[:, oh:oh + ch, ow:ow + cw]
    records = []
    area = ch * cw
    for z in range(d):
        frac = int(np.count_nonzero(labels[z])) / area
        if frac < min_foreground_fraction:
            continue
        image = np.ascontiguousarray(np.stack([vol[z] for vol in normed]))
        records.append(SliceRecord(image=image, label=np.ascontiguousarray(labels[z]),
                                   case_id=sample.case_id, slice_index=z))
    return records


def make_batch(records: list[SliceRecord]) -> SliceBatch:
    """Stack slice records into arrays plus one-hot targets."""
    if not records:
        raise ContractError("make_batch needs at least one slice record")
    images = np.stack([r.image for r in records])
    labels = np.stack([r.label for r in records])
    targets = one_hot(labels, NUM_CLASSES)
    source = [(r.case_id, r.slice_index) for r in records]
    return SliceBatch(images=images, targets=targets, labels=labels, source=source)


# ---------------------------------------------------------------------------
# case IO


def _is_svol(path) -> bool:
    """The codec of a volume file by its suffix: .svol, or NIfTI for .nii and .nii.gz."""
    name = str(path)
    if name.endswith(".svol"):
        return True
    if name.endswith((".nii", ".nii.gz")):
        return False
    raise ConfigError(f"unknown volume extension on {path} (use .nii, .nii.gz or .svol)")


def read_volume(path: str | Path) -> np.ndarray:
    """Load a .nii, .nii.gz or .svol volume; any other suffix is a ConfigError."""
    return read_svol(path) if _is_svol(path) else read_nifti(path)


def write_volume(path: str | Path, volume: np.ndarray,
                 spacing: Optional[tuple[float, float, float]] = None) -> None:
    """Store a volume in the format its suffix names; .svol drops the spacing."""
    if _is_svol(path):
        write_svol(path, volume)
    else:
        write_nifti(path, volume, spacing)


def _case_file(case_dir: Path, case_id: str, name: str, fmt: str) -> Path:
    """Where volume `name` of a case lives in layout `fmt` (nii, nii.gz or svol)."""
    return case_dir / (f"{name}.svol" if fmt == "svol" else f"{case_id}_{name}.{fmt}")


def _find_modality_file(case_dir: Path, case_id: str, name: str) -> Optional[Path]:
    for fmt in ("nii", "nii.gz", "svol"):
        candidate = _case_file(case_dir, case_id, name, fmt)
        if candidate.is_file():
            return candidate
    return None


def _label_volume(raw: np.ndarray, path: Path) -> np.ndarray:
    """The segmentation volume read from `path` as uint8 {0,1,2,3}; raw label 4 becomes 3."""
    if raw.dtype.kind == "f":
        rounded = np.rint(raw)
        if not np.array_equal(rounded, raw):
            raise DataError(f"non-integer label values in {path}")
        raw = rounded.astype(np.int32)
    values = np.unique(raw)
    if 4 in values:
        return remap_labels(raw)
    bad = [int(v) for v in values if not 0 <= int(v) < NUM_CLASSES]
    if bad:
        raise DataError(f"label value(s) {bad} out of range in {path}")
    return raw.astype(np.uint8, copy=False)


def load_case(root: str | Path, case_id: str, require_seg: bool = True) -> VolumeSample:
    """Assemble one case from disk, cross-checking dims across files.

    The case's files are decoded concurrently, one thread each; errors are
    raised in file order, as a sequential read would meet them. Labels
    containing the raw value 4 are remapped to {0,1,2,3}; volumes already in
    the contiguous convention are validated and kept bit-exact.
    """
    case_dir = Path(root) / case_id
    if not case_dir.is_dir():
        raise DataError(f"case directory not found: {case_dir}")

    paths = {name: _find_modality_file(case_dir, case_id, name)
             for name in (*MODALITIES, "seg")}
    found = {name: path for name, path in paths.items() if path is not None}
    with ThreadPoolExecutor(max_workers=max(len(found), 1)) as pool:
        reads = {name: pool.submit(read_volume, path) for name, path in found.items()}
        modalities: dict[str, np.ndarray] = {}
        for name in MODALITIES:
            if name not in reads:
                raise DataError(f"missing modality file for '{name}' in {case_dir}")
            vol = reads[name].result()
            modalities[name] = np.asarray(vol, dtype=np.float32) if vol.dtype.kind != "f" else vol
        if "seg" in reads:
            label = _label_volume(reads["seg"].result(), paths["seg"])
        elif require_seg:
            raise DataError(f"missing segmentation file in {case_dir}")
        else:
            label = np.zeros(modalities[MODALITIES[0]].shape, dtype=np.uint8)
    spacing = next((read_spacing(paths[name]) for name in MODALITIES
                    if not _is_svol(paths[name])), None)

    dims = modalities[MODALITIES[0]].shape
    for name in MODALITIES:
        if modalities[name].shape != dims:
            raise DataError(f"dim mismatch for '{name}' in {case_dir}: "
                            f"{modalities[name].shape} vs {dims}")
    if label.shape != dims:
        raise DataError(f"segmentation dims {label.shape} do not match "
                        f"modalities {dims} in {case_dir}")

    return VolumeSample(modalities=modalities, label=label, case_id=case_id, spacing=spacing)


def write_case(sample: VolumeSample, root: str | Path, fmt: str = "nii") -> Path:
    """Write a case to disk in either dataset layout; returns the case dir."""
    if fmt not in ("nii", "svol"):
        raise ConfigError(f"unknown case format '{fmt}' (use nii or svol)")
    case_dir = Path(root) / sample.case_id
    case_dir.mkdir(parents=True, exist_ok=True)
    volumes = {name: sample.modalities[name].astype(np.float32, copy=False)
               for name in MODALITIES}
    volumes["seg"] = sample.label.astype(np.uint8, copy=False)
    for name, vol in volumes.items():
        write_volume(_case_file(case_dir, sample.case_id, name, fmt), vol, sample.spacing)
    return case_dir


def list_cases(root: str | Path) -> list[str]:
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"data root not found: {root}")
    ids = sorted(p.name for p in root.iterdir() if p.is_dir())
    if not ids:
        raise DataError(f"no case directories under {root}")
    return ids


# ---------------------------------------------------------------------------
# splits


def split_dataset(case_ids, train_fraction: float = TRAIN_FRACTION,
                  seed: int = 0) -> tuple[list[str], list[str]]:
    """Deterministic case-level split; no case appears in both halves."""
    ids = sorted(case_ids)
    n = len(ids)
    if n < 2:
        raise ContractError(f"need at least 2 cases to split, got {n}")
    if len(set(ids)) != n:
        raise ContractError("duplicate case ids in split input")
    if not 0.0 < train_fraction < 1.0:
        raise ContractError(f"train_fraction must be in (0, 1), got {train_fraction}")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = min(max(int(round(train_fraction * n)), 1), n - 1)
    train = sorted(ids[i] for i in perm[:n_train])
    val = sorted(ids[i] for i in perm[n_train:])
    return train, val


# ---------------------------------------------------------------------------
# synthetic cases


_LABEL_SHELLS = ((1.0, 2), (0.66, 1), (0.33, 3))   # (axis scale, label), outermost first
_MODALITY_BASE = {"t1ce": 0.6, "t2": 0.5, "flair": 0.55}
_LABEL_OFFSETS = {
    "t1ce": {1: 0.25, 2: 0.05, 3: 0.40},
    "t2": {1: 0.05, 2: 0.30, 3: -0.10},
    "flair": {1: 0.10, 2: 0.35, 3: 0.05},
}
_NOISE_SIGMA = 0.05
_BRAIN_AXES_FRACTION = 0.45
_MIN_INTENSITY = 0.05


@dataclass(frozen=True)
class LesionGeometry:
    center: tuple[float, float, float]
    axes: tuple[float, float, float]    # outer semi-axes in voxels

    @property
    def analytic_volume(self) -> float:
        a, b, c = self.axes
        return 4.0 / 3.0 * np.pi * a * b * c


def _sample_lesions(rng: np.random.Generator, dims, num_lesions) -> list[LesionGeometry]:
    # offsets and axes are bounded so every lesion sits strictly inside the brain
    out = []
    size = np.asarray(dims, dtype=np.float64)
    for _ in range(num_lesions):
        center = size * (0.5 + rng.uniform(-0.15, 0.15, 3))
        axes = size * rng.uniform(0.10, 0.18, 3)
        out.append(LesionGeometry(center=tuple(center), axes=tuple(axes)))
    return out


def synth_lesion_geometry(seed, dims=(12, 80, 80), num_lesions: int = 2) -> list[LesionGeometry]:
    """Lesion centers/axes that synth_case(seed, ...) will render."""
    return _sample_lesions(np.random.default_rng(seed), dims, num_lesions)


def synth_case(seed, dims=(12, 80, 80), num_lesions: int = 2,
               case_id: Optional[str] = None) -> VolumeSample:
    """Deterministic synthetic case: ellipsoidal brain with nested-shell lesions.

    Each lesion is three concentric ellipsoids labeled 2 (edema, outermost),
    1, then 3 (core). Modality intensities are a per-modality base plus fixed
    per-label offsets plus Gaussian noise, exactly zero outside the brain.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < m for d, m in zip(dims, SYNTH_MIN_DIMS)):
        raise ContractError(f"synthetic dims must be >= {SYNTH_MIN_DIMS}, got {dims}")
    if num_lesions < 0:
        raise ContractError(f"num_lesions must be >= 0, got {num_lesions}")

    rng = np.random.default_rng(seed)
    lesions = _sample_lesions(rng, dims, num_lesions)

    d, h, w = dims
    zz = np.arange(d, dtype=np.float64)[:, None, None]
    yy = np.arange(h, dtype=np.float64)[None, :, None]
    xx = np.arange(w, dtype=np.float64)[None, None, :]

    def ellipsoid(center, axes):
        cz, cy, cx = center
        az, ay, ax = axes
        return (((zz - cz) / az) ** 2 + ((yy - cy) / ay) ** 2
                + ((xx - cx) / ax) ** 2) <= 1.0

    brain_center = ((d - 1) / 2.0, (h - 1) / 2.0, (w - 1) / 2.0)
    brain_axes = tuple(_BRAIN_AXES_FRACTION * s for s in dims)
    brain = ellipsoid(brain_center, brain_axes)

    labels = np.zeros(dims, dtype=np.uint8)
    for lesion in lesions:
        for scale, lab in _LABEL_SHELLS:
            shell = ellipsoid(lesion.center, tuple(a * scale for a in lesion.axes))
            labels[shell & brain] = lab

    modalities = {}
    for name in MODALITIES:
        offsets = np.zeros(dims, dtype=np.float64)
        for lab, off in _LABEL_OFFSETS[name].items():
            offsets[labels == lab] = off
        vol = _MODALITY_BASE[name] + offsets + rng.normal(0.0, _NOISE_SIGMA, dims)
        vol = np.where(brain, np.maximum(vol, _MIN_INTENSITY), 0.0)
        modalities[name] = vol.astype(np.float32)

    if case_id is None:
        case_id = f"synth_{seed}" if isinstance(seed, int) else "synth_case"
    return VolumeSample(modalities=modalities, label=labels, case_id=case_id,
                        spacing=(1.0, 1.0, 1.0))


@dataclass(frozen=True)
class SynthSpec:
    """Parameters behind a `synth:` data root."""
    cases: int = 4
    seed: int = 1
    dims: tuple[int, int, int] = (12, 80, 80)
    lesions: int = 2


def parse_synth_uri(uri: str) -> SynthSpec:
    """Parse `synth:cases=4,seed=1,dims=12x80x80,lesions=2` (all keys optional)."""
    if not uri.startswith("synth:"):
        raise ConfigError(f"not a synth data root: {uri}")
    kwargs = {}
    body = uri[len("synth:"):]
    for entry in filter(None, body.split(",")):
        if "=" not in entry:
            raise ConfigError(f"bad synth parameter '{entry}' (expected key=value)")
        key, value = entry.split("=", 1)
        try:
            if key in ("cases", "seed", "lesions"):
                kwargs[key] = int(value)
            elif key == "dims":
                dims = tuple(int(v) for v in value.split("x"))
                if len(dims) != 3:
                    raise ValueError(value)
                kwargs["dims"] = dims
            else:
                raise ConfigError(f"unknown synth parameter '{key}'")
        except ValueError:
            raise ConfigError(f"bad synth value '{entry}'") from None
    return SynthSpec(**kwargs)


def _synth_loaders(spec: SynthSpec) -> dict[str, Callable[[], VolumeSample]]:
    """A synth spec's case ids, each with the call that generates that case."""
    if spec.cases < 1:
        raise ConfigError(f"synth dataset needs at least 1 case, got {spec.cases}")
    return {f"synth_{i:03d}": functools.partial(
                synth_case, seed=[spec.seed, i], dims=spec.dims, num_lesions=spec.lesions,
                case_id=f"synth_{i:03d}")
            for i in range(spec.cases)}


def synth_dataset(spec: SynthSpec) -> list[VolumeSample]:
    """Generate `spec.cases` deterministic cases named synth_000, synth_001, ..."""
    return [make() for make in _synth_loaders(spec).values()]


def case_loaders(data_root: str) -> dict[str, Callable[[], VolumeSample]]:
    """A data root's (directory or `synth:` URI) case ids, each with the call that loads it."""
    if data_root.startswith("synth:"):
        return _synth_loaders(parse_synth_uri(data_root))
    return {cid: functools.partial(load_case, data_root, cid) for cid in list_cases(data_root)}


def load_data_root(data_root: str) -> dict[str, VolumeSample]:
    """Resolve a data root (directory or `synth:` URI) into loaded cases."""
    return {cid: load() for cid, load in case_loaders(data_root).items()}
