"""Data pipeline: case IO, normalization, slicing, synthetic volumes, splits.

This module owns the on-disk volume formats: `read_volume` and
`write_volume` pick the codec by suffix, and `_case_file` names each file
of a case, for writing and for lookup alike.

Cases follow the BraTS layout `<root>/<case_id>/<case_id>_<modality>.nii`
(NIfTI-1, or gzipped as `.nii.gz`) with a raw-volume fallback
`<root>/<case_id>/<modality>.svol`. Three modalities (T1ce, T2, FLAIR)
become the network's input channels. A seg in the raw {0,1,2,4} convention
is remapped to contiguous {0,1,2,3}, and one already contiguous is kept;
every seg read is checked a slab at a time (`_label_window`). Training
happens on axial 2D slices of each plane's centred crop window, and
`crop_window` is the one rule for where that window sits: `extract_slices`
cuts a case into one `SliceBatch`, a pair of stacked arrays (images and
labels), and `make_batch` indexes batches out of it.

Everything is deterministic: synthetic cases are pure functions of their
seed, and splits are pure functions of (ids, fraction, seed). `SynthSpec`
holds every synthetic-case default and declares each one's range, for
`synth:` data roots, `synth_case` and the CLI alike.

`load_case` decodes a case's files on one thread each. Given a crop, it
streams each file a slab of whole z-slices at a time into what slicing
needs: the crop window, and each modality's whole-volume stats. So
training on a directory root (`load_data_root`) holds only every case's
windows, and evaluation and prediction, which load one case at a time
(`case_loaders`), never hold a whole volume of a case.
"""

from __future__ import annotations

import functools
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated, Callable, Optional

import numpy as np

from .errors import ConfigError, ContractError, DataError, make_dirs
from .model import ConfigDocument, Count, Range, Seed
from .nifti import read_nifti, read_spacing, write_nifti
from .svol import read_svol, write_svol

MODALITIES = ("t1ce", "t2", "flair")
NUM_CLASSES = 4
RAW_LABELS = frozenset({0, 1, 2, 4})
TRAIN_FRACTION = 369 / 494
DEFAULT_CROP = (128, 128)
MIN_FOREGROUND_DEFAULT = 0.001
SYNTH_MIN_DIMS = (8, 64, 64)


@dataclass(frozen=True)
class CropWindow:
    """Where a sample cut to its crop windows sits in its case; its planes are the crop."""
    dims: tuple[int, int, int]                             # the whole case's [D,H,W]
    stats: dict[str, Optional[tuple[np.float64, float]]]   # whole-volume nonzero mean, std


@dataclass
class VolumeSample:
    """One case: raw (unnormalized) modality volumes plus its label volume.

    With `window`, every volume is only its crop window, `[D,ch,cw]`, and
    the window holds what slicing needs of the rest.
    """
    modalities: dict[str, np.ndarray]   # each [D,H,W] float32
    label: np.ndarray                   # [D,H,W] uint8, values in {0,1,2,3}
    case_id: str
    spacing: Optional[tuple[float, float, float]] = None
    window: Optional[CropWindow] = None

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.label.shape if self.window is None else self.window.dims


@dataclass
class SliceBatch:
    """Axial slices in depth order: normalized image channels and their labels."""
    images: np.ndarray    # [N,3,H,W] float32
    labels: np.ndarray    # [N,H,W] uint8

    def __len__(self) -> int:
        return len(self.labels)


# ---------------------------------------------------------------------------
# per-volume transforms


# numpy sums a contiguous float64 array pairwise: it splits n values at
# n//2 - (n//2) % 8 and adds the two halves' sums, down to unrolled blocks of
# 128. np.add.reduce sums a piece of at most this many values by that rule.
STATS_PIECE = 1 << 16


def _squared_deviation_sum(vals: np.ndarray, centre: np.ndarray) -> np.float64:
    """sum((vals - centre)**2) in float64, added in numpy's own pairwise tree."""
    n = vals.size
    if n <= STATS_PIECE:
        # centre is a 1-element float64 array: a scalar could let value-based
        # casting (numpy < 2) run the subtraction in float32
        dev = np.subtract(vals, centre)
        return np.add.reduce(np.square(dev, out=dev))
    half = n // 2 - (n // 2) % 8
    return (_squared_deviation_sum(vals[:half], centre)
            + _squared_deviation_sum(vals[half:], centre))


def _nonzero_stats(vol: np.ndarray, source="the volume"):
    """Mean and std (floored at 1e-8) of the nonzero voxels; None when there are none."""
    return _mean_std(vol[vol != 0], source)


def _mean_std(vals: np.ndarray, source):
    """Mean and std (floored at 1e-8) of float32 `vals`; None when it is empty.

    Both are bit-equal to `vals.mean/std(dtype=np.float64)`, but the std sums
    its squared deviations in pieces of at most STATS_PIECE values, in the
    tree numpy would add them in, so no float64 copy of the values is made.
    A NaN or infinite value makes the mean non-finite: a DataError naming
    `source`.
    """
    if not vals.size:
        return None
    with np.errstate(invalid="ignore"):   # +inf and -inf make a NaN, refused below
        mean = vals.mean(dtype=np.float64)
    if not np.isfinite(mean):
        raise DataError(f"NaN or infinite voxel values in {source}")
    var = _squared_deviation_sum(vals, np.full(1, mean)) / vals.size
    return mean, max(float(np.sqrt(var)), 1e-8)


def _zscore(vol: np.ndarray, stats) -> np.ndarray:
    """`vol` z-scored by `stats` at its nonzero voxels; zeros stay zero."""
    if stats is None:
        return vol.copy()
    mu, sigma = stats
    mask = vol != 0
    out = np.zeros(vol.shape, dtype=np.float32)
    out[mask] = ((vol[mask] - mu) / sigma).astype(np.float32)
    return out


def check_crop(crop) -> None:
    """A ConfigError unless `crop` is two integers, each a positive multiple of 32."""
    if not (isinstance(crop, (tuple, list)) and len(crop) == 2
            and all(isinstance(c, numbers.Integral) and c > 0 and not c % 32 for c in crop)):
        raise ConfigError(f"crop must be two positive multiples of 32, got {crop}")


def crop_window(dims, crop, source):
    """The slice that cuts the centred `crop` window out of a [D,H,W] volume of `dims`.

    A bad crop is a ConfigError (`check_crop`); a volume that is not 3D, or
    whose planes are smaller than the crop, is a DataError naming `source`.
    """
    check_crop(crop)
    if len(dims) != 3:
        raise DataError(f"expected a 3D volume, got dims {list(dims)} in {source}")
    (_, h, w), (ch, cw) = dims, crop
    if ch > h or cw > w:
        raise DataError(f"volume planes {h}x{w} are smaller than the crop {crop} in {source}")
    oh, ow = (h - ch) // 2, (w - cw) // 2
    return np.s_[:, oh:oh + ch, ow:ow + cw]


def _modality_window(crop, source, dims, slabs):
    """`(dims, window, stats)` of a modality that `slabs` yield, a run of whole z-slices each.

    The window is the volume's crop window as float32. Each slab's nonzero
    voxels are appended in order to one compact buffer, and the stats are
    `_mean_std` of it: those of every nonzero voxel of the volume. `source`
    names the volume in errors.
    """
    cut = crop_window(dims, crop, source)
    window = np.empty((dims[0], *crop), dtype=np.float32)
    nonzero = np.empty(0, dtype=np.float32)
    for z0, slab in slabs:
        slab = slab.astype(np.float32, copy=False)
        window[z0:z0 + len(slab)] = slab[cut]
        n = nonzero.size
        # grown to fit exactly, with no array made after it alive across the
        # resize, so realloc can extend it in place: a case's modalities are
        # read at once, and slack or moved copies would add up
        nonzero.resize(n + np.count_nonzero(slab != 0), refcheck=False)
        nonzero[n:] = slab[slab != 0]
    slab = None   # the read buffer goes before the stats allocate theirs
    return dims, window, _mean_std(nonzero, source)


def cut_to_crop(sample: VolumeSample, crop: tuple[int, int]) -> VolumeSample:
    """`sample` cut to its crop windows, as `load_case(..., crop=crop)` reads it.

    A whole sample's windows are views of its volumes, and its stats are
    `_nonzero_stats` of each whole volume: the same values, in the same
    order, that a streamed read gathers. A sample already cut is returned
    as it is; cut to another crop, it is a ContractError.
    """
    cut = crop_window(sample.dims, crop, f"case {sample.case_id}")
    if sample.window is not None:
        if sample.label.shape[1:] != tuple(crop):
            raise ContractError(f"case {sample.case_id} is cut to the crop "
                                f"{sample.label.shape[1:]}, not {tuple(crop)}")
        return sample
    vols = sample.modalities
    return VolumeSample(
        modalities={m: vols[m][cut].astype(np.float32, copy=False) for m in MODALITIES},
        label=sample.label[cut], case_id=sample.case_id, spacing=sample.spacing,
        window=CropWindow(tuple(sample.dims),
                          {m: _nonzero_stats(np.asarray(vols[m], dtype=np.float32),
                                             f"'{m}' of case {sample.case_id}")
                           for m in MODALITIES}))


def extract_slices(sample: VolumeSample, crop: tuple[int, int] = DEFAULT_CROP,
                   min_foreground_fraction: float = 0.0) -> SliceBatch:
    """Normalize, center-crop and slice a case along the depth axis.

    Each modality is z-scored by the stats of its whole volume, but only
    inside the crop window, and written as one channel of the stacked
    images. Slices whose foreground (label > 0) fraction falls below the
    threshold are dropped; training passes a small positive threshold while
    evaluation passes 0.0 to keep every slice. A whole sample is cut first
    (`cut_to_crop`), so both kinds of sample take the same arithmetic.
    """
    cut = cut_to_crop(sample, crop)
    ch, cw = crop
    keep = np.flatnonzero(np.count_nonzero(cut.label, axis=(1, 2)) / (ch * cw)
                          >= min_foreground_fraction)
    images = np.empty((len(keep), len(MODALITIES), ch, cw), dtype=np.float32)
    for i, m in enumerate(MODALITIES):
        images[:, i] = _zscore(cut.modalities[m][keep], cut.window.stats[m])
    return SliceBatch(images=images, labels=cut.label[keep])


def make_batch(slices: SliceBatch, index) -> SliceBatch:
    """The slices `index` selects: a basic slice gives views, an index array copies."""
    batch = SliceBatch(images=slices.images[index], labels=slices.labels[index])
    if not len(batch):
        raise ContractError("make_batch needs at least one slice")
    return batch


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


def read_volume(path: str | Path, sink=None):
    """Load a .nii, .nii.gz or .svol volume; any other suffix is a ConfigError.

    With `sink`, return `sink(dims, slabs)` instead, as `read_nifti` does.
    """
    return read_svol(path, sink) if _is_svol(path) else read_nifti(path, sink)


def volume_spacing(path: str | Path) -> Optional[tuple[float, float, float]]:
    """The voxel spacing a volume file records: its NIfTI header's, or None for .svol."""
    return None if _is_svol(path) else read_spacing(path)


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


def _label_values(slab: np.ndarray, path) -> set[int]:
    """The values of label array `slab` that decide its convention: 3, 4 and any outside 0..4.

    0, 1 and 2 are labels in either convention, so no scan looks for them,
    and the slab's max settles 3 and 4 unless a 3 may lie under a larger
    max. A non-integer or non-finite float label is a DataError.
    """
    if slab.dtype.kind == "f" and not (np.isfinite(slab).all()
                                       and np.array_equal(np.rint(slab), slab)):
        raise DataError(f"non-integer label values in {path}")
    if not slab.size:
        return set()
    lo, hi = slab.min(), slab.max()
    values = {v for v in (3, 4) if v == hi or v < hi and (slab == v).any()}
    if lo < 0 or hi > 4:
        values.update(int(v) for v in np.unique(slab[(slab < 0) | (slab > 4)]))
    return values


def _label_window(crop, path, dims, slabs):
    """`(dims, window, None)` of the seg that `slabs` yield, as uint8 {0,1,2,3}.

    The window is the seg's crop window, or all of it when `crop` is None.
    The allowed set is {0,1,2,4} when the seg holds a 4, else {0,1,2,3}.
    Every slab's values are checked, so a bad value outside the window is
    an error too. Raw 4 becomes 3.
    """
    cut = np.s_[:] if crop is None else crop_window(dims, crop, path)
    window = np.empty(dims if crop is None else (dims[0], *crop), dtype=np.uint8)
    values = set()
    for z0, slab in slabs:
        values |= _label_values(slab, path)
        with np.errstate(invalid="ignore"):   # a value uint8 cannot hold is refused below
            window[z0:z0 + len(slab)] = slab[cut]
    allowed = RAW_LABELS if 4 in values else range(NUM_CLASSES)
    bad = sorted(v for v in values if v not in allowed)
    if bad:
        raise DataError(f"label value(s) {bad} outside {sorted(allowed)} in {path}")
    if 4 in values:
        window[window == 4] = 3
    return dims, window, None


def _read_case_file(path: Path, name: str, crop):
    """`(dims, volume, stats)` of one file of a case: modalities float32, the seg uint8.

    The seg is always read a slab at a time and checked (`_label_window`).
    Without `crop`, the volume is whole and stats is None. With it, a
    modality is read a slab at a time into its crop window, with its stats
    (`_modality_window`).
    """
    if name == "seg":
        return read_volume(path, functools.partial(_label_window, crop, path))
    if crop is not None:
        return read_volume(path, functools.partial(_modality_window, crop, path))
    vol = read_volume(path)
    return vol.shape, (vol if vol.dtype.kind == "f" else vol.astype(np.float32)), None


def load_case(root: str | Path, case_id: str, require_seg: bool = True,
              crop: Optional[tuple[int, int]] = None) -> VolumeSample:
    """Assemble one case from disk, cross-checking dims across files.

    The case's files are decoded concurrently, one thread each; errors are
    raised in file order, as a sequential read would meet them. The seg is
    checked a slab at a time: labels {0,1,2,4} are remapped to {0,1,2,3},
    labels already in the contiguous convention are kept bit-exact, and any
    other value, inside the crop window or not, is a DataError. Without
    require_seg, no seg file is read and the label is all zero.

    With `crop`, a bad crop is a ConfigError before any file is read. Each
    file is then decoded a slab of whole z-slices at a time into the sample
    `cut_to_crop` would make of the whole case: every volume cut to its
    crop window, each modality's whole-volume stats, and the dims the
    headers give. No whole volume is held.
    """
    if crop is not None:
        check_crop(crop)
    case_dir = Path(root) / case_id
    if not case_dir.is_dir():
        raise DataError(f"case directory not found: {case_dir}")

    names = (*MODALITIES, "seg") if require_seg else MODALITIES
    paths = {name: _find_modality_file(case_dir, case_id, name) for name in names}
    found = {name: path for name, path in paths.items() if path is not None}
    with ThreadPoolExecutor(max_workers=max(len(found), 1)) as pool:
        reads = {name: pool.submit(_read_case_file, path, name, crop)
                 for name, path in found.items()}
        parts = {}
        for name in MODALITIES:
            if name not in reads:
                raise DataError(f"missing modality file for '{name}' in {case_dir}")
            parts[name] = reads[name].result()
        if "seg" in reads:
            parts["seg"] = reads["seg"].result()
        elif require_seg:
            raise DataError(f"missing segmentation file in {case_dir}")
    spacing = next(filter(None, (volume_spacing(paths[name]) for name in MODALITIES)), None)

    dims = parts[MODALITIES[0]][0]
    for name in MODALITIES:
        if parts[name][0] != dims:
            raise DataError(f"dim mismatch for '{name}' in {case_dir}: "
                            f"{parts[name][0]} vs {dims}")
    if "seg" in parts:
        if parts["seg"][0] != dims:
            raise DataError(f"segmentation dims {parts['seg'][0]} do not match "
                            f"modalities {dims} in {case_dir}")
        label = parts["seg"][1]
    else:
        label = np.zeros(parts[MODALITIES[0]][1].shape, dtype=np.uint8)

    window = None if crop is None else CropWindow(
        tuple(dims), {name: parts[name][2] for name in MODALITIES})
    return VolumeSample(modalities={name: parts[name][1] for name in MODALITIES}, label=label,
                        case_id=case_id, spacing=spacing, window=window)


def write_case(sample: VolumeSample, root: str | Path, fmt: str = "nii") -> Path:
    """Write a case to disk in either dataset layout; returns the case dir."""
    if fmt not in ("nii", "svol"):
        raise ConfigError(f"unknown case format '{fmt}' (use nii or svol)")
    if sample.window is not None:
        raise ContractError(f"case {sample.case_id} is cut to its crop windows, not whole")
    case_dir = Path(root) / sample.case_id
    make_dirs(case_dir)
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


def _rng(seed, error: type[Exception]) -> np.random.Generator:
    if (np.asarray(seed) < 0).any():   # an int seed, or a list of them such as [spec.seed, i]
        raise error(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


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
    perm = _rng(seed, ContractError).permutation(n)
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


@dataclass(frozen=True)
class SynthSpec(ConfigDocument):
    """Every synthetic-case default; each field's range is declared in its annotation."""
    KEY = "synth "
    cases: Count = 4
    seed: Seed = 1
    dims: Annotated[tuple[int, int, int], Range(SYNTH_MIN_DIMS)] = (12, 80, 80)
    lesions: Annotated[int, Range(0)] = 2


def synth_lesion_geometry(seed, dims=SynthSpec.dims,
                          num_lesions: int = SynthSpec.lesions) -> list[LesionGeometry]:
    """Lesion centers/axes that synth_case(seed, ...) will render."""
    return _sample_lesions(_rng(seed, ConfigError), dims, num_lesions)


def synth_case(seed, dims=SynthSpec.dims, num_lesions: int = SynthSpec.lesions,
               case_id: Optional[str] = None) -> VolumeSample:
    """Deterministic synthetic case: ellipsoidal brain with nested-shell lesions.

    Each lesion is three concentric ellipsoids labeled 2 (edema, outermost),
    1, then 3 (core). Modality intensities are a per-modality base plus fixed
    per-label offsets plus Gaussian noise, exactly zero outside the brain.
    A negative seed, and dims or lesions `SynthSpec` refuses, are a ConfigError.
    """
    dims = SynthSpec(dims=tuple(int(d) if isinstance(d, numbers.Integral) else d for d in dims),
                     lesions=num_lesions).dims   # numpy ints as ints, a float refused

    rng = _rng(seed, ConfigError)
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


def parse_synth_uri(uri: str) -> SynthSpec:
    """Parse `synth:cases=4,seed=1,dims=12x80x80,lesions=2` (all keys optional) into a
    `SynthSpec`, each value an int or, for a tuple, `x`-separated ints."""
    if not uri.startswith("synth:"):
        raise ConfigError(f"not a synth data root: {uri}")
    d = {}
    for entry in filter(None, uri[len("synth:"):].split(",")):
        key, _, value = entry.partition("=")
        try:
            ints = [int(v) for v in value.split("x")]
        except ValueError:
            raise ConfigError(f"bad synth parameter '{entry}' (expected key=N or key=NxNxN)") from None
        d[key] = ints if "x" in value else ints[0]
    return SynthSpec.from_dict(d)


def _synth_loaders(spec: SynthSpec) -> dict[str, Callable[[], VolumeSample]]:
    """A synth spec's case ids, each with the call that generates that case."""
    return {f"synth_{i:03d}": functools.partial(
                synth_case, seed=[spec.seed, i], dims=spec.dims, num_lesions=spec.lesions,
                case_id=f"synth_{i:03d}")
            for i in range(spec.cases)}


def synth_dataset(spec: SynthSpec) -> list[VolumeSample]:
    """Generate `spec.cases` deterministic cases named synth_000, synth_001, ..."""
    return [make() for make in _synth_loaders(spec).values()]


def case_loaders(data_root: str, crop: tuple[int, int]
                 ) -> dict[str, Callable[[], VolumeSample]]:
    """A data root's (directory or `synth:` URI) case ids, each with the call that loads it.

    A directory's cases are read cut to `crop` (`load_case`); synthetic
    cases are generated whole.
    """
    if data_root.startswith("synth:"):
        return _synth_loaders(parse_synth_uri(data_root))
    return {cid: functools.partial(load_case, data_root, cid, crop=crop)
            for cid in list_cases(data_root)}


def load_data_root(data_root: str, crop: tuple[int, int]) -> dict[str, VolumeSample]:
    """Resolve a data root (directory or `synth:` URI) into loaded cases, as `case_loaders`."""
    return {cid: load() for cid, load in case_loaders(data_root, crop).items()}
