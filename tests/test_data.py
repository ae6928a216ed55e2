"""Data pipeline: transforms, case IO, splits, synthetic volumes, containers."""

import ast
import collections
import dataclasses
import gzip
import re
import struct
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import segforge
import segforge.errors as errors_module

from segforge.checkpoint import load_checkpoint, model_arrays, save_checkpoint
from segforge.data import (DEFAULT_CROP, MODALITIES, SynthSpec, VolumeSample,
                           _nonzero_stats, _squared_deviation_sum, crop_window,
                           extract_slices, list_cases, load_case,
                           load_data_root, make_batch, parse_synth_uri,
                           read_volume, split_dataset, synth_case, synth_dataset,
                           synth_lesion_geometry, write_case, write_volume)
from segforge.errors import (ConfigError, ContractError, DataError,
                             FormatError, open_output)
from segforge.layers import Module
from segforge.nifti import read_nifti, read_spacing, write_nifti
from segforge.optim import Adam
from segforge.svol import read_svol, write_svol
from segforge.tensor import Tensor
from segforge.train import run_preset, train

from oracles import (normalize_modality, reference_checkpoint_bytes,
                     reference_extract_slices, reference_nifti_bytes,
                     reference_read_nifti, reference_svol_bytes)


class TestNormalizeModality:
    """The z-score oracle that the slicing tests compare `extract_slices` against."""

    def test_zscore_over_nonzero_voxels_only(self):
        rng = np.random.default_rng(0)
        vol = np.zeros((4, 8, 8), dtype=np.float32)
        mask = rng.random((4, 8, 8)) > 0.5
        vol[mask] = rng.normal(3.0, 2.0, mask.sum()).astype(np.float32)
        vol[vol == 0.0] = 0.0
        mask = vol != 0
        out = normalize_modality(vol)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out[~mask], 0.0)
        assert abs(out[mask].mean(dtype=np.float64)) < 1e-5
        assert abs(out[mask].std(dtype=np.float64) - 1.0) < 1e-4

    def test_all_zero_volume_passes_through(self):
        out = normalize_modality(np.zeros((2, 4, 4), dtype=np.float32))
        np.testing.assert_array_equal(out, 0.0)

    def test_constant_volume_maps_to_zero(self):
        vol = np.full((2, 4, 4), 7.0, dtype=np.float32)
        out = normalize_modality(vol)
        np.testing.assert_array_equal(out, 0.0)


class TestNonzeroStats:
    """The piecewise std is bit-equal to numpy's whole-array one.

    Equality holds only while numpy sums a contiguous float64 array by the
    pairwise rule `_nonzero_stats` copies; these tests fail if it changes.
    """

    @staticmethod
    def assert_numpy_stats(vol):
        vals = vol[vol != 0]
        mean, std = _nonzero_stats(vol)
        assert mean.tobytes() == vals.mean(dtype=np.float64).tobytes()
        want = max(float(vals.std(dtype=np.float64)), 1e-8)
        assert np.float64(std).tobytes() == np.float64(want).tobytes()
        # the sum under the square root, whose last bits the sqrt can round away
        centre = np.full(1, mean)
        assert (_squared_deviation_sum(vals, centre).tobytes()
                == np.add.reduce(np.square(vals - centre)).tobytes())

    @pytest.mark.parametrize("n", [*range(1, 10), 127, 128, 129,
                                   2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
    def test_equals_numpy_bytewise(self, n):
        for seed in range(4):
            # six decades of magnitude, so that another summation order rounds differently
            rng = np.random.default_rng([n, seed])
            self.assert_numpy_stats((10.0 ** rng.uniform(-2, 4, n)).astype(np.float32))

    def test_brain_volume_equals_numpy_without_a_float64_copy(self):
        rng = np.random.default_rng(7)
        vol = np.zeros((155, 240, 240), dtype=np.float32)
        z, y, x = np.ogrid[:155, :240, :240]
        brain = ((z - 77) / 70) ** 2 + ((y - 120) / 100) ** 2 + ((x - 120) / 90) ** 2 < 1
        vol[brain] = np.abs(rng.normal(400.0, 120.0, int(brain.sum()))).astype(np.float32) + 1
        self.assert_numpy_stats(vol)
        vals_nbytes = int(brain.sum()) * vol.itemsize
        tracemalloc.start()
        try:
            _nonzero_stats(vol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the nonzero values and the mask that picks them, and nothing near their size
        assert peak < vals_nbytes + vol.size + 2 * 2**20, peak

    def test_no_nonzero_voxel_gives_none(self):
        assert _nonzero_stats(np.zeros((2, 3, 4), dtype=np.float32)) is None
        assert _nonzero_stats(np.full(5, -0.0, dtype=np.float32)) is None


class TestSlicing:
    def test_crop_window_is_centred(self):
        for dims, crop, want in (((5, 80, 80), (64, 64), np.s_[:, 8:72, 8:72]),
                                 ((5, 64, 64), (64, 64), np.s_[:, 0:64, 0:64]),
                                 ((5, 97, 130), [64, 32], np.s_[:, 16:80, 49:81]),
                                 ((5, 80, 80), (np.int64(32), 64), np.s_[:, 24:56, 8:72])):
            assert crop_window(dims, crop, "v") == want

    @pytest.mark.parametrize("crop", [(60, 64), (0, 64), (-32, 64), (64,), (64, 64, 64),
                                      (64.0, 64), (True, 64), 64, "ab", None])
    def test_bad_crop_is_config_error(self, crop):
        with pytest.raises(ConfigError, match="crop must be two positive multiples of 32"):
            crop_window((8, 80, 80), crop, "v")

    def test_volume_that_cannot_hold_the_crop_is_data_error(self):
        with pytest.raises(DataError, match=r"smaller than the crop \(64, 64\) in v"):
            crop_window((8, 60, 60), (64, 64), "v")
        with pytest.raises(DataError, match=r"expected a 3D volume, got dims \[80, 80\] in v"):
            crop_window((80, 80), (64, 64), "v")

    def test_zero_threshold_keeps_every_slice(self):
        sample = synth_case(3, dims=(10, 64, 64))
        slices = extract_slices(sample, crop=(64, 64), min_foreground_fraction=0.0)
        assert len(slices) == 10
        assert slices.images.shape == (10, 3, 64, 64) and slices.images.dtype == np.float32
        assert slices.labels.dtype == np.uint8
        np.testing.assert_array_equal(slices.labels, sample.label)   # every slice, in depth order

    def test_threshold_matches_label_count_oracle(self):
        sample = synth_case(4, dims=(12, 80, 80))
        crop = (64, 64)
        thresh = 0.01
        slices = extract_slices(sample, crop=crop, min_foreground_fraction=thresh)
        cropped = sample.label[:, 8:72, 8:72]
        want = [z for z in range(12)
                if np.count_nonzero(cropped[z]) / (64 * 64) >= thresh]
        np.testing.assert_array_equal(slices.labels, cropped[want])
        every = extract_slices(sample, crop=crop, min_foreground_fraction=0.0)
        assert slices.images.tobytes() == every.images[want].tobytes()
        assert 0 < len(slices) < 12

    def test_slices_are_cropped_normalized_views_of_the_case(self):
        sample = synth_case(5, dims=(10, 80, 80))
        slices = extract_slices(sample, crop=(64, 64), min_foreground_fraction=0.0)
        normed = {m: normalize_modality(sample.modalities[m]) for m in MODALITIES}
        np.testing.assert_array_equal(slices.labels[4], sample.label[4, 8:72, 8:72])
        for i, m in enumerate(MODALITIES):
            np.testing.assert_array_equal(slices.images[4, i], normed[m][4, 8:72, 8:72])

    def test_window_zscore_is_full_volume_then_crop_bytewise(self):
        sample = synth_case(6, dims=(8, 96, 128))
        sample.modalities["t2"][:] = 0.0           # all-zero volume passes through
        sample.modalities["t2"][3, 40, 60] = -0.0  # with its sign, inside the window
        want = np.stack([normalize_modality(sample.modalities[m])[:, 16:80, 32:96]
                         for m in MODALITIES], axis=1)
        got = extract_slices(sample, crop=(64, 64), min_foreground_fraction=0.0).images
        assert got.dtype == want.dtype
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_all_background_case_yields_nothing_above_threshold(self):
        sample = synth_case(0, dims=(8, 64, 64), num_lesions=0)
        slices = extract_slices(sample, crop=(64, 64), min_foreground_fraction=0.001)
        assert len(slices) == 0
        assert slices.images.shape == (0, 3, 64, 64) and slices.labels.shape == (0, 64, 64)

    @staticmethod
    def _edge_case(name):
        if name == "all_background":
            return synth_case(8, dims=(8, 80, 96), num_lesions=0)
        sample = synth_case(8, dims=(12, 80, 96))
        if name == "zero_modality":
            sample.modalities["flair"][:] = 0.0
        elif name == "negative_zero":
            sample.modalities["t2"][5, 40, 50] = -0.0    # inside the window, volume has stats
            sample.modalities["t1ce"][:] = 0.0
            sample.modalities["t1ce"][2, 30, 40] = -0.0  # and in a volume without any
        elif name == "float64_modality":
            sample.modalities["t2"] = sample.modalities["t2"].astype(np.float64) * 1.1
        return sample

    @pytest.mark.parametrize("threshold", [0.0, 0.001, 0.01])
    @pytest.mark.parametrize("case", ["lesions", "all_background", "zero_modality",
                                      "negative_zero", "float64_modality"])
    def test_matches_per_slice_reference_bytewise(self, case, threshold):
        sample = self._edge_case(case)
        want_images, want_labels = reference_extract_slices(sample, (64, 64), threshold)
        slices = extract_slices(sample, crop=(64, 64), min_foreground_fraction=threshold)
        for got, want in ((slices.images, want_images), (slices.labels, want_labels)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_make_batch_slices_views_and_gathers_copies(self):
        sample = synth_case(6, dims=(8, 64, 64))
        slices = extract_slices(sample, crop=(64, 64), min_foreground_fraction=0.0)
        batch = make_batch(slices, slice(0, 5))
        assert batch.images.shape == (5, 3, 64, 64)
        assert batch.labels.shape == (5, 64, 64)
        assert len(batch) == 5
        assert np.shares_memory(batch.images, slices.images)
        assert np.shares_memory(batch.labels, slices.labels)
        picked = make_batch(slices, np.array([6, 1, 3]))
        np.testing.assert_array_equal(picked.images, slices.images[[6, 1, 3]])
        np.testing.assert_array_equal(picked.labels, slices.labels[[6, 1, 3]])
        assert not np.shares_memory(picked.images, slices.images)
        for empty in (slice(8, 12), np.array([], dtype=np.int64)):
            with pytest.raises(ContractError):
                make_batch(slices, empty)


class TestSplit:
    def test_headline_split_sizes(self):
        ids = [f"case_{i:04d}" for i in range(494)]
        train, val = split_dataset(ids)
        assert len(train) == 369 and len(val) == 125
        assert not set(train) & set(val)
        assert sorted(train + val) == ids

    def test_deterministic_and_sorted(self):
        ids = [f"c{i}" for i in range(20)]
        a = split_dataset(ids, 0.7, seed=3)
        b = split_dataset(list(reversed(ids)), 0.7, seed=3)
        assert a == b
        assert a[0] == sorted(a[0]) and a[1] == sorted(a[1])
        assert a != split_dataset(ids, 0.7, seed=4)

    def test_clamps_to_leave_both_sides_nonempty(self):
        train, val = split_dataset(["a", "b"], 0.99)
        assert len(train) == 1 and len(val) == 1
        train, val = split_dataset(["a", "b", "c"], 0.01)
        assert len(train) == 1 and len(val) == 2

    def test_contract_errors(self):
        with pytest.raises(ContractError):
            split_dataset(["only"])
        with pytest.raises(ContractError):
            split_dataset(["a", "a", "b"])
        with pytest.raises(ContractError):
            split_dataset(["a", "b"], 1.0)
        with pytest.raises(ContractError):
            split_dataset(["a", "b"], 0.0)
        with pytest.raises(ContractError, match="^seed must be >= 0, got -1"):
            split_dataset(["a", "b"], 0.5, -1)


class TestSynthCase:
    def test_deterministic_per_seed(self):
        a = synth_case(11, dims=(8, 64, 64))
        b = synth_case(11, dims=(8, 64, 64))
        np.testing.assert_array_equal(a.label, b.label)
        for m in MODALITIES:
            np.testing.assert_array_equal(a.modalities[m], b.modalities[m])
        c = synth_case(12, dims=(8, 64, 64))
        assert not np.array_equal(a.modalities["t2"], c.modalities["t2"])

    def test_labels_and_intensity_support(self):
        sample = synth_case(7, dims=(12, 80, 80))
        assert set(np.unique(sample.label)) <= {0, 1, 2, 3}
        assert {1, 2, 3} <= set(np.unique(sample.label))  # all shells rendered
        d, h, w = sample.dims
        zz, yy, xx = np.ogrid[:d, :h, :w]
        brain = (((zz - (d - 1) / 2) / (0.45 * d)) ** 2
                 + ((yy - (h - 1) / 2) / (0.45 * h)) ** 2
                 + ((xx - (w - 1) / 2) / (0.45 * w)) ** 2) <= 1.0
        for m in MODALITIES:
            vol = sample.modalities[m]
            np.testing.assert_array_equal(vol[~brain], 0.0)
            assert np.all(vol[brain] > 0.0)
        assert not sample.label[~brain].any()

    def test_zero_lesions_means_clean_brain(self):
        sample = synth_case(0, dims=(8, 64, 64), num_lesions=0)
        assert not sample.label.any()
        assert sample.modalities["flair"].any()

    def test_rejects_tiny_dims(self):
        with pytest.raises(ConfigError):
            synth_case(0, dims=(4, 64, 64))
        with pytest.raises(ConfigError):
            synth_case(0, dims=(8, 32, 64))
        with pytest.raises(ConfigError):
            synth_case(0, dims=(8, 64, 64), num_lesions=-1)

    @pytest.mark.parametrize("seed", [-1, [1, -1]])
    def test_a_negative_seed_is_a_config_error(self, seed):
        with pytest.raises(ConfigError, match="^seed must be >= 0"):
            synth_case(seed, dims=(8, 64, 64))
        with pytest.raises(ConfigError, match="^seed must be >= 0"):
            synth_lesion_geometry(seed)

    def test_dims_must_be_integers(self):
        with pytest.raises(ConfigError, match=r"^synth dims must be a tuple of 3 ints, got \(8.7, 64.9, 64\)"):
            synth_case(1, dims=(8.7, 64.9, 64))
        # numpy ints pass, as the ints a SynthSpec holds
        assert synth_case(1, dims=np.array([8, 64, 64]), num_lesions=0).dims == (8, 64, 64)

    def test_lesion_voxel_count_tracks_analytic_volume(self):
        # single lesion; every shell voxel carries a nonzero label, so the
        # foreground count should approximate the outer ellipsoid volume
        for seed in range(5):
            dims = (32, 96, 96)
            sample = synth_case(seed, dims=dims, num_lesions=1)
            geo = synth_lesion_geometry(seed, dims=dims, num_lesions=1)[0]
            count = int(np.count_nonzero(sample.label))
            assert 0.8 * geo.analytic_volume <= count <= 1.2 * geo.analytic_volume

    def test_core_nested_inside_edema(self):
        sample = synth_case(9, dims=(16, 96, 96), num_lesions=1)
        # label 3 core voxels must be surrounded by shells: dilating the core
        # support by the shell structure never escapes the labeled region
        lab = sample.label
        core = np.argwhere(lab == 3)
        assert core.size
        assert (lab != 0)[tuple(core.T)].all()
        # centroid of the core sits inside the label-1 hull which sits inside label 2's
        for inner, outer in ((3, 1), (1, 2)):
            pts = np.argwhere(lab == inner)
            centroid = pts.mean(axis=0).round().astype(int)
            assert lab[tuple(centroid)] in (inner, 3)


class TestSynthSpecAndRoots:
    def test_parse_defaults(self):
        assert parse_synth_uri("synth:") == SynthSpec()
        assert parse_synth_uri("synth:cases=4,seed=1") == SynthSpec(cases=4, seed=1)

    def test_parse_full_form(self):
        spec = parse_synth_uri("synth:cases=2,seed=9,dims=8x64x96,lesions=3")
        assert spec == SynthSpec(cases=2, seed=9, dims=(8, 64, 96), lesions=3)

    def test_parse_errors(self):
        for bad in ("file:/x", "synth:cases", "synth:cases=abc",
                    "synth:dims=8x64", "synth:banana=1"):
            with pytest.raises(ConfigError):
                parse_synth_uri(bad)

    def test_synth_dataset_ids_and_determinism(self):
        spec = SynthSpec(cases=3, seed=5, dims=(8, 64, 64))
        cases = synth_dataset(spec)
        assert [c.case_id for c in cases] == ["synth_000", "synth_001", "synth_002"]
        again = synth_dataset(spec)
        for a, b in zip(cases, again):
            np.testing.assert_array_equal(a.label, b.label)
        assert not np.array_equal(cases[0].label, cases[1].label)
        for bad in ({"cases": 0}, {"dims": (4, 4, 4)}, {"lesions": -1}):
            with pytest.raises(ConfigError):
                synth_dataset(SynthSpec(**bad))

    def test_load_data_root_synth_uri(self):
        cases = load_data_root("synth:cases=2,seed=1,dims=8x64x64", (64, 64))
        assert sorted(cases) == ["synth_000", "synth_001"]

    def test_load_data_root_directory(self, tmp_path):
        for seed, cid in ((1, "caseB"), (2, "caseA")):
            write_case(synth_case(seed, dims=(8, 64, 64), case_id=cid), tmp_path)
        cases = load_data_root(str(tmp_path), (64, 64))
        assert sorted(cases) == ["caseA", "caseB"]
        with pytest.raises(DataError):
            load_data_root(str(tmp_path / "missing"), (64, 64))


class TestSvolContainer:
    @pytest.mark.parametrize("dtype,shape", [(np.float32, (3, 4, 5)), (np.uint8, (7,)),
                                             (np.int16, (2, 2, 2, 2))])
    def test_round_trip_exact(self, tmp_path, dtype, shape):
        rng = np.random.default_rng(0)
        if np.issubdtype(dtype, np.floating):
            arr = rng.normal(0, 1, shape).astype(dtype)
        else:
            arr = rng.integers(0, 100, shape).astype(dtype)
        path = tmp_path / "x.svol"
        write_svol(path, arr)
        back = read_svol(path)
        assert back.dtype == dtype and back.shape == shape
        np.testing.assert_array_equal(back, arr)

    def test_float64_coerces_to_float32(self, tmp_path):
        arr = np.array([1.5, 2.5], dtype=np.float64)
        write_svol(tmp_path / "x.svol", arr)
        back = read_svol(tmp_path / "x.svol")
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, arr.astype(np.float32))

    @pytest.mark.parametrize("arr", [np.array([0, 7, 255], dtype=np.uint16),
                                     np.array([-32768, 5, 32767], dtype=np.int32)])
    def test_integers_in_range_round_trip_exactly(self, tmp_path, arr):
        write_svol(tmp_path / "x.svol", arr)
        np.testing.assert_array_equal(read_svol(tmp_path / "x.svol"), arr)

    @pytest.mark.parametrize("arr", [np.array([300, 65535], dtype=np.uint16),
                                     np.array([70000], dtype=np.int32),
                                     np.array([2**64 - 1], dtype=np.uint64)])
    def test_integers_out_of_range_are_refused(self, tmp_path, arr):
        with pytest.raises(FormatError, match="cannot hold"):
            write_svol(tmp_path / "x.svol", arr)
        assert not list(tmp_path.iterdir())

    def test_format_errors(self, tmp_path):
        path = tmp_path / "bad.svol"
        path.write_bytes(b"NOTSVOL0" + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_svol(path)
        path.write_bytes(b"SVOL0001" + struct.pack("<I", 3) + struct.pack("<I", 2))
        with pytest.raises(FormatError):
            read_svol(path)  # truncated header
        path.write_bytes(b"SVOL0001" + struct.pack("<I", 1) + struct.pack("<I", 2)
                         + struct.pack("<B", 9) + b"\x00" * 8)
        with pytest.raises(FormatError):
            read_svol(path)  # unknown dtype code
        good = b"SVOL0001" + struct.pack("<I", 1) + struct.pack("<I", 2) + struct.pack("<B", 1)
        path.write_bytes(good + b"\x00")  # one byte short of two u1 values
        with pytest.raises(FormatError):
            read_svol(path)
        path.write_bytes(good + b"\x00" * 3)  # one byte past them
        with pytest.raises(FormatError, match="1 trailing bytes at byte 19"):
            read_svol(path)
        # rank 4, dims 65536^4, no payload: 2^64 elements, which wraps to 0 in int64
        path.write_bytes(b"SVOL0001" + struct.pack("<5I", 4, *[65536] * 4) + b"\x01")
        with pytest.raises(FormatError, match="payload size"):
            read_svol(path)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            read_svol(tmp_path / "nope.svol")


def build_nifti_bytes(data, bo="<", datatype=2, vox_offset=348.0, scl=(0.0, 0.0),
                      magic=b"n+1\x00", pixdim=(1.0,) * 8, dim=None, bitpix=None):
    """Hand-assemble a single-file NIfTI-1 blob, x varying fastest."""
    arr = np.asarray(data)
    nz, ny, nx = arr.shape
    itemsize = {2: 1, 4: 2, 16: 4, 512: 2}[datatype]
    hdr = bytearray(348)
    struct.pack_into(bo + "i", hdr, 0, 348)
    struct.pack_into(bo + "8h", hdr, 40, *(dim or (3, nx, ny, nz, 1, 1, 1, 1)))
    struct.pack_into(bo + "h", hdr, 70, datatype)
    struct.pack_into(bo + "h", hdr, 72, bitpix if bitpix is not None else itemsize * 8)
    struct.pack_into(bo + "8f", hdr, 76, *pixdim)
    struct.pack_into(bo + "f", hdr, 108, vox_offset)
    struct.pack_into(bo + "f", hdr, 112, scl[0])
    struct.pack_into(bo + "f", hdr, 116, scl[1])
    hdr[344:348] = magic
    np_dtype = {2: "u1", 4: "i2", 16: "f4", 512: "u2"}[datatype]
    payload = arr.astype(np.dtype(np_dtype).newbyteorder(bo)).tobytes()
    pad = b"\x00" * (int(vox_offset) - 348)
    return bytes(hdr) + pad + payload


class TestNiftiReader:
    def test_hand_built_fixture_and_axis_order(self, tmp_path):
        # voxel value encodes its coordinate: v = z*4 + y*2 + x
        data = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        path = tmp_path / "t.nii"
        path.write_bytes(build_nifti_bytes(data))
        vol = read_nifti(path)
        assert vol.shape == (2, 2, 2) and vol.dtype == np.uint8
        for z in range(2):
            for y in range(2):
                for x in range(2):
                    assert vol[z, y, x] == z * 4 + y * 2 + x

    def test_scl_scaling_applies(self, tmp_path):
        data = np.array([[[3]]], dtype=np.int16)
        path = tmp_path / "s.nii"
        path.write_bytes(build_nifti_bytes(data, datatype=4, scl=(2.0, 1.0)))
        vol = read_nifti(path)
        assert vol.dtype == np.float32
        assert vol[0, 0, 0] == 7.0

    def test_slope_zero_means_stored_values(self, tmp_path):
        data = np.array([[[5]]], dtype=np.int16)
        path = tmp_path / "s.nii"
        path.write_bytes(build_nifti_bytes(data, datatype=4, scl=(0.0, 9.0)))
        vol = read_nifti(path)
        assert vol.dtype == np.int16 and vol[0, 0, 0] == 5

    def test_big_endian_header_and_payload(self, tmp_path):
        data = np.arange(8, dtype=np.int16).reshape(2, 2, 2) * 100
        path = tmp_path / "be.nii"
        path.write_bytes(build_nifti_bytes(data, bo=">", datatype=4))
        vol = read_nifti(path)
        assert vol[1, 1, 1] == 700
        assert vol.dtype.byteorder in ("=", "<", "|")  # native on the way out

    def test_vox_offset_padding_respected(self, tmp_path):
        data = np.full((1, 1, 1), 42, dtype=np.uint8)
        path = tmp_path / "p.nii"
        path.write_bytes(build_nifti_bytes(data, vox_offset=400.0))
        assert read_nifti(path)[0, 0, 0] == 42

    def test_trailing_singleton_dims_squeeze(self, tmp_path):
        data = np.arange(4, dtype=np.uint8).reshape(1, 2, 2)
        path = tmp_path / "d4.nii"
        path.write_bytes(build_nifti_bytes(data, dim=(4, 2, 2, 1, 1, 1, 1, 1)))
        assert read_nifti(path).shape == (1, 2, 2)

    def test_format_errors(self, tmp_path):
        data = np.zeros((1, 1, 1), dtype=np.uint8)
        cases = {
            "magic.nii": build_nifti_bytes(data, magic=b"oops"),
            "dtype.nii": build_nifti_bytes(data)[:70] + struct.pack("<h", 99)
                          + build_nifti_bytes(data)[72:],
            "bitpix.nii": build_nifti_bytes(data, bitpix=32),
            "offset.nii": build_nifti_bytes(data, vox_offset=100.0),
            "short.nii": build_nifti_bytes(data)[:200],
            "trunc.nii": build_nifti_bytes(np.zeros((2, 2, 2), dtype=np.uint8))[:-4],
        }
        for name, blob in cases.items():
            path = tmp_path / name
            path.write_bytes(blob)
            with pytest.raises(FormatError):
                read_nifti(path)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            read_nifti(tmp_path / "absent.nii")

    def test_writer_round_trip_and_spacing(self, tmp_path):
        rng = np.random.default_rng(0)
        for dtype in (np.uint8, np.int16, np.uint16, np.float32):
            arr = rng.integers(0, 50, (3, 4, 5)).astype(dtype)
            path = tmp_path / f"{np.dtype(dtype).name}.nii"
            write_nifti(path, arr, spacing=(2.0, 0.5, 0.25))
            back = read_nifti(path)
            assert back.dtype == dtype
            np.testing.assert_array_equal(back, arr)
            assert read_spacing(path) == (2.0, 0.5, 0.25)

    @pytest.mark.parametrize("name", ["wide.nii", "wide.nii.gz"])
    def test_dims_beyond_int16_are_refused_before_opening(self, tmp_path, name):
        # NIfTI-1 stores each dim as an int16
        for shape in ((1, 1, 32768), (40000, 1, 1)):
            with pytest.raises(FormatError, match="at most 32767"):
                write_nifti(tmp_path / name, np.zeros(shape, dtype=np.uint8))
        assert not list(tmp_path.iterdir())
        write_nifti(tmp_path / name, np.zeros((1, 1, 32767), dtype=np.uint8))
        assert read_nifti(tmp_path / name).shape == (1, 1, 32767)

    def test_gzip_round_trip(self, tmp_path):
        arr = np.random.default_rng(1).normal(0, 1, (2, 3, 4)).astype(np.float32)
        path = tmp_path / "z.nii.gz"
        write_nifti(path, arr)
        with gzip.open(path, "rb") as fh:
            assert fh.read(4) == struct.pack("<i", 348)
        np.testing.assert_array_equal(read_nifti(path), arr)

    def test_spacing_reads_only_the_header(self, tmp_path):
        # noise barely compresses, so cutting the .gz in half cuts the payload
        arr = np.random.default_rng(2).normal(0, 1, (16, 64, 64)).astype(np.float32)
        for name in ("v.nii", "v.nii.gz"):
            path = tmp_path / name
            write_nifti(path, arr, spacing=(3.0, 1.5, 0.75))
            assert read_spacing(path) == (3.0, 1.5, 0.75)
            path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
            assert read_spacing(path) == (3.0, 1.5, 0.75)
        short = tmp_path / "short.nii"
        short.write_bytes(build_nifti_bytes(arr[:1, :1, :1])[:200])
        with pytest.raises(FormatError):
            read_spacing(short)


class TestHostileVolumeFiles:
    """Every truncation and single-byte flip of a small file reads or raises a DataError."""

    @pytest.mark.parametrize("name", ["v.nii", "v.nii.gz", "v.svol"])
    def test_every_prefix_and_byte_flip(self, tmp_path, name):
        arr = np.arange(24, dtype=np.int16).reshape(2, 3, 4)
        path = tmp_path / name
        if name.endswith(".svol"):
            write_svol(path, arr)
            readers = (read_svol,)
        else:
            write_nifti(path, arr, spacing=(2.0, 1.0, 0.5))
            readers = (read_nifti, read_spacing)
        blob = path.read_bytes()
        variants = [blob[:k] for k in range(len(blob))]
        variants += [blob[:i] + bytes([blob[i] ^ flip]) + blob[i + 1:]
                     for i in range(len(blob)) for flip in (0x01, 0x80, 0xFF)]
        outcomes = collections.Counter()
        for data in variants:
            path.write_bytes(data)
            for read in readers:
                try:
                    read(path)
                    outcomes["read"] += 1
                except DataError as exc:    # FormatError included; anything else fails
                    outcomes[type(exc).__name__] += 1
                    if read is read_svol:
                        assert re.search(r"byte \d+|not a svol file", str(exc)), str(exc)
        assert set(outcomes) == {"read", "FormatError"}
        # read_nifti rejects every truncation, since each one cuts the payload
        assert outcomes["FormatError"] >= len(blob)

    def test_sizeof_hdr_flips_fail_both_readers(self, tmp_path):
        path = tmp_path / "v.nii"
        write_nifti(path, np.arange(24, dtype=np.int16).reshape(2, 3, 4))
        blob = path.read_bytes()
        for i in range(4):
            for flip in (0x01, 0x80, 0xFF):
                path.write_bytes(blob[:i] + bytes([blob[i] ^ flip]) + blob[i + 1:])
                for read in (read_nifti, read_spacing):
                    with pytest.raises(FormatError, match="sizeof_hdr at byte 0"):
                        read(path)
        path.write_bytes(bytes(400))
        with pytest.raises(FormatError, match="byte 0"):
            read_spacing(path)

    def test_gzip_faults_name_the_file(self, tmp_path):
        path = tmp_path / "v.nii.gz"
        write_nifti(path, np.zeros((2, 3, 4), dtype=np.int16))
        blob = path.read_bytes()
        for data in (blob[:len(blob) // 2],                  # stream ends early
                     b"\x1f\x8c" + blob[2:],                  # not a gzip magic
                     blob[:-8] + bytes(8)):                   # CRC and length wrong
            path.write_bytes(data)
            with pytest.raises(FormatError, match="corrupt gzip stream in .*v.nii.gz"):
                read_nifti(path)

    def test_scaling_must_stay_finite(self, tmp_path):
        data = np.full((1, 1, 2), 30000, dtype=np.int16)
        path = tmp_path / "s.nii"
        for scl in ((float("nan"), 0.0), (1.0, float("inf")), (3e38, 0.0)):
            path.write_bytes(build_nifti_bytes(data, datatype=4, scl=scl))
            with pytest.raises(FormatError, match="byte 112"):
                read_nifti(path)


def _gzip_members(*parts):
    return b"".join(gzip.compress(part, compresslevel=1, mtime=0) for part in parts)


def _with_extension(blob, vox_offset):
    """`blob` (padded to vox_offset) with an extension flag and nonzero extension bytes."""
    ext = b"\x01\x00\x00\x00" + bytes(range(1, vox_offset - 352 + 1))
    return blob[:348] + ext + blob[vox_offset:]


def _stream_fixtures():
    rng = np.random.default_rng(7)
    f32 = rng.normal(0, 1, (20, 160, 200)).astype(np.float32)   # 2.56 MB, three pieces
    i2 = rng.integers(-3000, 3000, (3, 5, 7)).astype(np.int16)
    u1 = rng.integers(0, 256, (4, 6, 9)).astype(np.uint8)
    return {
        "f32_pieces": build_nifti_bytes(f32, datatype=16),
        "be_i2_scaled": build_nifti_bytes(i2, bo=">", datatype=4, scl=(0.5, -3.0)),
        "u1": build_nifti_bytes(u1),
        "extension": _with_extension(build_nifti_bytes(u1, vox_offset=400.0), 400),
        "trailing": build_nifti_bytes(i2, datatype=4) + b"trailing bytes" * 50,
    }


class TestStreamingNiftiReader:
    """read_nifti reads each payload piece by piece into its final array; the
    result equals the whole-blob reference reader's, byte for byte."""

    @staticmethod
    def _assert_matches_reference(path):
        vol, ref = read_nifti(path), reference_read_nifti(path)
        assert vol.dtype == ref.dtype and vol.shape == ref.shape
        assert vol.tobytes() == ref.tobytes()
        assert vol.flags.writeable and vol.flags.c_contiguous

    @pytest.mark.parametrize("piece", [None, 1000])   # default, and pieces off the item grid
    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    def test_matches_whole_blob_reader(self, tmp_path, monkeypatch, suffix, piece):
        if piece is not None:
            monkeypatch.setattr(errors_module, "PIECE", piece)
        for name, blob in _stream_fixtures().items():
            path = tmp_path / (name + suffix)
            path.write_bytes(_gzip_members(blob) if suffix == ".nii.gz" else blob)
            self._assert_matches_reference(path)

    def test_two_member_gzip(self, tmp_path):
        blob = _stream_fixtures()["f32_pieces"]
        path = tmp_path / "two.nii.gz"
        path.write_bytes(_gzip_members(blob[:1000], blob[1000:]))
        self._assert_matches_reference(path)
        path.write_bytes(_gzip_members(blob[:1000], blob[1000:-4]))
        with pytest.raises(FormatError, match="truncated payload"):
            read_nifti(path)

    @pytest.mark.parametrize("name", ["h.nii", "h.nii.gz", "h.svol"])
    def test_huge_dims_fail_before_allocating(self, tmp_path, monkeypatch, name):
        # a whole read, a scaled one and a case cut to its crop windows are
        # each bounded by the file's size before the volume or window is made
        if name.endswith(".svol"):
            header = b"SVOL0001" + struct.pack("<4IB", 3, 2**32 - 1, 64, 64, 1)
            blobs, at = [header + b"\0"], len(header)
        else:
            blobs = [build_nifti_bytes(np.zeros((1, 1, 1), dtype=np.float32), datatype=16,
                                       vox_offset=352.0, scl=scl,
                                       dim=(3, 32767, 32767, 32767, 1, 1, 1, 1))
                     for scl in ((0.0, 0.0), (2.0, 1.0))]
            at = 352
        if name.endswith(".gz"):
            blobs = [_gzip_members(blob) for blob in blobs]
        path, case_dir = tmp_path / name, tmp_path / "h"
        case_dir.mkdir()

        def no_allocation(*args, **kwargs):
            raise AssertionError("a read allocated before bounding the payload")

        monkeypatch.setattr(np, "empty", no_allocation)
        for blob in blobs:
            path.write_bytes(blob)
            with pytest.raises(FormatError, match=f"truncated payload from byte {at}"):
                read_volume(path)
            for part in (*MODALITIES, "seg"):
                file = f"{part}.svol" if name.endswith(".svol") else f"h_{part}{name[1:]}"
                (case_dir / file).write_bytes(blob)
            with pytest.raises(FormatError, match=f"truncated payload from byte {at}"):
                load_case(tmp_path, "h", crop=(32, 32))

    @pytest.mark.parametrize("name", ["o.nii", "o.nii.gz"])
    def test_non_finite_vox_offset(self, tmp_path, name):
        blob = bytearray(build_nifti_bytes(np.zeros((1, 1, 2), dtype=np.uint8)))
        path = tmp_path / name
        for bad in (float("nan"), float("inf"), float("-inf")):
            struct.pack_into("<f", blob, 108, bad)
            path.write_bytes(_gzip_members(bytes(blob)) if name.endswith(".gz") else blob)
            with pytest.raises(FormatError, match="vox_offset .* at byte 108"):
                read_nifti(path)


class TestCaseIO:
    def test_volume_codec_follows_the_suffix(self, tmp_path):
        vol = np.arange(24, dtype=np.int16).reshape(2, 3, 4)
        for name in ("v.nii", "v.nii.gz", "v.svol"):
            write_volume(tmp_path / name, vol, (2.0, 1.0, 0.5))
            np.testing.assert_array_equal(read_volume(tmp_path / name), vol)
        assert read_spacing(tmp_path / "v.nii.gz") == (2.0, 1.0, 0.5)
        assert (tmp_path / "v.svol").read_bytes()[:4] == b"SVOL"
        with pytest.raises(ConfigError, match="v.raw"):
            write_volume(tmp_path / "v.raw", vol)
        assert not (tmp_path / "v.raw").exists()
        (tmp_path / "v.raw").write_bytes((tmp_path / "v.nii").read_bytes())
        with pytest.raises(ConfigError, match="v.raw"):
            read_volume(tmp_path / "v.raw")

    @pytest.mark.parametrize("fmt", ["nii", "svol"])
    def test_write_then_load_is_bit_exact(self, tmp_path, fmt):
        sample = synth_case(13, dims=(8, 64, 64), case_id="case_rt")
        write_case(sample, tmp_path, fmt=fmt)
        back = load_case(tmp_path, "case_rt")
        assert back.case_id == "case_rt"
        np.testing.assert_array_equal(back.label, sample.label)
        for m in MODALITIES:
            np.testing.assert_array_equal(back.modalities[m], sample.modalities[m])
        if fmt == "nii":
            assert back.spacing == (1.0, 1.0, 1.0)
        else:
            assert back.spacing is None

    def test_raw_label_four_is_remapped_on_load(self, tmp_path):
        case_dir = tmp_path / "raw1"
        case_dir.mkdir()
        vol = np.ones((8, 64, 64), dtype=np.float32)
        for m in MODALITIES:
            write_nifti(case_dir / f"raw1_{m}.nii", vol)
        seg = np.zeros((8, 64, 64), dtype=np.uint8)
        seg[2, 30:34, 30:34] = 4
        seg[3, 30:34, 30:34] = 2
        write_nifti(case_dir / "raw1_seg.nii", seg)
        sample = load_case(tmp_path, "raw1")
        assert set(np.unique(sample.label)) == {0, 2, 3}
        assert (sample.label[2, 30:34, 30:34] == 3).all()

    def test_contiguous_labels_kept_verbatim(self, tmp_path):
        sample = synth_case(14, dims=(8, 64, 64), case_id="ctg")
        write_case(sample, tmp_path)
        assert np.array_equal(load_case(tmp_path, "ctg").label, sample.label)

    def test_out_of_range_label_rejected(self, tmp_path):
        case_dir = tmp_path / "bad"
        case_dir.mkdir()
        vol = np.ones((8, 64, 64), dtype=np.float32)
        for m in MODALITIES:
            write_nifti(case_dir / f"bad_{m}.nii", vol)
        seg = np.zeros((8, 64, 64), dtype=np.uint8)
        seg[0, 0, 0] = 7
        write_nifti(case_dir / "bad_seg.nii", seg)
        with pytest.raises(DataError):
            load_case(tmp_path, "bad")

    def test_missing_pieces(self, tmp_path):
        with pytest.raises(DataError):
            load_case(tmp_path, "ghost")
        case_dir = tmp_path / "partial"
        case_dir.mkdir()
        write_nifti(case_dir / "partial_t1ce.nii", np.ones((4, 64, 64), dtype=np.float32))
        with pytest.raises(DataError):
            load_case(tmp_path, "partial")

    @pytest.mark.parametrize("crop", [None, (64, 64)], ids=["whole", "cropped"])
    def test_raw_label_four_is_checked_without_a_sort(self, tmp_path, monkeypatch, crop):
        sample = synth_case(14, dims=(8, 64, 96), case_id="raw")
        case_dir = write_case(sample, tmp_path)
        raw = sample.label.astype(np.int16)
        raw[raw == 3] = 4
        assert set(np.unique(raw)) == {0, 1, 2, 4}
        write_nifti(case_dir / "raw_seg.nii", raw)
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
        label = load_case(tmp_path, "raw", crop=crop).label
        monkeypatch.undo()
        assert calls == []   # the values are scanned, not sorted
        want = sample.label if crop is None else sample.label[:, :, 16:80]
        assert label.dtype == want.dtype and label.tobytes() == want.tobytes()
        raw[0, 0, 0] = 3   # 3 and 4 together are neither convention, even outside the window
        write_nifti(case_dir / "raw_seg.nii", raw)
        with pytest.raises(DataError, match=r"label value\(s\) \[3\] outside \[0, 1, 2, 4\]"):
            load_case(tmp_path, "raw", crop=crop)

    def test_missing_seg_behaviour(self, tmp_path):
        sample = synth_case(15, dims=(8, 64, 64), case_id="noseg")
        case_dir = write_case(sample, tmp_path)
        (case_dir / "noseg_seg.nii").unlink()
        with pytest.raises(DataError):
            load_case(tmp_path, "noseg")
        loaded = load_case(tmp_path, "noseg", require_seg=False)
        assert not loaded.label.any()
        assert loaded.label.shape == sample.dims

    def test_dim_mismatch_rejected(self, tmp_path):
        sample = synth_case(16, dims=(8, 64, 64), case_id="dm")
        case_dir = write_case(sample, tmp_path)
        write_nifti(case_dir / "dm_t2.nii", np.ones((8, 64, 96), dtype=np.float32))
        with pytest.raises(DataError):
            load_case(tmp_path, "dm")

    def test_empty_case_dir_names_t1ce(self, tmp_path):
        (tmp_path / "empty").mkdir()
        threads = threading.active_count()
        with pytest.raises(DataError, match="'t1ce'"):
            load_case(tmp_path, "empty")
        assert threading.active_count() == threads

    def test_errors_come_in_file_order(self, tmp_path):
        case_dir = write_case(synth_case(17, dims=(8, 64, 64), case_id="eo"), tmp_path)
        # t1ce corrupt, seg missing: the t1ce error, as a sequential read meets it
        t1ce = (case_dir / "eo_t1ce.nii").read_bytes()
        (case_dir / "eo_t1ce.nii").write_bytes(t1ce[:-4])
        (case_dir / "eo_seg.nii").unlink()
        with pytest.raises(FormatError, match="eo_t1ce.nii"):
            load_case(tmp_path, "eo", require_seg=True)
        # t2 and flair corrupt: t2 comes first, even when flair fails faster
        (case_dir / "eo_t1ce.nii").write_bytes(t1ce)
        t2 = (case_dir / "eo_t2.nii").read_bytes()
        (case_dir / "eo_t2.nii").write_bytes(t2[:-4])
        (case_dir / "eo_flair.nii").write_bytes(b"")
        for _ in range(5):
            with pytest.raises(FormatError, match="eo_t2.nii"):
                load_case(tmp_path, "eo", require_seg=False)

    def test_reader_threads_end_with_the_call(self, tmp_path):
        case_dir = write_case(synth_case(18, dims=(8, 64, 64), case_id="th"), tmp_path)
        threads = threading.active_count()
        load_case(tmp_path, "th")
        assert threading.active_count() == threads
        (case_dir / "th_flair.nii").write_bytes(b"")
        with pytest.raises(FormatError):
            load_case(tmp_path, "th")
        assert threading.active_count() == threads

    def test_list_cases_sorted(self, tmp_path):
        for cid in ("zeta", "alpha"):
            (tmp_path / cid).mkdir()
        (tmp_path / "stray.txt").write_text("x")
        assert list_cases(tmp_path) == ["alpha", "zeta"]
        with pytest.raises(DataError):
            list_cases(tmp_path / "void")


def _write_case_as(sample, root, suffix):
    """`sample` written as a case in the .nii, .nii.gz or .svol layout; returns the case dir."""
    if suffix != ".nii.gz":
        return write_case(sample, root, fmt=suffix[1:])
    case_dir = root / sample.case_id
    case_dir.mkdir(parents=True)
    for name, vol in {**sample.modalities, "seg": sample.label}.items():
        write_nifti(case_dir / f"{sample.case_id}_{name}.nii.gz", vol, sample.spacing)
    return case_dir


class TestCroppedLoad:
    """`load_case(..., crop=c)` reads each file a slab at a time into its crop window.

    Slicing the cut case gives the bytes slicing the whole case gives, and
    every fault is raised as the whole read raises it.
    """

    @staticmethod
    def _assert_parity(root, case_id, crop):
        whole = load_case(root, case_id)
        cut = load_case(root, case_id, crop=crop)
        assert cut.dims == whole.dims and cut.spacing == whole.spacing
        assert all(v.shape == (whole.dims[0], *crop)
                   for v in (*cut.modalities.values(), cut.label))
        for threshold in (0.0, run_preset("desk").min_foreground):
            want = extract_slices(whole, crop, threshold)
            got = extract_slices(cut, crop, threshold)
            for g, w in ((got.images, want.images), (got.labels, want.labels)):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()
        return cut

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz", ".svol"])
    def test_cut_case_slices_like_the_whole_case(self, tmp_path, monkeypatch, suffix):
        # small pieces: depth 13 takes several slabs and ends in a short one
        monkeypatch.setattr(errors_module, "PIECE", 100_000)
        sample = synth_case(21, dims=(13, 96, 128), case_id="w")
        for vol in sample.modalities.values():
            vol[-1, 10:40, 20:60] = 0.7   # the short last slab counts towards the stats
        _write_case_as(sample, tmp_path, suffix)
        cut = self._assert_parity(tmp_path, "w", (64, 64))
        with pytest.raises(ContractError, match="cut to the crop"):
            extract_slices(cut, (32, 64))
        with pytest.raises(ContractError):
            write_case(cut, tmp_path / "again")

    def test_big_endian_and_scaled_files(self, tmp_path, monkeypatch):
        monkeypatch.setattr(errors_module, "PIECE", 50_000)
        sample = synth_case(22, dims=(11, 64, 96), case_id="h")
        case_dir = tmp_path / "h"
        case_dir.mkdir()
        as_int16 = np.rint(sample.modalities["flair"] * 1000).astype(np.int16)
        raw_seg = sample.label.copy()
        raw_seg[raw_seg == 3] = 4
        files = {
            "t1ce.nii": build_nifti_bytes(sample.modalities["t1ce"], bo=">", datatype=16),
            "t2.nii": build_nifti_bytes(np.rint(sample.modalities["t2"] * 500).astype(np.int16),
                                        datatype=4, scl=(0.25, -1.5)),
            "flair.nii.gz": gzip.compress(build_nifti_bytes(as_int16, bo=">", datatype=4,
                                                            scl=(0.5, 0.0)), mtime=0),
            "seg.nii": build_nifti_bytes(raw_seg),
        }
        for name, blob in files.items():
            (case_dir / f"h_{name}").write_bytes(blob)
        self._assert_parity(tmp_path, "h", (64, 96))   # the crop is the whole plane

    def test_faults_raise_as_the_whole_read_raises_them(self, tmp_path):
        sample = synth_case(23, dims=(8, 64, 96), case_id="f")
        case_dir = write_case(sample, tmp_path)
        t2, seg = (case_dir / "f_t2.nii").read_bytes(), (case_dir / "f_seg.nii").read_bytes()

        def messages(error, pattern):
            got = []
            for crop in (None, (64, 64)):
                with pytest.raises(error, match=pattern) as exc:
                    load_case(tmp_path, "f", crop=crop)
                got.append(str(exc.value))
            assert got[0] == got[1]

        (case_dir / "f_t2.nii").unlink()
        (case_dir / "f_t2.nii.gz").write_bytes(gzip.compress(t2[:-1000], mtime=0))
        messages(FormatError, r"truncated payload from byte 352 .* ends at byte \d+")
        (case_dir / "f_t2.nii.gz").unlink()
        write_nifti(case_dir / "f_t2.nii", np.ones((8, 64, 128), dtype=np.float32))
        messages(DataError, r"dim mismatch for 't2'")
        (case_dir / "f_t2.nii").write_bytes(t2)
        write_nifti(case_dir / "f_seg.nii", np.zeros((9, 64, 96), dtype=np.uint8))
        messages(DataError, r"segmentation dims \(9, 64, 96\)")
        bad = sample.label.copy()
        bad[7, 63, 0] = 7   # outside the crop window
        write_nifti(case_dir / "f_seg.nii", bad)
        messages(DataError, r"label value\(s\) \[7\] outside \[0, 1, 2, 3\]")
        bad[bad == 3] = 4   # and a raw 4 under the larger max
        write_nifti(case_dir / "f_seg.nii", bad)
        messages(DataError, r"label value\(s\) \[7\] outside \[0, 1, 2, 4\]")
        write_nifti(case_dir / "f_seg.nii", sample.label.astype(np.float32) + 0.5)
        messages(DataError, "non-integer label values")
        for value, dtype, pattern in ((-1, np.int16, r"\[-1\] outside \[0, 1, 2, 3\]"),
                                      (5.0, np.float32, r"\[5\] outside \[0, 1, 2, 3\]"),
                                      (np.inf, np.float32, "non-integer label values"),
                                      (-np.inf, np.float32, "non-integer label values")):
            bad = sample.label.astype(dtype)
            bad[0, 0, 95] = value   # outside the crop window
            write_nifti(case_dir / "f_seg.nii", bad)
            messages(DataError, pattern)
        (case_dir / "f_seg.nii").write_bytes(seg)
        write_nifti(case_dir / "f_flair.nii", np.ones((8, 32, 96), dtype=np.float32))
        with pytest.raises(DataError, match="smaller than the crop"):
            load_case(tmp_path, "f", crop=(64, 64))

    @pytest.mark.parametrize("crop", [(60, 64), (0, 64), (-32, 64), (64,), (64, 64, 64),
                                      (64.0, 64)])
    def test_bad_crop_is_config_error_in_every_load(self, tmp_path, crop):
        sample = synth_case(25, dims=(8, 64, 96), case_id="c")
        with pytest.raises(ConfigError, match="crop must be"):   # before the missing case
            load_case(tmp_path, "c", crop=crop)
        write_case(sample, tmp_path)
        for cut in (sample, load_case(tmp_path, "c"), load_case(tmp_path, "c", crop=(64, 64))):
            with pytest.raises(ConfigError, match="crop must be"):
                extract_slices(cut, crop)
        with pytest.raises(ConfigError, match="crop must be"):
            load_case(tmp_path, "c", crop=crop)

    @pytest.mark.parametrize("values", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]])
    def test_non_finite_voxel_is_data_error(self, tmp_path, values):
        sample = synth_case(26, dims=(8, 64, 96), case_id="n")
        # outside the brain and the crop window
        sample.modalities["t2"][0, 0, :len(values)] = values
        with pytest.raises(DataError, match="NaN or infinite voxel values in 't2' of case n"):
            extract_slices(sample, (64, 64))
        write_case(sample, tmp_path)
        with pytest.raises(DataError, match="NaN or infinite voxel values in 't2' of case n"):
            extract_slices(load_case(tmp_path, "n"), (64, 64))
        with pytest.raises(DataError, match=r"NaN or infinite voxel values in \S*n_t2\.nii"):
            load_case(tmp_path, "n", crop=(64, 64))

    def test_streamed_load_holds_windows_only(self, tmp_path):
        write_case(synth_case(24, dims=(48, 240, 240), case_id="m"), tmp_path)
        crop = (64, 64)
        peaks = {}
        for mode in (None, crop):
            tracemalloc.start()
            try:
                extract_slices(load_case(tmp_path, "m", crop=mode), crop, 0.0)
                peaks[mode] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[crop] < peaks[None] / 2, peaks
        tracemalloc.start()
        try:
            case = load_data_root(str(tmp_path), crop)["m"]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        windows = [*case.modalities.values(), case.label]
        assert all(v.shape == (48, *crop) for v in windows)
        assert held < sum(v.nbytes for v in windows) + 2**20, held

    def test_directory_root_trains_like_its_synth_root(self, tmp_path):
        uri = "synth:cases=2,seed=3,dims=8x96x96"
        for sample in synth_dataset(parse_synth_uri(uri)):
            write_case(sample, tmp_path / "cases")
        curves = []
        for root in (uri, str(tmp_path / "cases")):
            cfg = run_preset("desk")
            cfg = dataclasses.replace(cfg, epochs=2, val_on_train=True, data_root=root,
                                      output_dir=str(tmp_path / f"run{len(curves)}"))
            curves.append(Path(train(cfg)["curves"]).read_bytes())
        assert curves[0] == curves[1]


def _writes_files(call: ast.Call) -> bool:
    """Whether `call` renames or copies a file, makes a directory, or opens a file to write."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    owner = getattr(getattr(func, "value", None), "id", None)
    if name in ("mkdir", "makedirs", "write_bytes", "write_text"):
        return True
    if (owner == "os" and name in ("replace", "rename")) or \
            (owner == "shutil" and name != "copyfileobj"):
        return True
    if name != "open":
        return False
    modes = [*call.args[:2], *(k.value for k in call.keywords if k.arg == "mode")]
    return any(isinstance(m, ast.Constant) and isinstance(m.value, str)
               and re.fullmatch(r"[rbt]*[wax+][rwaxbt+]*", m.value) for m in modes)


class TestFilePolicy:
    """Files are opened, read, written and made only through the helpers in errors.py."""

    def test_failed_block_keeps_the_old_file_and_no_temp(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError, match="interrupted"):
            with open_output(target) as fh:
                fh.write(b"new, never completed")
                raise RuntimeError("interrupted")
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
        with open_output(target) as fh:
            fh.write(b"new")
        assert target.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_gzip_header_names_the_final_file(self, tmp_path):
        write_nifti(tmp_path / "x.nii.gz", np.zeros((2, 3, 4), dtype=np.uint8))
        blob = (tmp_path / "x.nii.gz").read_bytes()
        assert blob[3] & 0x08                                 # FNAME flag
        assert blob[10:blob.index(b"\0", 10)] == b"x.nii"

    @staticmethod
    def _calls_outside_errors_py(matches) -> list[str]:
        src = Path(segforge.__file__).parent
        return [f"{path.name}:{node.lineno}"
                for path in sorted(src.glob("*.py")) if path.name != "errors.py"
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Call) and matches(node)]

    def test_only_errors_py_writes_files(self):
        assert self._calls_outside_errors_py(_writes_files) == []
        assert _writes_files(ast.parse("open(p, 'wb')").body[0].value)
        assert not _writes_files(ast.parse("open(p, 'rb')").body[0].value)

    def test_only_errors_py_reads_files(self):
        def reads(call):
            return isinstance(call.func, ast.Attribute) and call.func.attr in ("read", "readinto")

        assert self._calls_outside_errors_py(reads) == []

    @staticmethod
    def _odd_arrays():
        """Arrays a writer must convert: other byte order, Fortran order, strided, other dtype."""
        rng = np.random.default_rng(2)
        f8 = np.asfortranarray(rng.normal(0, 1, (3, 4, 5)))
        return {"f4": rng.normal(0, 1, (3, 4, 5)).astype(np.float32),
                "f8_fortran": f8,
                "f4_big_endian": f8.astype(">f4"),
                "f2": f8.astype(np.float16),
                "u1_strided": rng.integers(0, 255, (3, 8, 10), dtype=np.uint8)[:, ::2, 1::2],
                "i2": rng.integers(-900, 900, (3, 4, 5), dtype=np.int16),
                "u2": rng.integers(0, 256, (3, 4, 5), dtype=np.uint16)}   # svol stores u1

    @pytest.mark.parametrize("suffix", [".svol", ".nii", ".nii.gz"])
    def test_volume_writes_equal_the_copying_reference(self, tmp_path, suffix):
        arrays = self._odd_arrays()
        if suffix == ".svol":   # what only svol stores: 0-d, rank 1, empty, wider integers
            arrays.update(zero_d=np.array(7, dtype=np.int64), rank1=np.arange(5.0),
                          empty=np.zeros((0, 3), dtype=np.float32),
                          i8=np.arange(-4, 8, dtype=np.int64).reshape(3, 4))
        for name, arr in arrays.items():
            path = tmp_path / f"{name}{suffix}"
            if suffix == ".svol":
                write_svol(path, arr)
                want = reference_svol_bytes(arr)
            else:
                write_nifti(path, arr, spacing=(2.0, 0.5, 0.25))
                want = reference_nifti_bytes(arr, spacing=(2.0, 0.5, 0.25),
                                             gz_path=path if suffix == ".nii.gz" else None)
            assert path.read_bytes() == want, name

    def test_checkpoint_write_equals_the_copying_reference(self, tmp_path):
        odd = self._odd_arrays()

        class Odd(Module):
            def __init__(self):
                self.weight = Tensor(odd["f4"], requires_grad=True)
                self.f8 = Tensor(odd["f8_fortran"].copy(), requires_grad=True)
                self.big_endian = odd["f4_big_endian"]
                self.fortran = odd["f8_fortran"]
                self.strided = odd["u1_strided"]
                self.count = np.array(3, dtype=np.int64)
                self.scalar = np.array(1.5, dtype=np.float32)
                self.empty = np.zeros((0, 4), dtype=np.float32)

        model = Odd()
        opt = Adam(dict(model.named_parameters()))
        for _, p in model.named_parameters():
            p.grad = np.ones_like(p.data)
        opt.step()
        path = tmp_path / "odd.ckpt"
        save_checkpoint(path, {"model": {"x": 1}}, model, opt, epoch=4,
                        best={"epoch": 2, "dice": 0.5})
        want = reference_checkpoint_bytes({"model": {"x": 1}},
                                          {**model_arrays(model), **opt.state_arrays()},
                                          epoch=4, best={"epoch": 2, "dice": 0.5},
                                          optimizer_step=1)
        assert path.read_bytes() == want

    def test_writes_hold_no_second_copy(self, tmp_path):
        rng = np.random.default_rng(1)
        vol = rng.normal(0, 1, (8, 512, 512)).astype(np.float32)   # 8 MB

        class Big(Module):
            def __init__(self):
                self.weight = Tensor(vol.reshape(2, 1024, 1024))

        big = Big()
        writes = {"m.ckpt": (lambda p: save_checkpoint(p, {"model": {}}, big),
                             lambda p: reference_checkpoint_bytes({"model": {}},
                                                                  model_arrays(big))),
                  "v.svol": (lambda p: write_svol(p, vol), lambda p: reference_svol_bytes(vol)),
                  "v.nii": (lambda p: write_nifti(p, vol), lambda p: reference_nifti_bytes(vol)),
                  "v.nii.gz": (lambda p: write_nifti(p, vol),
                               lambda p: reference_nifti_bytes(vol, gz_path=p))}
        for name, (write, reference) in writes.items():
            path = tmp_path / name
            tracemalloc.start()
            try:
                write(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.25 * vol.nbytes, (name, peak)
            assert path.read_bytes() == reference(path), name

    def test_reads_hold_no_second_copy(self, tmp_path):
        rng = np.random.default_rng(0)
        svol = tmp_path / "v.svol"
        write_svol(svol, rng.normal(0, 1, (8, 512, 512)).astype(np.float32))   # 8 MB

        class Big(Module):
            def __init__(self):
                self.weight = Tensor(rng.normal(0, 1, (2, 1024, 1024)).astype(np.float32))

        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, {"model": {}}, Big())
        for read, path in ((read_svol, svol), (load_checkpoint, ckpt)):
            tracemalloc.start()
            try:
                read(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.25 * path.stat().st_size, (read.__name__, peak)
