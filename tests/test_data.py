"""Data pipeline: transforms, case IO, splits, synthetic volumes, containers."""

import collections
import gzip
import struct
import threading

import numpy as np
import pytest

import segforge.nifti as nifti_module

from segforge.data import (DEFAULT_CROP, MODALITIES, SynthSpec, VolumeSample,
                           crop_offsets, extract_slices, list_cases, load_case,
                           load_data_root, make_batch, normalize_modality,
                           parse_synth_uri, read_volume, remap_labels,
                           split_dataset, synth_case, synth_dataset,
                           synth_lesion_geometry, write_case, write_volume)
from segforge.errors import (ConfigError, ContractError, DataError,
                             FormatError)
from segforge.nifti import read_nifti, read_spacing, write_nifti
from segforge.svol import read_svol, write_svol

from oracles import reference_read_nifti


class TestRemapLabels:
    def test_maps_four_to_three(self):
        raw = np.array([[0, 1], [2, 4]], dtype=np.int16)
        out = remap_labels(raw)
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, [[0, 1], [2, 3]])
        np.testing.assert_array_equal(raw, [[0, 1], [2, 4]])  # input untouched

    def test_rejects_any_other_value(self):
        with pytest.raises(DataError):
            remap_labels(np.array([0, 3], dtype=np.int16))
        with pytest.raises(DataError):
            remap_labels(np.array([0, 5], dtype=np.int16))


class TestNormalizeModality:
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


class TestSlicing:
    def test_crop_offsets_centered(self):
        assert crop_offsets((80, 80), (64, 64)) == (8, 8)
        assert crop_offsets((64, 64), (64, 64)) == (0, 0)
        with pytest.raises(ConfigError):
            crop_offsets((80, 80), (60, 64))
        with pytest.raises(ConfigError):
            crop_offsets((60, 60), (64, 64))

    def test_zero_threshold_keeps_every_slice(self):
        sample = synth_case(3, dims=(10, 64, 64))
        records = extract_slices(sample, crop=(64, 64), min_foreground_fraction=0.0)
        assert [r.slice_index for r in records] == list(range(10))
        assert all(r.image.shape == (3, 64, 64) for r in records)
        assert all(r.case_id == sample.case_id for r in records)

    def test_threshold_matches_label_count_oracle(self):
        sample = synth_case(4, dims=(12, 80, 80))
        crop = (64, 64)
        thresh = 0.01
        records = extract_slices(sample, crop=crop, min_foreground_fraction=thresh)
        oh, ow = crop_offsets((80, 80), crop)
        cropped = sample.label[:, oh:oh + 64, ow:ow + 64]
        want = [z for z in range(12)
                if np.count_nonzero(cropped[z]) / (64 * 64) >= thresh]
        assert [r.slice_index for r in records] == want
        assert 0 < len(records) < 12

    def test_slices_are_cropped_normalized_views_of_the_case(self):
        sample = synth_case(5, dims=(10, 80, 80))
        records = extract_slices(sample, crop=(64, 64), min_foreground_fraction=0.0)
        normed = {m: normalize_modality(sample.modalities[m]) for m in MODALITIES}
        r = records[4]
        np.testing.assert_array_equal(r.label, sample.label[4, 8:72, 8:72])
        for i, m in enumerate(MODALITIES):
            np.testing.assert_array_equal(r.image[i], normed[m][4, 8:72, 8:72])

    def test_window_zscore_is_full_volume_then_crop_bytewise(self):
        sample = synth_case(6, dims=(8, 96, 128))
        sample.modalities["t2"][:] = 0.0           # all-zero volume passes through
        sample.modalities["t2"][3, 40, 60] = -0.0  # with its sign, inside the window
        oh, ow = crop_offsets((96, 128), (64, 64))
        want = np.stack([normalize_modality(sample.modalities[m])[:, oh:oh + 64, ow:ow + 64]
                         for m in MODALITIES], axis=1)
        records = extract_slices(sample, crop=(64, 64), min_foreground_fraction=0.0)
        got = np.stack([r.image for r in records])
        assert got.dtype == want.dtype
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_all_background_case_yields_nothing_above_threshold(self):
        sample = synth_case(0, dims=(8, 64, 64), num_lesions=0)
        assert extract_slices(sample, crop=(64, 64), min_foreground_fraction=0.001) == []

    def test_make_batch_shapes_and_one_hot(self):
        sample = synth_case(6, dims=(8, 64, 64))
        records = extract_slices(sample, crop=(64, 64), min_foreground_fraction=0.0)
        batch = make_batch(records[:5])
        assert batch.images.shape == (5, 3, 64, 64)
        assert batch.targets.shape == (5, 4, 64, 64)
        assert batch.labels.shape == (5, 64, 64)
        np.testing.assert_array_equal(batch.targets.sum(axis=1), 1.0)
        np.testing.assert_array_equal(batch.targets.argmax(axis=1).astype(np.uint8),
                                      batch.labels)
        assert batch.source == [(sample.case_id, i) for i in range(5)]
        with pytest.raises(ContractError):
            make_batch([])


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
        with pytest.raises(ContractError):
            synth_case(0, dims=(4, 64, 64))
        with pytest.raises(ContractError):
            synth_case(0, dims=(8, 32, 64))
        with pytest.raises(ContractError):
            synth_case(0, dims=(8, 64, 64), num_lesions=-1)

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
        with pytest.raises(ConfigError):
            synth_dataset(SynthSpec(cases=0))

    def test_load_data_root_synth_uri(self):
        cases = load_data_root("synth:cases=2,seed=1,dims=8x64x64")
        assert sorted(cases) == ["synth_000", "synth_001"]

    def test_load_data_root_directory(self, tmp_path):
        for seed, cid in ((1, "caseB"), (2, "caseA")):
            write_case(synth_case(seed, dims=(8, 64, 64), case_id=cid), tmp_path)
        cases = load_data_root(str(tmp_path))
        assert sorted(cases) == ["caseA", "caseB"]
        with pytest.raises(DataError):
            load_data_root(str(tmp_path / "missing"))


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
            monkeypatch.setattr(nifti_module, "PIECE", piece)
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

    @pytest.mark.parametrize("name", ["h.nii", "h.nii.gz"])
    def test_huge_dims_fail_before_allocating(self, tmp_path, monkeypatch, name):
        blob = build_nifti_bytes(np.zeros((1, 1, 1), dtype=np.float32), datatype=16,
                                 vox_offset=352.0, dim=(3, 32767, 32767, 32767, 1, 1, 1, 1))
        path = tmp_path / name
        path.write_bytes(_gzip_members(blob) if name.endswith(".gz") else blob)

        def no_allocation(*args, **kwargs):
            raise AssertionError("read_nifti allocated before bounding the payload")

        monkeypatch.setattr(np, "empty", no_allocation)
        with pytest.raises(FormatError, match="truncated payload from byte 352"):
            read_nifti(path)

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
