"""Synthetic volumes: determinism, paired domains, slice coherence, SDIM I/O."""

import json
from pathlib import Path

import numpy as np
import pytest

from segadapt.data import (
    SLICES_PER_VOLUME,
    DomainConfig,
    Sample,
    SplitSizes,
    default_pretrain_domain,
    default_source_domain,
    default_target_domain,
    generate_dataset,
    generate_sample,
    generate_volume,
    load_manifest,
    load_split,
    read_sample,
    sample_from_bytes,
    sample_to_bytes,
    write_sample,
)
from segadapt.errors import FormatError, ValidationError
from segadapt.losses import compute_iou


class TestGeneration:
    def test_identical_arguments_give_bit_identical_samples(self):
        a = generate_sample(default_source_domain(), 5, 3)
        b = generate_sample(default_source_domain(), 5, 3)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.mask, b.mask)
        assert a.image.dtype == np.float32

    def test_volume_seed_changes_content(self):
        a = generate_sample(default_source_domain(), 1, 0)
        b = generate_sample(default_source_domain(), 2, 0)
        assert not np.array_equal(a.mask, b.mask)

    def test_image_range_and_mask_dtype(self):
        s = generate_sample(default_target_domain(), 9, 7)
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0
        assert s.mask.dtype == np.bool_

    def test_foreground_fraction_within_bounds(self):
        for volume_seed in range(15):
            for s in generate_volume(default_source_domain(), volume_seed):
                assert 0.02 <= s.foreground_fraction <= 0.5

    def test_slice_index_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            generate_sample(default_source_domain(), 0, SLICES_PER_VOLUME)
        with pytest.raises(ValidationError):
            generate_sample(default_source_domain(), 0, -1)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_blobs": (0, 2)},
            {"blob_radius": (0.5, 4.0)},
            {"blob_radius": (5.0, 40.0)},
            {"fg_intensity": (0.9, 0.2)},
            {"gamma": 0.0},
            {"noise_sigma": -0.1},
        ],
    )
    def test_invalid_domain_rejected(self, overrides):
        cfg = DomainConfig(name="bad", **overrides)
        with pytest.raises(ValidationError):
            cfg.validate()

    def test_degradation_free_image_is_piecewise_constant(self):
        dom = DomainConfig(
            name="clean", gamma=1.0, noise_sigma=0.0, speckle_sigma=0.0, blur_radius=0
        )
        s = generate_sample(dom, 4, 2)
        levels = np.unique(s.image)
        # background plus at most one level per blob
        assert len(levels) <= 1 + dom.num_blobs[1]
        background = s.image[~s.mask]
        assert np.unique(background).size == 1
        assert background.min() >= dom.bg_intensity[0] - 1e-6
        fg = s.image[s.mask]
        assert fg.min() >= dom.fg_intensity[0] - 1e-6 and fg.max() <= dom.fg_intensity[1] + 1e-6


class TestVolumeCoherence:
    def test_adjacent_slices_overlap_strongly(self):
        adjacent, distant = [], []
        for volume_seed in range(100):
            masks = [s.mask for s in generate_volume(default_source_domain(), volume_seed)]
            for i in range(SLICES_PER_VOLUME - 1):
                adjacent.append(compute_iou(masks[i], masks[i + 1]))
            for i in range(SLICES_PER_VOLUME - 5):
                distant.append(compute_iou(masks[i], masks[i + 5]))
        assert min(adjacent) >= 0.5
        assert np.mean(distant) < np.mean(adjacent)


class TestVolumeGeneration:
    """``generate_volume`` lays a volume out once and renders its slices
    exactly as ``generate_sample`` renders each one."""

    @pytest.mark.parametrize(
        "domain", [default_source_domain, default_target_domain, default_pretrain_domain]
    )
    def test_volume_equals_its_slices(self, domain):
        for volume_seed in (0, 17):
            volume = generate_volume(domain(), volume_seed)
            slices = [generate_sample(domain(), volume_seed, i) for i in range(SLICES_PER_VOLUME)]
            assert [sample_to_bytes(s) for s in volume] == [sample_to_bytes(s) for s in slices]

    def test_geometry_is_computed_once_per_volume(self, monkeypatch):
        import segadapt.data as data

        calls = []
        real = data._volume_geometry

        def counting(dom, volume_seed):
            calls.append(volume_seed)
            return real(dom, volume_seed)

        monkeypatch.setattr(data, "_volume_geometry", counting)
        generate_volume(default_source_domain(), 4)
        assert calls == [4]


class TestPairedDomains:
    def test_matched_arguments_share_masks_not_images(self):
        src, tgt = default_source_domain(), default_target_domain()
        for volume_seed, slice_index in [(0, 0), (3, 4), (7, 9)]:
            a = generate_sample(src, volume_seed, slice_index)
            b = generate_sample(tgt, volume_seed, slice_index)
            assert np.array_equal(a.mask, b.mask)
            assert not np.array_equal(a.image, b.image)

    def test_domain_seed_only_affects_photometrics(self):
        base = default_source_domain(seed=1001)
        reseeded = DomainConfig(**{**base.__dict__, "seed": 4242})
        a = generate_sample(base, 2, 5)
        b = generate_sample(reseeded, 2, 5)
        assert np.array_equal(a.mask, b.mask)
        assert not np.array_equal(a.image, b.image)


class TestSampleFormat:
    def sample(self) -> Sample:
        return generate_sample(default_source_domain(), 11, 6)

    def test_round_trip_is_exact(self, tmp_path):
        s = self.sample()
        path = tmp_path / "s.sdim"
        write_sample(path, s)
        back = read_sample(path, domain="source")
        assert np.array_equal(back.image, s.image)
        assert np.array_equal(back.mask, s.mask)
        assert (back.volume_id, back.slice_index, back.domain) == (11, 6, "source")

    def test_file_size_arithmetic(self):
        blob = sample_to_bytes(self.sample())
        assert len(blob) == 16 + 4 * 4096 + 4096 + 8

    def test_bad_magic(self):
        blob = b"XXXX" + sample_to_bytes(self.sample())[4:]
        with pytest.raises(FormatError, match="magic"):
            sample_from_bytes(blob)

    def test_bad_version(self):
        blob = bytearray(sample_to_bytes(self.sample()))
        blob[4:6] = (9).to_bytes(2, "little")
        with pytest.raises(FormatError, match="version"):
            sample_from_bytes(bytes(blob))

    def test_truncation_reports_offset(self):
        blob = sample_to_bytes(self.sample())
        with pytest.raises(FormatError, match="offset"):
            sample_from_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError, match="offset"):
            sample_from_bytes(blob[:10])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(FormatError, match="trailing"):
            sample_from_bytes(sample_to_bytes(self.sample()) + b"\x00")

    def test_mask_bytes_validated(self):
        blob = bytearray(sample_to_bytes(self.sample()))
        blob[16 + 4 * 4096 + 100] = 7
        with pytest.raises(FormatError, match="mask"):
            sample_from_bytes(bytes(blob))


SMALL = SplitSizes(source_train=30, source_val=10, source_test=10, target_val=10, target_test=10)


class TestDatasetGeneration:
    def test_counts_and_protocol(self, tmp_path):
        manifest = generate_dataset(tmp_path, sizes=SMALL)
        assert sorted(manifest["splits"]) == [
            "source_test",
            "source_train",
            "source_val",
            "target_test",
            "target_val",
        ]
        assert "target_train" not in manifest["splits"]
        for split, expect in [
            ("source_train", 30),
            ("source_val", 10),
            ("source_test", 10),
            ("target_val", 10),
            ("target_test", 10),
        ]:
            entry = manifest["splits"][split]
            assert entry["count"] == expect
            files = [p for paths in entry["volumes"].values() for p in paths]
            assert len(files) == expect
            assert all((tmp_path / p).exists() for p in files)

    def test_each_directory_is_made_once_not_once_per_file(self, tmp_path, monkeypatch):
        made = []
        real_mkdir = Path.mkdir
        monkeypatch.setattr(Path, "mkdir", lambda path, *a, **k: made.append(path) or real_mkdir(path, *a, **k))
        manifest = generate_dataset(tmp_path / "data", sizes=SMALL)
        assert set(made) == {tmp_path / "data", *(tmp_path / "data" / split for split in manifest["splits"])}
        # Path.mkdir(parents=True) retries a directory once after making its parent.
        assert len(made) <= 2 * len(set(made))

    def test_volumes_never_straddle_splits(self, tmp_path):
        manifest = generate_dataset(tmp_path, sizes=SMALL)
        for split, entry in manifest["splits"].items():
            for paths in entry["volumes"].values():
                assert len(paths) == SLICES_PER_VOLUME
                assert all(p.startswith(split + "/") for p in paths)

    def test_source_volume_seeds_are_disjoint_across_source_splits(self, tmp_path):
        manifest = generate_dataset(tmp_path, sizes=SMALL)
        seen: set[str] = set()
        for split in ("source_train", "source_val", "source_test"):
            ids = set(manifest["splits"][split]["volumes"])
            assert not ids & seen
            seen |= ids

    def test_target_reuses_matching_source_volumes(self, tmp_path):
        manifest = generate_dataset(tmp_path, sizes=SMALL)
        assert set(manifest["splits"]["target_val"]["volumes"]) == set(
            manifest["splits"]["source_val"]["volumes"]
        )
        src = load_split(tmp_path, manifest, "source_val")
        tgt = load_split(tmp_path, manifest, "target_val")
        for a, b in zip(src, tgt):
            assert np.array_equal(a.mask, b.mask)
            assert not np.array_equal(a.image, b.image)

    def test_regeneration_is_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        generate_dataset(first, sizes=SMALL)
        generate_dataset(second, sizes=SMALL)
        rels = sorted(p.relative_to(first) for p in first.rglob("*.sdim"))
        assert rels
        for rel in rels:
            assert (first / rel).read_bytes() == (second / rel).read_bytes()
        assert (first / "manifest.json").read_text() == (second / "manifest.json").read_text()

    def test_load_split_orders_by_volume_and_slice(self, tmp_path):
        manifest = generate_dataset(tmp_path, sizes=SMALL)
        samples = load_split(tmp_path, manifest, "source_val")
        keys = [(s.volume_id, s.slice_index) for s in samples]
        assert keys == sorted(keys)
        assert {s.domain for s in samples} == {"source"}

    def test_unknown_split_rejected(self, tmp_path):
        manifest = generate_dataset(tmp_path, sizes=SMALL)
        with pytest.raises(ValidationError, match="target_train"):
            load_split(tmp_path, manifest, "target_train")

    @pytest.mark.parametrize("escape", ["../outside.sdim", "source_val/../../outside.sdim", "absolute"])
    def test_load_split_rejects_paths_outside_the_root(self, tmp_path, escape):
        root = tmp_path / "data"
        manifest = generate_dataset(root, sizes=SMALL)
        paths = next(iter(manifest["splits"]["source_val"]["volumes"].values()))
        paths[0] = str(tmp_path / "outside.sdim") if escape == "absolute" else escape
        with pytest.raises(ValidationError, match="outside"):
            load_split(root, manifest, "source_val")

    def test_load_split_rejects_a_count_that_differs_from_the_files(self, tmp_path):
        manifest = generate_dataset(tmp_path, sizes=SMALL)
        manifest["splits"]["source_val"]["count"] += 1
        with pytest.raises(ValidationError, match="count"):
            load_split(tmp_path, manifest, "source_val")

    def test_manifest_loads_and_validates(self, tmp_path):
        generate_dataset(tmp_path, sizes=SMALL)
        manifest = load_manifest(tmp_path)
        assert manifest["format_version"] == 1
        with pytest.raises(ValidationError):
            load_manifest(tmp_path / "missing")

    @pytest.mark.parametrize(
        "raw, message",
        [(b"{oops", "not JSON at offset 1"), (b'{"format_version": "\xff"}', "not UTF-8 at offset 20")],
    )
    def test_undecodable_manifest_is_a_format_error_with_offset(self, tmp_path, raw, message):
        (tmp_path / "manifest.json").write_bytes(raw)
        with pytest.raises(FormatError, match=message):
            load_manifest(tmp_path)

    def test_manifest_that_is_not_an_object(self, tmp_path):
        (tmp_path / "manifest.json").write_text("[1]")
        with pytest.raises(ValidationError, match="manifest.json is not a JSON object"):
            load_manifest(tmp_path)

    @pytest.mark.parametrize("key", ["splits", "domains"])
    def test_manifest_lacking_a_key(self, tmp_path, key):
        generate_dataset(tmp_path, sizes=SMALL)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        del doc[key]
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"manifest.json lacks key '{key}'"):
            load_manifest(tmp_path)

    def test_load_split_without_splits(self, tmp_path):
        with pytest.raises(ValidationError, match="manifest.json lacks key 'splits'"):
            load_split(tmp_path, {"format_version": 1}, "source_val")

    @pytest.mark.parametrize("key", ["count", "volumes", "domain"])
    def test_split_lacking_a_key(self, tmp_path, key):
        manifest = generate_dataset(tmp_path, sizes=SMALL)
        del manifest["splits"]["source_val"][key]
        with pytest.raises(ValidationError, match=f"manifest.json split 'source_val' lacks key '{key}'"):
            load_split(tmp_path, manifest, "source_val")

    @pytest.mark.parametrize("volumes", [{"x1": []}, {"1": "a.sdim"}, {"1": [7]}])
    def test_split_with_malformed_volumes(self, tmp_path, volumes):
        manifest = generate_dataset(tmp_path, sizes=SMALL)
        manifest["splits"]["source_val"]["volumes"] = volumes
        with pytest.raises(ValidationError, match="must map a decimal id to a list of paths"):
            load_split(tmp_path, manifest, "source_val")

    def test_split_listing_a_missing_file(self, tmp_path):
        manifest = generate_dataset(tmp_path, sizes=SMALL)
        paths = next(iter(manifest["splits"]["source_val"]["volumes"].values()))
        paths[0] = "source_val/absent.sdim"
        with pytest.raises(ValidationError, match="absent.sdim'?, which cannot be read"):
            load_split(tmp_path, manifest, "source_val")

    def test_indivisible_split_size_rejected(self):
        with pytest.raises(ValidationError, match="divisible"):
            SplitSizes(source_train=25).validate()

    def test_mismatched_shape_statistics_rejected(self, tmp_path):
        bad_target = DomainConfig(name="target", blob_radius=(3.0, 8.0))
        with pytest.raises(ValidationError, match="shape statistics"):
            generate_dataset(tmp_path, target=bad_target, sizes=SMALL)

    def test_target_larger_than_source_split_rejected(self, tmp_path):
        sizes = SplitSizes(source_train=10, source_val=10, source_test=10, target_val=20, target_test=10)
        with pytest.raises(ValidationError, match="target"):
            generate_dataset(tmp_path, sizes=sizes)
