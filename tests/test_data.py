"""Phantom generation, patch sampling, and volume file round-trips."""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from dodnet import data
from dodnet.data import (
    MANIFEST_NAME,
    TEST_SEED_BASE,
    Dataset,
    LabeledSample,
    PhantomSpec,
    TaskRecipe,
    Volume,
    build_dataset,
    default_recipes,
    generate_phantom,
    load_dataset,
    read_volume,
    sample_patch,
    save_dataset,
    write_volume,
)
from dodnet.losses import TaskDescriptor

SHAPE = (24, 48, 48)


def two_task_spec(**overrides) -> PhantomSpec:
    return PhantomSpec(recipes=default_recipes(2), **overrides)


class TestGeneratePhantom:
    def test_bitwise_deterministic(self):
        spec = two_task_spec(master_seed=3)
        task = spec.tasks[0]
        a = generate_phantom(spec, task, 5, SHAPE)
        b = generate_phantom(spec, task, 5, SHAPE)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        spec = two_task_spec()
        task = spec.tasks[0]
        a = generate_phantom(spec, task, 0, SHAPE)
        b = generate_phantom(spec, task, 1, SHAPE)
        assert not np.array_equal(a.image, b.image)

    def test_noise_free_intensity_levels(self):
        spec = two_task_spec(noise_sigma=0.0)
        allowed = {0.0, np.float32(0.4), np.float32(0.4 + -0.3)}
        saw_three = False
        for seed in range(5):
            img = generate_phantom(spec, spec.tasks[0], seed, SHAPE).image
            levels = set(np.unique(img).tolist())
            assert levels <= {float(v) for v in allowed}
            saw_three = saw_three or len(levels) == 3
        assert saw_three, "no sample rendered background, organ, and tumor"

    def test_labels_values_and_nesting(self):
        spec = two_task_spec(noise_sigma=0.0)
        sample = generate_phantom(spec, spec.tasks[1], 2, SHAPE)
        labels = sample.labels
        assert set(np.unique(labels).tolist()) <= {0, 1, 2}
        organ_rendered = sample.image > 0.05
        assert ((labels == 2) <= organ_rendered).all()
        assert ((labels == 1) <= organ_rendered).all()
        np.testing.assert_allclose(sample.image[labels == 2], 0.1, atol=1e-6)

    def test_tumor_only_task_renders_unlabeled_organ(self):
        recipes = default_recipes(2)
        colon_task = dataclasses.replace(recipes[0].task, has_organ=False)
        recipes = (dataclasses.replace(recipes[0], task=colon_task), recipes[1])
        spec = PhantomSpec(recipes=recipes, noise_sigma=0.0)
        sample = generate_phantom(spec, colon_task, 0, SHAPE)
        assert set(np.unique(sample.labels).tolist()) <= {0, 2}
        assert np.float32(0.4) in sample.image, "organ must still be rendered"

    def test_organ_only_task_grows_no_tumor(self):
        recipes = default_recipes(1)
        spleen_task = dataclasses.replace(recipes[0].task, has_tumor=False)
        spec = PhantomSpec(
            recipes=(dataclasses.replace(recipes[0], task=spleen_task),), noise_sigma=0.0
        )
        sample = generate_phantom(spec, spleen_task, 0, SHAPE)
        assert set(np.unique(sample.labels).tolist()) <= {0, 1}
        assert np.float32(0.1) not in sample.image

    def test_cross_task_anatomy_renders_distractors(self):
        base = two_task_spec(noise_sigma=0.0)
        plain = generate_phantom(base, base.tasks[0], 0, SHAPE)
        conflicted = generate_phantom(
            dataclasses.replace(base, cross_task_anatomy=True), base.tasks[0], 0, SHAPE
        )
        assert (conflicted.image > 0.05).sum() > (plain.image > 0.05).sum()
        assert np.array_equal(plain.labels, conflicted.labels)

    def test_split_follows_seed_range(self):
        spec = two_task_spec()
        assert generate_phantom(spec, spec.tasks[0], 3, SHAPE).split == "train"
        assert generate_phantom(spec, spec.tasks[0], TEST_SEED_BASE, SHAPE).split == "test"

    def test_oversized_organ_rejected(self):
        recipe = dataclasses.replace(
            default_recipes(1)[0], semi_axis_frac=(((0.55, 0.6),) * 3)
        )
        spec = PhantomSpec(recipes=(recipe,))
        with pytest.raises(ValueError, match="exceed"):
            generate_phantom(spec, recipe.task, 0, SHAPE)

    def test_organ_drawn_across_the_border_moves_inside(self):
        # Master seed 0, sample 1223: task 4's drawn depth centre (17.2) plus
        # its semi-axis (5.8) passes the last plane of a 24-deep volume.
        spec = PhantomSpec(recipes=default_recipes(7), master_seed=0)
        sample = generate_phantom(spec, spec.tasks[3], 1223, SHAPE)
        depth = np.nonzero((sample.labels > 0).any(axis=(1, 2)))[0]
        assert set(np.unique(sample.labels)) == {0, 1, 2}
        # Moved back just inside the last plane, not re-centred.
        assert depth.min() > 0 and depth.max() == SHAPE[0] - 2

    def test_organ_inside_the_bounds_is_unchanged(self):
        # Pinned from the generator before centres were clamped.
        spec = PhantomSpec(recipes=default_recipes(7), master_seed=0)
        sample = generate_phantom(spec, spec.tasks[3], 1222, SHAPE)
        digests = [hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in (sample.image, sample.labels)]
        assert digests == ["0198c52b4f26ba6a", "e4d1831712819911"]


class TestRecipesAndSpec:
    def test_default_octants_distinct(self):
        recipes = default_recipes(8)
        centers = {tuple(lo for lo, _ in r.center_frac) for r in recipes}
        assert len(centers) == 8

    def test_too_many_tasks_rejected(self):
        with pytest.raises(ValueError, match="1..8"):
            default_recipes(9)

    def test_spec_requires_consecutive_ids(self):
        r1, r2 = default_recipes(2)
        with pytest.raises(ValueError, match="consecutive"):
            PhantomSpec(recipes=(r2, r1))

    def test_spec_requires_recipes(self):
        with pytest.raises(ValueError, match="at least one"):
            PhantomSpec(recipes=())

    def test_recipe_validation(self):
        base = default_recipes(1)[0]
        with pytest.raises(ValueError, match="lo <= hi"):
            dataclasses.replace(base, center_frac=((0.5, 0.4), (0.3, 0.4), (0.3, 0.4)))


class TestSamplePatch:
    def _sample(self):
        spec = two_task_spec()
        return generate_phantom(spec, spec.tasks[0], 0, SHAPE)

    def test_full_volume_patch_is_identity(self):
        sample = self._sample()
        img, lbl = sample_patch(sample, SHAPE, np.random.default_rng(0))
        assert np.array_equal(img, sample.image)
        assert np.array_equal(lbl, sample.labels)

    def test_deterministic_under_seeded_rng(self):
        sample = self._sample()
        a = sample_patch(sample, (16, 32, 32), np.random.default_rng(7))
        b = sample_patch(sample, (16, 32, 32), np.random.default_rng(7))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_foreground_bias(self):
        sample = self._sample()
        rng = np.random.default_rng(3)
        hits = sum(
            (sample_patch(sample, (8, 8, 8), rng)[1] > 0).any() for _ in range(1000)
        )
        assert hits >= 400

    def test_oversized_patch_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            sample_patch(self._sample(), (32, 48, 48), np.random.default_rng(0))


class TestVolumeFiles:
    def _volume(self, labels=True):
        rng = np.random.default_rng(5)
        lbl = rng.integers(0, 3, size=(3, 4, 5)).astype(np.uint8) if labels else None
        return Volume(
            rng.normal(size=(3, 4, 5)).astype(np.float32),
            spacing=(1.5, 0.8, 0.8),
            labels=lbl,
        )

    def test_round_trip_bitwise(self, tmp_path):
        vol = self._volume()
        write_volume(vol, tmp_path / "v")
        got = read_volume(tmp_path / "v")
        assert np.array_equal(got.image, vol.image)
        assert np.array_equal(got.labels, vol.labels)
        assert got.spacing == vol.spacing

    def test_round_trip_without_labels(self, tmp_path):
        vol = self._volume(labels=False)
        write_volume(vol, tmp_path / "v")
        got = read_volume(tmp_path / "v")
        assert got.labels is None
        assert np.array_equal(got.image, vol.image)

    def test_minimal_two_cube(self, tmp_path):
        (tmp_path / "m.hdr").write_text(
            "version=1\nshape=2,2,2\nspacing=1.0,1.0,1.0\ndtype=f32le\nhas_labels=0\n"
        )
        (tmp_path / "m.img").write_bytes(
            np.arange(8, dtype="<f4").tobytes()
        )
        vol = read_volume(tmp_path / "m")
        assert vol.shape == (2, 2, 2)
        np.testing.assert_array_equal(vol.image.ravel(), np.arange(8))

    def test_truncated_payload_rejected(self, tmp_path):
        vol = self._volume()
        write_volume(vol, tmp_path / "v")
        img = tmp_path / "v.img"
        img.write_bytes(img.read_bytes()[:-4])
        with pytest.raises(ValueError, match="expected"):
            read_volume(tmp_path / "v")

    def test_unsupported_version_rejected(self, tmp_path):
        vol = self._volume()
        write_volume(vol, tmp_path / "v")
        hdr = tmp_path / "v.hdr"
        hdr.write_text(hdr.read_text().replace("version=1", "version=9"))
        with pytest.raises(ValueError, match="version"):
            read_volume(tmp_path / "v")

    def test_malformed_header_rejected(self, tmp_path):
        (tmp_path / "m.hdr").write_text("version=1\nshape\n")
        with pytest.raises(ValueError, match="malformed"):
            read_volume(tmp_path / "m")

    def test_missing_keys_rejected(self, tmp_path):
        (tmp_path / "m.hdr").write_text("version=1\nshape=2,2,2\n")
        with pytest.raises(ValueError, match="missing keys"):
            read_volume(tmp_path / "m")

    def test_non_finite_image_rejected(self, tmp_path):
        vol = self._volume()
        vol.image[1, 2, 3] = np.nan
        write_volume(vol, tmp_path / "v")
        with pytest.raises(ValueError, match=r"v\.img holds non-finite"):
            read_volume(tmp_path / "v")

    def test_label_outside_known_classes_rejected(self, tmp_path):
        vol = self._volume()
        vol.labels[0, 1, 2] = 3
        write_volume(vol, tmp_path / "v")
        with pytest.raises(ValueError, match=r"v\.lbl holds label 3"):
            read_volume(tmp_path / "v")


class TestDatasetAssembly:
    def test_build_counts_and_splits(self):
        ds = build_dataset(two_task_spec(), per_task_train=3, per_task_test=2, shape=SHAPE)
        for task in ds.tasks:
            assert len(ds.split(task.task_id, "train")) == 3
            assert len(ds.split(task.task_id, "test")) == 2
            assert all(s.split == "test" for s in ds.split(task.task_id, "test"))

    def test_save_then_load_round_trip(self, tmp_path):
        ds = build_dataset(two_task_spec(master_seed=9), 2, 1, shape=(8, 16, 16))
        save_dataset(ds, tmp_path)
        assert (tmp_path / MANIFEST_NAME).exists()
        assert len(list(tmp_path.glob("*.hdr"))) == 6
        back = load_dataset(tmp_path)
        assert back.shape == ds.shape
        for task in ds.tasks:
            for split in ("train", "test"):
                orig = ds.split(task.task_id, split)
                got = back.split(task.task_id, split)
                assert len(orig) == len(got)
                for a, b in zip(orig, got):
                    assert np.array_equal(a.image, b.image)
                    assert np.array_equal(a.labels, b.labels)
                    assert a.task == b.task

    def test_failed_save_keeps_the_previous_manifest(self, tmp_path, monkeypatch):
        save_dataset(build_dataset(two_task_spec(master_seed=9), 1, 0, shape=(8, 16, 16)), tmp_path)
        manifest = (tmp_path / MANIFEST_NAME).read_bytes()
        calls, real_replace = [], os.replace

        def replace_then_fail(src, dst):
            calls.append(dst)
            if len(calls) == 7:  # the third of four volumes
                raise OSError("disk full")
            real_replace(src, dst)

        newer = build_dataset(two_task_spec(master_seed=4), 2, 0, shape=(8, 16, 16))
        monkeypatch.setattr(data.os, "replace", replace_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(newer, tmp_path)
        assert len(calls) == 7
        assert (tmp_path / MANIFEST_NAME).read_bytes() == manifest
        assert not list(tmp_path.glob("*.tmp"))

    def test_load_rejects_the_volumes_of_a_failed_save(self, tmp_path, monkeypatch):
        self.test_failed_save_keeps_the_previous_manifest(tmp_path, monkeypatch)
        with pytest.raises(ValueError, match="sample alpha-train-000: .*CRC32"):
            load_dataset(tmp_path)

    def test_flipped_payload_byte_rejected(self, tmp_path):
        save_dataset(build_dataset(two_task_spec(), 1, 0, shape=(8, 16, 16)), tmp_path)
        img = tmp_path / "beta-train-000.img"
        blob = bytearray(img.read_bytes())
        blob[400] ^= 0x01  # the low mantissa byte: the value stays finite
        img.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=r"sample beta-train-000: .*\.img .*CRC32"):
            load_dataset(tmp_path)

    def test_manifest_without_crcs_still_loads(self, tmp_path):
        ds = build_dataset(two_task_spec(), 1, 0, shape=(8, 16, 16))
        save_dataset(ds, tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text(encoding="utf-8"))
        for entry in manifest["samples"]:
            del entry["crc32"]
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
        back = load_dataset(tmp_path)
        for task in ds.tasks:
            (a,), (b,) = ds.split(task.task_id, "train"), back.split(task.task_id, "train")
            assert np.array_equal(a.image, b.image) and np.array_equal(a.labels, b.labels)

    def test_load_requires_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=MANIFEST_NAME):
            load_dataset(tmp_path)

    def test_labeled_sample_validation(self):
        vol = Volume(np.zeros((2, 2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="label grid"):
            LabeledSample(vol, TaskDescriptor(1, "t"), "train")
