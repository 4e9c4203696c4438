"""Synthetic partially-labeled phantoms, patching, and file I/O.

Each task owns a geometric recipe: an ellipsoidal "organ" with a spatial
prior in a distinct octant of the volume and a distinct eccentricity, plus
ellipsoidal "tumor" blobs nested inside it.  Intensities are flat (organ
+0.4 over background, tumor 0.1 absolute) with additive Gaussian noise, so a
desk-size model can learn the geometry in minutes while the partial-label
bookkeeping stays faithful: a task without organ annotations still renders
the organ but labels it background, and a task without tumor annotations
grows no tumors at all.

Generation is deterministic per (spec, task, sample seed).  Train and test
samples draw from disjoint seed ranges.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .losses import TaskDescriptor

TEST_SEED_BASE = 10_000
FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"

Range = Tuple[float, float]
AxisRanges = Tuple[Range, Range, Range]


@dataclass
class Volume:
    """A scalar grid with voxel spacing in mm and an optional label grid."""

    image: np.ndarray
    spacing: Tuple[float, float, float] = (1.0, 1.0, 1.0)
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.image = np.asarray(self.image, dtype=np.float32)
        if self.image.ndim != 3:
            raise ValueError(f"volume grid must be 3-d, got shape {self.image.shape}")
        if len(self.spacing) != 3 or any(s <= 0 for s in self.spacing):
            raise ValueError(f"spacing must be three positive numbers, got {self.spacing}")
        self.spacing = tuple(float(s) for s in self.spacing)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.uint8)
            if self.labels.shape != self.image.shape:
                raise ValueError(
                    f"labels shaped {self.labels.shape} do not match image {self.image.shape}"
                )

    @property
    def shape(self) -> Tuple[int, int, int]:
        return self.image.shape


@dataclass
class LabeledSample:
    volume: Volume
    task: TaskDescriptor
    split: str

    def __post_init__(self):
        if self.volume.labels is None:
            raise ValueError("a labeled sample needs a label grid")
        if self.split not in ("train", "test"):
            raise ValueError(f"split must be 'train' or 'test', got {self.split!r}")

    @property
    def image(self) -> np.ndarray:
        return self.volume.image

    @property
    def labels(self) -> np.ndarray:
        return self.volume.labels


def _check_ranges(name: str, ranges: AxisRanges):
    for lo, hi in ranges:
        if not 0.0 < lo <= hi:
            raise ValueError(f"{name} ranges must satisfy 0 < lo <= hi, got {(lo, hi)}")


@dataclass(frozen=True)
class TaskRecipe:
    """Geometry prior for one task, in fractions of the volume extent."""

    task: TaskDescriptor
    center_frac: AxisRanges
    semi_axis_frac: AxisRanges
    tumor_count: Tuple[int, int] = (1, 2)
    tumor_radius_frac: Range = (0.35, 0.5)
    tumor_offset_frac: float = 0.4

    def __post_init__(self):
        _check_ranges("center_frac", self.center_frac)
        _check_ranges("semi_axis_frac", self.semi_axis_frac)
        if self.tumor_count[0] < 1 or self.tumor_count[0] > self.tumor_count[1]:
            raise ValueError(f"bad tumor_count range {self.tumor_count}")
        lo, hi = self.tumor_radius_frac
        if not 0.0 < lo <= hi < 1.0:
            raise ValueError(f"bad tumor_radius_frac range {self.tumor_radius_frac}")
        if not 0.0 <= self.tumor_offset_frac < 1.0:
            raise ValueError(f"bad tumor_offset_frac {self.tumor_offset_frac}")
        if self.tumor_offset_frac + hi >= 1.0:
            raise ValueError("tumor offset plus radius must stay inside the organ")


@dataclass(frozen=True)
class PhantomSpec:
    """Complete description of a synthetic multi-task dataset.

    ``cross_task_anatomy`` renders every task's structures in every image
    (labeling only the sample's own task), which makes the tasks visually
    ambiguous without the task code.
    """

    recipes: Tuple[TaskRecipe, ...]
    master_seed: int = 0
    organ_intensity: float = 0.4
    tumor_contrast: float = -0.3
    noise_sigma: float = 0.05
    spacing: Tuple[float, float, float] = (1.0, 1.0, 1.0)
    cross_task_anatomy: bool = False

    def __post_init__(self):
        if not self.recipes:
            raise ValueError("a phantom spec needs at least one task recipe")
        ids = [r.task.task_id for r in self.recipes]
        if ids != list(range(1, len(ids) + 1)):
            raise ValueError(f"task ids must be consecutive from 1, got {ids}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be non-negative, got {self.noise_sigma}")

    @property
    def num_tasks(self) -> int:
        return len(self.recipes)

    @property
    def tasks(self) -> Tuple[TaskDescriptor, ...]:
        return tuple(r.task for r in self.recipes)

    def recipe_for(self, task_id: int) -> TaskRecipe:
        for r in self.recipes:
            if r.task.task_id == task_id:
                return r
        raise ValueError(f"no recipe for task id {task_id}")


_TASK_NAMES = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta")


def default_recipes(num_tasks: int) -> Tuple[TaskRecipe, ...]:
    """Pairwise distinguishable recipes: distinct octants, distinct eccentricity."""
    if not 1 <= num_tasks <= len(_TASK_NAMES):
        raise ValueError(f"supported task counts are 1..{len(_TASK_NAMES)}, got {num_tasks}")
    recipes = []
    for i in range(num_tasks):
        centers = []
        for axis in range(3):
            side = 0.32 if (i >> axis) & 1 == 0 else 0.68
            centers.append((side - 0.04, side + 0.04))
        stretch = [1.0, 1.0, 1.0]
        stretch[i % 3] = 1.35
        stretch[(i + 1) % 3] = 0.8
        semis = tuple((0.14 * s, 0.18 * s) for s in stretch)
        recipes.append(
            TaskRecipe(
                task=TaskDescriptor(i + 1, _TASK_NAMES[i]),
                center_frac=tuple(centers),
                semi_axis_frac=semis,
            )
        )
    return tuple(recipes)


def _draw_in_range(rng: np.random.Generator, rng_pair: Range) -> float:
    lo, hi = rng_pair
    return float(rng.uniform(lo, hi))


def _ellipsoid_mask(shape, center, semi) -> np.ndarray:
    grids = np.ogrid[tuple(slice(0, n) for n in shape)]
    acc = np.zeros(shape)
    for g, c, s in zip(grids, center, semi):
        acc = acc + ((g - c) / s) ** 2
    return acc <= 1.0


def _paint_task(
    rng: np.random.Generator,
    recipe: TaskRecipe,
    shape: Tuple[int, int, int],
    image: np.ndarray,
    labels: np.ndarray,
    spec: PhantomSpec,
    label_this_task: bool,
):
    center = [_draw_in_range(rng, recipe.center_frac[a]) * shape[a] for a in range(3)]
    semi = [_draw_in_range(rng, recipe.semi_axis_frac[a]) * shape[a] for a in range(3)]
    for a in range(3):
        if 2.0 * semi[a] > shape[a] - 1.0:
            raise ValueError(
                f"task {recipe.task.name!r} organ would exceed the volume bounds on "
                f"axis {a}: semi-axis {semi[a]:.1f}, extent {shape[a]}"
            )
        # A centre drawn too close to the border moves inward until the organ fits.
        center[a] = min(max(center[a], semi[a]), shape[a] - 1.0 - semi[a])
    organ = _ellipsoid_mask(shape, center, semi)
    image[organ] = spec.organ_intensity
    if label_this_task and recipe.task.has_organ:
        labels[organ] = 1
    if not recipe.task.has_tumor:
        return
    count = int(rng.integers(recipe.tumor_count[0], recipe.tumor_count[1] + 1))
    for _ in range(count):
        radius = _draw_in_range(rng, recipe.tumor_radius_frac)
        direction = rng.normal(size=3)
        direction /= max(np.linalg.norm(direction), 1e-12)
        magnitude = float(rng.uniform(0.0, recipe.tumor_offset_frac))
        t_center = [center[a] + direction[a] * magnitude * semi[a] for a in range(3)]
        t_semi = [max(radius * semi[a], 0.6) for a in range(3)]
        tumor = _ellipsoid_mask(shape, t_center, t_semi) & organ
        image[tumor] = spec.organ_intensity + spec.tumor_contrast
        if label_this_task:
            labels[tumor] = 2


def generate_phantom(
    spec: PhantomSpec,
    task: TaskDescriptor,
    sample_seed: int,
    shape: Tuple[int, int, int] = (24, 48, 48),
) -> LabeledSample:
    """Deterministically render one sample for ``task``.

    Background is 0; the organ is painted at +0.4 and tumors at 0.1 before
    noise.  Labels cover only what the task annotates.
    """
    ss = np.random.SeedSequence(spec.master_seed, spawn_key=(task.task_index, sample_seed))
    rng = np.random.default_rng(ss)
    image = np.zeros(shape, dtype=np.float64)
    labels = np.zeros(shape, dtype=np.uint8)
    _paint_task(rng, spec.recipe_for(task.task_id), shape, image, labels, spec, True)
    if spec.cross_task_anatomy:
        for recipe in spec.recipes:
            if recipe.task.task_id != task.task_id:
                _paint_task(rng, recipe, shape, image, labels, spec, False)
    if spec.noise_sigma > 0:
        image += rng.normal(0.0, spec.noise_sigma, size=shape)
    split = "test" if sample_seed >= TEST_SEED_BASE else "train"
    volume = Volume(image.astype(np.float32), spacing=spec.spacing, labels=labels)
    return LabeledSample(volume, task, split)


def sample_patch(
    sample: LabeledSample,
    patch: Tuple[int, int, int],
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Cut one training patch; half the time centered on a foreground voxel.

    Centers near the border shift inward so the patch always fits.
    """
    shape = sample.volume.shape
    if any(p > n for p, n in zip(patch, shape)):
        raise ValueError(f"patch {patch} exceeds volume extents {shape}")
    foreground_biased = rng.random() < 0.5
    fg = np.argwhere(sample.labels > 0) if foreground_biased else None
    if fg is not None and len(fg) > 0:
        center = fg[int(rng.integers(0, len(fg)))]
        start = [
            int(np.clip(center[a] - patch[a] // 2, 0, shape[a] - patch[a]))
            for a in range(3)
        ]
    else:
        start = [int(rng.integers(0, shape[a] - patch[a] + 1)) for a in range(3)]
    sl = tuple(slice(start[a], start[a] + patch[a]) for a in range(3))
    return sample.image[sl].copy(), sample.labels[sl].copy()


# ---------------------------------------------------------------------------
# volume files: <base>.hdr (text), <base>.img (f32le), <base>.lbl (u8)


@contextmanager
def _replaced_on_success(path: Path):
    """Binary handle on a temporary sibling of `path` that replaces `path`
    only when the block completes; on an error it is removed and any
    previous file at `path` is left as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_volume(volume: Volume, base: Path) -> None:
    base = Path(base)
    shape = ",".join(str(n) for n in volume.shape)
    spacing = ",".join(repr(s) for s in volume.spacing)
    has_labels = int(volume.labels is not None)
    header = (
        f"version={FORMAT_VERSION}\n"
        f"shape={shape}\n"
        f"spacing={spacing}\n"
        f"dtype=f32le\n"
        f"has_labels={has_labels}\n"
    )
    base.parent.mkdir(parents=True, exist_ok=True)
    payloads = {
        ".hdr": header.encode("utf-8"),
        ".img": np.ascontiguousarray(volume.image, dtype="<f4").tobytes(),
    }
    if volume.labels is not None:
        payloads[".lbl"] = np.ascontiguousarray(volume.labels, dtype=np.uint8).tobytes()
    for suffix, payload in payloads.items():
        with _replaced_on_success(base.with_suffix(suffix)) as fh:
            fh.write(payload)


def _parse_header(path: Path) -> Dict[str, str]:
    fields: Dict[str, str] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed header line in {path}: {line!r}")
        key, value = line.split("=", 1)
        fields[key.strip()] = value.strip()
    missing = {"version", "shape", "spacing", "dtype", "has_labels"} - fields.keys()
    if missing:
        raise ValueError(f"header {path} is missing keys: {sorted(missing)}")
    return fields


def read_volume(base: Path) -> Volume:
    base = Path(base)
    fields = _parse_header(base.with_suffix(".hdr"))
    if fields["version"] != str(FORMAT_VERSION):
        raise ValueError(f"unsupported volume format version {fields['version']}")
    if fields["dtype"] != "f32le":
        raise ValueError(f"unsupported dtype {fields['dtype']}")
    try:
        shape = tuple(int(v) for v in fields["shape"].split(","))
        spacing = tuple(float(v) for v in fields["spacing"].split(","))
    except ValueError as exc:
        raise ValueError(f"malformed shape/spacing in {base}.hdr") from exc
    if len(shape) != 3:
        raise ValueError(f"expected a 3-d shape, got {shape}")
    count = int(np.prod(shape))
    payload = base.with_suffix(".img").read_bytes()
    if len(payload) != 4 * count:
        raise ValueError(
            f"{base}.img holds {len(payload)} bytes, expected {4 * count} for shape {shape}"
        )
    image = np.frombuffer(payload, dtype="<f4").reshape(shape)
    if not np.isfinite(image).all():
        raise ValueError(f"{base}.img holds non-finite values")
    labels = None
    if fields["has_labels"] == "1":
        raw = base.with_suffix(".lbl").read_bytes()
        if len(raw) != count:
            raise ValueError(
                f"{base}.lbl holds {len(raw)} bytes, expected {count} for shape {shape}"
            )
        labels = np.frombuffer(raw, dtype=np.uint8).reshape(shape)
        top = labels.max(initial=0)
        if top > 2:
            raise ValueError(f"{base}.lbl holds label {top}, outside 0, 1, 2")
    return Volume(image.copy(), spacing=spacing, labels=None if labels is None else labels.copy())


# ---------------------------------------------------------------------------
# dataset assembly


@dataclass
class Dataset:
    spec: PhantomSpec
    shape: Tuple[int, int, int]
    samples: Dict[int, Dict[str, List[LabeledSample]]] = field(default_factory=dict)

    @property
    def tasks(self) -> Tuple[TaskDescriptor, ...]:
        return self.spec.tasks

    def split(self, task_id: int, split: str) -> List[LabeledSample]:
        return self.samples[task_id][split]


def build_dataset(
    spec: PhantomSpec,
    per_task_train: int,
    per_task_test: int = 0,
    shape: Tuple[int, int, int] = (24, 48, 48),
) -> Dataset:
    """Generate every sample in memory; splits use disjoint seed ranges."""
    if per_task_train < 1:
        raise ValueError(f"need at least one training sample per task, got {per_task_train}")
    if per_task_test >= TEST_SEED_BASE or per_task_train >= TEST_SEED_BASE:
        raise ValueError("sample counts above the test-seed base would collide")
    ds = Dataset(spec=spec, shape=tuple(shape))
    for task in spec.tasks:
        train = [generate_phantom(spec, task, i, shape) for i in range(per_task_train)]
        test = [
            generate_phantom(spec, task, TEST_SEED_BASE + i, shape)
            for i in range(per_task_test)
        ]
        ds.samples[task.task_id] = {"train": train, "test": test}
    return ds


def save_dataset(ds: Dataset, out_dir: Path) -> Path:
    """Write all volumes plus a JSON manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for task in ds.tasks:
        for split in ("train", "test"):
            for i, sample in enumerate(ds.split(task.task_id, split)):
                name = f"{task.name}-{split}-{i:03d}"
                write_volume(sample.volume, out_dir / name)
                seed = i if split == "train" else TEST_SEED_BASE + i
                entries.append(
                    {"name": name, "task_id": task.task_id, "split": split, "seed": seed}
                )
    manifest = {
        "version": FORMAT_VERSION,
        "master_seed": ds.spec.master_seed,
        "shape": list(ds.shape),
        "spacing": list(ds.spec.spacing),
        "noise_sigma": ds.spec.noise_sigma,
        "cross_task_anatomy": ds.spec.cross_task_anatomy,
        "tasks": [
            {
                "task_id": t.task_id,
                "name": t.name,
                "has_organ": t.has_organ,
                "has_tumor": t.has_tumor,
            }
            for t in ds.tasks
        ],
        "samples": entries,
    }
    path = out_dir / MANIFEST_NAME
    with _replaced_on_success(path) as fh:
        fh.write((json.dumps(manifest, indent=2) + "\n").encode("utf-8"))
    return path


def _require(record, key: str, where: str):
    """``record[key]``, or a ValueError naming the key and where it is missing."""
    if not isinstance(record, dict) or key not in record:
        raise ValueError(f"manifest {where} has no {key!r} key")
    return record[key]


def load_dataset(data_dir: Path) -> Dataset:
    """Read a manifest directory back into memory.

    The whole manifest is validated before any volume is read.
    """
    data_dir = Path(data_dir)
    manifest_path = data_dir / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {data_dir}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if _require(manifest, "version", "top level") != FORMAT_VERSION:
        raise ValueError(f"unsupported manifest version {manifest['version']}")
    keys = ("task_id", "name", "has_organ", "has_tumor")
    task_fields = [
        [_require(t, key, f"task entry {i}") for key in keys]
        for i, t in enumerate(_require(manifest, "tasks", "top level"))
    ]
    ids = [f[0] for f in task_fields]
    if any(type(i) is not int for i in ids) or sorted(ids) != list(range(1, len(ids) + 1)):
        raise ValueError(f"manifest task ids must be 1..{len(ids)}, each once; got {ids}")
    tasks = {f[0]: TaskDescriptor(*f) for f in task_fields}
    entries = _require(manifest, "samples", "top level")
    for i, entry in enumerate(entries):
        where = f"sample entry {i}"
        _require(entry, "name", where)
        if _require(entry, "task_id", where) not in tasks:
            raise ValueError(f"manifest {where} names unknown task id {entry['task_id']!r}")
        if _require(entry, "split", where) not in ("train", "test"):
            raise ValueError(f"manifest {where} has unknown split {entry['split']!r}")
    # The manifest does not carry geometry; rebuild a placeholder spec that
    # preserves task identity and the recorded global knobs.
    recipes = tuple(
        replace(default_recipes(len(tasks))[i], task=tasks[i + 1]) for i in range(len(tasks))
    )
    spec = PhantomSpec(
        recipes=recipes,
        master_seed=_require(manifest, "master_seed", "top level"),
        noise_sigma=_require(manifest, "noise_sigma", "top level"),
        spacing=tuple(_require(manifest, "spacing", "top level")),
        cross_task_anatomy=manifest.get("cross_task_anatomy", False),
    )
    ds = Dataset(spec=spec, shape=tuple(_require(manifest, "shape", "top level")))
    for t in tasks.values():
        ds.samples[t.task_id] = {"train": [], "test": []}
    for entry in entries:
        volume = read_volume(data_dir / entry["name"])
        if volume.labels is None:
            raise ValueError(f"sample {entry['name']} has no label payload")
        task = tasks[entry["task_id"]]
        ds.samples[task.task_id][entry["split"]].append(
            LabeledSample(volume, task, entry["split"])
        )
    return ds
