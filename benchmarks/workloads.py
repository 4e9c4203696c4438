"""The three workloads: set-up, one measured round, and output checks.

A round is a fixed group of operations; a run repeats whole rounds until its
time is up, so every run attempts a whole multiple of the same operations.
``round`` returns a ``Round``: timing samples for ``op_s``, the operations
attempted and failed, and samples of the figures named after the workload
(``train_samples_per_s``, ``sweep_volume_s``, ``segment_all_<arch>_s``).
Rounds and ``op_s`` samples:

* ``train``: one ``training.train()`` call of ``STEPS`` steps; the sample is
  its wall time per step.
* ``sweep``: one ``sliding_window_predict`` per held-out volume; a sample
  is one volume's wall time.
* ``segment_all``: one ``segment_all_tasks`` call per architecture; the
  sample is the three calls' summed wall time.

Program entry points are called through their modules (``training.train``)
so that the tracer's wrappers, installed on those modules, see the calls.
"""

from __future__ import annotations

import sys
import time
import traceback
from typing import Dict, List, NamedTuple

import numpy as np

from dodnet import data, training
from dodnet.bench import count_flops, head_backbone_ratio
from dodnet.metrics import dice_score
from dodnet.model import build_model, desk_config
from dodnet.tensor import Tape, Tensor, backward
from dodnet.training import TrainConfig, batch_loss

import checks
import common
import mix
from spans import Analysis

ARCHS = ("dodnet", "multi_head", "cond_input")


class Round(NamedTuple):
    samples: List[float]
    attempted: int
    failed: int
    figures: Dict[str, List[float]]


def _report_failure(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Train:
    """Desk DodNet training on the partially labeled phantom mix."""

    STEPS = 4
    OPS_PER_SAMPLE = STEPS  # per-layer figures are per training step
    TRAIN_PER_TASK = 2

    def __init__(self, seed: int, work_dir) -> None:
        self.seed = seed
        self.out_dir = work_dir / "train"
        self.calls = 0
        self.losses: List[float] = []
        self.notes: List[str] = []

    def _schedule(self, steps: int) -> TrainConfig:
        self.calls += 1
        return TrainConfig(
            max_epoch=1,
            steps_per_epoch=steps,
            lr_init=0.01,
            momentum=0.9,
            batch_size=mix.BATCH,
            patch=mix.PATCH,
            seed=self.seed * 10_000 + self.calls,
        )

    def setup(self) -> None:
        self.ds = data.build_dataset(
            mix.phantom_spec(self.seed), per_task_train=self.TRAIN_PER_TASK, shape=mix.SHAPE
        )
        self.model = build_model("dodnet", desk_config(num_tasks=mix.NUM_TASKS), seed=self.seed)
        training.train(self.model, self.ds, self._schedule(1), out_dir=self.out_dir)  # warm-up

    def round(self) -> Round:
        t0 = time.perf_counter()
        try:
            result = training.train(
                self.model, self.ds, self._schedule(self.STEPS), out_dir=self.out_dir
            )
        except Exception:
            _report_failure("train()")
            return Round([], self.STEPS, self.STEPS, {})
        seconds = time.perf_counter() - t0
        self.losses.extend(result.losses)
        rate = mix.BATCH * self.STEPS / seconds
        return Round([seconds / self.STEPS], self.STEPS, 0, {"train_samples_per_s": [rate]})

    def _batch(self, task_id: int, rng):
        task = self.ds.tasks[task_id - 1]
        pool = self.ds.split(task_id, "train")
        return [
            (*data.sample_patch(pool[k % len(pool)], mix.PATCH, rng), task)
            for k in range(mix.BATCH)
        ]

    def check(self) -> None:
        if not self.losses or not np.all(np.isfinite(self.losses)):
            raise checks.CheckFailed("train: missing or non-finite losses")
        ckpt = training.load_checkpoint(self.out_dir / "final.ckpt")
        params = dict(self.model.named_parameters())
        if set(ckpt.params) != set(params):
            raise checks.CheckFailed("train: checkpoint parameter names differ from the model's")
        for name, p in params.items():
            if not np.array_equal(ckpt.params[name], p.data):
                raise checks.CheckFailed(f"train: checkpoint block {name} differs from memory")

        rng = np.random.default_rng(self.seed)
        for task in self.ds.tasks:
            if task.has_organ and task.has_tumor:
                continue
            with Tape():
                loss, logits = batch_loss(self.model, self._batch(task.task_id, rng))
                backward(loss)
            labeled = [c for c, _ in mix.labeled_structures(task)]
            checks.check_unlabeled_channel(logits.grad, labeled, task.name)

        batch = self._batch(1, rng)
        for _, p in self.model.named_parameters():
            p.data = p.data.astype(np.float64)
            p.grad = None
        with Tape():
            loss, _ = batch_loss(self.model, batch)
            backward(loss)
        named = self.model.named_parameters()
        fd, analytic = checks.check_directional_derivative(
            lambda: float(batch_loss(self.model, batch)[0].data),
            [p.data for _, p in named],
            [p.grad for _, p in named],
            rng,
        )
        self.notes.append(f"finite difference {fd:.12g} vs backward {analytic:.12g}")


class Sweep:
    """Sliding-window probabilities of held-out volumes from a trained checkpoint."""

    TEST_PER_TASK = 2
    OPS_PER_SAMPLE = 1

    def __init__(self, seed: int, work_dir) -> None:
        self.seed = seed
        self.data_dir = work_dir / "sweep-data"
        self.first_round: Dict[int, np.ndarray] = {}
        self.notes: List[str] = []

    def setup(self) -> None:
        built = data.build_dataset(
            mix.phantom_spec(self.seed),
            per_task_train=1,
            per_task_test=self.TEST_PER_TASK,
            shape=mix.SHAPE,
        )
        data.save_dataset(built, self.data_dir)
        ds = data.load_dataset(self.data_dir)
        self.model = training.model_from_checkpoint(training.load_checkpoint(common.CHECKPOINT))
        self.volumes = [(s, t) for t in ds.tasks for s in ds.split(t.task_id, "test")]
        self._predict(0)  # warm-up

    def _predict(self, k: int) -> np.ndarray:
        sample, task = self.volumes[k]
        return training.sliding_window_predict(
            self.model, sample.volume, task.task_index, mix.WINDOW
        )

    def round(self) -> Round:
        samples, failed = [], 0
        for k in range(len(self.volumes)):
            t0 = time.perf_counter()
            try:
                probs = self._predict(k)
            except Exception:
                _report_failure(f"sliding_window_predict on volume {k}")
                failed += 1
                continue
            samples.append(time.perf_counter() - t0)
            self.first_round.setdefault(k, probs)
        return Round(samples, len(self.volumes), failed, {"sweep_volume_s": samples})

    def check(self) -> None:
        scores: Dict[str, List[float]] = {}
        for k, probs in sorted(self.first_round.items()):
            sample, task = self.volumes[k]
            checks.check_probabilities(probs, f"volume {k}")
            for channel, name in mix.labeled_structures(task):
                pred = probs[channel] >= 0.5
                gt = checks.structure_masks(sample.labels, channel)
                d = checks.own_dice(pred, gt)
                if d != dice_score(pred, gt):
                    raise checks.CheckFailed(f"{name}: own Dice {d} != metrics.dice_score")
                scores.setdefault(name, []).append(d)
        dice = checks.check_dice(scores)
        shown = " ".join(f"{n}={d:.4f}" for n, d in sorted(dice.items()))
        self.notes.append(f"held-out dice {shown}")

        k0 = min(self.first_round)
        sample, task = self.volumes[k0]

        def logits_of(tile):
            return self.model(Tensor(tile[None, None].astype(np.float32)), task.task_index).data[0]

        windows = checks.tiles(sample.image.shape, mix.WINDOW)
        reference = checks.reference_sweep(logits_of, sample.image, windows)
        checks.check_tiling(reference, self.first_round[k0])


class SegmentAll:
    """All seven tasks on one volume, for each architecture."""

    OPS_PER_SAMPLE = 1

    def __init__(self, seed: int, work_dir) -> None:
        self.seed = seed
        self.notes: List[str] = []

    def setup(self) -> None:
        spec = mix.phantom_spec(self.seed)
        image = data.generate_phantom(spec, spec.tasks[0], data.TEST_SEED_BASE, mix.SHAPE).image
        self.x = Tensor(image[None, None])
        config = desk_config(num_tasks=mix.NUM_TASKS)
        self.models = {a: build_model(a, config, seed=self.seed) for a in ARCHS}
        self.outputs = {a: m.segment_all_tasks(self.x) for a, m in self.models.items()}  # warm-up

    def round(self) -> Round:
        total, failed, figures = 0.0, 0, {}
        for arch, model in self.models.items():
            t0 = time.perf_counter()
            try:
                self.outputs[arch] = model.segment_all_tasks(self.x)
            except Exception:
                _report_failure(f"{arch}.segment_all_tasks")
                failed += 1
                continue
            seconds = time.perf_counter() - t0
            figures[f"segment_all_{arch}_s"] = [seconds]
            total += seconds
        return Round([total] if not failed else [], len(ARCHS), failed, figures)

    def check(self) -> None:
        shape = (1, 2) + mix.SHAPE
        for arch, outs in self.outputs.items():
            if len(outs) != mix.NUM_TASKS:
                raise checks.CheckFailed(f"{arch}: {len(outs)} task maps, expected {mix.NUM_TASKS}")
            for t, logits in enumerate(outs):
                if logits.shape != shape or not np.all(np.isfinite(logits.data)):
                    raise checks.CheckFailed(f"{arch} task {t}: bad logits {logits.shape}")
        for arch in ("dodnet", "multi_head"):
            for t in range(mix.NUM_TASKS):
                single = self.models[arch].forward(self.x, t).data
                if not np.array_equal(single, self.outputs[arch][t].data):
                    raise checks.CheckFailed(f"{arch}: segment_all_tasks[{t}] != forward(x, {t})")

    def check_trace(self, tracer, measured: range) -> None:
        config = desk_config(num_tasks=mix.NUM_TASKS)
        expected = {a: count_flops(config, mix.SHAPE, a, mix.NUM_TASKS).total_macs for a in ARCHS}
        checks.check_mac_totals(Analysis(tracer).macs_per_pass(measured), expected)
        for arch, macs in expected.items():
            self.notes.append(f"traced MACs {arch}: {macs:,} per segment_all_tasks call")


WORKLOADS = {"train": Train, "sweep": Sweep, "segment_all": SegmentAll}


def head_ratio() -> float:
    return head_backbone_ratio(desk_config(num_tasks=mix.NUM_TASKS), mix.SHAPE, mix.NUM_TASKS)
