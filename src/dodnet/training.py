"""Training loop, LR schedule, sliding-window inference, checkpoints, transfer.

One logical thread owns the parameters.  Every batch carries a single task
(sampled uniformly), every sample contributes its own masked loss, and the
mean over the batch is backpropagated.  A non-finite loss or gradient aborts
the run before the update: silently skipping a diverged step would corrupt
the momentum state anyway.  Checkpoints and the metrics log are written to a
temporary file that replaces the target only once complete.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .data import Dataset, LabeledSample, Volume, _replaced_on_success, sample_patch
from .losses import TaskDescriptor, masked_task_loss, targets_from_labels
from .metrics import dice_score
from .model import ORGAN_CHANNEL, TUMOR_CHANNEL, ModelConfig, Module, build_model
from .ops import sigmoid_array
from .optim import SGDMomentum
from .tensor import Tape, Tensor, backward

CHECKPOINT_MAGIC = b"DODN"
CHECKPOINT_VERSION = 1
# Probability at or above which a voxel is segmented, in evaluation and prediction.
THRESHOLD = 0.5
# Metric names are "<task>/<structure>".
_STRUCTURE_NAMES = {ORGAN_CHANNEL: "organ", TUMOR_CHANNEL: "tumor"}


class TrainingDiverged(RuntimeError):
    """Raised when a step produces a non-finite loss or gradient."""


@dataclass
class TrainConfig:
    max_epoch: int
    steps_per_epoch: int = 10
    lr_init: float = 0.01
    momentum: float = 0.99
    batch_size: int = 2
    patch: Tuple[int, int, int] = (16, 32, 32)
    seed: int = 0
    eval_every: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.lr_init) and self.lr_init > 0):
            raise ValueError(f"lr_init must be positive and finite, got {self.lr_init}")
        if self.max_epoch < 1:
            raise ValueError(f"max_epoch must be >= 1, got {self.max_epoch}")
        if self.steps_per_epoch < 1:
            raise ValueError(f"steps_per_epoch must be >= 1, got {self.steps_per_epoch}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if any(p < 1 for p in self.patch):
            raise ValueError(f"patch extents must be positive, got {self.patch}")


def poly_lr(k: int, max_epoch: int, lr_init: float = 0.01) -> float:
    """Polynomial decay lr_init * (1 - k/K)^0.9 over epochs 0..K."""
    if not 0 <= k <= max_epoch:
        raise ValueError(f"epoch {k} outside 0..{max_epoch}")
    return lr_init * (1.0 - k / max_epoch) ** 0.9


Batch = Sequence[Tuple[np.ndarray, np.ndarray, TaskDescriptor]]


def batch_loss(model: Module, batch: Batch) -> Tuple[Tensor, Tensor]:
    """One forward over the batch, per-sample masked losses averaged.

    Returns (loss, logits) so callers can inspect the raw predictions.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    images = np.stack([img for img, _, _ in batch])[:, None].astype(np.float32)
    labels = np.stack([lbl for _, lbl, _ in batch])
    tasks = [task for _, _, task in batch]
    indices = [t.task_index for t in tasks]
    task_arg = indices[0] if len(set(indices)) == 1 else indices
    logits = model(Tensor(images), task_arg)
    total = None
    for i, task in enumerate(tasks):
        piece = masked_task_loss(logits[i : i + 1], labels[i : i + 1], task)
        total = piece if total is None else total + piece
    return total * (1.0 / len(batch)), logits


def train_step(model: Module, batch: Batch, optimizer: SGDMomentum, lr: float) -> float:
    """Forward the batch, backpropagate the mean masked loss, update in place.

    The parameters and the optimizer state stay untouched when the loss or a
    gradient is non-finite.
    """
    optimizer.zero_grad()
    tasks = sorted({task.name for _, _, task in batch})
    # Overflow and NaN are left to the finite checks, which name the cause.
    with Tape(), np.errstate(over="ignore", invalid="ignore"):
        loss, _ = batch_loss(model, batch)
        value = float(loss.data)
        if not np.isfinite(value):
            raise TrainingDiverged(f"non-finite loss {value} on a batch of task(s) {tasks}")
        backward(loss)
    for name, p in model.named_parameters():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise TrainingDiverged(f"non-finite gradient of {name!r} on a batch of task(s) {tasks}")
    optimizer.step(lr)
    return value


@dataclass
class TrainResult:
    model: Module
    losses: List[float] = field(default_factory=list)
    metric_lines: List[str] = field(default_factory=list)
    eval_history: List[Tuple[int, Dict[str, float]]] = field(default_factory=list)
    best_mean_dice: Optional[float] = None
    best_path: Optional[Path] = None
    final_path: Optional[Path] = None


def evaluate(
    model: Module,
    dataset: Dataset,
    window: Tuple[int, int, int],
    split: str = "test",
) -> Dict[str, float]:
    """Mean Dice per labeled structure over one split, via sliding windows."""
    scores: Dict[str, List[float]] = {}
    for task in dataset.tasks:
        samples = dataset.split(task.task_id, split)
        for sample in samples:
            probs = sliding_window_predict(model, sample.volume, task.task_index, window)
            targets = targets_from_labels(sample.labels)
            for channel in task.available_channels():
                d = dice_score(probs[channel] >= THRESHOLD, targets[channel] > 0)
                scores.setdefault(f"{task.name}/{_STRUCTURE_NAMES[channel]}", []).append(d)
    return {name: float(np.mean(vals)) for name, vals in scores.items()}


def train(
    model: Module,
    dataset: Dataset,
    config: TrainConfig,
    out_dir: Optional[Path] = None,
) -> TrainResult:
    """Run the full schedule; checkpoints go to out_dir/{best,final}.ckpt."""
    tasks = [t for t in dataset.tasks if dataset.split(t.task_id, "train")]
    if not tasks:
        raise ValueError("dataset has no training samples")
    rng = np.random.default_rng(config.seed)
    optimizer = SGDMomentum(model.named_parameters(), momentum=config.momentum)
    result = TrainResult(model=model)
    step = 0
    for epoch in range(config.max_epoch):
        lr = poly_lr(epoch, config.max_epoch, config.lr_init)
        for _ in range(config.steps_per_epoch):
            task = tasks[int(rng.integers(len(tasks)))]
            pool = dataset.split(task.task_id, "train")
            batch = []
            for _ in range(config.batch_size):
                sample = pool[int(rng.integers(len(pool)))]
                img, lbl = sample_patch(sample, config.patch, rng)
                batch.append((img, lbl, task))
            loss = train_step(model, batch, optimizer, lr)
            step += 1
            result.losses.append(loss)
            result.metric_lines.append(f"{step},{lr:.8g},{task.name},{loss:.8g}")
        is_eval_epoch = config.eval_every > 0 and (epoch + 1) % config.eval_every == 0
        if is_eval_epoch:
            metrics = evaluate(model, dataset, window=config.patch)
            if not metrics:
                continue
            result.eval_history.append((step, metrics))
            last_loss = result.losses[-1]
            for name, value in sorted(metrics.items()):
                result.metric_lines.append(
                    f"{step},{lr:.8g},eval,{last_loss:.8g},{name}={value:.6f}"
                )
            mean_dice = float(np.mean(list(metrics.values())))
            if result.best_mean_dice is None or mean_dice > result.best_mean_dice:
                result.best_mean_dice = mean_dice
                if out_dir is not None:
                    result.best_path = Path(out_dir) / "best.ckpt"
                    save_checkpoint(result.best_path, model, step=step)
    if out_dir is not None:
        result.final_path = Path(out_dir) / "final.ckpt"
        save_checkpoint(result.final_path, model, step=step)
        if result.best_path is None:
            result.best_path = Path(out_dir) / "best.ckpt"
            save_checkpoint(result.best_path, model, step=step)
        with _replaced_on_success(Path(out_dir) / "metrics.log") as fh:
            fh.write(("\n".join(result.metric_lines) + "\n").encode("utf-8"))
    return result


def _window_starts(extent: int, window: int) -> List[int]:
    stride = max(1, window // 2)
    starts = []
    pos = 0
    while True:
        starts.append(min(pos, extent - window))
        if pos + window >= extent:
            break
        pos += stride
    return sorted(set(starts))


def sliding_window_predict(
    model: Module,
    volume: Union[Volume, np.ndarray],
    task_index: int,
    window: Tuple[int, int, int],
) -> np.ndarray:
    """Tile the volume with half-overlapping windows and average probabilities.

    Returns sigmoid probabilities shaped (2, D, H, W); thresholding is the
    caller's decision.
    """
    image = volume.image if isinstance(volume, Volume) else np.asarray(volume)
    if image.ndim != 3:
        raise ValueError(f"expected a 3-d volume, got shape {image.shape}")
    if any(w > n for w, n in zip(window, image.shape)):
        raise ValueError(f"window {tuple(window)} exceeds volume extents {image.shape}")
    accum = np.zeros((2,) + image.shape, dtype=np.float64)
    counts = np.zeros(image.shape, dtype=np.float64)
    starts = [_window_starts(n, w) for n, w in zip(image.shape, window)]
    for z in starts[0]:
        for y in starts[1]:
            for x in starts[2]:
                sl = (slice(z, z + window[0]), slice(y, y + window[1]), slice(x, x + window[2]))
                tile = image[sl][None, None].astype(np.float32)
                logits = model(Tensor(tile), task_index)
                probs = sigmoid_array(logits.data[0].astype(np.float64))
                accum[(slice(None),) + sl] += probs
                counts[sl] += 1.0
    return (accum / counts[None]).astype(np.float32)


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class CheckpointData:
    config: Dict[str, str]
    params: Dict[str, np.ndarray]
    step: int

    def model_config(self) -> ModelConfig:
        kwargs = {}
        for f in dataclass_fields(ModelConfig):
            if f.name not in self.config:
                raise ValueError(f"checkpoint config is missing {f.name!r}")
            kwargs[f.name] = int(self.config[f.name])
        return ModelConfig(**kwargs)


def _write_record(fh, name: str, array: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<I", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<I", array.ndim))
    fh.write(struct.pack(f"<{array.ndim}Q", *array.shape))
    fh.write(np.ascontiguousarray(array, dtype="<f4").tobytes())


def _read_exact(fh, n: int) -> bytes:
    """Exactly n bytes, checked against what is left in the file before
    reading, so a corrupt length field cannot ask for more memory than the
    file holds."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise ValueError(f"truncated checkpoint: wanted {n} bytes, {left} left")
    return fh.read(n)


def _read_record(fh) -> Tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<I", _read_exact(fh, 4))
    name = _read_exact(fh, name_len).decode("utf-8")
    (rank,) = struct.unpack("<I", _read_exact(fh, 4))
    shape = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank))
    payload = _read_exact(fh, 4 * math.prod(shape))
    return name, np.frombuffer(payload, dtype="<f4").reshape(shape).copy()


def save_checkpoint(path: Path, model: Module, step: int = 0) -> None:
    """Write the parameters; the optimizer-state section stays empty."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    config_lines = [f"arch={model.arch}", f"step={step}"]
    for f in dataclass_fields(ModelConfig):
        config_lines.append(f"{f.name}={getattr(model.config, f.name)}")
    config_blob = "\n".join(config_lines).encode("utf-8")
    params = model.named_parameters()
    with _replaced_on_success(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(config_blob)))
        fh.write(config_blob)
        fh.write(struct.pack("<I", len(params)))
        for name, p in params:
            _write_record(fh, name, p.data)
        fh.write(struct.pack("<I", 0))


def load_checkpoint(path: Path) -> CheckpointData:
    """Read a checkpoint; optimizer-state records an older writer stored are
    parsed and dropped."""
    path = Path(path)
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (config_len,) = struct.unpack("<I", _read_exact(fh, 4))
        config: Dict[str, str] = {}
        for line in _read_exact(fh, config_len).decode("utf-8").splitlines():
            key, value = line.split("=", 1)
            config[key] = value
        (n_params,) = struct.unpack("<I", _read_exact(fh, 4))
        params = dict(_read_record(fh) for _ in range(n_params))
        (n_state,) = struct.unpack("<I", _read_exact(fh, 4))
        for _ in range(n_state):
            _read_record(fh)
    return CheckpointData(config=config, params=params, step=int(config.get("step", 0)))


def _check_blocks(ckpt: CheckpointData, params: List[Tuple[str, Tensor]], what: str) -> None:
    """Raise ValueError naming the first parameter whose checkpoint block is
    missing, misshapen or non-finite; run it before copying any block."""
    for name, p in params:
        if name not in ckpt.params:
            raise ValueError(f"checkpoint is missing {what} {name!r}")
        block = ckpt.params[name]
        if block.shape != p.shape:
            raise ValueError(f"{what} {name!r} has shape {block.shape}, model expects {p.shape}")
        if not np.isfinite(block).all():
            raise ValueError(f"{what} {name!r} holds non-finite values")


def restore_into(model: Module, ckpt: CheckpointData) -> None:
    """Copy checkpoint parameters into a built model.

    Every block is validated before any is copied, so a rejected checkpoint
    leaves the model untouched.
    """
    params = model.named_parameters()
    _check_blocks(ckpt, params, "parameter block")
    extra = sorted(set(ckpt.params) - {name for name, _ in params})
    if extra:
        raise ValueError(f"checkpoint holds unexpected parameter block {extra[0]!r}")
    for name, p in params:
        p.data = ckpt.params[name].astype(p.data.dtype)


def model_from_checkpoint(ckpt: CheckpointData) -> Module:
    arch = ckpt.config.get("arch")
    if arch is None:
        raise ValueError("checkpoint config does not record the architecture")
    model = build_model(arch, ckpt.model_config())
    restore_into(model, ckpt)
    return model


def transfer_init(
    ckpt: CheckpointData, downstream_config: ModelConfig, seed: int = 0
) -> Module:
    """Fresh model with encoder/decoder weights taken from the checkpoint.

    The controller (whose width depends on the task count) is left at its
    fresh initialization; everything stays trainable.
    """
    model = build_model("dodnet", downstream_config, seed=seed)
    backbone = [
        (name, p)
        for name, p in model.named_parameters()
        if name.startswith(("encoder.", "decoder."))
    ]
    _check_blocks(ckpt, backbone, "backbone block")
    for name, p in backbone:
        p.data = ckpt.params[name].astype(p.data.dtype)
    return model
