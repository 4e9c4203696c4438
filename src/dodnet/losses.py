"""Dice + binary-cross-entropy objective with partial-label channel masking.

A label grid uses {0: background, 1: organ, 2: tumor} and expands to two
binary targets.  The organ target is ``label >= 1``: tumors sit inside their
organ, so organ supervision includes tumor voxels.  A task descriptor says
which of the two channels actually carries ground truth; the loss never
touches the other channel, so its logits get exactly zero gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .model import ORGAN_CHANNEL, OUT_CHANNELS, TUMOR_CHANNEL
from .tensor import Tensor

DICE_EPS = 1e-5
PROB_CLAMP = 1e-7


@dataclass(frozen=True)
class TaskDescriptor:
    """Which annotations a task provides.  ``task_id`` is 1-based."""

    task_id: int
    name: str
    has_organ: bool = True
    has_tumor: bool = True

    def __post_init__(self):
        if self.task_id < 1:
            raise ValueError(f"task_id must be >= 1, got {self.task_id}")
        if not (self.has_organ or self.has_tumor):
            raise ValueError(f"task {self.name!r} must label at least one structure")

    @property
    def task_index(self) -> int:
        """0-based index used for one-hot encoding."""
        return self.task_id - 1

    def available_channels(self):
        channels = []
        if self.has_organ:
            channels.append(ORGAN_CHANNEL)
        if self.has_tumor:
            channels.append(TUMOR_CHANNEL)
        return channels


def targets_from_labels(labels: np.ndarray) -> np.ndarray:
    """Expand a {0,1,2} label grid into stacked binary (organ, tumor) targets.

    Accepts (D,H,W) or (N,D,H,W); the channel axis is inserted before the
    spatial axes.
    """
    labels = np.asarray(labels)
    if not np.isin(labels, (0, 1, 2)).all():
        raise ValueError("labels must take values in {0, 1, 2}")
    organ = (labels >= 1).astype(np.float32)
    tumor = (labels == 2).astype(np.float32)
    return np.stack([organ, tumor], axis=-4)


def dice_bce_loss(p: Tensor, y: np.ndarray) -> Tensor:
    """Soft-dice plus mean binary cross-entropy over one channel.

    ``p`` holds probabilities; ``y`` holds binary targets of the same shape.
    Probabilities are clamped to [1e-7, 1 - 1e-7] before the logarithms only,
    so the dice term sees them unmodified.
    """
    y = np.asarray(y, dtype=p.data.dtype)
    if y.shape != p.shape:
        raise ValueError(f"targets shaped {y.shape} do not match probabilities {p.shape}")
    yt = Tensor(y)
    ysum = float(y.sum())
    inter = (p * yt).sum()
    dice = 1.0 - (inter * 2.0) / (p.sum() + (ysum + DICE_EPS))
    pc = ops.clamp(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    ll = yt * ops.log(pc) + Tensor(1.0 - y) * ops.log(1.0 - pc)
    return dice - ll.mean()


def masked_task_loss(logits: Tensor, labels: np.ndarray, task: TaskDescriptor) -> Tensor:
    """Average dice+BCE over the task's labeled channels only.

    ``logits`` is (N, 2, D, H, W); ``labels`` is the matching (N, D, H, W)
    grid.  Averaging (rather than summing) keeps single-channel and
    dual-channel tasks on the same loss scale.
    """
    if logits.ndim != 5 or logits.shape[1] != OUT_CHANNELS:
        raise ValueError(f"expected (N, 2, D, H, W) logits, got {logits.shape}")
    labels = np.asarray(labels)
    if labels.shape != (logits.shape[0],) + logits.shape[2:]:
        raise ValueError(
            f"labels shaped {labels.shape} do not align with logits {logits.shape}"
        )
    targets = targets_from_labels(labels)
    channels = task.available_channels()
    total = None
    for c in channels:
        piece = dice_bce_loss(ops.sigmoid(logits[:, c]), targets[:, c])
        total = piece if total is None else total + piece
    return total * (1.0 / len(channels))
