"""Correctness checks, computed apart from the program where they can be.

Each check raises ``CheckFailed`` with a message naming what disagreed.
The reference computations here (Dice from label grids, the window loop,
the finite difference, MAC totals from call shapes) use numpy and the
program's public forward calls only.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

# Bounds, stated once.
DICE_BOUND = 0.80   # every labeled structure, mean over a run's held-out volumes
TILING_ATOL = 1e-6  # own window loop vs sliding_window_predict, probabilities
FD_EPS = 1e-6       # directional step, parameters in float64
# ReLU and clamp kinks that fall inside the step left relative errors of up
# to 6e-5 over 30 seeds; a sign or scale error in backward is off by order 1.
FD_RTOL = 1e-3
FD_ATOL = 1e-9


class CheckFailed(AssertionError):
    pass


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=np.float64)))


def own_dice(pred: np.ndarray, gt: np.ndarray) -> float:
    both = int(np.count_nonzero(pred & gt))
    total = int(np.count_nonzero(pred)) + int(np.count_nonzero(gt))
    return 1.0 if total == 0 else 2.0 * both / total


def structure_masks(labels: np.ndarray, channel: int) -> np.ndarray:
    """Ground truth of one output channel: organ includes its tumors."""
    return labels >= 1 if channel == 0 else labels == 2


def check_probabilities(probs: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(probs)):
        raise CheckFailed(f"{what}: non-finite probabilities")
    if probs.min() < 0.0 or probs.max() > 1.0:
        raise CheckFailed(f"{what}: probabilities outside [0, 1]")


def check_dice(scores: Dict[str, List[float]], bound: float = DICE_BOUND) -> Dict[str, float]:
    """Mean Dice per structure must clear ``bound``; returns the means."""
    means = {name: float(np.mean(v)) for name, v in scores.items()}
    low = {name: d for name, d in means.items() if d < bound}
    if low:
        shown = ", ".join(f"{n} {d:.3f}" for n, d in sorted(low.items()))
        raise CheckFailed(f"held-out Dice below {bound}: {shown}")
    return means


def window_starts(extent: int, window: int) -> List[int]:
    """Half-overlapping tile origins along one axis; the last tile is flush."""
    stride = max(1, window // 2)
    starts = list(range(0, extent - window + 1, stride))
    if starts[-1] != extent - window:
        starts.append(extent - window)
    return starts


def tiles(shape: Sequence[int], window: Sequence[int]) -> List[Tuple[slice, slice, slice]]:
    axes = [window_starts(n, w) for n, w in zip(shape, window)]
    return [
        (slice(z, z + window[0]), slice(y, y + window[1]), slice(x, x + window[2]))
        for z in axes[0]
        for y in axes[1]
        for x in axes[2]
    ]


def reference_sweep(logits_of: Callable[[np.ndarray], np.ndarray], image: np.ndarray,
                    windows: Sequence[Tuple[slice, slice, slice]]) -> np.ndarray:
    """Forward per tile, sigmoid, average over coverage."""
    accum = np.zeros((2,) + image.shape)
    cover = np.zeros(image.shape)
    for sl in windows:
        accum[(slice(None),) + sl] += sigmoid(logits_of(image[sl]))
        cover[sl] += 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        return accum / cover


def check_tiling(reference: np.ndarray, candidate: np.ndarray, atol: float = TILING_ATOL) -> None:
    if reference.shape != candidate.shape:
        raise CheckFailed(f"tiling: shapes differ, {reference.shape} vs {candidate.shape}")
    if not np.all(np.isfinite(reference)):
        raise CheckFailed("tiling: some voxels are covered by no window")
    err = float(np.max(np.abs(reference - candidate)))
    if not err <= atol:
        raise CheckFailed(f"tiling: own window loop differs by {err:.3g} > {atol}")


def check_directional_derivative(loss_at: Callable[[], float], params: Sequence[np.ndarray],
                                 grads: Sequence[np.ndarray], rng: np.random.Generator,
                                 eps: float = FD_EPS) -> Tuple[float, float]:
    """Central difference of the loss along one random unit direction.

    ``params`` are float64 arrays the loss reads in place; they are restored
    bitwise.  Returns (finite difference, gradient . direction).
    """
    dirs = [rng.standard_normal(p.shape) for p in params]
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in dirs))
    dirs = [d / norm for d in dirs]
    saved = [p.copy() for p in params]
    try:
        for p, d in zip(params, dirs):
            p += eps * d
        up = loss_at()
        for p, s, d in zip(params, saved, dirs):
            p[...] = s - eps * d
        down = loss_at()
    finally:
        for p, s in zip(params, saved):
            p[...] = s
    fd = (up - down) / (2.0 * eps)
    analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, dirs))
    if not abs(fd - analytic) <= FD_ATOL + FD_RTOL * abs(analytic):
        raise CheckFailed(
            f"finite difference {fd:.10g} vs backward {analytic:.10g} along a random direction"
        )
    return fd, analytic


def check_unlabeled_channel(grad: np.ndarray, labeled: Sequence[int], task: str) -> None:
    for c in range(grad.shape[1]):
        if c in labeled and not np.any(grad[:, c] != 0.0):
            raise CheckFailed(f"{task}: labeled channel {c} received no gradient")
        if c not in labeled and np.any(grad[:, c] != 0.0):
            raise CheckFailed(f"{task}: unlabeled channel {c} received a gradient")


def check_mac_totals(per_pass: Sequence[Tuple[str, int]], expected: Dict[str, int]) -> None:
    """Each traced model pass must add up to the analytic MAC count of its arch."""
    if not per_pass:
        raise CheckFailed("MAC total: the trace holds no model pass")
    for arch, macs in per_pass:
        if macs != expected[arch]:
            raise CheckFailed(
                f"MAC total for {arch}: traced {macs:,} != counted {expected[arch]:,}"
            )
