"""Retrain the desk DodNet checkpoint that the ``sweep`` workload loads.

    python3 benchmarks/make_checkpoint.py

Trains ``desk_config(7)`` for 1200 steps (batch 2, patch 16x32x32, momentum
0.9) on the phantom mix with master seed 0, reports held-out Dice per
structure and overwrites ``benchmarks/dodnet-desk-7task.ckpt`` (parameters
only, no optimizer state).  Takes a few minutes on one core.
"""

from __future__ import annotations

import time

import common

common.pin_threads()
common.import_program()

import numpy as np  # noqa: E402

from dodnet.data import build_dataset  # noqa: E402
from dodnet.model import build_model, desk_config  # noqa: E402
from dodnet.training import TrainConfig, evaluate, save_checkpoint, train  # noqa: E402

import mix  # noqa: E402

SCHEDULE = TrainConfig(
    max_epoch=120,
    steps_per_epoch=10,
    lr_init=0.01,
    momentum=0.9,
    batch_size=mix.BATCH,
    patch=mix.PATCH,
    seed=0,
)


def main() -> int:
    t0 = time.perf_counter()
    ds = build_dataset(
        mix.phantom_spec(mix.CHECKPOINT_SEED), per_task_train=20, per_task_test=4, shape=mix.SHAPE
    )
    model = build_model("dodnet", desk_config(num_tasks=mix.NUM_TASKS), seed=0)
    result = train(model, ds, SCHEDULE)
    seconds = time.perf_counter() - t0
    dice = evaluate(model, ds, window=mix.WINDOW)
    for name in sorted(dice):
        print(f"{name}: dice {dice[name]:.4f}")
    print(f"mean held-out dice {np.mean(list(dice.values())):.4f} over {len(dice)} structures")
    print(f"{len(result.losses)} steps in {seconds:.0f} s; final loss {result.losses[-1]:.4f}")
    save_checkpoint(common.CHECKPOINT, model, step=len(result.losses))
    print(f"wrote {common.CHECKPOINT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
