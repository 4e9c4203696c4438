"""The phantom mix every workload draws from, modelled on MOTS.

Seven tasks on 24x48x48 volumes: four label organ and tumor, two label the
tumor only and one labels the organ only, so the masked loss sees every
partial-label case.  Geometry comes from ``data.default_recipes``; only the
names and the labeled structures change.
"""

from __future__ import annotations

import dataclasses

from dodnet.data import PhantomSpec, default_recipes
from dodnet.losses import TaskDescriptor

SHAPE = (24, 48, 48)
PATCH = (16, 32, 32)
WINDOW = (16, 32, 32)
BATCH = 2

# (name, has_organ, has_tumor) in task-id order.
TASKS = (
    ("liver", True, True),
    ("kidney", True, True),
    ("hepatic_vessel", True, True),
    ("pancreas", True, True),
    ("colon", False, True),
    ("lung", False, True),
    ("spleen", True, False),
)
NUM_TASKS = len(TASKS)

# The sweep checkpoint was trained on this master seed; workload seeds only
# pick held-out samples, which never overlap the training samples.
CHECKPOINT_SEED = 0


def phantom_spec(master_seed: int) -> PhantomSpec:
    recipes = tuple(
        dataclasses.replace(
            recipe,
            task=TaskDescriptor(i + 1, name, has_organ=organ, has_tumor=tumor),
        )
        for i, (recipe, (name, organ, tumor)) in enumerate(
            zip(default_recipes(NUM_TASKS), TASKS)
        )
    )
    return PhantomSpec(recipes=recipes, master_seed=master_seed)


def labeled_structures(task: TaskDescriptor):
    """(channel, name) for each structure the task labels."""
    out = []
    if task.has_organ:
        out.append((0, f"{task.name}/organ"))
    if task.has_tumor:
        out.append((1, f"{task.name}/tumor"))
    return out
