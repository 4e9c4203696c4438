"""Paths, thread pinning and the import of the program under test.

Nothing here imports numpy, so ``pin_threads`` can run before the BLAS
library loads and reads its thread count.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
CHECKPOINT = BENCH_DIR / "dodnet-desk-7task.ckpt"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ``dodnet`` package under ``src/``."""


def pin_threads() -> None:
    """One BLAS thread: timings then do not depend on what else the machine runs."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import ``dodnet`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "dodnet" / "__init__.py").is_file():
        raise ProgramMissing(f"no dodnet package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dodnet

    if Path(dodnet.__file__).resolve().parent != SRC / "dodnet":
        raise ProgramMissing(f"dodnet was imported from {dodnet.__file__}, not {SRC}")
    return dodnet
