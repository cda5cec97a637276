"""Process set-up shared by the benchmark runner and its set-up probe.

Imported before numpy, so that the thread-pool pins take effect, and before
bridgelab, so that the package under test is the one in this checkout's
``src/`` and never an installed copy.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class MissingProgram(RuntimeError):
    """The checkout holds no bridgelab sources to benchmark."""


def prepare() -> None:
    """Pin BLAS/OpenMP pools to one thread and put the checkout first on sys.path."""
    for name in THREAD_VARS:
        os.environ[name] = "1"
    if not (SRC / "bridgelab" / "__init__.py").is_file():
        raise MissingProgram(f"no bridgelab package under {SRC}")
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
