"""Process preparation shared by the benchmark's entry points.

Must run before numpy is imported: it pins BLAS/OpenMP pools to one thread
(so the two-worker campaign pool cannot oversubscribe a two-CPU host),
selects the numpy compute backend, and puts the checkout's ``src/`` first on
``sys.path`` so the program measured is the one in this checkout.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def environment() -> dict:
    """The environment every benchmark process runs with."""
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["REPRO_BACKEND"] = "numpy"
    return env


def prepare() -> Path:
    """Pin threads, select the backend, and import ``repro`` from ``src/``.

    Exits with status 2 when the checkout has no ``src/repro`` package: the
    benchmark measures the program beside it and nothing else.
    """
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program to measure: {source / 'repro'} is missing\n")
        raise SystemExit(2)
    os.environ.update(environment())
    sys.path.insert(0, str(source))
    return ROOT
