"""Pin BLAS to one thread before NumPy loads, and describe the environment.

Import this module before anything that imports NumPy. If NumPy is already
loaded with other thread settings, the pin can no longer take effect and
:func:`pin_threads` refuses, so that no timing is taken under an unknown
thread count.
"""

from __future__ import annotations

import os
import platform
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class UnpinnedEnvironment(RuntimeError):
    """NumPy was imported before the BLAS thread count was pinned to 1."""


def pin_threads() -> None:
    if "numpy" in sys.modules:
        wrong = {v: os.environ.get(v) for v in THREAD_VARS if os.environ.get(v) != "1"}
        if wrong:
            raise UnpinnedEnvironment(
                f"NumPy was imported before the BLAS threads were pinned: {wrong}"
            )
        return
    for var in THREAD_VARS:
        os.environ[var] = "1"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_version(module) -> str:
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception as exc:  # show_config layouts vary across releases
        return f"unknown ({type(exc).__name__})"


def environment() -> dict:
    """Machine, library versions and thread settings of this process."""
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(numpy),
        "scipy_blas": _blas_version(scipy),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }
