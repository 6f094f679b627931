"""Record the numerical environment a result was measured in.

numpy and scipy each ship their own OpenBLAS, so two BLAS thread pools
can be live in one process. The benchmark records the thread settings
as it found them and never sets them: pinning threads here would hide
the contention between the two pools. threadpoolctl is not a
dependency; loaded BLAS libraries are read from the process map.
"""

from __future__ import annotations

import os
import platform
import re

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_config(module) -> dict:
    """The BLAS entry of ``show_config``; empty if the build does not say."""
    try:
        config = module.show_config(mode="dicts")
    except (TypeError, ValueError):  # older builds print instead of returning
        return {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    keys = ("name", "version", "openblas configuration")
    return {k: blas[k] for k in keys if k in blas}


def _loaded_blas() -> list:
    """Shared BLAS/LAPACK libraries mapped into this process (Linux only)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            maps = fh.read()
    except OSError:
        return []
    names = re.findall(r"\S*/(\S*(?:openblas|mkl_rt|blis|lapack)\S*\.so\S*)", maps)
    return sorted(set(names))


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's BLAS

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_config(numpy),
        "scipy_blas": _blas_config(scipy),
        "loaded_blas": _loaded_blas(),
        "threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }
