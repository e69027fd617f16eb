"""The machine block recorded with every result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas() -> dict:
    """Version string and live thread count of the OpenBLAS numpy loaded, when it is OpenBLAS."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                get_config.argtypes = []
                get_config.restype = ctypes.c_char_p
                return {"config": get_config().decode(), "threads": get_threads()}
    return {"config": None, "threads": None}


def machine_block() -> dict:
    import numpy as np

    blas_build = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {
            "name": blas_build.get("name"),
            "version": blas_build.get("version"),
            **_openblas(),
            # the benchmark pins no BLAS threads; these show what the environment set
            "env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        },
    }
