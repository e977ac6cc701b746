"""Environment record: core count, versions, BLAS thread settings and the
thread count OpenBLAS actually uses, read through its own entry point."""

from __future__ import annotations

import ctypes
import os
import platform

THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Bundled OpenBLAS builds prefix and suffix their exports differently.
_GET_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_GET_CONFIG = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    paths = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and path not in paths:
                paths.append(path)
    return paths


def _entry(lib: ctypes.CDLL, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn
    return None


def openblas_threads() -> list[dict]:
    """Effective thread count of each loaded OpenBLAS (numpy's and scipy's
    wheels each bundle one).  Call after numpy and scipy.linalg are imported."""
    out = []
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        get_threads = _entry(lib, _GET_THREADS, ctypes.c_int)
        get_config = _entry(lib, _GET_CONFIG, ctypes.c_char_p)
        out.append(
            {
                "library": os.path.basename(path),
                "threads": None if get_threads is None else int(get_threads()),
                "config": None if get_config is None else get_config().decode(),
            }
        )
    return out


def record() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "openblas": openblas_threads(),
    }


def max_threads(env: dict) -> int:
    """The most threads any loaded OpenBLAS will use."""
    return max((lib["threads"] or 0 for lib in env["openblas"]), default=0)
