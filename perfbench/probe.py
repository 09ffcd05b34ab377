"""Print, as one JSON object, the Python, numpy and BLAS the stages run on.

Usage::

    python perfbench/probe.py

The BLAS thread count is read from the loaded OpenBLAS when it exports
its getter, so it is the count a stage process would use.
"""

from __future__ import annotations

import ctypes
import json
import platform

import numpy as np

# numpy wheels bundle scipy-openblas; a system OpenBLAS has the plain name.
_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads() -> int | None:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def main() -> None:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    print(
        json.dumps(
            {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "blas": blas.get("name"),
                "blas_version": blas.get("version"),
                "blas_threads": blas_threads(),
            }
        )
    )


if __name__ == "__main__":
    main()
