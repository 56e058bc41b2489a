"""Environment fingerprint recorded with every benchmark result.

Timings are comparable only between runs whose fingerprints match:
:func:`differences` lists the fields that differ, and ``compare.py``
refuses to compare results across differing fingerprints.
"""

from __future__ import annotations

import ctypes
import os
import platform
import re
from typing import Dict, List, Optional

#: Fields that change timings; a difference in any of them makes two
#: results incomparable.
COMPARED_FIELDS = (
    "nproc",
    "cpu_model",
    "blas",
    "blas_threads",
    "numpy",
    "python",
    "dtype",
    "engine",
    "scale",
)


def nproc() -> int:
    """CPUs this process may run on (not the host's CPU count)."""
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> Dict[str, object]:
    """BLAS library name/version and the thread count it runs with."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{info.get('name', '?')} {info.get('version', '?')}"
    return {"blas": name, "blas_threads": _openblas_threads()}


def _openblas_threads() -> Optional[int]:
    """Thread count reported by the loaded OpenBLAS, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libraries = set(re.findall(r"(/\S*openblas\S*\.so\S*)", handle.read()))
    except OSError:
        return None
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def collect(dtype: str, engine: str, scale: Dict[str, object]) -> Dict[str, object]:
    """The fingerprint of this process running at ``scale``."""
    import numpy as np

    return {
        "nproc": nproc(),
        "host_cpus": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **_blas(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "dtype": dtype,
        "engine": engine,
        "scale": scale,
    }


def differences(first: Dict[str, object], second: Dict[str, object]) -> List[str]:
    """Compared fields whose values differ between two fingerprints."""
    return [key for key in COMPARED_FIELDS if first.get(key) != second.get(key)]
