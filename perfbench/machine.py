"""Machine facts recorded next to every benchmark result.

numpy and scipy each bundle their own OpenBLAS (``numpy.libs``,
``scipy.libs``), so the build and thread count of each copy are read
separately through the library's exported query functions.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

import numpy
import scipy
import scipy.linalg  # loads scipy's OpenBLAS, so the query below finds it

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "GOTO_NUM_THREADS", "OPENBLAS_CORETYPE")

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _size_bytes(text: str) -> int:
    text = text.strip()
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def cache_sizes() -> dict:
    """Per-instance size in bytes of each unified or data cache level."""
    out = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = _size_bytes((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _openblas(module) -> dict:
    """Build string and current thread count of the OpenBLAS bundled with a
    numpy or scipy wheel; empty fields when the wheel links another BLAS."""
    info = {"library": None, "version": None, "config": None,
            "corename": None, "threads": None}
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["version"] = deps.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    site = Path(module.__file__).resolve().parent.parent
    libs = sorted(glob.glob(str(site / f"{module.__name__}.libs" / "*openblas*")))
    if not libs:
        return info
    info["library"] = os.path.basename(libs[0])
    lib = ctypes.CDLL(libs[0])

    def query(stem, restype):
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", "_64_", ""):
                fn = getattr(lib, f"{prefix}_{stem}{suffix}", None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = restype
                    return fn()
        return None

    threads = query("get_num_threads", ctypes.c_int)
    config = query("get_config", ctypes.c_char_p)
    corename = query("get_corename", ctypes.c_char_p)
    info["threads"] = threads
    info["config"] = config.decode() if config else None
    info["corename"] = corename.decode() if corename else None
    return info


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache_bytes": cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": _openblas(numpy), "scipy": _openblas(scipy)},
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }
