"""Run environment: BLAS thread pinning, import paths and the fingerprint.

:func:`pin_blas_threads` must run before anything imports numpy: the
OpenBLAS, OpenMP and MKL pools size themselves from the environment
when the library loads.  Every workload process calls it first, then
:func:`check_blas_threads` confirms through the loaded library that the
pool really has one thread, and fails the run if it does not.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
#: Spans, per-run records and the run ledger; git-ignored.
OUT_DIR = REPO_ROOT / ".perfbench-out"

# Symbols of the BLAS thread getter, per vendor build (scipy-openblas
# prefixes and suffixes its exports; a stock OpenBLAS does not).
_GET_THREADS_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def pin_blas_threads() -> None:
    """Pin every BLAS/OpenMP pool to one thread (before numpy loads)."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas_threads() must run before numpy is imported")
    for name in BLAS_ENV_VARS:
        os.environ[name] = str(BLAS_THREADS)


def add_source_path() -> None:
    """Make the checkout's ``repro`` package importable."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(
            f"no repro package under {SRC_DIR}; run the benchmark from a full checkout"
        )
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def _blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {"name": "unknown", "version": "unknown"}
    return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}


def _blas_libraries() -> list:
    import numpy as np

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(glob.glob(str(libs_dir / "*blas*")))
    found += sorted(glob.glob(str(Path(np.__file__).resolve().parent / ".dylibs" / "*blas*")))
    return found


def observed_blas_threads():
    """Thread count of the BLAS numpy loaded, read from the library
    itself; None when no known getter is exported."""
    import numpy  # noqa: F401  (loads the library first)

    for path in _blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _GET_THREADS_SYMBOLS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def check_blas_threads() -> int:
    """Fail loudly unless the loaded BLAS runs exactly one thread."""
    threads = observed_blas_threads()
    if threads != BLAS_THREADS:
        raise RuntimeError(
            f"BLAS thread count is {threads!r}, expected {BLAS_THREADS}: the "
            "benchmark's timings and the repo's bitwise contracts assume one thread"
        )
    return threads


def _git_commit():
    if not (REPO_ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the program's source files: identifies the code
    under test in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC_DIR.rglob("*.py")):
        digest.update(str(path.relative_to(SRC_DIR)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(workload: str, seed: int, traced: bool) -> dict:
    """Everything a result needs to be compared with another one."""
    import numpy as np
    import scipy

    blas = _blas_info()
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_vendor": blas["name"],
        "blas_version": blas["version"],
        "blas_threads": observed_blas_threads(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_digest": source_digest(),
        "machine": platform.machine(),
    }


def repeat_setup(times: int, build, release=None):
    """Build ``times`` times and keep the last result; returns it with
    the CPU seconds of each build.  CPU seconds leave out the time the
    host gave to other guests, which moves wall-clock set-up by a fifth
    on a busy VM; the wall seconds are returned too, for the record."""
    import gc
    import time

    result, cpu_s, wall_s = None, [], []
    for _ in range(times):
        if result is not None and release is not None:
            release(result)
        result = None
        gc.collect()
        c0, w0 = time.process_time(), time.perf_counter()
        result = build()
        cpu_s.append(time.process_time() - c0)
        wall_s.append(time.perf_counter() - w0)
    gc.collect()
    return result, cpu_s, wall_s


def peak_rss_mb() -> float:
    """High-water resident set of this process so far (``ru_maxrss``)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_steal_ticks():
    """CPU time the hypervisor gave to other guests (``steal`` in
    /proc/stat, in clock ticks); None where the kernel does not say."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def steal_share(before, after, wall_s: float):
    """Share of all CPUs' time stolen by the hypervisor during ``wall_s`` seconds."""
    if before is None or after is None or wall_s <= 0:
        return None
    capacity = wall_s * os.sysconf("SC_CLK_TCK") * (os.cpu_count() or 1)
    return (after - before) / capacity
