"""Where a result was measured, so results from different machines or code
are never compared silently."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import time

_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _git(root: str, *args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", root, *args],
            capture_output=True,
            text=True,
            timeout=30,
            # never look above the checkout for a repository
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root))),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def git_state(root: str) -> tuple[str | None, bool | None]:
    """(HEAD sha, dirty flag) when ``root`` is itself a git work tree, else (None, None)."""
    top = _git(root, "rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top) != os.path.realpath(root):
        return None, None
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return _git(root, "rev-parse", "HEAD"), (None if status is None else bool(status))


def source_digest(src_dir: str) -> str:
    """sha256 over the paths and bytes of every source file under ``src_dir``."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def blas_info() -> dict:
    """BLAS library name, version and the thread count numpy's BLAS will use."""
    import numpy

    info: dict = {"threads": None, "library": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = blas.get("name")
        info["version"] = blas.get("version")
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                info["threads"] = func()
                info["library"] = os.path.basename(path)
                return info
    return info


#: iterations of the host speed probe: about 0.3 s of pure Python on the
#: 2-CPU host the benchmark was tuned on
PROBE_LOOPS = 2_000_000


def host_probe_s() -> float:
    """Seconds a fixed pure-Python loop takes now: a gauge of host speed.

    The speed of a shared host can drift by tens of percent over minutes;
    this lets a reader tell such drift from a change in the program. It is
    recorded beside the metrics and never used to scale them.
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def stamp(root: str) -> dict:
    import numpy

    sha, dirty = git_state(root)
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": source_digest(os.path.join(root, "src")),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_info(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "loadavg_at_start": list(os.getloadavg()),
    }
