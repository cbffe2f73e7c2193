"""Stage processes and artifact digests.

Every stage runs as its own ``python -m harforge`` process, as a user runs
it, and is reaped with ``os.wait4`` so its peak RSS is that child's alone.
A stage that outlives its time limit is killed and reaped before the run
goes on, so no process outlives the benchmark.
"""

from __future__ import annotations

import hashlib
import os
import select
import shutil
import subprocess
import time
from dataclasses import dataclass


@dataclass
class StageRun:
    argv: list[str]
    code: int
    seconds: float
    rss_mb: float
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.code == 0


def run_process(argv: list[str], env: dict, log_dir: str, timeout: float, cwd: str) -> StageRun:
    """Run ``argv`` to completion; wall time and peak RSS of that child alone."""
    os.makedirs(log_dir, exist_ok=True)
    out_path = os.path.join(log_dir, "stdout.txt")
    err_path = os.path.join(log_dir, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(0.0, timeout))
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted (SIGTERM, Ctrl-C): leave no stage process behind
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    if not ready:
        stderr += f"\nkilled after {timeout:.0f} s"
    return StageRun(argv, proc.returncode, seconds, usage.ru_maxrss / 1024.0, stdout, stderr)


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def manifest(root: str, dirs: tuple[str, ...]) -> dict[str, str]:
    """sha256 of every file under ``root/<dir>`` for each of ``dirs``, by relative path."""
    out: dict[str, str] = {}
    for top in dirs:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                out[os.path.relpath(path, root).replace(os.sep, "/")] = file_digest(path)
    return out


def manifest_diff(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Relative paths that are missing, extra or changed, sorted."""
    return sorted(p for p in set(expected) | set(actual) if expected.get(p) != actual.get(p))


def tree_bytes(path: str) -> int:
    total = 0
    for dirpath, _, filenames in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, n)) for n in filenames)
    return total


def remove(*paths: str) -> None:
    for path in paths:
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)
