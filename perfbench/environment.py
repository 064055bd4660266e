"""Checkout layout, the pinned run environment, and timed child processes.

Every timed part of a workload runs in a child process, started and
reaped by ``launch.py``, so its wall time and its own peak RSS are
measured apart from the benchmark that drives it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
LAUNCHER = Path(__file__).resolve().with_name("launch.py")

# numpy's BLAS pools stay at one thread, so the only parallelism is the one
# FUZZMAP_THREADS controls.
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (sources missing or shadowed)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pinned_threads() -> int:
    """FUZZMAP_THREADS for every run: 2, never more than the CPUs we may use."""
    return min(2, nproc())


def pin_environment() -> None:
    """Pin thread counts and the import path for this process and its children."""
    os.environ["FUZZMAP_THREADS"] = str(pinned_threads())
    for var in _BLAS_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)


def import_fuzzmap():
    """Import fuzzmap from this checkout's sources and nowhere else."""
    init = SRC / "fuzzmap" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"fuzzmap sources not found at {init}")
    sys.path.insert(0, str(SRC))
    import fuzzmap

    if Path(fuzzmap.__file__).resolve() != init.resolve():
        raise SetupError(f"fuzzmap imported from {fuzzmap.__file__}, not from {SRC}")
    return fuzzmap


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _code_sha256() -> str:
    """Hash of the package sources: identifies the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "fuzzmap").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def describe(seed: int) -> dict:
    import numpy

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fuzzmap_threads": int(os.environ["FUZZMAP_THREADS"]),
        "git_commit": _git_commit(),
        "code_sha256": _code_sha256(),
        "seed": seed,
    }


@dataclass(frozen=True)
class ChildRun:
    returncode: int
    wall_s: float
    maxrss_mb: float
    stderr: str


def run_child(argv: list[str], log_dir: Path, timeout_s: float = 170.0) -> ChildRun:
    """Run argv to completion; wall time and the child's own peak RSS.

    The child is started by launch.py, not from this process, because a
    child forked from here would count this process's RSS as its peak.
    stderr goes to a file, not a pipe, so the child never blocks on a full
    pipe while we wait for it. A child that outlives timeout_s is killed.
    """
    err_path = log_dir / "child.stderr"
    with open(err_path, "wb") as err:
        launcher = subprocess.run(
            [sys.executable, str(LAUNCHER), str(timeout_s), *argv],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=err, timeout=timeout_s + 10, check=True,
        )
    report = json.loads(launcher.stdout)
    return ChildRun(
        returncode=report["returncode"],
        wall_s=report["wall_s"],
        maxrss_mb=report["maxrss_kb"] / 1024.0,  # Linux reports KiB
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def fuzzmap_cli(*args: str) -> list[str]:
    """argv for one CLI call, as a user without the entry point installed runs it."""
    return [sys.executable, "-m", "fuzzmap", *args]
