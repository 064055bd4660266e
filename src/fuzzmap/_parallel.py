"""Thread-count policy: FUZZMAP_THREADS caps parallelism (0 or unset = auto)."""

from __future__ import annotations

import os

_AUTO_CAP = 8  # diminishing returns beyond this for GIL-released numpy chunks


def thread_count() -> int:
    raw = os.environ.get("FUZZMAP_THREADS", "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"FUZZMAP_THREADS must be an integer, got {raw!r}") from None
        if value < 0:
            raise ValueError("FUZZMAP_THREADS must be >= 0")
        if value > 0:
            return value
    return max(1, min(os.cpu_count() or 1, _AUTO_CAP))


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
