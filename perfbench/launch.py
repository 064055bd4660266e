"""Run one command; print its exit code, wall time and own peak RSS as JSON.

    python3 perfbench/launch.py TIMEOUT_S PROGRAM [ARG...]

Linux keeps a process's peak-RSS mark across exec, so a command started
straight from the benchmark (~100 MB after set-up) would report the
benchmark's RSS as its own peak whenever that is the larger. Started from
this small process instead, the command's ``ru_maxrss`` is its own, with
this launcher's few MB as the floor. The command's stdout is discarded,
its stderr is this process's stderr, and it is killed after TIMEOUT_S.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    timeout_s, argv = float(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawnp(
        argv[0], argv, os.environ, file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    )
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    _, status, usage = os.wait4(pid, 0)
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall_s = time.perf_counter() - start
    print(json.dumps({
        "returncode": os.waitstatus_to_exitcode(status),
        "wall_s": wall_s,
        "maxrss_kb": usage.ru_maxrss,
    }))


if __name__ == "__main__":
    main()
