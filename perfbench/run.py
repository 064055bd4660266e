"""fuzzmap benchmark: one seeded workload per call, or all of them in turn.

    python3 perfbench/run.py --workload compress-ba20k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere; the package is imported from ``src/`` of the checkout
this file sits in, and fails loudly without it. Human-readable lines go
to stderr. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``). A full
record with the environment is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOAD_NAMES = ("compress-ba20k", "query-ba20k", "evaluate-ba20k")


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Seeded benchmark of the fuzzmap CLI and library.")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed part")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced in-process replay reporting per-layer metrics")
    return parser.parse_args(argv)


def _result_line(tally, metrics: dict) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def run_one(args: argparse.Namespace) -> int:
    from environment import OUT_DIR, WORK_DIR, SetupError, describe, import_fuzzmap, pin_environment

    pin_environment()
    try:
        fm = import_fuzzmap()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from answers import Tally
    from workloads import WORKLOADS, BenchError

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work = WORK_DIR / run_id
    work.mkdir(parents=True, exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    tally = Tally()
    started = time.perf_counter()
    try:
        if args.trace:
            from layers import traced_run

            metrics, tracer = traced_run(fm, args.workload, work, args.seed, tally, run_id)
            detail = {}
        else:
            metrics, detail = WORKLOADS[args.workload](fm, work, args.seed, args.seconds, tally)
    except BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": describe(args.seed),
        "wall_s": time.perf_counter() - started,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "detail": detail,
    }
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write(stem.with_suffix(".spans.json"), {"environment": record["environment"]})

    env = record["environment"]
    print(f"{args.workload} seed={args.seed} nproc={env['nproc']} FUZZMAP_THREADS="
          f"{env['fuzzmap_threads']} python={env['python']} numpy={env['numpy']}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}", file=sys.stderr)
    for name, value in detail.items():
        if isinstance(value, (int, float)):
            print(f"  {name:28s} {value:14.6g} (recorded, not bounded)", file=sys.stderr)
    print(f"  {'error_rate':28s} {tally.failed / max(tally.attempted, 1):14.6g} fraction"
          f" ({tally.failed} of {tally.attempted})", file=sys.stderr)
    for problem in tally.problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    print(_result_line(tally, metrics))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, in turn; one combined result line."""
    from answers import Tally

    tally, metrics = Tally(), {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        tally.add(name, result["attempted"], result["failed"])
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = (entry["value"], entry["unit"])
    print(_result_line(tally, metrics))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
