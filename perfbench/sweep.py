"""Run the benchmark over several seeds; per metric the median, quartiles and spread.

    python3 perfbench/sweep.py --seeds 1-10 --trace 0 --out perfbench/baseline.json
    python3 perfbench/sweep.py --seeds 11-20 --out perfbench/baseline.json --section end_to_end_second_set
    python3 perfbench/sweep.py --seeds 1-5 --workloads compress-ba20k

Spread is (Q3 - Q1) / median with quartiles from statistics.quantiles(n=4).
For end-to-end metrics it is compared with a third of the bound in
BENCHMARK.json. With --out, each workload swept is written into the named
section of that file (default: end_to_end, or per_layer with --trace 1);
other workloads and sections are kept. The file's derived parts are then
recomputed from its sections: ``two_sets`` compares end_to_end with
end_to_end_second_set, and ``accounting`` gives layer shares of the CLI
calls.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from environment import OUT_DIR, ROOT
from run import WORKLOAD_NAMES


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def _stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def _end_to_end_spec() -> dict:
    return {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def sweep(workloads: list[str], seeds: list[int], seconds: float, trace: int) -> dict:
    """Per workload: totals, the environment, and per-metric stats and values."""
    bounds = {name: m["bound"] for name, m in _end_to_end_spec().items()}
    swept = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        record = json.loads((OUT_DIR / f"{workload}-seed{seeds[0]}-trace{trace}.json").read_text())
        metrics = {}
        for name, entry in runs[0]["metrics"].items():
            stats = _stats([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = entry["unit"]
            metrics[name] = stats
            bound = bounds.get(name) if not trace else None
            verdict = "" if bound is None else (
                "ok" if stats["spread"] < bound / 3 else "within bound" if stats["spread"] <= bound else "OVER BOUND"
            )
            print(f"  {workload:15s} {name:28s} median {stats['median']:14.6g} {entry['unit']:9s}"
                  f" spread {stats['spread']:8.4f} {verdict}", file=sys.stderr)
        swept[workload] = {
            "seeds": seeds,
            "seconds": seconds,
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "environment": record["environment"],
            "metrics": metrics,
            "values": {name: [r["metrics"][name]["value"] for r in runs] for name in metrics},
        }
    return swept


def _two_sets(first: dict, second: dict) -> dict:
    """Per workload and bounded metric: each set's spread, and how much
    worse the second set's median is than the first's, as a share of it."""
    spec, out = _end_to_end_spec(), {}
    for workload in first.keys() & second.keys():
        for name, m in spec.items():
            a, b = first[workload]["metrics"].get(name), second[workload]["metrics"].get(name)
            if a is None or b is None:
                continue
            worse = (b["median"] - a["median"]) / a["median"]
            out[f"{workload}.{name}"] = {
                "second_worse_by": worse if m["better"] == "lower" else -worse,
                "spread_first": a["spread"],
                "spread_second": b["spread"],
                "bound": m["bound"],
            }
    return dict(sorted(out.items()))


def _accounting(doc: dict) -> dict:
    """Share of a CLI call taken by its dominant layer.

    Layer times come from the compress-ba20k traced runs, which replay both
    commands. The first share is within those runs; the others divide by
    an end-to-end median from other runs, so host drift enters them.
    """
    e2e, layers = doc["end_to_end"], doc["per_layer"]
    if "compress-ba20k" not in layers:
        return {}
    m = {name: stats["median"] for name, stats in layers["compress-ba20k"]["metrics"].items()}
    shares = {
        "radii.scan_s / (untraced compress replay + cli.startup_s)":
            m["radii.scan_s"] / (m["trace.replay_untraced_s"] + m["cli.startup_s"]),
    }
    for workload, layer in (("compress-ba20k", "radii.scan_s"), ("evaluate-ba20k", "harness.evaluate_model_s")):
        if workload in e2e:
            shares[f"{layer} / {workload} op_p50_ms"] = m[layer] / (e2e[workload]["metrics"]["op_p50_ms"]["median"] / 1e3)
    return shares


def main() -> None:
    parser = argparse.ArgumentParser(description="Repeat the benchmark over seeds.")
    parser.add_argument("--seeds", default="1-10", help="lo-hi or a comma list")
    parser.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--section", help="section of --out to write (default: end_to_end or per_layer)")
    args = parser.parse_args()

    swept = sweep(args.workloads.split(","), _seeds(args.seeds), args.seconds, args.trace)
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc.setdefault(args.section or ("per_layer" if args.trace else "end_to_end"), {}).update(swept)
        if "end_to_end" in doc and "per_layer" in doc:
            doc["accounting"] = _accounting(doc)
        if "end_to_end" in doc and "end_to_end_second_set" in doc:
            doc["two_sets"] = _two_sets(doc["end_to_end"], doc["end_to_end_second_set"])
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
