"""Timed part of the query-ba20k workload, run in its own process.

One closed-loop caller: each call asks ``fuzzmap.query_arrays`` for a new
seeded batch of pairs, for ``--seconds``. Only the call is timed. The
answers of every KEEP_EVERY-th batch, up to KEPT_BATCHES of them, are
copied into arrays allocated (and touched) before the loop, and saved for
the parent to check. So the memory the benchmark itself holds is the same
however many batches fit in ``--seconds``, and peak RSS does not grow with
query speed.

    python3 perfbench/query_loop.py --model M.fzg --seed 1 --seconds 20 --out answers.npz
"""

from __future__ import annotations

import argparse
import time
from array import array

import numpy as np

from answers import random_pairs

BATCH_PAIRS = 10_000
KEEP_EVERY = 100
KEPT_BATCHES = 50  # 500,000 checked pairs, ~12.5 MB


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import fuzzmap as fm

    cg = fm.load_file(args.model)
    rng = np.random.default_rng([args.seed, 1])
    # np.full writes every element, so all pages are resident from the start.
    size = KEPT_BATCHES * BATCH_PAIRS
    kept_us, kept_vs = np.full(size, -1, dtype=np.int64), np.full(size, -1, dtype=np.int64)
    kept_definite, kept_value = np.full(size, False), np.full(size, np.nan)
    kept = 0
    batch_ns = array("q")
    clock = time.perf_counter_ns
    deadline = clock() + int(args.seconds * 1e9)
    while not batch_ns or clock() < deadline:
        us, vs = random_pairs(cg.n, BATCH_PAIRS, rng)
        t0 = clock()
        definite, value = fm.query_arrays(cg, us, vs)
        batch_ns.append(clock() - t0)
        if len(batch_ns) % KEEP_EVERY == 1 and kept < KEPT_BATCHES:
            rows = slice(kept * BATCH_PAIRS, (kept + 1) * BATCH_PAIRS)
            kept_us[rows], kept_vs[rows], kept_definite[rows], kept_value[rows] = us, vs, definite, value
            kept += 1

    rows = slice(0, kept * BATCH_PAIRS)
    np.savez(
        args.out,
        us=kept_us[rows], vs=kept_vs[rows], definite=kept_definite[rows], value=kept_value[rows],
        batch_ns=np.frombuffer(batch_ns, dtype=np.int64),
    )


if __name__ == "__main__":
    main()
