"""Show how the per-node radii are chosen and why definite answers are safe.

For each node: r is the largest distance below which everything is a
neighbor, R the smallest distance above which everything is a
non-neighbor. Whatever the embedding quality, a definite answer can
never contradict the source graph; compression only shrinks how often
definite answers happen.
"""

import numpy as np

from fuzzmap import build, gnp_random_graph, query_arrays
from fuzzmap.radii import distances_from


def main():
    g = gnp_random_graph(10, 0.35, seed=5)
    cg = build(g, k=2, seed=1, quantize=True)

    print("per-node bands (quantized):")
    print("  node   r      R      neighbor distances -> non-neighbor distances")
    for v in range(g.n):
        d = distances_from(cg.embedding.coords, v)
        nbd = sorted(round(float(d[u]), 2) for u in g.neighbors(v))
        nnd = sorted(round(float(d[u]), 2) for u in range(g.n)
                     if u != v and u not in g.neighbors(v))
        print(f"  {v:>4}  {cg.radii.r[v]:>5.1f} {cg.radii.R[v]:>6.1f}   {nbd} -> {nnd}")

    us, vs = np.triu_indices(g.n, 1)
    definite, value = query_arrays(cg, us, vs)
    truth = np.array([v in g.neighbors(u) for u, v in zip(us, vs)])
    n_def = int(definite.sum())
    n_wrong = int((definite & ((value == 1.0) != truth)).sum())
    print(f"\nall {len(us)} pairs queried: {n_def} definite answers, "
          f"{n_wrong} of them wrong (always 0 by construction)")
    fuzzy = value[~definite]
    if fuzzy.size:
        print(f"remaining {fuzzy.size} pairs got likelihoods in "
              f"[{fuzzy.min():.3f}, {fuzzy.max():.3f}]")


if __name__ == "__main__":
    main()
