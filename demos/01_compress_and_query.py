"""Compress a small friendship graph and query it, definitively and fuzzily.

The model, in memory as in its file, holds k coordinates per distinct
point, two radii per distinct (point, r, R) node state, one state index
per node, and never the edges.
Queries come back 'yes'/'no' only when the geometry guarantees the truth;
everything else gets a likelihood.
"""

import io

from fuzzmap import build, parse_edge_list, query, save, load

EDGE_LIST = """\
# a 10-person friendship graph, arbitrary external ids
10 20
10 30
20 30
20 40
30 40
40 50
50 60
50 70
60 70
60 80
70 80
80 90
90 99
40 99
"""


def main():
    g = parse_edge_list(EDGE_LIST)
    print(f"parsed graph: {g.n} nodes, {g.num_edges} edges")

    cg = build(g, k=3, seed=7, quantize=True)
    print(f"compressed to {cg.u} points of {cg.k} coordinates + {cg.states.t} node states "
          f"(point, r, R) + a state index per node\n")

    print("some queries (external ids):")
    for a, b in [(10, 20), (10, 99), (20, 40), (30, 99), (50, 80)]:
        ans = query(cg, cg.internal_id(a), cg.internal_id(b))
        verdict = ("yes" if ans.value else "no") if ans.is_definite \
            else f"fuzzy likelihood {ans.value:.3f}"
        truth = "edge" if cg.internal_id(b) in g.neighbors(cg.internal_id(a)) else "no edge"
        print(f"  ({a:>2}, {b:>2}) -> {verdict:<24} [ground truth: {truth}]")

    buf = io.BytesIO()
    nbytes = save(cg, buf)
    print(f"\nmodel serialized to {nbytes} bytes (header + id map + {cg.u}x{cg.k} distinct "
          f"points + {cg.states.t} node states (r, R, point) + {g.n} state indices "
          f"+ FCL + CRC)")

    reloaded = load(io.BytesIO(buf.getvalue()))
    ans = query(reloaded, reloaded.internal_id(10), reloaded.internal_id(20))
    print(f"reloaded model answers identically: (10, 20) -> "
          f"{'yes' if ans.value == 1.0 else ans.value}")


if __name__ == "__main__":
    main()
