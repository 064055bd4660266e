"""The reference ledger: six seeded models and what each one answers.

Each model is built at k = 8 with build seed 1. Its record holds the
SHA-256 and size of its FZG1 bytes, u, t and ``pair_table_bytes`` (as
``fuzzmap info`` prints it). A model with a pair table also records its
every-pair counts, read from the table: each ordered pair of node states
(s, s') stands for c[s] * c[s'] node pairs (c[s] * (c[s] - 1) when s = s'),
halved for an undirected model, whose codes are symmetric. Each edge is
then looked up once by its endpoints' states. A model without a table
records its digest and sizes only.

``tests/reference_models.json`` holds the records, and
``test_models_match_the_reference_ledger`` rebuilds them and compares
field by field. A change that alters a model or its answers on purpose
rewrites the file with

    PYTHONPATH=src python tests/reference_models.py --write

and the diff of the file is that change's before and after.
"""

from __future__ import annotations

import hashlib
import io
import json
import pathlib
import sys

import numpy as np

from fuzzmap import build, gnp_random_graph, graph_from_edges, preferential_attachment_graph, save

LEDGER = pathlib.Path(__file__).with_name("reference_models.json")


def _permuted_ba():
    """BA(20000, 5, seed=1) with its ids relabelled by default_rng(1).permutation(20000)."""
    g = preferential_attachment_graph(20000, 5, seed=1)
    us, vs = g.edges()
    label = np.random.default_rng(1).permutation(g.n).astype(np.uint64)
    return graph_from_edges(np.column_stack((label[us], label[vs])))


def _models():
    """(name, graph maker, quantize) of every model in the ledger."""
    ba = lambda: preferential_attachment_graph(20000, 5, seed=1)
    return [
        ("ba-20000-5", ba, True),
        ("ba-20000-5-exact", ba, False),
        ("ba-20000-5-permuted", _permuted_ba, True),
        ("gnp-2000-0.01", lambda: gnp_random_graph(2000, 0.01, seed=1), True),
        ("gnp-3000-0.004-directed",
         lambda: gnp_random_graph(3000, 0.004, seed=1, directed=True), True),
        ("ba-4000-20-seed-2024", lambda: preferential_attachment_graph(4000, 20, seed=2024), True),
    ]


def _counts(cg, g) -> dict:
    """Every-pair counts of a model with a pair table, read from the table."""
    table, states = cg.pair_table, cg.states
    c = np.bincount(states.index, minlength=states.t)
    weight = np.outer(c, c) - np.diag(c)  # ordered node pairs per ordered state pair
    per_code = np.zeros(table.decode.size, dtype=np.int64)
    np.add.at(per_code, table.codes.ravel(), weight.ravel())
    if not cg.directed:
        per_code //= 2
    us, vs = g.edges()
    edge_codes = table.codes[states.index[us], states.index[vs]]
    return {
        "pairs": int(per_code.sum()),
        "yes": int(per_code[0]),
        "no": int(per_code[1]),
        "edges_yes": int(np.count_nonzero(edge_codes == 0)),
        "edges_no": int(np.count_nonzero(edge_codes == 1)),
        "fallback": int(per_code[-1]),  # the unscored code is the last
    }


def ledger() -> dict:
    """The record of every model in the ledger, by name."""
    records = {}
    for name, make, quantize in _models():
        g = make()
        cg = build(g, k=8, seed=1, quantize=quantize)
        sink = io.BytesIO()
        save(cg, sink)
        blob = sink.getvalue()
        table = cg.pair_table
        record = {
            "sha256": hashlib.sha256(blob).hexdigest(),
            "bytes": len(blob),
            "u": cg.u,
            "t": cg.states.t,
            "pair_table_bytes": 0 if table is None else table.codes.nbytes,
        }
        if table is not None:
            record["counts"] = _counts(cg, g)
        records[name] = record
    return records


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/reference_models.py --write")
    LEDGER.write_text(json.dumps(ledger(), indent=2) + "\n")
    print(f"wrote {LEDGER}")
