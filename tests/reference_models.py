"""The reference ledger: six seeded models and what each one answers.

Each model is built at k = 8 with build seed 1. Its record holds the
SHA-256 and size of its FZG1 bytes, u, t and ``pair_table_bytes`` (as
``fuzzmap info`` prints it), and its every-pair counts from
``oracles.state_pair_counts``, with or without a pair table: pairs, yes,
no, edges answered yes, edges answered no, and the 0.5 fallback (the
non-definite answers of exactly 0.5).

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
from oracles import state_pair_counts

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
    """Every-pair counts of a model, from ``oracles.state_pair_counts``."""
    counts = state_pair_counts(cg, g)
    return {key: counts[key] for key in ("pairs", "yes", "no", "edges_yes", "edges_no", "fallback")}


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
        record["counts"] = _counts(cg, g)
        records[name] = record
    return records


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/reference_models.py --write")
    LEDGER.write_text(json.dumps(ledger(), indent=2) + "\n")
    print(f"wrote {LEDGER}")
