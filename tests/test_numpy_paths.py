"""No library call takes numpy's hashing set path or starts a thread.

Without return_* flags, numpy >= 2.3's ``np.unique`` (and the set
routines built on it, such as ``np.setdiff1d``) hashes, and that path
imports ``numpy.ma``. The library sorts instead, so a fresh interpreter
that runs every public step leaves ``numpy.ma`` as a bare ``import numpy``
left it: unloaded on numpy 2, loaded with numpy itself on numpy 1.x.
Every step also runs on the calling thread: the interpreter never loads
the ``concurrent`` package, home of the thread pool executors, and never
has a second thread.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# each step runs in turn; the script prints the first after which numpy.ma's
# state changed, the concurrent package was loaded or a second thread ran
SCRIPT = r'''
import io, sys, threading
import numpy as np
bare = "numpy.ma" in sys.modules

def check(name):
    if ("numpy.ma" in sys.modules) != bare:
        print(f"numpy.ma loaded={not bare} after: {name}")
        sys.exit(1)
    if "concurrent" in sys.modules:
        print(f"concurrent loaded after: {name}")
        sys.exit(1)
    if threading.active_count() != 1:
        print(f"{threading.active_count()} threads after: {name}")
        sys.exit(1)

from fuzzmap import (build, evaluate_model, gnp_random_graph, load, parse_edge_list,
                     preferential_attachment_graph, query_arrays, save)
check("import fuzzmap")

def built(g, quantize, table):
    cg = build(g, k=4, seed=0, quantize=quantize)
    assert (cg.pair_table is not None) == table, "pair table"
    return cg

ba = preferential_attachment_graph(3000, 3, seed=1)
dense = gnp_random_graph(400, 0.3, seed=1)
models = {}
steps = {
    "sparse G(300, 0.002)": lambda: gnp_random_graph(300, 0.002, seed=1),
    "sparse directed G(300, 0.002)": lambda: gnp_random_graph(300, 0.002, seed=1, directed=True),
    "empty draw G(5, 0.0)": lambda: gnp_random_graph(5, 0.0, seed=0),
    "BA(3000, 3)": lambda: preferential_attachment_graph(3000, 3, seed=1),
    "plain edge list": lambda: parse_edge_list("0 1\n1 2\n2 0\n2 3\n"),
    "edge list with header, CRLF and commas": lambda: parse_edge_list(
        "# header\r\n0,1\r\n1, 2\r\n2\t0\r\n2 3\r\n"),
    "quantised build with a pair table": lambda: models.update(table=built(ba, True, True)),
    "exact build with a pair table": lambda: built(ba, False, True),
    "quantised build, table-less G(400, 0.3)": lambda: models.update(dense=built(dense, True, False)),
    "exact build, table-less G(400, 0.3)": lambda: built(dense, False, False),
    "save and load": lambda: [load(io.BytesIO(_save(cg))) for cg in models.values()],
    "query_arrays": lambda: [query_arrays(cg, np.arange(cg.n - 1), np.arange(1, cg.n))
                             for cg in models.values()],
    "evaluate_model, sampled": lambda: evaluate_model(models["table"], ba, sample_size=5000),
    "evaluate_model, all pairs": lambda: evaluate_model(models["dense"], dense, sample_size=None),
}

def _save(cg):
    sink = io.BytesIO()
    save(cg, sink)
    return sink.getvalue()

for name, step in steps.items():
    step()
    check(name)
print(f"numpy.ma loaded={bare}, concurrent unloaded and one thread throughout")
'''


def test_no_step_changes_numpy_ma_or_starts_a_thread():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
