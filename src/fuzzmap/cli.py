"""Command-line entry point: compress, query, evaluate, sweep, info.

Exit codes: 0 success, 1 usage error, 2 I/O or format error, 3 query
precondition error. Diagnostics go to stderr; machine-readable output
(CSV, query verdicts) goes to stdout or the named file.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .fuzzy import parse_fcl
from .graph import load_edge_list
from .harness import DEFAULT_SAMPLE, evaluate_model, reports_to_csv, sweep_k
from .oracle import FORMAT_VERSION, build, ids_are_range, load_file, query, save_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_QUERY = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        raise _UsageError(message)


def _int_option(option: str, least: int, text: str) -> int:
    """The value of an int ``option`` of at least ``least``, as its argparse type."""
    try:
        value = int(text)
    except ValueError:  # argparse would name the type's function, not int, in its message
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < least:
        raise _UsageError(f"{option} must be >= {least}")
    return value


def _parse_k_range(spec: str) -> range:
    """The k values of 'lo:hi[:step]', hi included, or of a single integer k as k:k."""
    try:
        values = [int(p) for p in spec.split(":")]
    except ValueError:
        raise _UsageError(f"bad k range {spec!r}") from None
    if len(values) < 3:  # k is k:k, and lo:hi is lo:hi:1
        values = [values[0], values[-1], 1]
    if len(values) != 3 or values[2] < 1 or values[1] < values[0]:
        raise _UsageError(f"bad k range {spec!r}")
    lo, hi, step = values
    if lo < 1:  # the least k
        raise _UsageError("k values must be >= 1")
    return range(lo, hi + 1, step)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="fuzzmap",
        description="Compress graphs into k-dimensional points with per-node "
        "radii and answer adjacency queries definitively or fuzzily.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options that several commands share, each declared once
    edges = argparse.ArgumentParser(add_help=False)
    edges.add_argument("--input", required=True, help="edge-list file")
    edges.add_argument("--quantize", action=argparse.BooleanOptionalAction, default=True,
                       help="integer radii (default on)")
    edges.add_argument("--directed", action="store_true")
    report = argparse.ArgumentParser(add_help=False)
    # the harness takes None, not 0, for all pairs
    report.add_argument("--sample", default=DEFAULT_SAMPLE, help="pairs to sample (0 = all pairs)",
                        type=lambda text: _int_option("--sample", 0, text) or None)
    report.add_argument("--out", help="CSV path (default stdout)")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=lambda text: _int_option("--seed", 0, text), default=0)

    p = sub.add_parser("compress", parents=[edges, seeded], help="edge list -> FZG1 model file")
    p.add_argument("--output", required=True, help="model file to write")
    p.add_argument("--k", type=lambda text: _int_option("--k", 1, text), required=True,
                   help="embedding dimensions")
    p.add_argument("--fcl", help="FCL file overriding the built-in fuzzy system")

    p = sub.add_parser("query", help="adjacency query against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--u", type=int, required=True, help="external node id")
    p.add_argument("--v", type=int, required=True, help="external node id")

    p = sub.add_parser("evaluate", parents=[report, seeded],
                       help="accuracy report for a model vs its graph")
    p.add_argument("--model", required=True)
    p.add_argument("--graph", required=True, help="edge-list file the model was built from")

    p = sub.add_parser("sweep", parents=[edges, report, seeded],
                       help="build + evaluate across a k range")
    p.add_argument("--k", type=_parse_k_range, required=True, help="k range lo:hi[:step]")

    p = sub.add_parser("info", help="print model header fields, the distinct-point and "
                                    "node-state counts the file stores, and the size of "
                                    "the pair table queries read")
    p.add_argument("model")

    return parser


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)


def _cmd_compress(args: argparse.Namespace) -> int:
    try:  # --fcl first, so a bad one is named before any edge is read
        fcl_text = Path(args.fcl).read_text(encoding="utf-8") if args.fcl else None
    except UnicodeDecodeError as exc:
        raise ValueError(f"--fcl file is not UTF-8 ({args.fcl}): {exc}") from None
    if fcl_text is not None:
        parse_fcl(fcl_text)  # build parses it again, after the edge list
    g = load_edge_list(args.input, directed=args.directed)
    cg = build(g, k=args.k, seed=args.seed, quantize=args.quantize, fcl_text=fcl_text)
    nbytes = save_file(cg, args.output)
    print(f"n={cg.n} k={cg.k} bytes={nbytes}")
    return EXIT_OK


def _cmd_query(args: argparse.Namespace) -> int:
    cg = load_file(args.model)
    try:
        u = cg.internal_id(args.u)
        v = cg.internal_id(args.v)
        answer = query(cg, u, v)
    except ValueError as exc:
        print(f"fuzzmap: {exc}", file=sys.stderr)
        return EXIT_QUERY
    if answer.is_definite:
        print("yes" if answer.value == 1.0 else "no")
    else:
        print(f"fuzzy {answer.value:.4f}")
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cg = load_file(args.model)
    g = load_edge_list(args.graph, directed=cg.directed)
    report = evaluate_model(cg, g, sample_size=args.sample, seed=args.seed)
    _write_text(args.out, reports_to_csv([report]))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    g = load_edge_list(args.input, directed=args.directed)
    reports = sweep_k(g, args.k, quantize=args.quantize, seed=args.seed, sample_size=args.sample)
    _write_text(args.out, reports_to_csv(reports))
    return EXIT_OK


def _cmd_info(args: argparse.Namespace) -> int:
    cg = load_file(args.model)
    print(f"version={FORMAT_VERSION}")
    print(f"n={cg.n}")
    print(f"k={cg.k}")
    print(f"directed={'true' if cg.directed else 'false'}")
    print(f"quantized={'true' if cg.quantized else 'false'}")
    print(f"distinct_points={cg.u}")
    print(f"largest_group={np.bincount(cg.states.point.take(cg.states.index)).max()}")
    # the distinct (point, r, R) triples of the file's state table
    print(f"node_states={cg.states.t}")
    # 0 where CompressedGraph.pair_table is None; builds the table
    print(f"pair_table_bytes={0 if cg.pair_table is None else cg.pair_table.codes.nbytes}")
    # true: the file stores the ids as lo alone, false: as n u64 ids
    print(f"id_range={'true' if ids_are_range(cg.external_ids) else 'false'}")
    print(f"fcl_bytes={len(cg.fcl_text.encode('utf-8'))}")
    print(f"file_bytes={os.path.getsize(args.model)}")
    return EXIT_OK


_COMMANDS = {
    "compress": _cmd_compress,
    "query": _cmd_query,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "info": _cmd_info,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv and execute; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"fuzzmap: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse -h/--help
        return int(exc.code or 0)
    except (OSError, ValueError) as exc:  # the library's parse and format errors are ValueErrors
        print(f"fuzzmap: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
