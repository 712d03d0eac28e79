"""Command-line front end.

Subcommands:

    search   run the enumeration search for one (k, b)
    girth    girth of a graph read from alist / dimacs / dense text
    bounds   reference table (2, 3 or 5), a (g, delta) bound query,
             or the claimed girth ceiling for (m, r)
    tables   any subset of the reference tables 1-5 (table 1 re-runs
             the search; it is never stored)
    convert  rewrite a matrix between alist / dimacs / dense

Exit codes: 0 success, 1 runtime failure (message names the error),
2 usage error. GIRTHMAX_JOBS sets the default worker count; a value
that is not a positive integer is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import BrokenExecutor
from typing import Callable, Sequence

from . import bounds as bounds_mod
from . import btu as btu_mod
from .girth import girth_bfs
from .perm import ScalingStrategy
from .search import SearchConfig, construct_candidate, format_report, report_dict, search_r3

TABLE_GIRTHS = {5: 8, 6: 8, 7: 10, 8: 10, 9: 10, 10: 10}  # published search results

# tables 2-5 by number: (title, renderer); table 1 re-runs the search (`emit_table_1`)
_TABLES = {
    2: ("Moore bound n0(g,3)", bounds_mod.moore_table_text),
    3: ("order window for n(g,3)", bounds_mod.order_bounds_table_text),
    4: ("irregular-matrix reference girths", bounds_mod.irregular_reference_table_text),
    5: ("degree-3 Ramanujan graphs", bounds_mod.ramanujan_table_text),
}

_FORMATS = ("alist", "dimacs", "dense")
_READERS = {
    "alist": btu_mod.read_alist,
    "dimacs": btu_mod.read_dimacs,
    "dense": btu_mod.read_dense,
}
_WRITERS = {
    "alist": btu_mod.write_alist,
    "dimacs": btu_mod.write_dimacs,
    "dense": btu_mod.write_dense,
}


def _at_least(lo: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than lo."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return parse


def _jobs(text: str) -> int:
    try:
        return _at_least(1)(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"--jobs or GIRTHMAX_JOBS must be a positive integer, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    # a string default goes through the option's type, so a bad
    # GIRTHMAX_JOBS is a usage error just like a bad --jobs
    jobs = os.environ.get("GIRTHMAX_JOBS", "").strip() or "1"
    parser = argparse.ArgumentParser(
        prog="girthmax",
        description="Girth-maximum searches and girth bounds for regular bipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="enumeration search for one (k, b)")
    p_search.add_argument("--k", type=_at_least(2), required=True, help="scale factor; m = b*k^2")
    p_search.add_argument("--b", type=_at_least(1), default=1)
    p_search.add_argument(
        "--strategy", choices=[s.value for s in ScalingStrategy], default=ScalingStrategy.BLOCK.value,
        help="scaling of q1 (the published Table 1 girths need interleaved, as in 'tables --which 1')",
    )
    p_search.add_argument(
        "--j-filter",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="require b*k < j < m - b*k",
    )
    p_search.add_argument("--jobs", type=_jobs, default=jobs, help="worker processes")
    p_search.add_argument("--out", help="write the best graph to this path")
    p_search.add_argument("--format", choices=_FORMATS, default="alist")
    p_search.add_argument("--json", action="store_true", help="machine-readable report")

    p_girth = sub.add_parser("girth", help="girth of a graph file")
    p_girth.add_argument("--in", dest="path", required=True)
    p_girth.add_argument("--format", choices=_FORMATS, default="alist")

    p_bounds = sub.add_parser("bounds", help="bound tables and queries")
    group = p_bounds.add_mutually_exclusive_group(required=True)
    group.add_argument("--table", type=int, choices=(2, 3, 5))
    group.add_argument("--query", nargs=2, type=int, metavar=("G", "DELTA"))
    group.add_argument("--gmax", nargs=2, type=_at_least(1), metavar=("M", "R"))

    p_tables = sub.add_parser("tables", help="print reference tables")
    p_tables.add_argument(
        "--which",
        default="1,2,3,4,5",
        help="comma-separated subset of 1..5 (default: all)",
    )
    p_tables.add_argument("--max-k", type=_at_least(5), default=8, help="last k of table 1")
    p_tables.add_argument("--jobs", type=_jobs, default=jobs)

    p_conv = sub.add_parser("convert", help="rewrite a matrix between formats")
    p_conv.add_argument("--in", dest="src", required=True)
    p_conv.add_argument("--out", dest="dst", required=True)
    p_conv.add_argument("--from", dest="src_format", choices=_FORMATS, required=True)
    p_conv.add_argument("--to", dest="dst_format", choices=_FORMATS, required=True)

    return parser


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    return build_parser().parse_args(list(argv))


def _stderr_progress(interval: float = 5.0) -> Callable[[int, int, int], None]:
    last = [time.monotonic()]

    def emit(done: int, total: int, best: int) -> None:
        now = time.monotonic()
        if now - last[0] >= interval:
            last[0] = now
            print(f"progress: {done}/{total} candidates, best girth {best}", file=sys.stderr)

    return emit


def emit_table_1(max_k: int, jobs: int = 1) -> str:
    """Search results table: rows (k, m, r, girth) for k = 5..max_k.

    Always recomputed by running the search (interleaved scaling, full
    q1 enumeration: the configuration that attains the published
    values); failures are reported on stderr and the remaining rows
    still run.
    """
    if max_k < 5:
        raise ValueError("max_k must be >= 5")
    headers = ["k", "m", "r", "girth"]
    rows = []
    for k in range(5, max_k + 1):
        cfg = SearchConfig(k=k, strategy=ScalingStrategy.INTERLEAVED, worker_count=jobs)
        try:
            result = search_r3(cfg, progress=_stderr_progress())
        except Exception as exc:  # a failed row must not kill the remaining rows
            print(f"table 1, k={k}: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        rows.append([str(k), str(cfg.m), "3", str(result.best_girth)])
        expected = TABLE_GIRTHS.get(k)
        if expected is not None and result.best_girth != expected:
            print(
                f"table 1, k={k}: computed girth {result.best_girth} differs from published {expected}",
                file=sys.stderr,
            )
    return bounds_mod.render_table(headers, rows)


def _run_search(args: argparse.Namespace) -> int:
    cfg = SearchConfig(
        k=args.k,
        b=args.b,
        strategy=ScalingStrategy(args.strategy),
        j_range_filter=args.j_filter,
        worker_count=args.jobs,
    )
    result = search_r3(cfg, progress=_stderr_progress())
    if args.json:
        print(json.dumps(report_dict(cfg, result), indent=2))
    else:
        print(format_report(cfg, result), end="")
    if args.out:
        best = construct_candidate(result.witness_q1, result.witness_j, cfg)
        with open(args.out, "w") as fh:
            fh.write(_WRITERS[args.format](best))
    return 0


def _run_girth(args: argparse.Namespace) -> int:
    with open(args.path) as fh:
        text = fh.read()
    matrix = _READERS[args.format](text)
    result = girth_bfs(matrix)
    print(f"girth: {'infinite' if not result.is_finite else int(result.value)}")
    return 0


def _run_bounds(args: argparse.Namespace) -> int:
    if args.table is not None:
        print(_TABLES[args.table][1](), end="")
    elif args.query is not None:
        g, delta = args.query
        print(bounds_mod.report_text(bounds_mod.bound_report(g, delta)), end="")
    else:
        m, r = args.gmax
        print(bounds_mod.report_text(bounds_mod.gmax_report(m, r)), end="")
    return 0


def _run_tables(args: argparse.Namespace) -> int:
    try:
        which = sorted({int(tok) for tok in args.which.split(",") if tok.strip()})
    except ValueError:
        which = []
    if not which or any(t != 1 and t not in _TABLES for t in which):
        raise ValueError(f"--which must be a comma-separated subset of 1..5, got {args.which!r}")
    chunks = []
    for t in which:
        if t == 1:
            chunks.append("table 1: search results (r = 3)\n" + emit_table_1(args.max_k, jobs=args.jobs))
        else:
            title, render = _TABLES[t]
            chunks.append(f"table {t}: {title}\n" + render())
    print("\n".join(chunks), end="")
    return 0


def _run_convert(args: argparse.Namespace) -> int:
    with open(args.src) as fh:
        matrix = _READERS[args.src_format](fh.read())
    text = _WRITERS[args.dst_format](matrix)  # before `dst` is opened: a refusal leaves no file
    with open(args.dst, "w") as fh:
        fh.write(text)
    return 0


def run(args: argparse.Namespace) -> int:
    handlers = {
        "search": _run_search,
        "girth": _run_girth,
        "bounds": _run_bounds,
        "tables": _run_tables,
        "convert": _run_convert,
    }
    return handlers[args.command](args)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return run(args)
    except (OSError, ValueError, OverflowError, MemoryError, BrokenExecutor) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
