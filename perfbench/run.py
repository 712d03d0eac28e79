"""girthmax benchmark: one workload, one run.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 26 --trace 0

Run from the root of a source checkout; girthmax is imported from its
`src/`. The run times set-up in fresh interpreters, builds the
workload's inputs and references from the seed, then starts
`measure.py` in a fresh interpreter that runs checked passes for
`--seconds`. Gated times are scaled to a reference host speed
(`hostspeed.py`); the raw ones are printed too. It prints one line per
pass and per metric (name, value, unit), writes the full record to
`perfbench/out/`, and ends with one JSON line: {"correct", "attempted",
"failed", "metrics"}, where metrics are the end-to-end metrics with
`--trace 0` and the per-layer metrics with `--trace 1`. Metric names, units and bounds are in BENCHMARK.json;
perfbench/README.md maps each per-layer metric to the end-to-end metric
and workload it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from hostspeed import speed_of  # noqa: E402
from workloads import SEARCH_WORKLOADS, WORKLOADS, graph_inputs, reference_girth  # noqa: E402

TIME_LIMIT_S = 170
SETUP_SAMPLES = 5  # taken before and again after the passes

# times in reference seconds: raw seconds times the host speed (hostspeed.py)
END_TO_END = {
    "wall_ref_s": "s",
    "items_per_ref_s": "1/s",
    "cpu_ref_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# spans reported as <span>.calls and <span>.s (self seconds)
COUNTED_SPANS = (
    "perm.scale_up",
    "perm.circulant",
    "perm.identity",
    "perm.Permutation",
    "btu.Btu",
    "btu.to_bipartite",
    "girth.girth_bfs",
)
# spans reported as <span>.s only
TIMED_SPANS = (
    "perm.enumerate_k_cycles",
    "btu.write_alist",
    "btu.read_alist",
    "btu.write_dimacs",
    "btu.read_dimacs",
    "btu.btu_from_matrix",
)

PER_LAYER = {
    **{f"{span}.{field}": unit for span in COUNTED_SPANS for field, unit in (("calls", "count"), ("s", "s"))},
    **{f"{span}.s": "s" for span in TIMED_SPANS},
    "perm.enumerate_k_cycles.n": "count",
    "btu.bytes_written": "bytes",
    "girth.girth_bfs.us_per_call": "us",
    "girth.cutoff_exits": "count",
    "girth.exact": "count",
    "search.search_r3.s": "s",
    "search.self_s": "s",
    "search.covered": "count",
    "search.evaluated": "count",
    "search.skipped_incompatible": "count",
    "search.exact_frac": "ratio",
    "search.pool.parent_cpu_s": "s",
    "search.pool.children_cpu_s": "s",
    "search.pool.busy_frac": "ratio",
    "host.calib_ms": "ms",
    "trace.overhead_pct": "%",
}

# prints the set-up seconds, then the median host-speed kernel ms right after
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import girthmax\n"
    "girthmax.search_r3(girthmax.SearchConfig(k=4, strategy='interleaved'))\n"
    "t = time.perf_counter() - t\n"
    "import statistics, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from hostspeed import kernel_ms\n"
    "print(t, statistics.median(kernel_ms() for _ in range(5)))\n"
)


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def child_env() -> dict:
    """girthmax on the path; OpenBLAS on one thread.

    girthmax does no BLAS work, but numpy's OpenBLAS starts a thread per
    core at import, and on a shared 2-core host that start-up took
    0.01 or 0.07 s by the scheduler's whim, which made set-up time bimodal.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_child(args: list[str], stdin: str, deadline: float) -> str:
    """Run a fresh interpreter to completion; its stdout. Kills its whole group on timeout."""
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(stdin, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with {proc.returncode}")
    return out


def setup_times(deadline: float) -> list[float]:
    """Set-up samples in reference seconds, each scaled by the kernel timed right after it."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        seconds, host_ms = map(float, run_child(["-c", SETUP_CODE, str(HERE)], "", deadline).split())
        samples.append(seconds * speed_of([host_ms]))
    return samples


def end_to_end(passes: list[dict], setup: list[float], peak_rss_mb: float) -> dict[str, float]:
    plain = [p for p in passes if not p["traced"]]
    return {
        "wall_ref_s": statistics.median(p["wall_s"] * p["speed"] for p in plain),
        "items_per_ref_s": statistics.median(p["items"] / (p["wall_s"] * p["speed"]) for p in plain),
        "cpu_ref_s": statistics.median((p["self_cpu_s"] + p["children_cpu_s"]) * p["speed"] for p in plain),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }


def report_only(workload: str, passes: list[dict]) -> dict[str, tuple[float, str, str]]:
    """Metrics printed by name but not gated: {name: (value, unit, note)}.

    Times here are raw: they move with the host's speed.
    """
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    rate = statistics.median(p["items"] / p["wall_s"] for p in plain)
    raw = f"raw, {len(plain)} passes"
    out = {
        "error_rate": (failed / attempted, "ratio", f"{failed} of {attempted} operations"),
        "wall_s": (statistics.median(p["wall_s"] for p in plain), "s", raw),
        "cpu_s": (statistics.median(p["self_cpu_s"] + p["children_cpu_s"] for p in plain), "s", raw),
    }
    if workload in SEARCH_WORKLOADS:
        out["cand_per_s"] = (rate, "1/s", f"{raw}, {plain[0]['items']} covered candidates per pass")
    else:
        lat = [ms for p in plain for ms in p["graph_ms"]]
        beyond = len(lat) - int(0.9 * len(lat))
        note = f"raw, {len(lat)} graph samples, {beyond} beyond p90"
        out["graphs_per_s"] = (rate, "1/s", f"{raw}, {plain[0]['items']} graphs per pass")
        out["graph_ms_p50"] = (statistics.median(lat), "ms", note)
        out["graph_ms_p90"] = (statistics.quantiles(lat, n=10, method="inclusive")[8], "ms", note)
    return out


def per_layer(passes: list[dict]) -> dict[str, float]:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for p in traced:
        spans, counts = p["spans"], p["counts"]
        for span in COUNTED_SPANS:
            samples[f"{span}.calls"].append(spans[span][0])
        for span in COUNTED_SPANS + TIMED_SPANS:
            samples[f"{span}.s"].append(spans[span][2])
        bfs_calls, _, bfs_s = spans["girth.girth_bfs"]
        exact = counts.get("girth.exact", 0)
        covered = p.get("covered", 0)
        for name, value in (
            ("perm.enumerate_k_cycles.n", counts.get("perm.enumerate_k_cycles.n", 0)),
            ("btu.bytes_written", counts.get("btu.bytes_written", 0)),
            ("girth.girth_bfs.us_per_call", bfs_s / bfs_calls * 1e6 if bfs_calls else 0.0),
            ("girth.cutoff_exits", counts.get("girth.cutoff_exits", 0)),
            ("girth.exact", exact),
            ("search.search_r3.s", spans["search.search_r3"][1]),
            ("search.self_s", spans["search.search_r3"][2]),
            ("search.covered", covered),
            ("search.evaluated", p.get("evaluated", 0)),
            ("search.skipped_incompatible", p.get("skipped", 0)),
            ("search.exact_frac", exact / covered if covered else 0.0),
        ):
            samples[name].append(value)
    for p in plain:
        samples["search.pool.parent_cpu_s"].append(p["self_cpu_s"])
        samples["search.pool.children_cpu_s"].append(p["children_cpu_s"])
        samples["search.pool.busy_frac"].append(p["children_cpu_s"] / (p["workers"] * p["wall_s"]))
    samples["host.calib_ms"] = [p["host_ms"] for p in passes]
    traced_wall = statistics.median(p["wall_s"] * p["speed"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] * p["speed"] for p in plain)
    samples["trace.overhead_pct"].append((traced_wall / plain_wall - 1) * 100)
    return {name: float(statistics.median(v)) for name, v in samples.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "girthmax" / "__init__.py").is_file():
        print(f"no girthmax sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S

    machine = machine_record()
    setup = setup_times(deadline)
    job = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "src": str(SRC)}
    if args.workload == "graph_io":
        job["graphs"] = graph_inputs(args.seed)
        job["girths"] = [reference_girth(g) for g in job["graphs"]]
    OUT.mkdir(exist_ok=True)
    job["trace_out"] = str(OUT / f"spans-{args.workload}.npz")
    result = json.loads(run_child([str(HERE / "measure.py")], json.dumps(job), deadline).splitlines()[-1])
    setup += setup_times(deadline)
    passes = result["passes"]
    calib_ms = statistics.median(p["host_ms"] for p in passes)

    print(f"machine: {json.dumps(machine)}")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for i, p in enumerate(passes):
        kind = "traced" if p["traced"] else "untraced"
        print(
            f"pass {i} ({kind}): wall {p['wall_s']:.4f} s, cpu "
            f"{p['self_cpu_s'] + p['children_cpu_s']:.4f} s, host speed {p['speed']:.3f}, "
            f"{p['ops']} ops, {p['failed']} failed"
        )
        for err in p["errors"]:
            print(f"  FAILED {err}")
    e2e = end_to_end(passes, setup, result["peak_rss_mb"])
    extra = report_only(args.workload, passes)
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {END_TO_END[name]}")
    for name, (value, unit, note) in extra.items():
        print(f"{name} = {value:.6g} {unit} ({note})")
    layers = per_layer(passes) if args.trace else {}
    for name, value in layers.items():
        print(f"{name} = {value:.6g} {PER_LAYER[name]}")
    if not args.trace:
        print(f"host.calib_ms = {calib_ms:.4f} ms")

    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {name: {"value": v, "unit": (PER_LAYER if args.trace else END_TO_END)[name]}
               for name, v in (layers if args.trace else e2e).items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "host_calib_ms": calib_ms,
        "setup_samples_s": setup,
        "end_to_end": e2e,
        "report": {name: value for name, (value, _, _) in extra.items()},
        "per_layer": layers,
        "passes": passes,
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
