"""Measuring process: runs timed passes of one workload against girthmax.

`run.py` starts this script in a fresh interpreter with `src/` on the
path and sends the job as JSON on stdin: workload, seconds, trace flag,
and for graph_io the generated graphs with their reference girths. It
prints one JSON object: the pass records and the peak RSS. Running the
passes in their own process keeps the benchmark's input generation and
networkx references out of the memory and CPU figures.

Passes are a closed loop: one pass at a time, for about `seconds`. A
`HostSampler` times the host-speed kernel all through them, and each
pass records the host speed over its own interval. With tracing on, untraced and traced passes alternate
(untraced first), so one run gives both sides of the tracing overhead.
Every pass is checked against the references after its clock stops.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

from hostspeed import HostSampler, speed_of
from tracing import Tracer
from workloads import REFERENCES, SEARCH_WORKLOADS, covered, cycle_error


def _cpu(who: int) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


class SearchWork:
    """search_r3 for each k of `rows`, in order; one operation per search."""

    def __init__(self, strategy: str, workers: int, rows: tuple[int, ...]):
        self.strategy = strategy
        self.workers = workers
        self.rows = rows
        self.items = sum(covered(k) for k in rows)

    def run(self, gm) -> list:
        outputs = []
        for k in self.rows:
            try:
                cfg = gm.SearchConfig(k=k, strategy=self.strategy, worker_count=self.workers)
                outputs.append(gm.search_r3(cfg))
            except Exception as exc:
                outputs.append(exc)
        return outputs

    def check(self, gm, outputs: list) -> tuple[list[str], dict]:
        errors = []
        evaluated = skipped = 0
        for k, out in zip(self.rows, outputs):
            if isinstance(out, Exception):
                errors.append(f"k={k}: raised {out!r}")
                continue
            evaluated += out.candidates_evaluated
            skipped += out.skipped_incompatible
            want = REFERENCES[(self.strategy, k)]
            got = (out.best_girth, out.witness_j, tuple(out.witness_q1))
            if got != want:
                errors.append(f"k={k}: (girth, j, q1) = {got}, reference {want}")
            elif not 1 <= out.candidates_evaluated <= covered(k) - out.skipped_incompatible:
                errors.append(
                    f"k={k}: {out.candidates_evaluated} evaluated + "
                    f"{out.skipped_incompatible} skipped, but {covered(k)} covered"
                )
        return errors, {"covered": self.items, "evaluated": evaluated, "skipped": skipped}


class GraphWork:
    """Per graph: alist round trip, exact girth with witness, decomposition, DIMACS round trip."""

    workers = 1

    def __init__(self, gm, graphs: list[list[list[int]]], girths: list[int]):
        self.images = graphs
        self.girths = girths
        self.btus = [gm.Btu([gm.Permutation(p) for p in images]) for images in graphs]
        self.items = len(graphs)
        self.latencies_ms: list[float] = []

    def run(self, gm) -> list:
        outputs = []
        self.latencies_ms = []
        clock = time.perf_counter
        for g in self.btus:
            t0 = clock()
            try:
                mat = gm.read_alist(gm.write_alist(g))
                girth = gm.girth_bfs(mat.to_bipartite(), want_witness=True)
                btu = gm.btu_from_matrix(mat)
                back = gm.read_dimacs(gm.write_dimacs(btu))
                outputs.append((girth, btu, back))
            except Exception as exc:
                outputs.append(exc)
            self.latencies_ms.append((clock() - t0) * 1000)
        return outputs

    def check(self, gm, outputs: list) -> tuple[list[str], dict]:
        errors = []
        for i, out in enumerate(outputs):
            if isinstance(out, Exception):
                errors.append(f"graph {i}: raised {out!r}")
                continue
            girth, btu, back = out
            want = self.girths[i]
            if girth.at_or_below_cutoff or girth.value != want:
                errors.append(f"graph {i}: girth {girth.value}, networkx says {want}")
            elif (why := cycle_error(self.images[i], girth.witness, want)) is not None:
                errors.append(f"graph {i}: {why}")
            elif not gm.same_matrix(self.btus[i], btu):
                errors.append(f"graph {i}: alist round trip changed the matrix")
            elif back != self.btus[i].matrix():
                errors.append(f"graph {i}: DIMACS round trip changed the matrix")
        return errors, {"graph_ms": self.latencies_ms}


def one_pass(gm, work, pass_id: int, tracer: Tracer | None, host: HostSampler) -> dict:
    self0, children0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.current_pass = pass_id
        tracer.install(gm)
    t0 = time.perf_counter()
    try:
        outputs = work.run(gm)
    finally:
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
    host_ms = host.window(t0, t1)
    self_cpu = _cpu(resource.RUSAGE_SELF) - self0
    children_cpu = _cpu(resource.RUSAGE_CHILDREN) - children0
    errors, extra = work.check(gm, outputs)
    record = {
        "traced": tracer is not None,
        "wall_s": t1 - t0,
        "speed": speed_of(host_ms),
        "host_ms": statistics.median(host_ms),
        "self_cpu_s": self_cpu,
        "children_cpu_s": children_cpu,
        "workers": work.workers,
        "items": work.items,
        "ops": len(outputs),
        "failed": len(errors),
        "errors": errors[:5],
        **extra,
    }
    if tracer is not None:
        record["spans"] = tracer.layer_totals(pass_id)
        record["counts"] = dict(tracer.counts)
        tracer.counts.clear()
    return record


def run_passes(gm, work, seconds: float, tracer: Tracer | None) -> list[dict]:
    """Closed loop of passes for about `seconds` (at least one; two when tracing).

    Another pass starts only if one of median length would still end
    within `seconds`, so a run does not overrun by most of a pass.
    """
    passes: list[dict] = []
    started = time.perf_counter()
    with HostSampler(every_core=work.workers > 1) as host:
        while len(passes) < (2 if tracer else 1) or (
            time.perf_counter() - started + statistics.median(p["wall_s"] for p in passes) <= seconds
        ):
            traced = tracer is not None and len(passes) % 2 == 1
            passes.append(one_pass(gm, work, len(passes), tracer if traced else None, host))
    return passes


def make_work(gm, job: dict):
    if job["workload"] == "graph_io":
        return GraphWork(gm, job["graphs"], job["girths"])
    return SearchWork(*SEARCH_WORKLOADS[job["workload"]])


def main() -> int:
    job = json.load(sys.stdin)
    import girthmax as gm

    src = Path(job["src"]).resolve()
    if src not in Path(gm.__file__).resolve().parents:
        print(f"girthmax was imported from {gm.__file__}, not from {src}", file=sys.stderr)
        return 2
    work = make_work(gm, job)
    tracer = Tracer() if job["trace"] else None
    passes = run_passes(gm, work, job["seconds"], tracer)
    if tracer is not None:
        import numpy as np

        np.savez_compressed(job["trace_out"], **tracer.arrays())
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps({"passes": passes, "peak_rss_mb": peak_kb / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
