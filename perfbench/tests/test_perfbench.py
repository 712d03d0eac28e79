"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import os
import time
from pathlib import Path

import girthmax as gm
import pytest

import hostspeed
import run
import workloads
from measure import GraphWork, SearchWork, run_passes
from tracing import Tracer

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def k5_passes():
    return run_passes(gm, SearchWork("interleaved", 1, (5,)), 0, Tracer())


def test_k5_smoke_run_is_correct_and_traced():
    untraced, traced = k5_passes()
    assert (untraced["traced"], traced["traced"]) == (False, True)
    for p in (untraced, traced):
        assert (p["ops"], p["failed"], p["covered"], p["evaluated"]) == (1, 0, 288, 288)
    assert traced["spans"]["girth.girth_bfs"][0] == 288
    assert traced["counts"]["perm.enumerate_k_cycles.n"] == 24


def test_every_printed_metric_is_declared():
    graphs = workloads.graph_inputs(seed=7, count=3)
    girths = [workloads.reference_girth(g) for g in graphs]
    declared = {
        "end_to_end": {(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]},
        "per_layer": {(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]},
    }
    assert set(run.END_TO_END.items()) == declared["end_to_end"]
    assert set(run.PER_LAYER.items()) == declared["per_layer"]
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    for passes in (k5_passes(), run_passes(gm, GraphWork(gm, graphs, girths), 0, Tracer())):
        assert sum(p["failed"] for p in passes) == 0
        assert set(run.end_to_end(passes, [0.1], 30.0)) == {n for n, _ in declared["end_to_end"]}
        assert set(run.per_layer(passes)) == {n for n, _ in declared["per_layer"]}


def test_corrupted_reference_witness_raises_error_rate(monkeypatch):
    girth, j, q1 = workloads.REFERENCES[("interleaved", 5)]
    monkeypatch.setitem(workloads.REFERENCES, ("interleaved", 5), (girth, j, q1[::-1]))
    passes = k5_passes()
    assert all(p["failed"] == 1 for p in passes)
    assert run.report_only("table1", passes)["error_rate"][0] == pytest.approx(1.0)


def test_witness_check_rejects_a_broken_cycle():
    graphs = workloads.graph_inputs(seed=7, count=2)
    graph = graphs[0]
    btu = gm.Btu([gm.Permutation(p) for p in graph])
    result = gm.girth_bfs(btu.to_bipartite(), want_witness=True)
    w = result.witness
    assert workloads.cycle_error(graph, w, result.value) is None
    assert workloads.cycle_error(graph, w[:-1] + w[:1], result.value) is not None
    assert workloads.cycle_error(graph, (w[2], w[1], w[0]) + w[3:], result.value) is not None
    wrong = [workloads.reference_girth(g) + 2 for g in graphs]
    passes = run_passes(gm, GraphWork(gm, graphs, wrong), 0, None)
    assert run.report_only("graph_io", passes)["error_rate"][0] == 1.0


def test_host_sampler_scales_to_the_reference_and_restores_affinity():
    cores = os.sched_getaffinity(0)
    with hostspeed.HostSampler(every_core=True) as host:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * hostspeed.INTERVAL_S:
            pass
        t1 = time.perf_counter()
    assert os.sched_getaffinity(0) == cores
    window = host.window(t0, t1)
    assert len(window) >= 2 * len(cores)
    assert hostspeed.speed_of([hostspeed.REFERENCE_MS / 2]) == 2.0
    assert host.window(t1 + 10, t1 + 20) == host.ms[-1:]
