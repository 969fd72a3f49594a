"""Tests of the benchmark itself: inputs, rescaling, tracer and metric table.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import run

axial = run.load_program()

import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from axial import groebner, search  # noqa: E402
from axial.io import parse_algebra  # noqa: E402

ROOT = run.ROOT


def _inputs(workload):
    """Everything the seed decides, in comparable form."""
    if isinstance(workload, workloads.IdemRandom):
        return workload.gammas
    if isinstance(workload, workloads.IdemFixtures):
        return workload.factors, workload.triple.table, workload.triple.gram
    return workload.menu


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    cls = workloads.WORKLOADS[name]
    first, again, other = cls(5, ROOT), cls(5, ROOT), cls(6, ROOT)
    assert _inputs(first) == _inputs(again)
    assert _inputs(first) != _inputs(other)
    for k in range(3):
        names = [job.name for job in first.jobs(k, itertools.repeat(None))]
        assert names == [job.name for job in again.jobs(k, itertools.repeat(None))]


def test_random_algebras_match_the_acceptance_generator():
    rng = random.Random(9)
    gamma = workloads.random_gamma(rng)
    assert all(0 <= i <= j < 3 and 0 <= k < 3 and c in (-2, -1, 1, 2) for i, j, k, c in gamma)


@pytest.mark.parametrize("seed", range(4))
def test_rescaling_is_an_isomorphism(seed):
    alg = parse_algebra(ROOT / "fixtures" / "triple2b.alg").algebra
    rng = random.Random(seed)
    c = [rng.choice(workloads.RESCALE_MENU) for _ in range(alg.dim)]
    scaled = workloads.rescale_basis(alg, c)
    n = alg.dim

    def to_new(v):  # coordinates in the basis b_k = c_k e_k
        return tuple(x / ck for x, ck in zip(v, c))

    basis = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    for x in basis:
        for y in basis:
            assert to_new(alg.product(x, y)) == scaled.product(to_new(x), to_new(y))
            assert alg.form_value(x, y) == scaled.form_value(to_new(x), to_new(y))
    assert to_new(alg.find_unit()) == scaled.find_unit()


def test_rescaled_search_keeps_the_recorded_answer():
    workload = workloads.IdemFixtures(3, ROOT)
    jobs = [job for job in workload.jobs(0) if job.name == "triple2b[e1..e5,len=2]"]
    (job,) = jobs
    assert job.check(job.run()) is None


def _bindings():
    """Every attribute of the axial modules and traced classes, by identity."""
    out = {}
    for module in tracer._axial_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("axial"):
                for attr, member in vars(value).items():
                    out[(module.__name__, key, attr)] = member
    return out


def test_tracer_restores_every_binding():
    before = _bindings()
    with tracer.Tracer(run.trace_targets()) as t:
        assert search.buchberger is groebner.buchberger
        assert search.buchberger is not before[("axial.search", "buchberger")]
        assert axial.MPoly.__rmul__ is axial.MPoly.__mul__
        changed = [key for key, value in _bindings().items() if before.get(key) is not value]
        assert ("axial.groebner", "buchberger") in changed
        assert ("axial", "naive_idempotents") in changed
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert t.spans == []


def test_tracer_self_time_excludes_children():
    t = tracer.Tracer(run.trace_targets())
    workload = workloads.IdemFixtures(1, ROOT)
    job = next(j for j in workload.jobs(0) if j.name == "triple2b[e1..e4,len=None]")
    with t:
        result = job.run()
    assert job.check(result) is None
    stats = t.collect()
    assert stats["search.naive_idempotents"].calls == 1
    assert stats["groebner.buchberger"].calls >= 1
    total = sum(s.self_s for s in stats.values())
    assert 0 < stats["search.naive_idempotents"].self_s < total
    assert t.spans == []


def _counters(values):
    return {k: v for k, v in values.items() if k.endswith((".calls", ".cells"))}


def test_traced_counters_repeat_across_runs():
    def traced_run():
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "idem-fixtures",
             "--seed", "4", "--seconds", "0", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m.name for m in metrics.PER_LAYER}
        return _counters({k: v["value"] for k, v in result["metrics"].items()})

    first = traced_run()
    assert first == traced_run()
    assert first["groebner.buchberger.calls"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counters_repeat_per_workload(name):
    cls = workloads.WORKLOADS[name]
    counts = []
    for _ in range(2):
        t = tracer.Tracer(run.trace_targets())
        with t:
            jobs = cls(8, ROOT).jobs(0, itertools.repeat(None))
            outcomes = run.run_pass(jobs[:6] + jobs[-6:], time.perf_counter() + 120)
        assert all(run.check_pass(outcomes))
        counts.append(_counters(run.layer_metrics([t.collect()])))
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_overrunning_job_counts_as_failed():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        slow = workloads.Job("slow", lambda: time.sleep(5), lambda r: None, 0.2)
        quick = workloads.Job("quick", lambda: 7, lambda r: None if r == 7 else "wrong", 1.0)
        start = time.perf_counter()
        outcomes = run.run_pass([slow, quick], time.perf_counter() + 60)
        assert time.perf_counter() - start < 2
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert run.check_pass(outcomes) == [False, True]


def test_nearest_rank_stays_inside_a_job_block():
    # three jobs per pass, the slowest always 3.0: p90 is that job for any pass count
    for passes in range(2, 9):
        samples = [1.0, 2.0, 3.0] * passes
        assert run.nearest_rank(samples, 0.9) == 3.0


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == sorted(workloads.WORKLOADS, key=list(
        workloads.WORKLOADS).index)
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"], m.get("bound")) for m in spec[key]]
        assert listed == [(m.name, m.unit, m.better, m.bound) for m in table]
