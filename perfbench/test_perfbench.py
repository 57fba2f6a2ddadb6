"""Tests of the benchmark: determinism, fidelity to the figure CLI,
the traced run's accounting, and its failure modes."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.workloads import HELD_OUT_SEED, workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def catalogue(tmp_path_factory):
    return workloads(str(tmp_path_factory.mktemp("sweep-cache")))


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads(""))


@pytest.mark.parametrize("name", ["shard-failover", "explore-hunt"])
def test_counters_and_digests_repeat(catalogue, name):
    workload = catalogue[name]
    first = workload.run(workload.inputs(0))
    second = workload.run(workload.inputs(0))
    assert bench.same_outcome(first, second)


def test_paper_figures_seed0_equals_the_quick_figures(catalogue, tmp_path):
    from repro.harness import figures

    options = figures.SuiteOptions(
        processes=1, cache_dir=tmp_path, use_cache=False
    )
    expected = []
    for figure in (figures.figure1, figures.figure3, figures.figure4,
                   figures.figure5, figures.figure6, figures.figure7):
        for result in figure(quick=True, options=options).resultset.results:
            expected.append((
                result.spec.name, result.sent, result.undelivered,
                result.simulated_seconds,
                tuple((name, value.fields, value.series)
                      for name, value in sorted(result.metrics.items())),
            ))
    workload = catalogue["paper-figures"]
    assert list(workload.run(workload.inputs(0)).outputs) == expected


def test_traced_pass_adds_up_reproduces_and_restores(catalogue):
    from repro.harness import experiment
    from repro.obs import validate_chrome_trace
    from repro.sim.engine import Engine
    from repro.stack import builder

    def seams():
        return (Engine.__dict__["schedule"], Engine.__dict__["run"],
                builder.build_system, experiment.build_system)

    workload = catalogue["shard-failover"]
    inputs = workload.inputs(0)
    plain = workload.run(inputs)
    before = seams()
    tracer, traced, wall = bench.traced_pass(
        lambda: workload.run(inputs), workload.name
    )
    assert seams() == before
    assert bench.same_outcome(plain, traced)
    assert sum(tracer.self_seconds().values()) == pytest.approx(wall,
                                                                rel=1e-3)
    validate_chrome_trace(tracer.chrome_trace("test"))
    metrics = bench.layer_metrics(tracer, plain, wall, wall, 0.02)
    assert set(metrics) == set(bench.catalogue()[1])
    assert metrics["sim.events"] == plain.counters["events"]
    assert metrics["failure.suspicions"] == plain.counters["suspicions"] > 0


def test_host_clock_samples_inside_a_call_and_leaves_its_rounds_out():
    import signal
    import time

    from perfbench.hostspeed import NOMINAL_S, PERIOD_S, HostClock

    clock = HostClock()
    handler = signal.getsignal(signal.SIGALRM)

    def busy():
        started = clock.work_time()
        while time.perf_counter() - started < 3 * PERIOD_S + clock.stolen:
            pass
        return clock.work_time() - started

    own, host, normalised = clock.timed(busy)
    assert signal.getsignal(signal.SIGALRM) == handler
    assert len(clock.rounds) >= 4  # before, at least two inside, after
    assert host == pytest.approx(own, abs=0.02)
    slowest, fastest = max(clock.rounds), min(clock.rounds)
    assert (host * NOMINAL_S / slowest <= normalised
            <= host * NOMINAL_S / fastest)


@pytest.mark.parametrize("name", list(workloads("")))
def test_held_out_seed_runs_clean(catalogue, name):
    workload = catalogue[name]
    inputs = workload.inputs(HELD_OUT_SEED)
    workload.prepare(inputs)
    outcome = workload.run(inputs)
    assert 0 < outcome.completed <= outcome.attempted


def test_run_without_the_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore-hunt",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
