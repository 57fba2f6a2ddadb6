#!/usr/bin/env python3
"""Run one benchmark workload and print its record.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-figures --seed 0 \\
        --seconds 20 --trace 0

The run builds the workload's inputs from ``--seed``, runs an untimed
checked pass where the workload has one, then repeats checked passes
for ``--seconds``: one plain pass, which gives the peak RSS, then passes
whose mean time it reports.  Between the passes it times
set-up in fresh interpreters, so the set-up probes see the same host as
the passes.  Both times are normalised to the host's speed, sampled
during the passes and around each probe (:mod:`perfbench.hostspeed`).
Every pass must reproduce the first pass's digest and counters.  With
``--trace 1`` it then runs one more pass under :class:`Tracer` and
reports the per-layer metrics instead of the end-to-end ones, checks
that the traced pass reproduces the untraced digest and counters, and
writes the traced spans as Chrome trace-event JSON to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts the checked passes run and ``failed`` the passes that failed a
check or raised; any failure exits with status 1.  A checkout without
the program's sources (``src/repro``) exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Fresh interpreters started per run to time set-up (median reported),
#: spread over the timed window.
SETUP_PROBES = 12

#: Simulated headline figures of single workloads (0 on the others),
#: plus the explorer's host-time throughput; reported with the
#: per-layer metrics.
FIGURES = ("latency_p50_ms", "latency_p90_ms", "sojourn_p50_ms",
           "sojourn_p99_ms", "knee_mps", "capacity_mps", "failover_gap_ms",
           "schedules_per_s", "schedules_to_bug")


def catalogue() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metrics (name -> unit), as
    ``BENCHMARK.json`` lists them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(
        {metric["name"]: metric["unit"] for metric in doc[kind]}
        for kind in ("end_to_end", "per_layer")
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _sum_dicts(rows: list[dict[str, float]]) -> dict[str, float]:
    total: dict[str, float] = {}
    for row in rows:
        for name, value in row.items():
            total[name] = total.get(name, 0) + value
    return total


def layer_metrics(tracer, outcome, traced_wall: float,
                  untraced_wall: float,
                  ref_round_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass; ``traced_wall`` and
    ``untraced_wall`` are host seconds, ``ref_round_s`` the median
    reference round of the untraced passes."""
    selfs = tracer.self_seconds()
    systems = _sum_dicts(tracer.system_counters)
    services = _sum_dicts(tracer.service_counters)
    events = sum(executed for executed, _ in tracer.engine_counters)
    pushes = sum(pushed for _, pushed in tracer.engine_counters)
    adeliveries = systems.get("adeliveries", 0)
    notifies = tracer.calls("ConsensusService.notify_rcv_update")
    calls = tracer.calls
    measure = (selfs["measure.trace"] + selfs["measure.probe"]
               + selfs["measure.check"])
    metrics = {
        "sim.events": events,
        "sim.pushes": pushes,
        "sim.pending_max": tracer.pending_max,
        "sim.self_s": selfs["sim"],
        "sim.ns_per_event": _ratio(selfs["sim"] * 1e9, events),
        "net.frames": systems.get("frames", 0),
        "net.bytes": systems.get("bytes", 0),
        "net.frames_dropped": systems.get("frames_dropped", 0),
        "net.medium_util_max": max(
            (row["medium_util"] for row in tracer.system_counters),
            default=0.0),
        "net.cpu_util_max": max(
            (row["cpu_util"] for row in tracer.system_counters),
            default=0.0),
        "net.self_s": selfs["net"],
        "broadcast.calls": systems.get("rb_calls", 0),
        "broadcast.frames_per_call": _ratio(systems.get("rb_frames", 0),
                                            systems.get("rb_calls", 0)),
        "broadcast.self_s": selfs["broadcast"],
        "consensus.instances": systems.get("instances", 0),
        "consensus.rounds_per_decision": _ratio(
            calls("CtInstance._enter_round", "MrInstance._enter_round"),
            systems.get("decisions", 0)),
        "consensus.rcv_notifies": notifies,
        "consensus.rcv_visits_per_notify": _ratio(
            calls("CtInstance.on_rcv_update", "MrInstance.on_rcv_update"),
            notifies),
        "consensus.instance_visits_per_adelivery": _ratio(
            calls("CtInstance.on_rcv_update", "MrInstance.on_rcv_update",
                  "CtInstance.on_detector_change",
                  "MrInstance.on_detector_change"),
            adeliveries),
        "consensus.rcv_check_fail_frac": _ratio(
            tracer.rcv_checks_failed, calls("ConsensusService.check_rcv")),
        "consensus.self_s": selfs["consensus"],
        "abcast.adeliveries": adeliveries,
        "abcast.frames_per_adelivery": _ratio(systems.get("frames", 0),
                                              adeliveries),
        "abcast.bytes_per_adelivery": _ratio(systems.get("bytes", 0),
                                             adeliveries),
        "abcast.backlog_max": tracer.backlog_max,
        "abcast.self_s": selfs["abcast"],
        "failure.suspicions": systems.get("suspicions", 0),
        "failure.retractions": systems.get("retractions", 0),
        "failure.self_s": selfs["failure"],
        "shard.offered": services.get("offered", 0),
        "shard.admitted": services.get("admitted", 0),
        "shard.shed": services.get("shed", 0),
        "shard.router_self_s": selfs["shard.router"],
        "shard.commits": services.get("commits", 0),
        "shard.aborts": services.get("aborts", 0),
        "shard.commit_self_s": selfs["shard.commit"],
        "workload.injected": (tracer.layer_calls("workload", "event ")
                              + tracer.layer_calls("workload", "timer ")),
        "workload.self_s": selfs["workload"],
        "explore.schedules": calls("ScheduleExecutor.run"),
        "explore.pruned_frac": outcome.figures.get("pruned_frac", 0.0),
        "explore.decisions": calls("ExploreScheduler.decide"),
        "explore.fingerprints": calls("FingerprintTracker.fingerprint",
                                      "fingerprint_state"),
        "explore.fingerprint_self_s": selfs["explore.fingerprint"],
        "explore.executor_self_s": selfs["explore.executor"],
        "stack.builds": calls("build_system"),
        "stack.build_self_s": selfs["stack"],
        "measure.trace_events": calls("Trace.record", "CountingTrace.record"),
        "measure.probe_self_s": selfs["measure.probe"],
        "measure.check_self_s": selfs["measure.check"],
        "measure.self_s": measure,
        "harness.points": calls("run_experiment"),
        "harness.self_s": selfs["harness"],
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.unattributed_frac": _ratio(selfs["unattributed"],
                                          sum(selfs.values())),
        "host.wall_s": untraced_wall,
        "host.ref_round_ms": ref_round_s * 1e3,
    }
    for name in FIGURES:
        metrics[name] = outcome.figures.get(name, 0.0)
    return metrics


# ----------------------------------------------------------------------
# the run


def _setup_probe(workload: str, seed: int) -> float:
    """Time from a fresh interpreter's start to its first simulated
    event, normalised to the host's speed around it."""
    from perfbench.hostspeed import CLOCK

    return CLOCK.normalise(lambda: _probe_once(workload, seed))


def _probe_once(workload: str, seed: int) -> float:
    started = time.time()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", workload, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    marks = [line for line in done.stdout.splitlines()
             if line.startswith("first-event ")]
    if done.returncode != 0 or not marks:
        raise RuntimeError(
            f"set-up probe failed ({done.returncode}): {done.stderr}"
        )
    return float(marks[-1].split()[1]) - started


def _reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS count from the current RSS, so
    ``ru_maxrss`` covers only what runs after this call."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def same_outcome(first, other) -> bool:
    """Whether two outcomes agree on everything simulated."""
    from perfbench.workloads import HOST_FIGURES

    def simulated(outcome):
        return {k: v for k, v in outcome.figures.items()
                if k not in HOST_FIGURES}

    return (first.digest == other.digest
            and first.counters == other.counters
            and simulated(first) == simulated(other)
            and (first.attempted, first.completed)
            == (other.attempted, other.completed))


def _timed_passes(run_pass, seconds: float, between=None):
    """Checked passes until they have taken ``seconds`` of host time.

    The first pass runs plain, and the peak RSS is read after it: the
    host clock's sampling raises the peak by a few MB.  The others run
    under the host clock.  Returns (peak RSS of the first pass in MB,
    normalised times of the others, their host times, the outcomes of
    all).  ``between(share)``, if given, runs after each pass with the
    share of the window done (1.0 after the last pass); its time is not
    part of the window.
    """
    from perfbench.hostspeed import CLOCK
    from perfbench.workloads import CheckFailed

    times, host_times, outcomes = [], [], []
    spent = 0.0
    while True:
        gc.collect()
        if outcomes:
            outcome, host, normalised = CLOCK.timed(run_pass)
            times.append(normalised)
            host_times.append(host)
        else:
            started = time.perf_counter()
            outcome = run_pass()
            host = time.perf_counter() - started
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        spent += host
        if outcomes and not same_outcome(outcomes[0], outcome):
            raise CheckFailed(
                f"pass {len(outcomes) + 1} does not reproduce pass 1"
            )
        outcomes.append(outcome)
        share = min(spent / seconds, 1.0)
        if between is not None:
            between(share)
        if share >= 1.0 and times:
            return peak_rss_mb, times, host_times, outcomes


def traced_pass(run_pass, name: str):
    """One pass under the tracer; (tracer, outcome, wall seconds)."""
    from perfbench.tracer import Tracer

    gc.collect()
    with Tracer() as tracer:
        started = time.perf_counter()
        outcome = tracer.run_span(f"{name} pass", run_pass)
        wall = time.perf_counter() - started
    return tracer, outcome, wall


def _export(tracer, label: str) -> Path:
    from repro.obs import validate_chrome_trace

    doc = tracer.chrome_trace(label)
    validate_chrome_trace(doc)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{label.replace(' ', '-')}.trace.json"
    path.write_text(json.dumps(doc))
    return path


def _print_table(title: str, values: dict[str, float],
                 units: dict[str, str]) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:42s} {value:>16.6g} {units.get(name, '')}".rstrip())


def run(args) -> int:
    from perfbench.hostspeed import CLOCK
    from perfbench.workloads import CheckFailed, digest_of, workloads

    workload = workloads(str(OUT / "sweep-cache"))[args.workload]
    inputs = workload.inputs(args.seed)
    end_to_end, per_layer = catalogue()
    units = per_layer if args.trace else end_to_end
    attempted = failed = 0
    metrics: dict[str, float] = {}

    def run_pass():
        nonlocal attempted
        attempted += 1
        return workload.run(inputs)

    print(f"workload  {workload.name}")
    print(f"seed      {args.seed}")
    print(f"spec hash {digest_of(inputs)}")
    probes: list[float] = []

    def probe_setup(share: float) -> None:
        while len(probes) < math.ceil(SETUP_PROBES * share):
            probes.append(_setup_probe(workload.name, args.seed))

    try:
        attempted += workload.prepare(inputs)
        # The peak RSS is that of the first timed pass, not of the check
        # pass.
        gc.collect()
        _reset_peak_rss()
        peak_rss_mb, times, host_times, outcomes = _timed_passes(
            run_pass, args.seconds, None if args.trace else probe_setup)
        outcome = outcomes[0]
        print(f"digest    {outcome.digest}")
        print(f"passes    1 plain, {len(times)} timed, normalised: "
              + " ".join(f"{t:.3f}s" for t in times))
        print("          host: "
              + " ".join(f"{t:.3f}s" for t in host_times))
        print(f"          reference rounds: {len(CLOCK.rounds)}, median "
              f"{statistics.median(CLOCK.rounds) * 1e3:.2f} ms")
        print("counters  " + " ".join(
            f"{k}={v}" for k, v in outcome.counters.items()))
        _print_table("figures", outcome.figures, per_layer)
        # The mean of the normalised passes: a run has as few as two.
        wall = statistics.fmean(times)
        if args.trace:
            tracer, traced, traced_wall = traced_pass(run_pass,
                                                      workload.name)
            if not same_outcome(outcome, traced):
                raise CheckFailed(
                    "the traced pass does not reproduce the untraced one"
                )
            metrics = layer_metrics(tracer, outcome, traced_wall,
                                    statistics.fmean(host_times),
                                    statistics.median(CLOCK.rounds))
            label = f"{workload.name} seed{args.seed}"
            print(f"chrome trace {_export(tracer, label)}")
            _print_table("per-layer metrics", metrics, units)
        else:
            print(f"set-up    {len(probes)} probes: "
                  + " ".join(f"{t:.3f}s" for t in probes))
            metrics["setup_s"] = statistics.median(probes)
            metrics["wall_s"] = wall
            metrics["peak_rss_mb"] = peak_rss_mb
            metrics["completed_frac"] = outcome.completed / outcome.attempted
            _print_table("end-to-end metrics", metrics, units)
        if set(metrics) != set(units):
            raise CheckFailed(
                f"metrics {sorted(set(metrics) ^ set(units))} disagree "
                "with BENCHMARK.json"
            )
    except Exception:
        # A failed check (or a crash) is reported, never timed.
        traceback.print_exc()
        failed = 1
        attempted = max(attempted, 1)
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {} if failed else {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 1 if failed else 0


class _FirstEvent(BaseException):
    """Ends a set-up probe (a ``BaseException``, so no ``except
    Exception`` in the program swallows it)."""


def setup_probe(args) -> int:
    """Run the timed pass's own code up to its first simulated event.

    Prints ``first-event <unix time>`` at the first event of the first
    engine run and exits; the parent measures from the interpreter's
    start.
    """
    from perfbench.workloads import workloads
    from repro.sim.engine import Engine

    workload = workloads(str(OUT / "sweep-cache"))[args.workload]
    inputs = workload.inputs(args.seed)

    def first() -> None:
        print(f"first-event {time.time():.6f}", flush=True)
        raise _FirstEvent

    original = Engine.run

    def run(engine, *run_args, **run_kwargs):
        engine.schedule(0.0, first)
        return original(engine, *run_args, **run_kwargs)

    Engine.run = run
    try:
        workload.run(inputs)
    except _FirstEvent:
        return 0
    finally:
        Engine.run = original
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # The benchmark measures the program in this checkout, never an
    # installed copy.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import workloads
    if args.workload not in workloads(""):
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads(''))}")
    return setup_probe(args) if args.setup_probe else run(args)


if __name__ == "__main__":
    sys.exit(main())
