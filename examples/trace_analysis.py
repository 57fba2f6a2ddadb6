#!/usr/bin/env python
"""Dissecting a run: rounds, batches, and wire traffic.

Drives the indirect stack through three regimes — idle trickle, heavy
load, and a coordinator crash — and uses :mod:`repro.analysis` to show
what changed inside: consensus batch sizes grow with load, rounds stay
at 1 until the crash forces rotations, and the data/control traffic
split shifts with the broadcast algorithm.

The closing section shows the same traffic analysis *without a live
network*: the traffic probe records the per-kind counters into every
``ExperimentResult``, so a :class:`~repro.analysis.traffic.TrafficBreakdown`
reconstructs from a (possibly cache-served) sweep point.

Run:  python examples/trace_analysis.py
"""

import tempfile

from repro import CrashSchedule, StackSpec, SymmetricWorkload, build_system, check_abcast
from repro.analysis import batch_statistics, round_statistics, traffic_breakdown
from repro.analysis.traffic import TrafficBreakdown
from repro.harness.experiment import ExperimentSpec
from repro.harness.runner import run_suite
from repro.harness.report import render_table


def run(label, throughput, rb="sender", crash=None):
    # StackSpec resolves the variant names through the layer registry,
    # so typos fail with the registry's did-you-mean suggestion.
    spec = StackSpec(n=3, abcast="indirect", consensus="ct-indirect",
                     rb=rb, seed=7, fd_detection_delay=20e-3)
    crashes = CrashSchedule.single(*crash) if crash else CrashSchedule.none()
    system = build_system(spec, crashes)
    SymmetricWorkload(system, throughput=throughput, payload_size=200,
                      duration=0.4).install()
    system.run(until=3.0, max_events=5_000_000)
    check_abcast(system.trace, system.config)

    rounds = round_statistics(system.trace)
    batches = batch_statistics(system.trace)
    traffic = traffic_breakdown(system.network)
    sends = len(system.trace.abroadcasts())
    return {
        "regime": label,
        "abcasts": sends,
        "instances": batches.instances,
        "msgs/instance": f"{batches.amortisation:.2f}",
        "round-1 decisions": f"{rounds.first_round_fraction * 100:.0f}%",
        "max decision round": int(rounds.decision_rounds.maximum),
        "data frames/bcast": f"{traffic.frames_per_broadcast(sends):.1f}",
        "control share": f"{traffic.control_share() * 100:.0f}%",
    }


def traffic_from_cache() -> None:
    """Traffic analysis off a cached result — no live network needed."""
    spec = ExperimentSpec(
        name="cached-traffic",
        stack=StackSpec(n=3, abcast="indirect", consensus="ct-indirect",
                        rb="sender", seed=7),
        throughput=200.0, payload=200, duration=0.3,
        warmup=0.05, drain=0.5,
    )
    with tempfile.TemporaryDirectory() as cache:
        run_suite([spec], cache_dir=cache)               # computes + stores
        cached = run_suite([spec], cache_dir=cache)      # pure cache hit
        result = cached.results[0]
        traffic = TrafficBreakdown.from_result(result)
    print(
        f"\nFrom the result cache (no re-simulation): "
        f"{traffic.total_frames} frames, "
        f"data share {100 - traffic.control_share() * 100:.0f}%, "
        f"{traffic.frames_per_broadcast(result.sent):.1f} data frames "
        f"per abroadcast"
    )


def main() -> None:
    rows = [
        run("trickle, RB O(n)", throughput=50),
        run("heavy load, RB O(n)", throughput=1500),
        run("heavy load, RB O(n^2)", throughput=1500, rb="flood"),
        run("crash of p2, RB O(n)", throughput=200, crash=(2, 0.1)),
    ]
    print(render_table(rows, title="Anatomy of four runs (n=3, indirect stack)"))
    print(
        "\nReading guide: batching (msgs/instance) rises with load;\n"
        "the flood RB triples data frames per broadcast (n-1 -> n(n-1));\n"
        "only the crash run needs decisions beyond round 1."
    )
    traffic_from_cache()


if __name__ == "__main__":
    main()
