"""The four benchmark workloads.

Each workload turns a seed into inputs (``inputs``), runs one checked
pass over them (``run``) and returns an :class:`Outcome`: the
operations attempted and completed, the deterministic work counters,
the simulated headline figures and a digest of every simulated output.
A pass raises :class:`CheckFailed` (or the checker's own
``ProtocolViolationError``) when any correctness check fails.

Everything here drives the program through its public API and runs in
one process: ``run_suite(..., processes=1)``,
``run_shard_sweep(..., processes=1)``, a sharded service driven directly
(``shard-failover``) and the serial explorer.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from perfbench.hostspeed import CLOCK
from perfbench.tracer import service_counters, system_counters
from repro.explore import explore, explore_spec, replay
from repro.explore.executor import ScheduleExecutor
from repro.explore.strategies import STRATEGIES
from repro.failure.crash import CrashSchedule
from repro.harness.runner import run_suite
from repro.harness.suite import SweepSpec
from repro.metrics.probes import DEFAULT_PROBES
from repro.net.setups import SETUP_1, SETUP_2
from repro.shard import ShardSpec, build_sharded_system
from repro.shard.bank import ShardedBank, attach_machines, spread_accounts
from repro.shard.sweep import ShardSweepSpec, run_shard_sweep
from repro.stack.builder import StackSpec
from repro.stack.layers import WORKLOADS


class CheckFailed(AssertionError):
    """A workload's correctness check did not hold."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


def digest_of(value: object) -> str:
    """SHA-256 over the canonical ``repr`` of nested primitives."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


@dataclass
class Outcome:
    """What one pass of a workload produced.

    Attributes:
        attempted: Operations offered (messages, requests, schedules).
        completed: Operations that completed; shed, aborted, undelivered
            and diverged operations are the difference.
        counters: Deterministic work counters (a pure function of the
            inputs).
        figures: Simulated headline figures, plus host-time figures
            measured inside the pass (named in ``HOST_FIGURES``).
        outputs: Every simulated output the digest covers.
    """

    attempted: int
    completed: int
    counters: dict[str, int]
    figures: dict[str, float]
    outputs: object = field(repr=False)

    @property
    def digest(self) -> str:
        return digest_of(self.outputs)


#: A seed kept out of tuning: the benchmark's own tests run every
#: workload on it, and a performance claim must also hold on it.
HELD_OUT_SEED = 7919

#: Figures measured in host time inside a pass; they differ between
#: runs, so they are kept out of the digest and out of equality checks.
HOST_FIGURES = ("schedules_per_s",)


class Workload:
    """One benchmark workload (subclasses fill in the hooks)."""

    name = ""

    def inputs(self, seed: int) -> object:
        """The generated inputs: a pure function of ``seed``."""
        raise NotImplementedError

    def prepare(self, inputs: object) -> int:
        """Untimed checked passes before the timed ones; returns how
        many ran (0 when the workload needs none)."""
        return 0

    def run(self, inputs: object) -> Outcome:
        """One timed, checked pass."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# paper-figures
# ----------------------------------------------------------------------

#: Figure-legend label -> (abcast, consensus, rb), as in the paper.
LEGEND = {
    "Consensus": ("on-messages", "ct", "sender"),
    "(Faulty) Consensus": ("faulty-ids", "ct", "sender"),
    "Indirect consensus": ("indirect", "ct-indirect", "sender"),
    "Indirect consensus w/ rbcast O(n^2)": (
        "indirect", "ct-indirect", "flood"),
    "Indirect consensus w/ rbcast O(n)": ("indirect", "ct-indirect", "sender"),
    "Consensus w/ uniform rbcast": ("urb-ids", "ct", "flood"),
}

_FIG1 = ["Indirect consensus", "Consensus"]
_FIG34 = ["Indirect consensus", "(Faulty) Consensus"]
_FIG5 = ["Indirect consensus w/ rbcast O(n^2)", "Consensus w/ uniform rbcast"]
_FIG6 = ["Indirect consensus w/ rbcast O(n)", "Consensus w/ uniform rbcast"]

#: The quick grids of figures 1 and 3-7, one entry per panel:
#: (figure, sweep name, variants, n, network setup, throughputs, payloads).
PANELS = (
    [("fig1", f"fig1/{t:.0f}", _FIG1, 3, SETUP_1, [t], [1, 2500, 5000])
     for t in (100.0, 800.0)]
    + [("fig3", f"fig3/n{n}", _FIG34, n, SETUP_1, [100.0, 400.0, 800.0], [1])
       for n in (3, 5)]
    + [("fig4", f"fig4/{t:.0f}", _FIG34, 5, SETUP_1, [t], [1, 2500, 5000])
       for t in (10.0, 100.0, 400.0, 800.0)]
    + [("fig5", f"fig5/{t:.0f}", _FIG5, 3, SETUP_2, [t], [1, 1250, 2500])
       for t in (500.0, 1500.0, 2000.0)]
    + [("fig6", f"fig6/{t:.0f}", _FIG6, 3, SETUP_2, [t], [1, 1250, 2500])
       for t in (500.0, 1500.0, 2000.0)]
    + [("fig7", "fig7/flood", _FIG5, 3, SETUP_2, [500.0, 1250.0, 2000.0], [1]),
       ("fig7", "fig7/sender", _FIG6, 3, SETUP_2, [500.0, 1250.0, 2000.0],
        [1])]
)

#: The point whose latency distribution is the workload's latency figure.
LATENCY_POINT = ("fig3/n5", "Indirect consensus", 800.0)


def _figure_sweep(name, variants, n, params, throughputs, payloads, seed):
    stacks = []
    for label in variants:
        abcast, consensus, rb = LEGEND[label]
        stacks.append((label, StackSpec(
            n=n, params=params, network="contention", fd="oracle",
            seed=seed, abcast=abcast, consensus=consensus, rb=rb,
        )))
    return SweepSpec(
        name=name,
        variants=tuple(stacks),
        throughputs=tuple(throughputs),
        payloads=tuple(payloads),
        seeds=(seed,),
        target_messages=120,
        warmup=0.1,
        drain=0.5,
        trace_mode="full",
        metrics=DEFAULT_PROBES,
    )


class PaperFigures(Workload):
    """Figures 1 and 3-7 at quick resolution, serial and uncached."""

    name = "paper-figures"

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = cache_dir

    def inputs(self, seed: int) -> tuple[tuple[str, tuple], ...]:
        """``(figure, panel sweeps)`` per figure, in figure order."""
        figures: dict[str, list[SweepSpec]] = {}
        for figure, name, variants, n, params, tps, payloads in PANELS:
            figures.setdefault(figure, []).append(
                _figure_sweep(name, variants, n, params, tps, payloads, seed)
            )
        return tuple((figure, tuple(sweeps))
                     for figure, sweeps in figures.items())

    def run(self, inputs) -> Outcome:
        points = []
        counters = dict.fromkeys(
            ("points", "sent", "undelivered", "events", "frames",
             "data_bytes", "instances_decided"), 0)
        latency = None
        for _figure, sweeps in inputs:
            # One suite per figure, as ``figureN`` runs it: a point two
            # panels of the figure share is computed once.
            suite = run_suite(list(sweeps), processes=1,
                              cache_dir=self.cache_dir, use_cache=False)
            results = iter(suite.results)
            for sweep in sweeps:
                for spec in sweep.experiments():
                    result = next(results)
                    points.append((
                        spec.name, result.sent, result.undelivered,
                        result.simulated_seconds,
                        tuple((name, value.fields, value.series)
                              for name, value
                              in sorted(result.metrics.items())),
                    ))
                    counters["points"] += 1
                    counters["sent"] += result.sent
                    counters["undelivered"] += result.undelivered
                    counters["events"] += result.diagnostics["events"]
                    counters["frames"] += result.frames_total
                    counters["data_bytes"] += result.data_bytes
                    counters["instances_decided"] += result.instances_decided
                    point = (sweep.name, spec.label, spec.throughput)
                    if point == LATENCY_POINT:
                        latency = result.metric("latency")
        check(latency is not None, "the fig3 n=5 800 msg/s point is missing")
        return Outcome(
            attempted=counters["sent"],
            completed=counters["sent"] - counters["undelivered"],
            counters=counters,
            figures={
                "latency_p50_ms": latency["p50_ms"],
                "latency_p90_ms": latency["p90_ms"],
                "latency_samples": latency["count"],
            },
            outputs=tuple(points),
        )


# ----------------------------------------------------------------------
# Sharded service helpers
# ----------------------------------------------------------------------

_INDIRECT = dict(abcast="indirect", consensus="ct-indirect")


def _start_poisson(service, rate: float, payload: int,
                   duration: float) -> None:
    """One aggregate Poisson source per shard, feeding the router."""
    for shard, group in enumerate(service.groups):
        WORKLOADS.get("poisson").factory(
            group,
            throughput=rate / len(service.groups),
            payload_size=payload,
            duration=duration,
            sink=service.router.sink(shard),
        ).install()


def _service_counters(service) -> dict[str, int]:
    """Work counters read off a finished sharded service."""
    counters = {"events": service.engine.events_executed}
    groups = [system_counters(group) for group in service.groups]
    for name in ("frames", "bytes", "adeliveries", "suspicions"):
        counters[name] = sum(group[name] for group in groups)
    counters.update(service_counters(service))
    return counters


# ----------------------------------------------------------------------
# shard-ramp
# ----------------------------------------------------------------------

#: Aggregate offered loads, about 0.4x to 1.6x the service's capacity.
RAMP_RATES = (8_000.0, 16_000.0, 20_000.0, 24_000.0, 32_000.0)
#: The rate whose sojourn is reported, and which is checked with full
#: traces before the timed passes.
SOJOURN_RATE = 16_000.0
#: The knee is the highest rate served at goodput >= KNEE_SHARE x
#: offered with sojourn p99 <= KNEE_P99_MS.
KNEE_SHARE = 0.9
KNEE_P99_MS = 30.0


class ShardRamp(Workload):
    """16 shards of n=3 under an open-loop ramp through saturation."""

    name = "shard-ramp"

    def inputs(self, seed: int) -> ShardSweepSpec:
        return ShardSweepSpec(
            name=self.name,
            stack=StackSpec(n=3, seed=seed, **_INDIRECT),
            shards=(16,),
            workloads=("poisson",),
            offered_loads=RAMP_RATES,
            payloads=(64,),
            seeds=(seed,),
            duration=0.5,
            # Measure every arrival, so completed / offered is exact.
            warmup=0.0,
            drain=0.25,
            router_capacity=32,
            admission="shed",
        )

    def prepare(self, inputs: ShardSweepSpec) -> int:
        """The safety pass: the sojourn-rate point with full traces."""
        (point,) = [p for p in inputs.points() if p.offered == SOJOURN_RATE]
        service = build_sharded_system(ShardSpec(
            stack=point.stack,
            shards=point.shards,
            router_capacity=point.router_capacity,
            admission=point.admission,
            router_latency=point.router_latency,
            retry_delay=point.retry_delay,
        ))
        router = service.router
        router.deadline = point.duration
        _start_poisson(service, point.offered, point.payload, point.duration)
        service.run(until=point.duration)
        check(service.run_until_quiescent(timeout=point.duration + 2.0),
              "the checked 16-shard pass did not quiesce")
        service.check()
        counters = _service_counters(service)
        check(counters["suspicions"] == 0,
              "a failure-free shard run raised suspicions")
        return 1

    def run(self, inputs: ShardSweepSpec) -> Outcome:
        rows = run_shard_sweep(inputs, processes=1)
        counters = {
            name: int(sum(rows.column(f"shard.{name}")))
            for name in ("offered", "admitted", "shed", "completed")
        }
        curve = []
        for (rate,), point in rows.group_by("offered").items():
            curve.append((
                rate,
                point.column("admission.goodput")[0],
                point.column("admission.sojourn_p50_ms")[0],
                point.column("admission.sojourn_p99_ms")[0],
            ))
        curve.sort()
        knee = max(
            (rate for rate, goodput, _p50, p99 in curve
             if goodput >= KNEE_SHARE * rate and p99 <= KNEE_P99_MS),
            default=0.0,
        )
        check(knee > 0, f"no ramp rate meets the knee criteria: {curve}")
        (sojourn,) = [c for c in curve if c[0] == SOJOURN_RATE]
        return Outcome(
            attempted=counters["offered"],
            completed=counters["completed"],
            counters=counters,
            figures={
                "sojourn_p50_ms": sojourn[2],
                "sojourn_p99_ms": sojourn[3],
                "knee_mps": knee,
                "capacity_mps": curve[-1][1],
            },
            outputs=tuple(
                tuple(sorted(row.items())) for row in rows.to_rows()
            ),
        )


# ----------------------------------------------------------------------
# shard-failover
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FailoverInputs:
    seed: int
    #: (time, src, dst, amount) bank transfers, drawn from the seed.
    transfers: tuple[tuple[float, str, str, int], ...]
    accounts: tuple[str, ...] = tuple(f"acct-{i:02d}" for i in range(32))
    shards: int = 4
    rate: float = 4_000.0
    transfer_rate: float = 400.0
    payload: int = 64
    window: float = 1.0
    crash_at: float = 0.4


class ShardFailover(Workload):
    """4 shards with bank transfers; shard 0's coordinator crashes."""

    name = "shard-failover"

    def inputs(self, seed: int) -> FailoverInputs:
        rng = random.Random(f"{self.name}:{seed}")
        accounts = FailoverInputs.accounts
        rate, window = FailoverInputs.transfer_rate, FailoverInputs.window
        transfers = []
        at = rng.expovariate(rate)
        while at < window:
            src, dst = rng.sample(accounts, 2)
            transfers.append((at, src, dst, rng.randint(1, 20)))
            at += rng.expovariate(rate)
        return FailoverInputs(seed=seed, transfers=tuple(transfers))

    def run(self, inputs: FailoverInputs) -> Outcome:
        # p1 coordinates round 1 of every Chandra-Toueg instance.
        service = build_sharded_system(
            ShardSpec(stack=StackSpec(n=3, seed=inputs.seed, **_INDIRECT),
                      shards=inputs.shards),
            crashes={0: CrashSchedule.single(1, inputs.crash_at)},
        )
        router = service.router
        router.measure_from = 0.0
        router.measure_until = inputs.window
        router.deadline = inputs.window
        balances = spread_accounts(list(inputs.accounts), inputs.shards)
        machines = attach_machines(service, lambda shard: balances[shard])
        bank = ShardedBank(service, payload_size=inputs.payload)
        for at, src, dst, amount in inputs.transfers:
            service.engine.schedule_at(at, bank.transfer, src, dst, amount)
        _start_poisson(service, inputs.rate, inputs.payload, inputs.window)

        service.run(until=inputs.window)
        check(service.run_until_quiescent(timeout=inputs.window + 2.0),
              "the failover run did not quiesce")
        service.check()

        initial = 100 * len(inputs.accounts)
        total = 0
        states = []
        for shard, group in enumerate(service.groups):
            survivors = sorted(group.correct_processes())
            reference = machines[(shard, survivors[0])]
            for pid in survivors:
                machine = machines[(shard, pid)]
                check(machine.balances == reference.balances,
                      f"shard {shard}: replica {pid} diverged")
                check(not machine.reserved,
                      f"shard {shard}: replica {pid} holds reservations")
            total += reference.total()
            states.append((shard, tuple(survivors),
                           tuple(sorted(reference.balances.items()))))
        check(total == initial, f"money not conserved: {total} != {initial}")

        counters = _service_counters(service)
        check(counters["suspicions"] > 0, "the crash was never suspected")
        counters["cross_shard"] = bank.cross_shard
        counters["same_shard"] = bank.same_shard

        done = sorted(arrival + sojourn
                      for arrival, sojourn in router.completions[0])
        before = [t for t in done if t <= inputs.crash_at]
        check(before and done[-1] > inputs.crash_at,
              "shard 0 completed nothing on one side of the crash")
        after = done[len(before) - 1:]
        gap = max(b - a for a, b in zip(after, after[1:]))
        stats = router.window_stats()
        completed = int(stats["completed"]) + service.commit.committed
        return Outcome(
            attempted=counters["offered"] + bank.cross_shard,
            completed=completed,
            counters=counters,
            figures={
                "sojourn_p50_ms": stats["sojourn_p50_ms"],
                "sojourn_p99_ms": stats["sojourn_p99_ms"],
                "failover_gap_ms": gap * 1e3,
            },
            outputs=(
                tuple(tuple(sorted(router.shard_stats(shard).items()))
                      for shard in range(inputs.shards)),
                tuple(states),
                service.commit.committed,
                service.commit.aborted,
            ),
        )


# ----------------------------------------------------------------------
# explore-hunt
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HuntInputs:
    seed: int
    stack: str = "faulty"
    #: Schedules of the fixed-budget search (no early stop).
    budget: int = 1500


class _CountingExecutor(ScheduleExecutor):
    """The explorer's executor, counting the runs that diverge (hit the
    event budget before the schedule ended)."""

    def __init__(self, spec) -> None:
        super().__init__(spec)
        self.diverged = 0

    def run(self, schedule):
        record = super().run(schedule)
        self.diverged += record.diverged
        return record


class ExploreHunt(Workload):
    """The Section 2.2 hunt: faulty-ids at n=3, delay-bounded search."""

    name = "explore-hunt"

    def inputs(self, seed: int) -> HuntInputs:
        return HuntInputs(seed=seed)

    def run(self, inputs: HuntInputs) -> Outcome:
        fixed = explore_spec(inputs.stack, seed=inputs.seed,
                             budget=inputs.budget, stop_after=0)
        # As ``run_strategy`` runs it, with an executor that counts the
        # diverged runs.
        executor = _CountingExecutor(fixed)
        # Host time without the benchmark's reference rounds.
        started = CLOCK.work_time()
        search = STRATEGIES.get(fixed.strategy).factory(
            executor, fixed, None, budget=None, shard=0)
        search_s = CLOCK.work_time() - started
        check(search.schedules == inputs.budget,
              f"the search ran {search.schedules} of {inputs.budget} "
              "schedules")
        check(bool(search.violations), "the fixed-budget search found no bug")

        hunt = explore(explore_spec(inputs.stack, seed=inputs.seed))
        check(not hunt.ok, "the hunt found no Section 2.2 violation")
        found = hunt.violations[0]
        _system, record = replay(hunt.spec, found.repro)
        check(record.violation is not None
              and record.violation.prop == found.prop,
              f"repro {found.repro!r} did not replay to {found.prop}")

        verdicts = tuple(
            (v.prop, v.repro, v.steps) for v in search.violations
        )
        return Outcome(
            attempted=search.schedules + hunt.schedules,
            completed=search.schedules + hunt.schedules - executor.diverged,
            counters={
                "schedules": search.schedules,
                "diverged": executor.diverged,
                "pruned": search.pruned,
                "violations": len(search.violations),
                "hunt_schedules": hunt.schedules,
                "shrink_runs": hunt.shrink_runs,
                "replay_events": record.events,
            },
            figures={
                "schedules_per_s": search.schedules / search_s,
                "schedules_to_bug": hunt.schedules,
                "pruned_frac": search.pruned / (search.pruned
                                                + search.schedules),
            },
            outputs=(search.schedules, search.pruned, search.exhausted,
                     verdicts, hunt.schedules, found.prop, found.repro),
        )


def workloads(cache_dir: str) -> dict[str, Workload]:
    """Every workload by name, in the order ``BENCHMARK.json`` lists them."""
    return {
        w.name: w
        for w in (PaperFigures(cache_dir), ShardRamp(), ShardFailover(),
                  ExploreHunt())
    }
