"""Per-layer host-time tracing from outside the program.

:class:`Tracer` installs wrappers at the public seams where work enters
a layer, runs one traced pass, and restores every wrapped function:

* callbacks, wrapped as they are handed to ``Transport.register``,
  ``SimProcess.schedule``/``schedule_at``, ``Engine.schedule``/
  ``schedule_at``, ``FifoResource.occupy``, ``on_deliver``,
  ``on_adeliver``, ``on_decide`` and ``on_change`` (plus the
  ``stop_when`` predicate of ``Engine.run``);
* public entry points, wrapped in place on their classes and in every
  module that imported them by name (``build_system``, ``run_suite``,
  ``abroadcast``, ``propose``, the checkers, the explorer, ...).

A callback is attributed to the layer of the module that defines it,
an entry point to the layer of its own module.  Each wrapper opens a
span; a span's self time is its duration minus the time its child
spans cover, so the self times of all layers plus the root span's own
self time (``unattributed``) add up to the traced pass exactly.
Wrappers keep the wrapped callable's ``__module__``, ``__qualname__``
and ``__self__``: the explorer's state fingerprint describes pending
callbacks by those names, and a traced run must reproduce the untraced
run's schedules.

Spans are kept in memory as begin/end events (the first
:data:`SPAN_CAP` of them) and rendered as Chrome trace-event JSON after
the pass.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns
from typing import Any, Callable

#: Layers in report order; ``unattributed`` is the root span's own time.
LAYERS = (
    "sim", "net", "broadcast", "consensus", "abcast", "failure",
    "shard.router", "shard.commit", "workload", "explore.executor",
    "explore.fingerprint", "stack", "measure.trace", "measure.probe",
    "measure.check", "harness", "unattributed",
)

#: Begin/end events kept for the Chrome export; later spans still count
#: toward the self times but are not drawn.
SPAN_CAP = 60_000

#: Module prefix -> layer; the longest matching prefix wins.
_MODULE_LAYERS = {
    "repro.sim": "sim",
    "repro.sim.trace": "measure.trace",
    "repro.net": "net",
    "repro.broadcast": "broadcast",
    "repro.consensus": "consensus",
    "repro.core.rcv": "consensus",
    "repro.abcast": "abcast",
    "repro.failure": "failure",
    "repro.shard": "shard.router",
    "repro.shard.commit": "shard.commit",
    "repro.shard.bank": "shard.commit",
    "repro.workload": "workload",
    "repro.explore": "explore.executor",
    "repro.explore.fingerprint": "explore.fingerprint",
    "repro.stack": "stack",
    "repro.metrics": "measure.probe",
    "repro.obs": "measure.probe",
    "repro.analysis": "measure.probe",
    "repro.checkers": "measure.check",
    "repro.harness": "harness",
    # The benchmark's own clients (scheduled bank transfers, stop
    # predicates) drive the workload.
    "perfbench": "workload",
}

#: Attributes a wrapper copies from what it wraps.
_IDENTITY = ("__module__", "__qualname__", "__name__", "__wrapped__",
             "_perfbench_site")


def layer_of(module: str) -> str:
    """The layer a module belongs to (``unattributed`` if none)."""
    best = ""
    for prefix in _MODULE_LAYERS:
        matches = module == prefix or module.startswith(prefix + ".")
        if matches and len(prefix) > len(best):
            best = prefix
    return _MODULE_LAYERS[best] if best else "unattributed"


def _module_of(fn: Any) -> str:
    target = getattr(fn, "__func__", fn)
    target = getattr(target, "func", target)  # functools.partial
    return getattr(target, "__module__", None) or ""


def _all_subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


class Site:
    """One wrapped function or callback kind: its layer and call count."""

    __slots__ = ("layer", "name", "index", "calls")

    def __init__(self, layer: str, name: str, index: int) -> None:
        self.layer = layer
        self.name = name
        self.index = index
        self.calls = 0


class Tracer:
    """Wrap the program's seams, record spans, restore everything.

    Use as a context manager around exactly one traced pass::

        with Tracer() as tracer:
            with tracer.span("pass"):
                workload.run(inputs)
        tracer.self_seconds()  # per-layer self time
    """

    def __init__(self) -> None:
        self.sites: dict[tuple[str, str], Site] = {}
        self._site_list: list[Site] = []
        self.self_ns = dict.fromkeys(LAYERS, 0)
        #: Begin/end events for the Chrome export: (phase, site, ns).
        self.events: list[tuple[str, int, int]] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._systems: list = []
        self._services: list = []
        self.system_counters: list[dict[str, float]] = []
        self.service_counters: list[dict[str, float]] = []
        #: (events executed, queue pushes) per engine.
        self.engine_counters: list[tuple[int, int]] = []
        #: Largest pending-event count seen at a handle-path schedule.
        self.pending_max = 0
        #: Largest abcast backlog seen at an abroadcast.
        self.backlog_max = 0
        self.rcv_checks_failed = 0

    # ------------------------------------------------------------------
    # spans

    def site(self, layer: str, name: str) -> Site:
        key = (layer, name)
        site = self.sites.get(key)
        if site is None:
            site = self.sites[key] = Site(layer, name, len(self._site_list))
            self._site_list.append(site)
        return site

    def _enter(self, site: Site) -> None:
        site.calls += 1
        now = perf_counter_ns()
        recorded = len(self.events) < SPAN_CAP
        self._stack.append([site, now, 0, recorded])
        if recorded:
            self.events.append(("B", site.index, now))

    def _exit(self) -> None:
        site, start, child, recorded = self._stack.pop()
        now = perf_counter_ns()
        duration = now - start
        self.self_ns[site.layer] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if recorded:
            self.events.append(("E", site.index, now))

    def run_span(self, name: str, fn: Callable, *args) -> Any:
        """Call ``fn(*args)`` inside the root span ``name``."""
        self._enter(self.site("unattributed", name))
        try:
            return fn(*args)
        finally:
            self._exit()

    def wrap(self, fn: Callable, site: Site) -> Callable:
        """``fn`` inside a span of ``site``, keeping its identity names."""
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            enter(site)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        wrapper.__module__ = getattr(fn, "__module__", None)
        wrapper.__qualname__ = (
            getattr(fn, "__qualname__", None) or type(fn).__qualname__
        )
        wrapper.__name__ = getattr(fn, "__name__", wrapper.__qualname__)
        owner = getattr(fn, "__self__", None)
        if owner is not None:
            wrapper.__self__ = owner
        wrapper.__wrapped__ = fn
        wrapper._perfbench_site = site
        return wrapper

    def wrap_callback(self, fn: Callable | None, kind: str) -> Callable | None:
        """Wrap a callback handed to the program, by its defining layer."""
        if fn is None or hasattr(fn, "_perfbench_site"):
            return fn
        name = getattr(fn, "__qualname__", None) or type(fn).__qualname__
        site = self.site(layer_of(_module_of(fn)), f"{kind} {name}")
        return self.wrap(fn, site)

    # ------------------------------------------------------------------
    # patching

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        original = (owner.__dict__[name] if isinstance(owner, type)
                    else getattr(owner, name))
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def patch_method(
        self,
        base: type,
        name: str,
        make: Callable[[Callable, Site], Callable] | None = None,
    ) -> None:
        """Wrap ``name`` on ``base`` and every subclass defining it.

        ``make(original, site)`` builds the replacement; the default
        just spans the call.
        """
        for cls in _all_subclasses(base):
            original = cls.__dict__.get(name)
            if original is None or hasattr(original, "_perfbench_site"):
                continue
            site = self.site(layer_of(cls.__module__),
                             f"{cls.__qualname__}.{name}")
            self._patch(cls, name, (make or self.wrap)(original, site))

    def patch_function(
        self,
        fn: Callable,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> None:
        """Wrap a module-level function everywhere it is bound by name.

        ``before(*args, **kwargs)`` runs ahead of the call and
        ``after(result)`` behind it, both outside the span (they are
        counter bookkeeping, not program time).
        """
        spanned = self.wrap(fn, self.site(layer_of(fn.__module__),
                                          fn.__qualname__))
        replacement = spanned
        if before is not None or after is not None:
            def replacement(*args, **kwargs):
                if before is not None:
                    before(*args, **kwargs)
                result = spanned(*args, **kwargs)
                if after is not None:
                    after(result)
                return result

            for attr in _IDENTITY:
                setattr(replacement, attr, getattr(spanned, attr))
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", None) or ""
            if not module_name.startswith(("repro", "perfbench")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, replacement)

    def restore(self) -> None:
        """Put every wrapped function back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.harvest()
        finally:
            self.restore()

    # ------------------------------------------------------------------
    # installation

    def _registrar(self, position: int, kind: str, engine: bool = False):
        """A ``make`` that wraps the callback argument of a registrar.

        ``position`` indexes the callback among the positional
        arguments after ``self`` (the program never passes one by
        keyword).  On the engine, callbacks that are
        ``SimProcess._guarded`` stay as they are (the process already
        wrapped the timer inside), and the pending-event high-water
        mark is sampled.
        """
        from repro.sim.process import SimProcess

        tracer = self
        guarded = SimProcess._guarded

        def make(original: Callable, site: Site) -> Callable:
            def patched(owner, *args, **kwargs):
                if len(args) > position:
                    fn = args[position]
                    if not (engine
                            and getattr(fn, "__func__", None) is guarded):
                        fn = tracer.wrap_callback(fn, kind)
                    args = args[:position] + (fn,) + args[position + 1:]
                if engine:
                    pending = owner.pending()
                    if pending > tracer.pending_max:
                        tracer.pending_max = pending
                return original(owner, *args, **kwargs)

            patched._perfbench_site = site
            return patched

        return make

    def _install(self) -> None:
        from repro.abcast.base import AtomicBroadcast
        from repro.abcast.sequencer import SequencerAtomicBroadcast
        from repro.broadcast.base import BroadcastService
        from repro.checkers.abcast import AbcastChecker, check_abcast
        from repro.checkers.consensus import ConsensusChecker
        from repro.checkers.shard import ShardChecker
        from repro.consensus.base import ConsensusService
        from repro.consensus.chandra_toueg import CtInstance
        from repro.consensus.mostefaoui_raynal import MrInstance
        from repro.explore.executor import ScheduleExecutor
        from repro.explore.runner import explore
        from repro.explore.strategies import run_strategy
        from repro.explore.fingerprint import (
            FingerprintTracker,
            fingerprint_state,
        )
        from repro.explore.scheduler import ExploreScheduler
        from repro.failure.detector import FailureDetector
        from repro.harness.experiment import run_experiment
        from repro.harness.runner import run_suite
        from repro.metrics.probes import Probe, ProbeTap
        from repro.net.models import Network
        from repro.net.transport import Transport
        from repro.shard.commit import TwoGroupCommit
        from repro.shard.router import Router
        from repro.shard.service import ShardedSystem, build_sharded_system
        from repro.shard.sweep import run_shard_point
        from repro.sim.engine import Engine
        from repro.sim.process import SimProcess
        from repro.sim.resources import FifoResource
        from repro.sim.trace import CountingTrace, Trace
        from repro.stack.builder import build_system

        tracer = self
        registrar = self._registrar

        # Callback seams: wrap what is handed in, not the registrar.
        self.patch_method(Transport, "register", registrar(1, "frame"))
        for name in ("schedule", "schedule_at"):
            self.patch_method(SimProcess, name, registrar(1, "timer"))
            self.patch_method(Engine, name,
                              registrar(1, "event", engine=True))
        self.patch_method(FifoResource, "occupy", registrar(1, "resource"))
        self.patch_method(BroadcastService, "on_deliver",
                          registrar(0, "deliver"))
        self.patch_method(ConsensusService, "on_decide",
                          registrar(0, "decide"))
        self.patch_method(FailureDetector, "on_change", registrar(0, "change"))

        def engine_run(original: Callable, site: Site) -> Callable:
            spanned = self.wrap(original, site)

            def run(engine, until=None, max_events=None, stop_when=None):
                return spanned(engine, until, max_events,
                               tracer.wrap_callback(stop_when, "poll"))

            run._perfbench_site = site
            return run

        self.patch_method(Engine, "run", engine_run)

        # Entry points, some of which also sample a counter.
        def abroadcast_sampling(original: Callable, site: Site) -> Callable:
            spanned = self.wrap(original, site)

            def abroadcast(abcast, payload):
                backlog = sum(abcast.backlog().values())
                if backlog > tracer.backlog_max:
                    tracer.backlog_max = backlog
                return spanned(abcast, payload)

            abroadcast._perfbench_site = site
            return abroadcast

        def check_rcv_counting(original: Callable, site: Site) -> Callable:
            spanned = self.wrap(original, site)

            def check_rcv(service, rcv, value):
                ok = spanned(service, rcv, value)
                if not ok:
                    tracer.rcv_checks_failed += 1
                return ok

            check_rcv._perfbench_site = site
            return check_rcv

        for abcast in (AtomicBroadcast, SequencerAtomicBroadcast):
            self.patch_method(abcast, "on_adeliver", registrar(0, "adeliver"))
            self.patch_method(abcast, "abroadcast", abroadcast_sampling)
        self.patch_method(BroadcastService, "broadcast")
        self.patch_method(Network, "send")
        for name in ("propose", "notify_rcv_update", "_on_detector_change"):
            self.patch_method(ConsensusService, name)
        self.patch_method(ConsensusService, "check_rcv", check_rcv_counting)
        for instance in (CtInstance, MrInstance):
            for name in ("on_rcv_update", "on_detector_change",
                         "_enter_round"):
                self.patch_method(instance, name)
        self.patch_method(Router, "submit_shard")
        self.patch_method(TwoGroupCommit, "submit")
        self.patch_method(TwoGroupCommit, "report_vote")
        self.patch_method(ShardedSystem, "check")
        for checker in (AbcastChecker, ConsensusChecker, ShardChecker):
            self.patch_method(checker, "check_all")
        self.patch_method(ScheduleExecutor, "run")
        self.patch_method(ExploreScheduler, "decide")
        self.patch_method(ExploreScheduler, "wants")
        for name in ("fingerprint", "on_push", "on_fire", "on_cancel",
                     "on_defer", "on_block", "on_release"):
            self.patch_method(FingerprintTracker, name)
        for trace_cls in (Trace, CountingTrace):
            self.patch_method(trace_cls, "record")
        self.patch_method(ProbeTap, "record")
        self.patch_method(Probe, "on_event")
        self.patch_method(Probe, "finish")
        for fn in (run_suite, run_experiment, run_shard_point, explore,
                   run_strategy, check_abcast, fingerprint_state):
            self.patch_function(fn)

        # The builders also hand what they build to the counters.
        self.patch_function(
            build_system,
            before=lambda *args, **kwargs: (
                kwargs.get("engine") is None and tracer.harvest()
            ),
            after=self._systems.append,
        )
        self.patch_function(
            build_sharded_system,
            before=lambda *args, **kwargs: tracer.harvest(),
            after=self._services.append,
        )

    # ------------------------------------------------------------------
    # counters read off what the pass built

    def harvest(self) -> None:
        """Snapshot and release every system and service built so far."""
        seen: set[int] = set()
        for system in self._systems:
            self.system_counters.append(system_counters(system))
            engine = system.engine
            if id(engine) not in seen:
                seen.add(id(engine))
                self.engine_counters.append(
                    (engine.events_executed, engine.equeue.seq)
                )
        self._systems.clear()
        self.service_counters.extend(map(service_counters, self._services))
        self._services.clear()

    def calls(self, *names: str) -> int:
        """Total calls of the sites named ``names`` (a name also matches
        a callback site of that kind, as in ``"event Router._forward"``)."""
        wanted = set(names)
        return sum(
            site.calls for site in self._site_list
            if site.name in wanted or site.name.split(" ")[-1] in wanted
        )

    def layer_calls(self, layer: str, prefix: str) -> int:
        """Total calls of ``layer``'s sites whose names start with
        ``prefix`` (e.g. the timers a layer scheduled)."""
        return sum(
            site.calls for site in self._site_list
            if site.layer == layer and site.name.startswith(prefix)
        )

    def self_seconds(self) -> dict[str, float]:
        return {layer: ns / 1e9 for layer, ns in self.self_ns.items()}

    # ------------------------------------------------------------------
    # export

    def chrome_trace(self, process_name: str) -> dict:
        """The recorded spans as Chrome trace-event JSON (Perfetto)."""
        sites = self._site_list
        origin = self.events[0][2] if self.events else 0
        events: list[dict] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "ts": 0, "args": {"name": process_name}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "ts": 0, "args": {"name": "host time, traced pass"}},
        ]
        for phase, index, ns in self.events:
            site = sites[index]
            events.append({
                "name": f"{site.layer}: {site.name}",
                "cat": site.layer,
                "ph": phase,
                "pid": 1,
                "tid": 1,
                "ts": (ns - origin) / 1e3,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def system_counters(system) -> dict[str, float]:
    """Per-layer work counters read off one finished system."""
    network = system.network
    media = getattr(network, "media", ())
    kinds = {b.KIND for b in system.broadcasts.values()}
    consensuses = system.consensuses.values()
    return {
        "frames": sum(network.frames_sent.values()),
        "bytes": sum(network.bytes_sent.values()),
        "frames_dropped": network.frames_dropped,
        "medium_util": max((m.utilisation() for m in media), default=0.0),
        "cpu_util": max(p.cpu.utilisation()
                        for p in system.processes.values()),
        "rb_calls": sum(b.broadcast_count for b in system.broadcasts.values()),
        "rb_frames": sum(network.frames_sent.get(kind, 0) for kind in kinds),
        "instances": max((len(c.decided) for c in consensuses), default=0),
        "decisions": sum(len(c.decided) for c in consensuses),
        "adeliveries": sum(
            a.delivered_count() for a in system.abcasts.values()
        ),
        "suspicions": sum(
            d.suspicions_raised for d in system.detectors.values()
        ),
        "retractions": sum(
            d.suspicions_retracted for d in system.detectors.values()
        ),
    }


def service_counters(service) -> dict[str, float]:
    """Router and commit counters read off one finished sharded service."""
    router = service.router
    return {
        "offered": sum(router.offered),
        "admitted": sum(router.admitted),
        "shed": sum(router.shed),
        "commits": service.commit.committed,
        "aborts": service.commit.aborted,
    }
