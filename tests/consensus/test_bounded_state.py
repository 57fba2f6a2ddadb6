"""Consensus state and fan-out work track live state, not run length.

Deterministic counters only: the number of live (undecided) instances
per process, and ``on_rcv_update`` calls per adelivery, measured on a
short and an eight-times longer run of the same stack.  A decided
instance is retired, and nothing that arrives late for it — frames of
any kind, or a second ``propose`` — brings it back.
"""

import pytest

from repro import CrashSchedule, StackSpec, SymmetricWorkload, build_system
from repro.consensus.base import ID_SET_CODEC
from repro.consensus.chandra_toueg import CtInstance
from repro.consensus.ct_indirect import CTIndirectConsensus
from repro.consensus.mr_indirect import MRIndirectConsensus
from repro.core.identifiers import MessageId
from tests.helpers import make_fabric


def driven(duration, wakes):
    """Run the rcv-waiting CT-indirect stack for ``duration`` seconds of
    load; return (max live instances per process, wakes, adeliveries)."""
    wakes_before = wakes[0]
    spec = StackSpec(n=3, abcast="indirect", consensus="ct-indirect",
                     rb="sender", network="contention", seed=3,
                     ct_missing_policy="wait")
    system = build_system(spec, CrashSchedule.none())
    SymmetricWorkload(system, throughput=800.0, payload_size=64,
                      duration=duration).install()
    live = [0]

    def sample():
        live[0] = max(
            [live[0]]
            + [len(c._instances) for c in system.consensuses.values()]
        )
        system.engine.schedule(0.01, sample)

    system.engine.schedule(0.01, sample)
    system.run(until=duration + 0.5, max_events=20_000_000)
    sample()
    adeliveries = sum(a.delivered_count() for a in system.abcasts.values())
    return live[0], wakes[0] - wakes_before, adeliveries


def test_live_instances_and_rcv_wakes_stay_flat(monkeypatch):
    wakes = [0]
    original = CtInstance.on_rcv_update

    def counting(instance):
        wakes[0] += 1
        original(instance)

    monkeypatch.setattr(CtInstance, "on_rcv_update", counting)
    short_live, short_wakes, short_ad = driven(0.5, wakes)
    long_live, long_wakes, long_ad = driven(4.0, wakes)
    assert long_ad > 7 * short_ad
    assert short_live <= 2 and long_live <= 2
    # The wait path is exercised, and its cost per adelivery does not
    # grow with the run (walking every instance ever created grows it
    # linearly: ~8x over these two runs).
    assert short_wakes > 0
    assert long_wakes / long_ad <= 1.5 * short_wakes / short_ad


def always(ids):
    return True


@pytest.mark.parametrize(
    "cls, late_frames",
    [
        (CTIndirectConsensus, (("cti.est", (1, 2, 2, "v", 1)),
                               ("cti.prop", (1, 2, "v")),
                               ("cti.ack", (1, 2, 2, True)))),
        (MRIndirectConsensus, (("mri.echo", (1, 2, 2, "v")),)),
    ],
)
def test_late_traffic_for_a_retired_instance_creates_nothing(cls, late_frames):
    fabric = make_fabric(4)
    services = {
        pid: cls(fabric.transports[pid], fabric.config,
                 fabric.detectors[pid], ID_SET_CODEC)
        for pid in fabric.config.processes
    }
    value = frozenset({MessageId(1, 1)})
    for service in services.values():
        service.propose(1, value, always)
    fabric.run()
    for service in services.values():
        assert service.decided == {1: value}
        assert service._instances == {} and service._rcv_parked == {}
    late = frozenset({MessageId(2, 1)})
    for kind, body in late_frames:
        body = tuple(late if part == "v" else part for part in body)
        for pid in fabric.config.processes:
            fabric.transports[2].send(pid, kind, body=body, size=16)
    for service in services.values():
        service.propose(1, late, always)
    fabric.run()
    for service in services.values():
        assert service._instances == {}
        assert service.decided == {1: value}
