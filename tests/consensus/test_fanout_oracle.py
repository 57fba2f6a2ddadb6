"""Reference-oracle equivalence of the consensus fan-outs.

:class:`WalkEveryInstance` keeps the original fan-out: every rcv
notify and every detector change visits every instance the process
ever created, decided ones included, in creation order.  The services
under test visit only what can still act — the rcv-parked instances
on a notify, the live (undecided) table on a detector change — and
retire an instance on decision.  Seeded full stacks must produce
bit-identical traces either way.
"""

import pytest

from repro import CrashSchedule, StackSpec, SymmetricWorkload, build_system
from repro.consensus.base import ConsensusService
from repro.consensus.ct_indirect import CTIndirectConsensus
from repro.consensus.mr_indirect import MRIndirectConsensus
from repro.net.setups import SETUP_1
from repro.stack.layers import CONSENSUS
from tests.helpers import trace_fingerprint


class WalkEveryInstance:
    """Mixin: the walk-every-instance-ever-created fan-out."""

    def __init__(self, *args, **kwargs):
        self.history = {}
        super().__init__(*args, **kwargs)

    def _instance(self, k):
        instance = super()._instance(k)
        self.history.setdefault(k, instance)
        return instance

    def notify_rcv_update(self):
        self._rcv_parked.clear()
        if self.process.crashed:
            return
        for instance in list(self.history.values()):
            instance.on_rcv_update()

    def _on_detector_change(self):
        if self.process.crashed:
            return
        for instance in list(self.history.values()):
            instance.on_detector_change()


class OracleCTIndirect(WalkEveryInstance, CTIndirectConsensus):
    pass


class OracleMRIndirect(WalkEveryInstance, MRIndirectConsensus):
    pass


ORACLES = {"ct-indirect": OracleCTIndirect, "mr-indirect": OracleMRIndirect}

#: label -> (StackSpec kwargs, crash schedule)
CASES = {
    "ct-indirect-nack-crash": (
        dict(n=3, abcast="indirect", consensus="ct-indirect", rb="sender",
             network="contention", params=SETUP_1),
        CrashSchedule.single(2, 0.1),
    ),
    "ct-indirect-wait": (
        dict(n=3, abcast="indirect", consensus="ct-indirect", rb="sender",
             network="contention", params=SETUP_1,
             ct_missing_policy="wait"),
        CrashSchedule.none(),
    ),
    "ct-indirect-wait-crash": (
        dict(n=3, abcast="indirect", consensus="ct-indirect", rb="sender",
             network="contention", params=SETUP_1,
             ct_missing_policy="wait"),
        CrashSchedule.single(1, 0.1),
    ),
    "mr-indirect-flood": (
        dict(n=4, abcast="indirect", consensus="mr-indirect", rb="flood",
             network="contention", params=SETUP_1),
        CrashSchedule.none(),
    ),
    "ct-indirect-heartbeat-crash": (
        dict(n=3, abcast="indirect", consensus="ct-indirect", rb="sender",
             network="constant", fd="heartbeat", constant_latency=3e-4),
        CrashSchedule.single(1, 0.1),
    ),
}


def run_case(kwargs, crashes, seed):
    system = build_system(StackSpec(seed=seed, **kwargs), crashes)
    SymmetricWorkload(
        system, throughput=400.0, payload_size=48, duration=0.3,
    ).install()
    system.run(until=1.5, max_events=5_000_000)
    return system


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("label", sorted(CASES))
def test_live_fanout_matches_walk_every_instance(label, seed, monkeypatch):
    kwargs, crashes = CASES[label]
    parks = []
    original_park = ConsensusService.park_on_rcv

    def counting_park(service, instance):
        parks.append(instance.k)
        original_park(service, instance)

    monkeypatch.setattr(ConsensusService, "park_on_rcv", counting_park)
    live = run_case(kwargs, crashes, seed)
    monkeypatch.setitem(
        CONSENSUS.get(kwargs["consensus"]).meta,
        "cls",
        ORACLES[kwargs["consensus"]],
    )
    oracle = run_case(kwargs, crashes, seed)
    assert all(
        isinstance(c, WalkEveryInstance) for c in oracle.consensuses.values()
    )

    assert live.trace.decides(), "the run must decide something"
    assert trace_fingerprint(live.trace) == trace_fingerprint(oracle.trace)
    assert live.network.frames_sent == oracle.network.frames_sent
    if kwargs.get("ct_missing_policy") == "wait":
        # The rcv wake-up path is exercised, not vacuously equal.
        assert parks
    else:
        assert not parks
    # Decided instances are retired; only the undecided remain.
    for consensus in live.consensuses.values():
        assert not set(consensus._instances) & set(consensus.decided)
