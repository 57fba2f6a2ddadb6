"""Behavioural tests for Chandra-Toueg consensus (original and indirect)."""

import pytest

from repro.checkers.consensus import ConsensusChecker
from repro.consensus.base import ID_SET_CODEC
from repro.consensus.chandra_toueg import ChandraTouegConsensus
from repro.consensus.ct_indirect import CTIndirectConsensus
from repro.core.events import RDeliverEvent
from repro.core.exceptions import ResilienceExceededError
from repro.core.identifiers import MessageId
from repro.core.rcv import ReceivedStore
from repro.failure.detector import FalseSuspicion
from tests.helpers import Fabric, app_message, make_fabric


def mount(fabric: Fabric, cls, enforce=True):
    """Mount a consensus service + received store on every process."""
    services, stores, decisions = {}, {}, {}
    for pid in fabric.config.processes:
        services[pid] = cls(
            fabric.transports[pid],
            fabric.config,
            fabric.detectors[pid],
            ID_SET_CODEC,
            enforce_resilience=enforce,
        )
        stores[pid] = ReceivedStore()
        decisions[pid] = {}
        services[pid].on_decide(
            lambda k, v, _pid=pid: decisions[_pid].setdefault(k, v)
        )
    fabric.services = services
    return services, stores, decisions


def give(fabric: Fabric, stores, pid: int, message) -> None:
    """Hand ``message`` to ``pid`` (store + trace, as an rdelivery)."""
    stores[pid].add(message)
    fabric.trace.record(
        RDeliverEvent(time=fabric.engine.now, process=pid, message=message)
    )


def ids(*messages):
    return frozenset(m.mid for m in messages)


class TestOriginalCT:
    def test_unanimous_proposal_decides_that_value(self):
        fabric = make_fabric(3)
        services, stores, decisions = mount(fabric, ChandraTouegConsensus)
        value = frozenset({MessageId(1, 1)})
        for pid in (1, 2, 3):
            services[pid].propose(1, value)
        fabric.run()
        assert all(decisions[pid][1] == value for pid in (1, 2, 3))
        ConsensusChecker(fabric.trace, fabric.config).check_all()

    def test_round1_decides_coordinator_proposal(self):
        """With distinct proposals, round 1 decides the coordinator's
        (p2's) initial estimate."""
        fabric = make_fabric(3)
        services, stores, decisions = mount(fabric, ChandraTouegConsensus)
        values = {pid: frozenset({MessageId(pid, 1)}) for pid in (1, 2, 3)}
        for pid in (1, 2, 3):
            services[pid].propose(1, values[pid])
        fabric.run()
        assert decisions[1][1] == values[2]
        ConsensusChecker(fabric.trace, fabric.config).check_all()

    def test_non_proposer_learns_decision_from_flood(self):
        fabric = make_fabric(3)
        services, stores, decisions = mount(fabric, ChandraTouegConsensus)
        value = frozenset({MessageId(1, 1)})
        services[1].propose(1, value)
        services[2].propose(1, value)
        # p3 never proposes but must still decide (decide is R-broadcast).
        fabric.run()
        assert decisions[3][1] == value

    def test_coordinator_crash_before_proposal(self):
        fabric = make_fabric(3, detection_delay=5e-3)
        services, stores, decisions = mount(fabric, ChandraTouegConsensus)
        fabric.processes[2].crash()  # round-1 coordinator is dead from the start
        value = frozenset({MessageId(1, 1)})
        services[1].propose(1, value)
        services[3].propose(1, value)
        # Deciding retires the instance; hold it from the propose on.
        instance = services[1]._instances[1]
        fabric.run()
        assert decisions[1][1] == value
        assert decisions[3][1] == value
        # The decision needed more than one round.
        assert instance.rounds_executed >= 2

    def test_coordinator_crash_after_proposal_still_agrees(self):
        fabric = make_fabric(5, detection_delay=5e-3)
        services, stores, decisions = mount(fabric, ChandraTouegConsensus)
        value = frozenset({MessageId(1, 1)})
        for pid in fabric.config.processes:
            services[pid].propose(1, value)
        fabric.crash(2, at=1.5e-3)  # mid-round
        fabric.run()
        survivors = [p for p in fabric.config.processes if p != 2]
        assert all(decisions[pid].get(1) == value for pid in survivors)
        ConsensusChecker(fabric.trace, fabric.config).check_all()

    def test_false_suspicion_delays_but_does_not_break(self):
        everyone_suspects_c = tuple(
            FalseSuspicion(observer=p, target=2, start=0.0005, end=0.05)
            for p in (1, 3)
        )
        fabric = make_fabric(3, false_suspicions=everyone_suspects_c)
        services, stores, decisions = mount(fabric, ChandraTouegConsensus)
        value = frozenset({MessageId(1, 1)})
        for pid in (1, 2, 3):
            services[pid].propose(1, value)
        fabric.run()
        assert all(decisions[pid][1] == value for pid in (1, 2, 3))
        ConsensusChecker(fabric.trace, fabric.config).check_all()

    def test_concurrent_instances_are_independent(self):
        fabric = make_fabric(3)
        services, stores, decisions = mount(fabric, ChandraTouegConsensus)
        v1 = frozenset({MessageId(1, 1)})
        v2 = frozenset({MessageId(2, 2)})
        for pid in (1, 2, 3):
            services[pid].propose(1, v1)
            services[pid].propose(2, v2)
        fabric.run()
        for pid in (1, 2, 3):
            assert decisions[pid][1] == v1
            assert decisions[pid][2] == v2

    def test_double_propose_rejected(self):
        from repro.core.exceptions import ConfigurationError
        fabric = make_fabric(3)
        services, _, _ = mount(fabric, ChandraTouegConsensus)
        services[1].propose(1, frozenset({MessageId(1, 1)}))
        with pytest.raises(ConfigurationError):
            services[1].propose(1, frozenset({MessageId(1, 2)}))

    def test_resilience_bound(self):
        from repro.core.config import SystemConfig
        assert ChandraTouegConsensus.resilience_bound(SystemConfig(3)) == 1
        assert ChandraTouegConsensus.resilience_bound(SystemConfig(5)) == 2
        assert ChandraTouegConsensus.resilience_bound(SystemConfig(6)) == 2


class TestIndirectCT:
    def test_missing_messages_force_refusal_and_another_value_wins(self):
        """The acceptance gate at work: the coordinator's value is backed
        only at the coordinator, so it is nacked and a value held by a
        majority is decided instead — v-valence implies v-stability."""
        fabric = make_fabric(3)
        services, stores, decisions = mount(fabric, CTIndirectConsensus)
        a, b = app_message(2), app_message(1)
        give(fabric, stores, 2, a)  # only p2 holds msgs({a})
        for pid in (1, 2, 3):
            give(fabric, stores, pid, b)
        services[2].propose(1, ids(a), stores[2].rcv)
        services[1].propose(1, ids(b), stores[1].rcv)
        services[3].propose(1, ids(b), stores[3].rcv)
        fabric.run()
        assert decisions[1][1] == ids(b)
        checker = ConsensusChecker(fabric.trace, fabric.config)
        checker.check_all(no_loss=True, v_stability=True)

    def test_original_ct_decides_unstable_value_in_same_scenario(self):
        """Contrast: the unmodified algorithm happily decides {a} even
        though only one process holds msgs({a}) — exactly the
        configuration the paper calls v-valent but not v-stable."""
        from repro.core.exceptions import ProtocolViolationError
        fabric = make_fabric(3)
        services, stores, decisions = mount(fabric, ChandraTouegConsensus)
        a, b = app_message(2), app_message(1)
        give(fabric, stores, 2, a)
        for pid in (1, 2, 3):
            give(fabric, stores, pid, b)
        services[2].propose(1, ids(a))
        services[1].propose(1, ids(b))
        services[3].propose(1, ids(b))
        fabric.run()
        assert decisions[1][1] == ids(a)  # blind adoption
        checker = ConsensusChecker(fabric.trace, fabric.config)
        with pytest.raises(ProtocolViolationError, match="v-stability"):
            checker.check_v_stability(1)

    def test_acceptance_unblocks_once_messages_arrive(self):
        """Hypothesis A in action: p1/p3 receive msgs({a}) while rounds
        churn; consensus then converges on a proposal."""
        fabric = make_fabric(3)
        services, stores, decisions = mount(fabric, CTIndirectConsensus)
        a = app_message(2)
        give(fabric, stores, 2, a)
        services[2].propose(1, ids(a), stores[2].rcv)
        services[1].propose(1, frozenset(), stores[1].rcv)
        services[3].propose(1, frozenset(), stores[3].rcv)
        # msgs({a}) arrive at the others shortly after.
        fabric.engine.schedule(5e-3, lambda: give(fabric, stores, 1, a))
        fabric.engine.schedule(5e-3, lambda: give(fabric, stores, 3, a))
        fabric.run()
        assert 1 in decisions[1]
        ConsensusChecker(fabric.trace, fabric.config).check_all(
            no_loss=True, v_stability=True
        )

    def test_empty_value_is_trivially_stable(self):
        fabric = make_fabric(3)
        services, stores, decisions = mount(fabric, CTIndirectConsensus)
        for pid in (1, 2, 3):
            services[pid].propose(1, frozenset(), stores[pid].rcv)
        fabric.run()
        assert decisions[1][1] == frozenset()

    def test_propose_without_rcv_rejected(self):
        from repro.core.exceptions import ConfigurationError
        fabric = make_fabric(3)
        services, _, _ = mount(fabric, CTIndirectConsensus)
        with pytest.raises(ConfigurationError):
            services[1].propose(1, frozenset({MessageId(1, 1)}), None)

    def test_crash_tolerance_same_as_original(self):
        """Resilience is NOT reduced by the CT adaptation: f = 2 at n = 5."""
        fabric = make_fabric(5, detection_delay=5e-3)
        services, stores, decisions = mount(fabric, CTIndirectConsensus)
        m = app_message(1)
        for pid in fabric.config.processes:
            give(fabric, stores, pid, m)
            services[pid].propose(1, ids(m), stores[pid].rcv)
        fabric.crash(2, at=1e-3)
        fabric.crash(3, at=2e-3)
        fabric.run()
        for pid in (1, 4, 5):
            assert decisions[pid][1] == ids(m)
        ConsensusChecker(fabric.trace, fabric.config).check_all(
            no_loss=True, v_stability=True
        )
