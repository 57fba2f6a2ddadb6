"""Behavioural tests for Mostefaoui-Raynal consensus (original and indirect)."""

import pytest

from repro.checkers.consensus import ConsensusChecker
from repro.consensus.base import ID_SET_CODEC
from repro.consensus.mostefaoui_raynal import BOTTOM, Bottom, MostefaouiRaynalConsensus
from repro.consensus.mr_indirect import MRIndirectConsensus
from repro.core.config import SystemConfig
from repro.core.events import RDeliverEvent
from repro.core.exceptions import ProtocolViolationError, ResilienceExceededError
from repro.core.identifiers import MessageId
from repro.core.rcv import ReceivedStore
from tests.helpers import Fabric, app_message, make_fabric


def mount(fabric: Fabric, cls, enforce=True):
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
    stores[pid].add(message)
    fabric.trace.record(
        RDeliverEvent(time=fabric.engine.now, process=pid, message=message)
    )


def ids(*messages):
    return frozenset(m.mid for m in messages)


class TestBottomSentinel:
    def test_singleton(self):
        assert Bottom() is BOTTOM
        assert repr(BOTTOM) == "⊥"


class TestOriginalMR:
    def test_unanimous_decides_in_one_round(self):
        fabric = make_fabric(3)
        services, stores, decisions = mount(fabric, MostefaouiRaynalConsensus)
        value = frozenset({MessageId(1, 1)})
        for pid in (1, 2, 3):
            services[pid].propose(1, value)
        # Deciding retires the instance; hold it from the propose on.
        inst = services[1]._instances[1]
        fabric.run()
        assert all(decisions[pid][1] == value for pid in (1, 2, 3))
        assert inst.rounds_executed == 1
        ConsensusChecker(fabric.trace, fabric.config).check_all()

    def test_two_step_decision_in_good_round(self):
        """Without failures MR decides within two communication steps:
        coordinator's estimate (1 hop) + echoes (1 hop)."""
        fabric = make_fabric(3, latency=1e-3)
        services, stores, decisions = mount(fabric, MostefaouiRaynalConsensus)
        value = frozenset({MessageId(1, 1)})
        for pid in (1, 2, 3):
            services[pid].propose(1, value)
        first = None
        services[1].on_decide(lambda k, v: None)
        fabric.run()
        first = fabric.trace.first_decision(1)
        # 2 steps of 1 ms each, plus the decide flood hop.
        assert first.time <= 3.1e-3

    def test_distinct_proposals_decide_coordinator_value(self):
        fabric = make_fabric(3)
        services, stores, decisions = mount(fabric, MostefaouiRaynalConsensus)
        values = {pid: frozenset({MessageId(pid, 1)}) for pid in (1, 2, 3)}
        for pid in (1, 2, 3):
            services[pid].propose(1, values[pid])
        fabric.run()
        assert decisions[1][1] == values[2]  # round-1 coordinator is p2
        ConsensusChecker(fabric.trace, fabric.config).check_all()

    def test_coordinator_crash_rotates_rounds(self):
        fabric = make_fabric(3, detection_delay=5e-3)
        services, stores, decisions = mount(fabric, MostefaouiRaynalConsensus)
        fabric.processes[2].crash()
        value = frozenset({MessageId(1, 1)})
        services[1].propose(1, value)
        services[3].propose(1, value)
        fabric.run()
        assert decisions[1][1] == value
        assert decisions[3][1] == value
        ConsensusChecker(fabric.trace, fabric.config).check_all()

    def test_non_proposer_learns_via_flood(self):
        fabric = make_fabric(5)
        services, stores, decisions = mount(fabric, MostefaouiRaynalConsensus)
        value = frozenset({MessageId(1, 1)})
        for pid in (1, 2, 3, 4):
            services[pid].propose(1, value)
        fabric.run()
        assert decisions[5][1] == value

    def test_resilience_bound_is_minority(self):
        assert MostefaouiRaynalConsensus.resilience_bound(SystemConfig(5)) == 2
        assert MostefaouiRaynalConsensus.resilience_bound(SystemConfig(3)) == 1


class TestIndirectMR:
    def test_resilience_bound_drops_to_a_third(self):
        """The paper's headline negative result."""
        assert MRIndirectConsensus.resilience_bound(SystemConfig(3)) == 0
        assert MRIndirectConsensus.resilience_bound(SystemConfig(4)) == 1
        assert MRIndirectConsensus.resilience_bound(SystemConfig(7)) == 2

    def test_construction_rejects_f_at_or_above_n_third(self):
        fabric = make_fabric(3, f=1)
        with pytest.raises(ResilienceExceededError):
            MRIndirectConsensus(
                fabric.transports[1],
                fabric.config,
                fabric.detectors[1],
                ID_SET_CODEC,
            )

    def test_unanimous_with_messages_decides_fast(self):
        fabric = make_fabric(4, f=1)
        services, stores, decisions = mount(fabric, MRIndirectConsensus)
        m = app_message(1)
        for pid in fabric.config.processes:
            give(fabric, stores, pid, m)
            services[pid].propose(1, ids(m), stores[pid].rcv)
        fabric.run()
        for pid in fabric.config.processes:
            assert decisions[pid][1] == ids(m)
        ConsensusChecker(fabric.trace, fabric.config).check_all(
            no_loss=True, v_stability=True
        )

    def test_unbacked_coordinator_value_is_echoed_as_bottom(self):
        """Phase-1 filter: the coordinator's value is replaced by ⊥ when
        msgs(v) are missing, so an unstable value cannot win the round."""
        fabric = make_fabric(4, f=1)
        services, stores, decisions = mount(fabric, MRIndirectConsensus)
        a = app_message(2)  # only p2 will hold msgs({a})
        b = app_message(1)
        give(fabric, stores, 2, a)
        for pid in (1, 2, 3, 4):
            give(fabric, stores, pid, b)
        services[2].propose(1, ids(a), stores[2].rcv)
        for pid in (1, 3, 4):
            services[pid].propose(1, ids(b), stores[pid].rcv)
        fabric.run()
        decided = decisions[1][1]
        assert decided == ids(b)
        ConsensusChecker(fabric.trace, fabric.config).check_all(
            no_loss=True, v_stability=True
        )

    def test_count_based_adoption_spreads_backed_values(self):
        """Condition (2) of Algorithm 3 line 28: a process lacking
        msgs(v) still adopts v when ⌈(n+1)/3⌉ processes echoed it —
        f+1-deep evidence that a correct holder exists."""
        fabric = make_fabric(4, f=1, detection_delay=5e-3)
        services, stores, decisions = mount(fabric, MRIndirectConsensus)
        m = app_message(2)
        # p2 (coordinator), p3, p4 hold msgs({m}); p1 does not.
        for pid in (2, 3, 4):
            give(fabric, stores, pid, m)
        services[2].propose(1, ids(m), stores[2].rcv)
        services[3].propose(1, ids(m), stores[3].rcv)
        services[4].propose(1, ids(m), stores[4].rcv)
        services[1].propose(1, frozenset(), stores[1].rcv)
        fabric.run()
        # p1 decides m's id without ever holding m.
        assert decisions[1][1] == ids(m)
        ConsensusChecker(fabric.trace, fabric.config).check_all(
            no_loss=True, v_stability=True
        )

    def test_survives_one_crash_at_n4(self):
        fabric = make_fabric(4, f=1, detection_delay=5e-3)
        services, stores, decisions = mount(fabric, MRIndirectConsensus)
        m = app_message(1)
        for pid in fabric.config.processes:
            give(fabric, stores, pid, m)
            services[pid].propose(1, ids(m), stores[pid].rcv)
        fabric.crash(2, at=0.5e-3)
        fabric.run()
        for pid in (1, 3, 4):
            assert decisions[pid][1] == ids(m)
        ConsensusChecker(fabric.trace, fabric.config).check_all(
            no_loss=True, v_stability=True
        )

    def test_original_mr_violates_v_stability_where_indirect_does_not(self):
        """Section 3.3.2's conclusion, executed: the original algorithm
        reaches a v-valent configuration backed by a single process."""
        fabric = make_fabric(4, f=1)
        services, stores, decisions = mount(fabric, MostefaouiRaynalConsensus)
        a = app_message(2)
        give(fabric, stores, 2, a)  # only the coordinator holds msgs({a})
        services[2].propose(1, ids(a))
        for pid in (1, 3, 4):
            services[pid].propose(1, frozenset())
        fabric.run()
        assert decisions[1][1] == ids(a)
        checker = ConsensusChecker(fabric.trace, fabric.config)
        with pytest.raises(ProtocolViolationError, match="v-stability"):
            checker.check_v_stability(1)
