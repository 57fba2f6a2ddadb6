"""Tests for the trace-analysis package."""

import pytest

from repro import CrashSchedule, StackSpec, SymmetricWorkload, build_system, make_payload
from repro.analysis import batch_statistics, round_statistics, traffic_breakdown


def driven_system(throughput=200.0, rb="sender", crash=None, seed=7, n=3):
    spec = StackSpec(n=n, abcast="indirect", consensus="ct-indirect", rb=rb,
                     seed=seed, fd_detection_delay=20e-3)
    crashes = CrashSchedule.single(*crash) if crash else CrashSchedule.none()
    system = build_system(spec, crashes)
    SymmetricWorkload(system, throughput=throughput, payload_size=100,
                      duration=0.3).install()
    system.run(until=2.5, max_events=5_000_000)
    return system


class TestBatchStatistics:
    def test_counts_match_trace(self):
        system = driven_system()
        stats = batch_statistics(system.trace)
        assert stats.instances == len(system.trace.instances())
        assert stats.messages == len(system.trace.adelivery_sequence(1))
        assert stats.amortisation >= 1.0

    def test_batching_grows_with_load(self):
        calm = batch_statistics(driven_system(throughput=50.0).trace)
        busy = batch_statistics(driven_system(throughput=2000.0).trace)
        assert busy.amortisation > calm.amortisation * 1.5

    def test_empty_trace(self):
        from repro.sim.trace import Trace
        stats = batch_statistics(Trace())
        assert stats.instances == 0
        assert stats.amortisation == 0.0


class TestRoundStatistics:
    def test_good_runs_decide_in_round_one(self):
        system = driven_system(throughput=100.0)
        stats = round_statistics(system.trace)
        assert stats.instances > 0
        assert stats.first_round_fraction > 0.9
        assert stats.decision_rounds.minimum == 1.0

    def test_crash_forces_later_rounds(self):
        system = driven_system(throughput=200.0, crash=(2, 0.1))
        stats = round_statistics(system.trace)
        assert stats.first_round_fraction < 0.9
        assert stats.decision_rounds.maximum >= 2

    def test_churn_at_least_decision(self):
        system = driven_system()
        stats = round_statistics(system.trace)
        assert stats.churn_rounds.maximum >= stats.decision_rounds.maximum

    def test_empty_system(self):
        spec = StackSpec(n=3, abcast="indirect", consensus="ct-indirect")
        system = build_system(spec)
        stats = round_statistics(system.trace)
        assert stats.instances == 0
        assert stats.first_round_fraction == 0.0


class TestTrafficBreakdown:
    def test_flood_vs_sender_data_frames(self):
        """n=3: sender RB ships 2 data frames per broadcast, flood 6."""
        sender = driven_system(rb="sender")
        flood = driven_system(rb="flood")
        sends_s = len(sender.trace.abroadcasts())
        sends_f = len(flood.trace.abroadcasts())
        per_sender = traffic_breakdown(sender.network).frames_per_broadcast(sends_s)
        per_flood = traffic_breakdown(flood.network).frames_per_broadcast(sends_f)
        assert per_sender == pytest.approx(2.0, abs=0.3)
        assert per_flood == pytest.approx(6.0, abs=0.5)

    def test_totals_are_consistent(self):
        system = driven_system()
        traffic = traffic_breakdown(system.network)
        assert traffic.total_frames == traffic.data_frames + traffic.control_frames
        assert traffic.total_bytes == traffic.data_bytes + traffic.control_bytes
        assert 0.0 < traffic.control_share() < 1.0

    def test_payload_shifts_control_share_down(self):
        small = driven_system(seed=9)
        spec = StackSpec(n=3, abcast="indirect", consensus="ct-indirect",
                         rb="sender", seed=9)
        big = build_system(spec)
        SymmetricWorkload(big, throughput=200.0, payload_size=4000,
                          duration=0.3).install()
        big.run(until=2.5, max_events=5_000_000)
        assert (
            traffic_breakdown(big.network).control_share()
            < traffic_breakdown(small.network).control_share()
        )

    def test_empty_network(self):
        spec = StackSpec(n=3, abcast="indirect", consensus="ct-indirect")
        system = build_system(spec)
        traffic = traffic_breakdown(system.network)
        assert traffic.total_frames == 0
        assert traffic.control_share() == 0.0
        assert traffic.frames_per_broadcast(0) == 0.0
