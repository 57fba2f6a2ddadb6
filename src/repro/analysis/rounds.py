"""Round analysis: how hard did consensus have to work?

Two per-instance numbers:

* **decision round** — the round in which the winning coordinator (CT)
  or deciding process (MR) reached its decision: the minimum, over the
  group, of rounds entered.  1 in failure-free, suspicion-free runs;
  higher when crashes, false suspicions, or rcv-gated nacks forced
  coordinator rotations.
* **churn round** — the maximum round any process *entered*.  Even in
  good runs non-coordinators advance a round or two past the decision
  before the decide flood reaches them (the algorithms are written that
  way: a process moves on right after Phase 3); the gap between churn
  and decision rounds measures that harmless overshoot.

Rounds come from the event stream: each
:class:`~repro.core.events.DecideEvent` carries the deciding process's
round-entry times (the instance retires on decision, so its state is
gone after the run).  The fold is the consensus probe's
:class:`~repro.metrics.probes.RoundTally`; :func:`round_statistics`
runs it over a retained trace.
"""

from __future__ import annotations

from typing import Any

from repro.metrics.probes import RoundStatistics, RoundTally

__all__ = ["RoundStatistics", "round_statistics"]


def round_statistics(trace: Any) -> RoundStatistics:
    """Compute round statistics over every decided instance of a
    retained :class:`~repro.sim.trace.Trace`."""
    tally = RoundTally()
    for event in trace.decides():
        tally.add(event)
    return tally.statistics()
