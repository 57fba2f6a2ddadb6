"""Protocol-level event records.

Every externally meaningful action a protocol takes — ``abroadcast``,
``adeliver``, ``rbroadcast``, ``rdeliver``, ``propose``, ``decide``, and
process crashes — is recorded as one of the frozen dataclasses below,
stamped with the simulated time and the acting process.

The trace of these events is the interface between a simulation run and
the property checkers in :mod:`repro.checkers`: the formal properties of
the paper (Validity, Uniform integrity, Uniform agreement, Uniform total
order, No loss, ...) are all predicates over event traces, and that is
literally how the checkers evaluate them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.identifiers import MessageId, ProcessId
from repro.core.message import AppMessage


@dataclass(frozen=True, slots=True)
class ProtocolEvent:
    """Base class: something observable happened at ``process`` at ``time``."""

    time: float
    process: ProcessId


@dataclass(frozen=True, slots=True)
class ABroadcastEvent(ProtocolEvent):
    """``abroadcast(m)`` was invoked (Algorithm 1 line 7)."""

    message: AppMessage


@dataclass(frozen=True, slots=True)
class ADeliverEvent(ProtocolEvent):
    """``adeliver(m)`` occurred (Algorithm 1 line 24)."""

    message: AppMessage


@dataclass(frozen=True, slots=True)
class RBroadcastEvent(ProtocolEvent):
    """A reliable (or uniform reliable) broadcast was initiated."""

    message: AppMessage
    uniform: bool = False


@dataclass(frozen=True, slots=True)
class RDeliverEvent(ProtocolEvent):
    """A reliable (or uniform reliable) delivery occurred."""

    message: AppMessage
    uniform: bool = False


@dataclass(frozen=True, slots=True)
class ProposeEvent(ProtocolEvent):
    """``propose(k, v, rcv)`` for consensus instance ``k``."""

    instance: int
    value: frozenset[MessageId]


@dataclass(frozen=True, slots=True)
class DecideEvent(ProtocolEvent):
    """``decide(k, v)`` for consensus instance ``k``.

    ``holders_at_decision`` records which processes held ``msgs(v)`` at
    the moment of the *first* decision of the instance — the observation
    the No loss checker needs (it must hold at decision time ``t``, not
    merely eventually).

    ``round_entries`` holds the simulated times at which the deciding
    process entered each round of the instance (empty if it decided
    without proposing).  The instance retires on decision, so this is
    where round analysis and the span forest read its rounds from.
    """

    instance: int
    value: frozenset[MessageId]
    holders_at_decision: frozenset[ProcessId] = frozenset()
    round_entries: tuple[float, ...] = ()


@dataclass(frozen=True, slots=True)
class CrashEvent(ProtocolEvent):
    """``process`` crashed at ``time`` and takes no further steps."""
