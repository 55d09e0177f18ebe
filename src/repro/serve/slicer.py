"""Fair-share time-slicing over priority classes.

The slicer decides *who runs next and for how many ticks*; it never
touches an engine.  Under the hood it is the hypervisor's
:class:`~repro.hypervisor.scheduler.DeficitRoundRobin` with the
serving layer's vocabulary on top: schedulable *units* (one job, or
one cohort of lockstep jobs) carrying a ``priority`` class name, and a
preemption counter — because in this design preemption is nothing more
than "the unit's turn budget ran out and it went back to the tail of
its class queue", with the suspend/checkpoint machinery invoked by the
frontend at exactly that boundary.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..hypervisor.scheduler import DeficitRoundRobin

#: default priority classes and their tick-share weights
DEFAULT_PRIORITIES: Dict[str, float] = {"high": 4.0, "normal": 2.0, "low": 1.0}


class FairShareSlicer:
    """Deficit-round-robin turn taking over serve units."""

    def __init__(self, quantum: int = 32,
                 priorities: Optional[Dict[str, float]] = None):
        self.priorities = dict(priorities or DEFAULT_PRIORITIES)
        self.drr = DeficitRoundRobin(quantum=quantum, classes=self.priorities)
        self.preemptions = 0
        self.idle_skips = 0

    def admit(self, unit) -> None:
        """Queue *unit* (anything with a ``priority`` attribute)."""
        if unit.priority not in self.priorities:
            raise ValueError(
                f"unknown priority class {unit.priority!r}; "
                f"configured: {sorted(self.priorities)}")
        self.drr.enqueue(unit.priority, unit)

    def requeue(self, unit) -> None:
        """A preempted unit goes back to the tail of its class queue."""
        self.preemptions += 1
        self.drr.requeue(unit.priority, unit)

    def withdraw(self, unit) -> bool:
        """Take a parked unit out of its class queue (cohort formation)."""
        return self.drr.withdraw(unit.priority, unit)

    def next_turn(self) -> Optional[Tuple[object, int]]:
        """The next unit to run and its tick budget, or None when idle."""
        turn = self.drr.next_turn()
        if turn is None:
            return None
        _, unit, budget = turn
        return unit, budget

    def charge(self, unit, ticks: int) -> None:
        """Debit the ticks *unit* actually consumed this turn."""
        self.drr.charge(unit.priority, ticks)

    def note_idle(self, unit) -> None:
        """Record that *unit*'s engine proved quiescent this turn.

        The frontend fast-forwards such a unit to its target instead of
        cycling it through further no-op turns; the counter makes that
        visible in the serving stats.
        """
        self.idle_skips += 1

    def stats(self) -> Dict[str, object]:
        out = self.drr.stats()
        out["preemptions"] = self.preemptions
        out["idle_skips"] = self.idle_skips
        return out
