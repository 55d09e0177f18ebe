"""Hypervisor scheduling: ABI serialization and IO-path time-sharing.

The hypervisor schedules ABI requests sequentially to avoid resource
contention (§4.2).  Temporal multiplexing is what happens when multiple
sub-programs contend on a common IO path between software and hardware
(§4.3, Figure 11): requests are served round-robin, so each stream's
effective per-operation latency is the sum of every active stream's
service time — and a stream with short operations (regex's character
reads) loses more than half its throughput next to one with long
operations (nw's string reads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class IoStream:
    """One sub-program's presence on the shared IO path."""

    engine_id: int
    op_seconds: float  # service time of one primitive operation
    active: bool = True


class RoundRobinIoScheduler:
    """Round-robin service of a shared IO resource."""

    def __init__(self):
        self._streams: Dict[int, IoStream] = {}
        self.rounds = 0

    def register(self, engine_id: int, op_seconds: float) -> None:
        self._streams[engine_id] = IoStream(engine_id, op_seconds)

    def unregister(self, engine_id: int) -> None:
        self._streams.pop(engine_id, None)

    def clear(self) -> None:
        """Drop every stream (board quarantine: no IO path remains)."""
        self._streams.clear()

    def set_active(self, engine_id: int, active: bool) -> None:
        if engine_id in self._streams:
            self._streams[engine_id].active = active

    @property
    def contenders(self) -> List[IoStream]:
        return [s for s in self._streams.values() if s.active]

    def effective_period(self, engine_id: int) -> float:
        """Seconds between successive completions for one stream.

        Alone: the stream's own service time.  Contended: one full
        round-robin round — the sum of every active stream's op time.
        """
        stream = self._streams[engine_id]
        active = self.contenders
        if not stream.active or len(active) <= 1:
            return stream.op_seconds
        return sum(s.op_seconds for s in active)

    def throughput_fraction(self, engine_id: int) -> float:
        """Fraction of solo throughput the stream currently achieves."""
        stream = self._streams[engine_id]
        period = self.effective_period(engine_id)
        if period <= 0:
            return 1.0
        return stream.op_seconds / period

    def extra_wait(self, engine_id: int) -> float:
        """Per-operation queueing delay imposed by other streams."""
        stream = self._streams[engine_id]
        return self.effective_period(engine_id) - stream.op_seconds


class AbiSerializer:
    """Sequential scheduling of ABI requests (§4.2).

    Every request occupies the hypervisor for its service time; the
    counter feeds the profiling surface and the nesting cost model.
    """

    def __init__(self, service_seconds: float = 2e-6):
        self.service_seconds = service_seconds
        self.requests = 0
        self.busy_seconds = 0.0

    def admit(self) -> float:
        """Account for one request; returns its serialized service time."""
        self.requests += 1
        self.busy_seconds += self.service_seconds
        return self.service_seconds


@dataclass
class _DrrClass:
    """One priority class's queue and deficit counter."""

    name: str
    weight: float
    deficit: float = 0.0
    queue: List[object] = field(default_factory=list)


class DeficitRoundRobin:
    """Deficit round robin over weighted priority classes.

    The serving layer's fair-share slicer: each class earns
    ``weight * quantum`` tick credit per round and spends it driving the
    item at the head of its queue; unspent credit carries over, so
    long-run tick shares converge on the weight ratio regardless of how
    unevenly items consume their budgets.  Preemption stays cooperative
    — the caller runs an item for at most the granted budget, then
    either retires it or re-queues it — which is exactly the
    preempt-only-at-quiescence discipline the suspend/resume machinery
    requires.

    The structure is textbook DRR (Shreedhar & Varghese) with ticks in
    place of bytes: ``next_turn`` pops the head of the current class
    when its deficit covers at least one tick, otherwise banks the
    credit and moves on.  A class's deficit resets to zero whenever its
    queue empties, so idle classes cannot hoard credit and starve the
    backlog later.
    """

    def __init__(self, quantum: int = 32,
                 classes: Optional[Dict[str, float]] = None):
        if quantum < 1:
            raise ValueError("quantum must be at least one tick")
        self.quantum = quantum
        self._classes: Dict[str, _DrrClass] = {}
        self._order: List[str] = []
        self._cursor = 0
        #: whether the class at the cursor already earned this round's credit
        self._credited = False
        self.turns = 0
        self.rounds = 0
        for name, weight in (classes or {}).items():
            self.add_class(name, weight)

    def add_class(self, name: str, weight: float = 1.0) -> None:
        if weight <= 0:
            raise ValueError(f"class {name!r} needs a positive weight")
        if name not in self._classes:
            self._classes[name] = _DrrClass(name, weight)
            self._order.append(name)
        else:
            self._classes[name].weight = weight

    def enqueue(self, name: str, item: object) -> None:
        """Append *item* to class *name* (auto-registered at weight 1)."""
        if name not in self._classes:
            self.add_class(name)
        self._classes[name].queue.append(item)

    def requeue(self, name: str, item: object) -> None:
        """Return a preempted item to the tail of its class queue."""
        self.enqueue(name, item)

    def withdraw(self, name: str, item: object) -> bool:
        """Remove a queued item (cancellation); False if not queued."""
        cls = self._classes.get(name)
        if cls is None:
            return False
        try:
            cls.queue.remove(item)  # one scan finds and removes
        except ValueError:
            return False
        if not cls.queue:
            cls.deficit = 0.0
        return True

    @property
    def backlog(self) -> int:
        return sum(len(c.queue) for c in self._classes.values())

    def next_turn(self) -> Optional[Tuple[str, object, int]]:
        """Pop the next item to run: ``(class, item, tick_budget)``.

        The budget is the class's accumulated deficit, floored at one
        tick so a class whose weighted quantum rounds below one still
        makes progress.  The item is *not* auto-requeued: the caller
        charges actual consumption via :meth:`charge` and re-queues the
        item itself if it was preempted rather than retired.
        """
        if not self.backlog:
            return None
        scanned = 0
        while scanned < 2 * len(self._order):
            name = self._order[self._cursor % len(self._order)]
            cls = self._classes[name]
            if not cls.queue:
                cls.deficit = 0.0
                self._advance()
                scanned += 1
                continue
            if not self._credited:
                cls.deficit += cls.weight * self.quantum
                self._credited = True
            if cls.deficit >= 1.0:
                item = cls.queue.pop(0)
                self.turns += 1
                budget = max(1, int(cls.deficit))
                return (name, item, budget)
            self._advance()
            scanned += 1
        # Every backlogged class is under one tick of credit; another
        # scan is guaranteed to credit each at least once more.
        return self.next_turn()

    def _advance(self) -> None:
        self._cursor = (self._cursor + 1) % max(1, len(self._order))
        self._credited = False
        if self._cursor == 0:
            self.rounds += 1

    def charge(self, name: str, ticks: int) -> None:
        """Debit *ticks* actually consumed from *name*'s deficit."""
        cls = self._classes[name]
        cls.deficit -= max(1, ticks)
        if not cls.queue:
            cls.deficit = 0.0

    def stats(self) -> Dict[str, object]:
        return {
            "turns": self.turns,
            "rounds": self.rounds,
            "backlog": self.backlog,
            "classes": {
                name: {"weight": cls.weight,
                       "queued": len(cls.queue),
                       "deficit": round(cls.deficit, 3)}
                for name, cls in self._classes.items()
            },
        }
