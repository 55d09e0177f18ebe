"""Checkpoint-at-quiescence: bounded rings of per-tenant contexts.

The hypervisor already detects quiescence (between logical ticks, or at
``$yield`` for Morphlets) — that is exactly when a tenant's state is
portable.  The supervisor captures a :class:`~repro.runtime.runtime.Context`
there every *checkpoint_every* ticks and keeps the last few in a ring
per engine.  Each checkpoint records the tenant program's software
digest (``CompiledProgram.digest``) — the key the journal's ``admit``
record and ``Fleet.readmit`` use — so a snapshot names its program the
way every other durable record does.  No restore path reads it (a
restore recompiles the context's own ``program_source``, a store hit),
and taking a checkpoint never touches the hardware half of a program.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..runtime.runtime import Context

#: Default ring depth: enough to survive a checkpoint *during* a crash
#: (the newest entry may describe a state the dying board never reached
#: durably; the one before it is always good).
DEFAULT_RING_DEPTH = 3


@dataclass
class Checkpoint:
    """One tenant context captured at a quiescence point."""

    engine_id: int
    digest: str            #: software digest of the tenant program
    ticks: int             #: logical time of the quiescence point
    sim_time: float        #: modeled wall time at capture
    context: Context
    save_seconds: float = 0.0  #: modeled cost of taking this checkpoint


class CheckpointRing:
    """Bounded per-engine checkpoint storage, newest last.

    Eviction is strictly oldest-first per engine; dropping an engine
    (tenant finished, or restored elsewhere under a new id) releases
    its whole ring.
    """

    def __init__(self, depth: int = DEFAULT_RING_DEPTH):
        if depth < 1:
            raise ValueError("ring depth must be >= 1")
        self.depth = depth
        self._rings: Dict[int, List[Checkpoint]] = OrderedDict()
        self.saved = 0
        self.evicted = 0

    def push(self, checkpoint: Checkpoint) -> None:
        ring = self._rings.setdefault(checkpoint.engine_id, [])
        ring.append(checkpoint)
        self.saved += 1
        while len(ring) > self.depth:
            ring.pop(0)
            self.evicted += 1

    def latest(self, engine_id: int) -> Optional[Checkpoint]:
        ring = self._rings.get(engine_id)
        return ring[-1] if ring else None

    def history(self, engine_id: int) -> List[Checkpoint]:
        return list(self._rings.get(engine_id, ()))

    def drop(self, engine_id: int) -> None:
        self._rings.pop(engine_id, None)

    def engines(self) -> List[int]:
        return list(self._rings)

    def stats(self) -> Dict[str, int]:
        return {
            "engines": len(self._rings),
            "held": sum(len(r) for r in self._rings.values()),
            "saved": self.saved,
            "evicted": self.evicted,
        }
