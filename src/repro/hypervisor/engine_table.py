"""The hypervisor's engine table (paper §4.1, Figure 6).

Each connected runtime instance sends sub-program source over its
connection; the hypervisor compiles it into the combined design and
hands back a unique identifier.  The engine table is the indirection
that routes subsequent ABI requests to the right module of the
monolithic program — and the isolation boundary: an instance only ever
learns its own identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.pipeline import CompiledProgram


@dataclass
class EngineRecord:
    """One registered sub-program."""

    engine_id: int
    instance: str
    program: CompiledProgram
    #: Flagged when the owning application finishes; removed from the
    #: combined design at the next recompilation (§4.1).
    retired: bool = False


class EngineTable:
    """Identifier allocation and routing for connected sub-programs."""

    def __init__(self):
        self._records: Dict[int, EngineRecord] = {}
        self._next_id = 1

    def register(self, instance: str,
                 program: CompiledProgram) -> EngineRecord:
        record = EngineRecord(self._next_id, instance, program)
        self._next_id += 1
        self._records[record.engine_id] = record
        return record

    def lookup(self, engine_id: int) -> EngineRecord:
        try:
            return self._records[engine_id]
        except KeyError:
            raise KeyError(f"unknown engine {engine_id}") from None

    def retire(self, engine_id: int) -> None:
        """Flag for removal at the next recompilation."""
        self._records[engine_id].retired = True

    def sweep(self) -> List[EngineRecord]:
        """Drop retired records; returns the survivors."""
        retired = [eid for eid, rec in self._records.items() if rec.retired]
        for eid in retired:
            del self._records[eid]
        return list(self._records.values())

    @property
    def active(self) -> List[EngineRecord]:
        return [rec for rec in self._records.values() if not rec.retired]

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, engine_id: int) -> bool:
        return engine_id in self._records
