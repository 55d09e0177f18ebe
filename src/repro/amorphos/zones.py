"""Reconfigurable-zone management: spatial sharing with time-share fallback.

AmorphOS co-locates Morphlets in reconfigurable zones to raise
utilization, and falls back to time-sharing when space-sharing is
infeasible (§2.2).  The allocator is a simple first-fit over the
device's resource envelope: if the combined design no longer fits, new
arrivals are queued for time-slices instead of space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..fabric.device import Device
from ..fabric.synth import ResourceEstimate


@dataclass
class ZonePlacement:
    """Result of asking the allocator for room."""

    spatial: bool
    zone: int = 0
    reason: str = ""


class ZoneAllocator:
    """Tracks fabric occupancy at Morphlet granularity."""

    #: Fraction of the device reserved for the hull and routing.
    HULL_OVERHEAD = 0.08

    def __init__(self, device: Device):
        self.device = device
        self._occupied_luts = 0
        self._occupied_ffs = 0
        self._residents: Dict[int, ResourceEstimate] = {}
        self._timeshared: List[int] = []
        self._next_zone = 0

    @property
    def budget_luts(self) -> int:
        return int(self.device.luts * (1.0 - self.HULL_OVERHEAD))

    @property
    def budget_ffs(self) -> int:
        return int(self.device.ffs * (1.0 - self.HULL_OVERHEAD))

    def try_place(self, morphlet_id: int, resources: ResourceEstimate) -> ZonePlacement:
        """First-fit spatial placement; falls back to time-sharing."""
        if (self._occupied_luts + resources.luts <= self.budget_luts
                and self._occupied_ffs + resources.ffs <= self.budget_ffs):
            self._occupied_luts += resources.luts
            self._occupied_ffs += resources.ffs
            self._residents[morphlet_id] = resources
            zone = self._next_zone
            self._next_zone += 1
            return ZonePlacement(spatial=True, zone=zone)
        self._timeshared.append(morphlet_id)
        return ZonePlacement(
            spatial=False,
            reason=(
                f"needs {resources.luts} LUTs, "
                f"{self.budget_luts - self._occupied_luts} free"
            ),
        )

    def release(self, morphlet_id: int) -> None:
        resources = self._residents.pop(morphlet_id, None)
        if resources is not None:
            self._occupied_luts -= resources.luts
            self._occupied_ffs -= resources.ffs
        if morphlet_id in self._timeshared:
            self._timeshared.remove(morphlet_id)

    @property
    def timeshared(self) -> List[int]:
        return list(self._timeshared)

    def utilization(self) -> float:
        return self._occupied_luts / max(1, self.budget_luts)
