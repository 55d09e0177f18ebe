"""The AmorphOS hull: isolation boundary and compatibility layer (§2.2).

The hull mediates OS-managed resources for Morphlets.  It provides:

* **cross-domain protection** — a Morphlet handle is bound to the
  protection domain that created it; access from any other domain raises
  :class:`ProtectionError`;
* **zone management** — spatial sharing through :class:`ZoneAllocator`,
  with time-sharing fallback;
* **the quiescence interface** — notifying applications before they lose
  access to the FPGA (reconfiguration) so they can back up their state
  (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.pipeline import CompiledProgram
from ..fabric.device import Device
from ..fabric.synth import ResourceEstimate
from .morphlet import Morphlet, MorphletState, ProtectionDomain
from .zones import ZoneAllocator, ZonePlacement


class ProtectionError(Exception):
    """A Morphlet was accessed from outside its protection domain."""


class Hull:
    """Shell-like mediator for all Morphlet interactions on one device."""

    def __init__(self, device: Device):
        self.device = device
        self.zones = ZoneAllocator(device)
        self._morphlets: Dict[int, Morphlet] = {}
        self._owners: Dict[int, ProtectionDomain] = {}

    # -- lifecycle ---------------------------------------------------------

    def load(self, domain: ProtectionDomain, program: CompiledProgram,
             resources: ResourceEstimate) -> Morphlet:
        """Admit a Morphlet; spatial if it fits, time-shared otherwise."""
        morphlet = Morphlet.create(domain, program)
        placement = self.zones.try_place(morphlet.morphlet_id, resources)
        morphlet.zone = placement.zone if placement.spatial else None
        morphlet.state = MorphletState.RUNNING
        self._morphlets[morphlet.morphlet_id] = morphlet
        self._owners[morphlet.morphlet_id] = domain
        return morphlet

    def unload(self, domain: ProtectionDomain, morphlet_id: int) -> None:
        self._check(domain, morphlet_id)
        self.zones.release(morphlet_id)
        morphlet = self._morphlets.pop(morphlet_id)
        morphlet.state = MorphletState.EVICTED
        self._owners.pop(morphlet_id, None)

    # -- protection ----------------------------------------------------------

    def _check(self, domain: ProtectionDomain, morphlet_id: int) -> Morphlet:
        owner = self._owners.get(morphlet_id)
        if owner is None:
            raise ProtectionError(f"no Morphlet {morphlet_id}")
        if owner is not domain:
            raise ProtectionError(
                f"domain {domain.name!r} may not access Morphlet "
                f"{morphlet_id} owned by {owner.name!r}"
            )
        return self._morphlets[morphlet_id]

    def access(self, domain: ProtectionDomain, morphlet_id: int) -> Morphlet:
        """Fetch a Morphlet handle, enforcing domain isolation."""
        return self._check(domain, morphlet_id)

    # -- quiescence (§5.3) ------------------------------------------------------

    def request_quiescence(self, morphlet_id: int,
                           wait_for_yield: Callable[[], bool]) -> List[str]:
        """Notify a Morphlet it will lose the FPGA; return its capture set.

        For applications implementing the protocol, *wait_for_yield* is
        polled until the program asserts ``$yield`` at a logical tick
        boundary; only ``non_volatile`` variables are then captured.
        Applications that do not implement quiescence have every
        variable captured (all state is non-volatile by default).
        """
        morphlet = self._morphlets[morphlet_id]
        morphlet.state = MorphletState.QUIESCING
        if morphlet.implements_quiescence:
            while not wait_for_yield():
                pass
        morphlet.state = MorphletState.QUIESCED
        return list(morphlet.captured_names())

    # -- reporting -------------------------------------------------------------

    @property
    def residents(self) -> List[Morphlet]:
        return list(self._morphlets.values())
