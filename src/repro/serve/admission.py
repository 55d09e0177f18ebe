"""Admission control: bounded queues and slot budgets for the frontend.

The hypervisor already refuses placements the fabric cannot hold
(:class:`~repro.hypervisor.hypervisor.CapacityError`); admission
control is the same decision one layer up and one step earlier — at
submission time, before any compilation or placement work is spent.
Every rejection is an :class:`AdmissionError`, which extends the
:mod:`repro.fabric.errors` taxonomy the same way ``CapacityError``
does: it derives from :class:`~repro.fabric.errors.FabricError` but is
deliberately neither transient nor persistent, because rejection is a
*policy decision*, not a fault — retrying blindly is wrong (the queue
is full for a reason) and quarantining is absurd (nothing broke).
Callers resubmit when load drains, or shed the request.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..fabric.errors import FabricError
from .handle import SLOT, TenantState


class AdmissionError(FabricError):
    """A submission was refused by policy (budget, queue depth).

    Like :class:`~repro.hypervisor.hypervisor.CapacityError`, this is
    deliberately neither :class:`TransientFabricError` nor
    :class:`PersistentFabricError` — it is an admission decision, not a
    fault, so neither the retry loop nor quarantine-and-restore should
    ever see it.
    """


class QueueFullError(AdmissionError):
    """The bounded submission queue is at capacity (backpressure)."""


class TenantBudgetError(AdmissionError):
    """One principal holds its full per-tenant in-flight budget."""


class UnknownDigestError(AdmissionError):
    """A submit-by-digest named a program never registered here."""


class AdmissionController:
    """Slot accounting for the serve frontend.

    Purely synchronous bookkeeping — the asyncio frontend calls it
    under its own single-threaded discipline.  ``check_submit`` raises
    the typed rejection *before* any slot is taken, so a refused
    submission leaves no residue to clean up.
    """

    def __init__(self, config):
        #: a ``ServeConfig``: ``max_running``, ``max_queue``, ``per_tenant``
        self.config = config
        self.queued = 0
        self.running = 0
        self.peak_running = 0
        self.peak_in_flight = 0
        self.admitted = 0
        self.rejected = 0
        self.cancelled = 0
        self.released = 0
        self.recovered = 0
        self.failed = 0
        self._per_tenant: Dict[str, int] = {}

    # -- the admission decision --------------------------------------------

    def check_submit(self, principal: str) -> None:
        """Raise a typed :class:`AdmissionError` if *principal* may not
        submit right now; otherwise return (taking nothing yet)."""
        if self.queued >= self.config.max_queue:
            self.rejected += 1
            raise QueueFullError(
                f"submission queue is full ({self.queued}/"
                f"{self.config.max_queue}); resubmit after load drains")
        held = self._per_tenant.get(principal, 0)
        if held >= self.config.per_tenant:
            self.rejected += 1
            raise TenantBudgetError(
                f"tenant {principal!r} holds {held}/"
                f"{self.config.per_tenant} in-flight slots")

    # -- slot lifecycle ----------------------------------------------------

    def can_start(self) -> bool:
        return self.running < self.config.max_running

    def move(self, principal: str, old: Optional[TenantState],
             new: TenantState) -> None:
        """Follow one job transition; the only writer of the books.

        What a job holds depends on its state alone (:data:`SLOT`): a
        queue slot, a running slot, or — unborn or terminal — nothing;
        either slot also charges its principal's budget.  A job
        recovered straight into a running slot charges like any other,
        but ``max_running`` is not re-checked: it was admitted once
        already, and recovery must not strand a checkpointed tenant
        behind fresh submissions.
        """
        if new is TenantState.FAILED:
            self.failed += 1
        src, dst = SLOT.get(old), SLOT.get(new)
        if src == dst:
            return
        self.queued += (dst == "queued") - (src == "queued")
        self.running += (dst == "running") - (src == "running")
        if src is None:
            self._per_tenant[principal] = self._per_tenant.get(principal, 0) + 1
            if dst == "queued":
                self.admitted += 1
            else:
                self.recovered += 1
        elif dst is None:
            held = self._per_tenant.get(principal, 0) - 1
            if held > 0:
                self._per_tenant[principal] = held
            else:
                self._per_tenant.pop(principal, None)
            if src == "running":
                self.released += 1
            elif new is TenantState.CANCELLED:
                self.cancelled += 1
        self.peak_running = max(self.peak_running, self.running)
        self.peak_in_flight = max(self.peak_in_flight,
                                  self.queued + self.running)

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "queued": self.queued,
            "running": self.running,
            "peak_running": self.peak_running,
            "peak_in_flight": self.peak_in_flight,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "cancelled": self.cancelled,
            "released": self.released,
            "recovered": self.recovered,
            "failed": self.failed,
            "tenants_in_flight": len(self._per_tenant),
        }
