"""Hypervisor-as-a-service: the asyncio multi-tenant serving layer.

The paper's hypervisor multiplexes many tenants over scarce fabric;
this package is the serving plane in front of it — a stdlib-asyncio
frontend that accepts a stream of tenant arrivals and serves them
concurrently over a supervised fleet of boards plus software engines:

* :class:`ServeFrontend` — ``await submit(...)`` →
  :class:`TenantHandle` (awaitable result, status, ``$display``
  streaming), one cooperative scheduler task;
* :class:`AdmissionController` — bounded queue and slot budgets, typed
  :class:`AdmissionError` rejections (fabric-taxonomy citizens that
  are deliberately neither transient nor persistent);
* :class:`FairShareSlicer` — deficit round robin over priority
  classes, preempting only at quiescence points via the paper's own
  suspend/checkpoint machinery;
* :class:`Fleet` — warm-start-aware placement, migration-based
  rebalancing, cohort formation for the batched backend, and the PR 6
  quarantine-and-restore path under every scheduling turn.

Everything here is standard library only (asyncio); with NumPy absent
the fleet simply never vectorizes and every tenant runs scalar.
"""

from .admission import (
    AdmissionController, AdmissionError, QueueFullError, TenantBudgetError,
    UnknownDigestError,
)
from .fleet import Fleet, FleetConfig
from .frontend import ServeConfig, ServeFrontend
from .handle import (
    IllegalTransition, TenantHandle, TenantResult, TenantState,
)
from .slicer import DEFAULT_PRIORITIES, FairShareSlicer

__all__ = [
    "AdmissionController", "AdmissionError",
    "QueueFullError", "TenantBudgetError", "UnknownDigestError",
    "Fleet", "FleetConfig",
    "ServeConfig", "ServeFrontend",
    "IllegalTransition", "TenantHandle", "TenantResult", "TenantState",
    "DEFAULT_PRIORITIES", "FairShareSlicer",
]
