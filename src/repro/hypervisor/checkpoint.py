"""Checkpoint-at-quiescence: a tenant's newest suspended context.

The hypervisor already detects quiescence (between logical ticks, or at
``$yield``, §5.3) — that is exactly when a tenant's state is
portable.  The supervisor captures a :class:`~repro.runtime.runtime.Context`
there every *checkpoint_every* ticks and keeps the newest one on the
tenant's own record (``Tenant.checkpoint``); it goes when the tenant
does.  Each checkpoint records the tenant program's software digest
(``CompiledProgram.digest``) — the key the journal's ``admit`` record
and ``Fleet.readmit`` use — so a snapshot names its program the way
every other durable record does.  No restore path reads it (a restore
recompiles the context's own ``program_source``, a store hit), and
taking a checkpoint never touches the hardware half of a program.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..runtime.runtime import Context


@dataclass
class Checkpoint:
    """One tenant context captured at a quiescence point."""

    digest: str            #: software digest of the tenant program
    ticks: int             #: logical time of the quiescence point
    sim_time: float        #: modeled wall time at capture
    context: Context
