"""Workload-migration orchestration (paper §3.5, §6.1).

With ``$save``/``$restart`` materialized as runtime traps, migration is
mechanical: read a program's state out through ``get`` requests, move
the resulting context (state + file cursors + logical time) to another
machine, and replay it through ``set`` requests.  These helpers wrap
that flow with the latency accounting the Figure 9/10 time-series need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..runtime.runtime import Context, Runtime


@dataclass
class MigrationReport:
    """What one suspend→transfer→resume cycle cost."""

    source: str
    destination: str
    state_bits: int
    suspend_seconds: float
    resume_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.suspend_seconds + self.resume_seconds


def suspend(runtime: Runtime) -> Context:
    """Suspend between logical ticks; charges the §6.1 save latency."""
    context = runtime.save_context()
    cost = runtime.costs.save_seconds(runtime.program.state.total_bits)
    runtime.sim_time += cost
    runtime.log("suspend", runtime.program.state.total_bits)
    return context


def resume(runtime: Runtime, context: Context) -> float:
    """Resume a context on *runtime*; returns the modeled latency.

    A destination built for this purpose should be constructed with
    ``Runtime(..., quiet_boot=True)`` so its initial-block side effects
    (boot ``$display`` output, file IO) are not replayed before the
    context overwrites its state — the suspended program already
    emitted them on the instance it is migrating from.
    """
    return runtime.resume(context)


def rehydrate(context: Context, name: str, clock: str = "clock",
              compiler=None, sim_backend: Optional[str] = None,
              start_time: float = 0.0) -> Runtime:
    """Build a fresh runtime hosting *context*, with exactly-once IO.

    This is the disaster-recovery half of migration: the source runtime
    is gone (its board died), so the destination is reconstructed from
    the checkpoint alone — ``quiet_boot`` suppresses initial-block side
    effects, and the host's display log is seeded from the checkpoint so
    output emitted before the crash is neither lost nor re-emitted when
    the supervisor replays the ticks since.
    """
    runtime = Runtime(context.program_source, name=name, clock=clock,
                      compiler=compiler, sim_backend=sim_backend,
                      quiet_boot=True)
    runtime.sim_time = start_time
    runtime.restore_context(context)
    runtime.host.display_log[:] = list(context.display_log)
    return runtime


def migrate(source: Runtime, destination: Runtime) -> MigrationReport:
    """Move a running program between runtimes (and hence devices)."""
    bits = source.program.state.total_bits
    t0 = source.sim_time
    context = suspend(source)
    suspend_cost = source.sim_time - t0
    resume_cost = resume(destination, context)
    return MigrationReport(
        source=source.name,
        destination=destination.name,
        state_bits=bits,
        suspend_seconds=suspend_cost,
        resume_seconds=resume_cost,
    )
