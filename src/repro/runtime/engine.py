"""Engines: the unit of placement in the distributed-system IR (§2.1).

A sub-program's state is represented by an *engine*.  Sub-programs start
as low-performance software-simulated engines and are replaced over time
by high-performance FPGA-resident engines; Cascade/Synergy can relocate
them because both kinds speak the same ABI.

* :class:`SoftwareEngine` — interprets the *original* flattened module;
  unsynthesizable tasks execute natively against the instance's
  :class:`TaskHost`.
* :class:`HardwareEngine` — a proxy: the transformed module executes on
  a (simulated) board reached through an :class:`AbiChannel`; traps are
  serviced by a :class:`TrapServicer`.  Its implementation of the ABI is
  simply to forward requests across the channel (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Dict, Optional

from ..compiler.service import CompilerService, default_service
from ..core.pipeline import CompiledProgram
from ..interp.simulator import Simulator, resolve_backend
from ..interp.systasks import TaskHost
from .abi import (
    AbiChannel, BatchReply, Cont, Evaluate, Get, Restore, RunTicks, Set,
    Snapshot,
)
from .traps import TrapServicer

#: Modeled cost of one interpreted Verilog statement in the software
#: engine.  Puts medium programs at tens-of-kHz virtual clocks, matching
#: Cascade's reported software-simulation regime.
SW_SECONDS_PER_STMT = 2e-6
#: Fixed per-tick software scheduling overhead.
SW_SECONDS_PER_TICK = 1e-5


@dataclass
class TickStats:
    """Cost accounting for one :meth:`Engine.run_chunk` dispatch."""

    seconds: float = 0.0
    native_cycles: int = 0
    traps: int = 0
    ticks: int = 1
    #: ABI time spent servicing traps (argument fetch, result set,
    #: continuation).  Batch-control messages amortize to nothing over
    #: long batches (§4.1), so steady-state throughput models use
    #: ``native_cycles/clock + trap_seconds`` only.
    trap_seconds: float = 0.0
    #: the caller's modeled clock after the last retired tick
    now: float = 0.0
    #: ticks of ``ticks`` the quiescence proof retired unexecuted
    idle_ticks: int = 0


class Engine:
    """Common engine interface (a subset of the Cascade ABI)."""

    kind = "abstract"
    host: TaskHost
    #: ``$time``: logical ticks this program has retired, wherever it
    #: ran them.  Part of what a move carries (``Context.time``), so
    #: every engine kind can say it and be told it.
    time = 0

    def get(self, name: str) -> int:
        raise NotImplementedError

    def set(self, name: str, value: int) -> None:
        raise NotImplementedError

    def run_chunk(self, clock: str, budget: int, now: float = 0.0,
                  until: float = inf) -> TickStats:
        """Retire up to *budget* ticks of *clock*: the one way to step.

        Returns early only after the tick that sets ``host.finished``,
        raises ``$save``/``$restart``, or takes the modeled clock to
        *until*; each tick's cost is added to *now* in turn and comes
        back as ``stats.now`` (docs/ARCHITECTURE.md, "Stepping", has the
        whole contract).  This default single-steps :meth:`_step` — all
        the reference interpreter, the baseline configuration and a
        second clock domain need.
        """
        host = self.host
        start = now
        ticks = 0
        while ticks < budget and not host.finished:
            now += self._step(clock)
            ticks += 1
            if host.save_requested or host.restart_requested or now >= until:
                break
        return TickStats(seconds=now - start, ticks=ticks, now=now)

    def _step(self, clock: str) -> float:
        """Drive one tick; returns its modeled seconds."""
        raise NotImplementedError

    def is_idle(self) -> bool:
        """True when further ticks provably execute nothing.

        Only the event-scheduled software backend can prove this;
        everything else reports False and keeps dispatching normally.
        """
        return False

    def snapshot(self, names=None) -> Dict[str, object]:
        raise NotImplementedError

    def restore(self, state: Dict[str, object]) -> None:
        raise NotImplementedError


class SoftwareEngine(Engine):
    """Simulates the original program; the starting point of every app.

    *backend* selects the simulation strategy (``"compiled"`` closures
    by default, ``"interp"`` for the reference tree-walker) through the
    :func:`~repro.interp.simulator.Simulator` factory.  *compiler*
    supplies the shared codegen artifact: N engines of one program
    built against one service compile its closures exactly once.
    """

    kind = "software"

    def __init__(self, program: CompiledProgram, host: TaskHost,
                 backend: Optional[str] = None,
                 compiler: Optional[CompilerService] = None,
                 quiet_init: bool = False,
                 opt_level: Optional[int] = None):
        self.program = program
        self.host = host
        self.backend = backend
        code = None
        resolved = resolve_backend(backend)
        if resolved in ("compiled", "batched"):
            # The artifact is keyed by (digest, pipeline fingerprint):
            # engines of one program at one optimization level share
            # one optimized code object, across instances and tenants.
            # The batched backend licenses (or falls back) against the
            # same scalar code artifact.
            service = compiler if compiler is not None else default_service()
            code = service.codegen(program.flat, env=program.env,
                                   digest=program.digest,
                                   opt_level=opt_level)
        # quiet_init: this engine exists only to be restored into (e.g.
        # evacuation from hardware, §3.5) — boot it against a throwaway
        # host so initial-block side effects ($display output, VFS
        # traffic) are not replayed into the instance's real host, then
        # attach the real host (all task dispatch reads sim.host at
        # call time, on both simulation backends).
        boot_host = TaskHost() if quiet_init else host
        self.sim = Simulator(program.flat, boot_host, env=program.env,
                             backend=backend, code=code)
        if quiet_init:
            self.sim.host = host

    @property
    def time(self) -> int:
        return self.sim.time

    @time.setter
    def time(self, value: int) -> None:
        self.sim.time = value

    def get(self, name: str) -> int:
        return self.sim.get(name)

    def set(self, name: str, value: int) -> None:
        self.sim.set(name, value)
        self.sim.step()

    def _step(self, clock: str) -> float:
        sim = self.sim
        before = sim.stmts_executed
        sim.tick(clock)
        return (SW_SECONDS_PER_TICK
                + (sim.stmts_executed - before) * SW_SECONDS_PER_STMT)

    def run_chunk(self, clock: str, budget: int, now: float = 0.0,
                  until: float = inf) -> TickStats:
        """The event plan retires the whole chunk inside the simulator
        (quiescent spans unexecuted); anything else single-steps."""
        metered = getattr(self.sim, "tick_metered", None)
        done = None if metered is None else metered(
            clock, budget, now, until,
            SW_SECONDS_PER_TICK, SW_SECONDS_PER_STMT)
        if done is None:
            return super().run_chunk(clock, budget, now, until)
        ticks, end, idle = done
        return TickStats(seconds=end - now, ticks=ticks, now=end,
                         idle_ticks=idle)

    def is_idle(self) -> bool:
        probe = getattr(self.sim, "is_idle", None)
        return bool(probe()) if probe is not None else False

    def snapshot(self, names=None) -> Dict[str, object]:
        return self.sim.store.snapshot(names)

    def restore(self, state: Dict[str, object]) -> None:
        self.sim.store.restore(state)
        self.sim.step()


class HardwareEngine(Engine):
    """Proxy for a sub-program resident on (simulated) FPGA fabric."""

    kind = "hardware"

    def __init__(self, program: CompiledProgram, host: TaskHost,
                 channel: AbiChannel, clock_hz: float,
                 servicer: Optional[TrapServicer] = None):
        self.program = program
        self.host = host
        self.channel = channel
        self.clock_hz = clock_hz
        #: advanced as ``run_chunk`` retires ticks, so a ``$time`` trap
        #: inside a batch reads the tick it fires in
        self.time = 0
        self.servicer = servicer or TrapServicer(host, program.env,
                                                 lambda: self.time)

    def get(self, name: str) -> int:
        return self.channel.send(Get(name))

    def set(self, name: str, value: int) -> None:
        self.channel.send(Set(name, value))

    def run_chunk(self, clock: str, budget: int, now: float = 0.0,
                  until: float = inf) -> TickStats:
        """Drive up to *budget* virtual ticks with one ABI request.

        The device generates the virtual clock itself (§4.1's batch
        optimization); control returns early on a trap, a ``$finish``,
        or a ``$save``/``$restart``/``$yield`` that the runtime must
        handle between logical ticks.  The batch is costed as a whole,
        so *now* advances once; *until* cannot apply on fabric.
        """
        stats = TickStats(ticks=0)
        start_seconds = self.channel.stats.seconds
        remaining = budget
        while remaining > 0 and not self.host.finished:
            reply: BatchReply = self.channel.send(RunTicks(clock, remaining))
            stats.native_cycles += reply.native_cycles
            stats.ticks += reply.ticks_done
            self.time += reply.ticks_done
            remaining -= reply.ticks_done
            if reply.status == "trap":
                # Finish the in-flight tick with per-trap servicing.
                self._service_traps(reply, stats)
                if not self.host.finished:
                    self.channel.send(Set(clock, 0))
                    tail = self.channel.send(Evaluate())
                    stats.native_cycles += tail.native_cycles
                    self._service_traps(tail, stats)
                stats.ticks += 1
                self.time += 1
                remaining -= 1
                if (self.host.save_requested or self.host.restart_requested
                        or self.host.yield_asserted):
                    break  # control traps are handled between ticks
        stats.seconds = (
            stats.native_cycles / self.clock_hz
            + (self.channel.stats.seconds - start_seconds)
        )
        stats.now = now + stats.seconds
        return stats

    def _service_traps(self, reply, stats: TickStats) -> None:
        """Service *reply*'s trap, continue, and service what that
        raises — until the evaluation completes or a serviced
        ``$finish`` ends the program (no continuation is sent then)."""
        while reply.status == "trap" and not self.host.finished:
            site = self.program.transform.tasks.get(reply.task_id)
            if site is None:
                raise KeyError(f"unknown task {reply.task_id}")
            trap_t0 = self.channel.stats.seconds
            self.servicer.service(self.channel, site)
            stats.traps += 1
            if not self.host.finished:
                reply = self.channel.send(Cont())
                stats.native_cycles += reply.native_cycles
            stats.trap_seconds += self.channel.stats.seconds - trap_t0

    def snapshot(self, names=None) -> Dict[str, object]:
        names_tuple = tuple(names) if names is not None else None
        return self.channel.send(Snapshot(names_tuple))

    def restore(self, state: Dict[str, object]) -> None:
        self.channel.send(Restore(state))
