"""The Synergy runtime instance: one virtualized Verilog application.

A :class:`Runtime` is the analogue of one Cascade REPL session: it owns
a program (compiled through the §3 pipeline), a :class:`TaskHost`
exposing OS-managed resources, and the current engine.  Programs start
in software and transition to hardware once a backend placement is
ready, can be suspended to a portable :class:`Context`, resumed on a
different runtime/backend (workload migration, §3.5), and profiled for
virtual clock frequency.

Simulated wall time (``sim_time``) advances with every operation using
the cost models of the engines, backends, and transition latencies, so
experiment harnesses can plot paper-style time series without running
billions of interpreted ticks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from math import inf
from typing import Dict, List, Optional, Tuple

from ..compiler.service import CompilerService, default_service
from ..core.pipeline import CompiledProgram
from ..interp.systasks import TaskHost
from ..interp.vfs import VirtualFS
from .backends import DirectBoardBackend, Placement
from .engine import Engine, HardwareEngine, SoftwareEngine, TickStats  # noqa: F401
from .jit import TransitionCosts

#: Interpreted statements a compile is worth per canonical character.
#: Measured over cold_compile's 116 designs on 2 vCPUs: opt + codegen
#: cost a median 4.4 ms per kchar, an interpreted statement (boot and 8
#: ticks on a fresh plan) 6.0 us, so the ratio reads 0.74.  It stays at
#: 0.45: at 0.74 more served tenants rent longer, and serve_burst's
#: throughput and p50 latency came out worse in alternated pairs.
STMTS_PER_CHAR = 0.45


def compile_worth(program: CompiledProgram) -> int:
    """The interpreted statements *program*'s compile is worth."""
    return int(STMTS_PER_CHAR * len(program.source))


@dataclass
class Context:
    """A suspended program: everything needed to resume anywhere."""

    program_source: str
    state: Dict[str, object]
    vfs_state: Dict[str, object]
    vfs_files: Dict[str, bytes]
    ticks: int
    display_log: List[str] = field(default_factory=list)
    #: ``$time`` at the suspend point (a snapshot pickled before this
    #: field existed loads through the class default)
    time: int = 0
    #: ``$write`` text no ``$display`` has ended yet (defaulted, as
    #: ``time`` is, for a snapshot pickled before it travelled)
    write_buffer: str = ""


@dataclass
class TelemetryEvent:
    time: float
    tag: str
    value: float = 0.0


@dataclass
class SliceReport:
    """What one bounded scheduling turn actually consumed.

    ``tick`` returns only the *last* engine dispatch's stats; a
    time-slicer needs the cumulative account of its whole turn to
    charge the tenant's deficit, so :meth:`Runtime.tick_chunk` sums as
    it goes.
    """

    ticks: int = 0
    seconds: float = 0.0
    traps: int = 0
    finished: bool = False
    #: the engine proved quiescent at the end of the turn: further
    #: ticks execute nothing, so the scheduler may fast-forward or
    #: deprioritize this tenant instead of dispatching no-op turns
    idle: bool = False


class RuntimeError_(Exception):
    """Raised on runtime protocol misuse."""


class Runtime:
    """One virtualized application instance."""

    def __init__(self, source, name: Optional[str] = None,
                 vfs: Optional[VirtualFS] = None, top: Optional[str] = None,
                 clock: str = "clock", echo: bool = False,
                 costs: Optional[TransitionCosts] = None,
                 sim_backend: Optional[str] = None,
                 compiler: Optional[CompilerService] = None,
                 quiet_boot: bool = False,
                 opt_level: Optional[int] = None):
        self.compiler = compiler if compiler is not None else default_service()
        self.program: CompiledProgram = (
            source if isinstance(source, CompiledProgram)
            else self.compiler.compile_program(source, top)
        )
        self.name = name or self.program.name
        self.clock = clock
        self.sim_backend = sim_backend
        #: mid-end optimization level for this instance's software
        #: engines (None = ambient REPRO_OPT_LEVEL)
        self.opt_level = opt_level
        self.host = TaskHost(vfs if vfs is not None else VirtualFS(), echo=echo)
        # quiet_boot: this instance exists to receive a restored context
        # (a migration destination, §3.5) — initial blocks still run to
        # build a consistent boot state, but their side effects are not
        # replayed into the host: the suspended program already emitted
        # them on its original instance.
        # unchosen backend, cold codegen: rent the interpreter (_rent_or_buy)
        cold = (sim_backend is None and not os.environ.get("REPRO_SIM_BACKEND")
                and not self._codegen_warm())
        self.engine: Engine = self._software_engine(quiet_boot,
                                                    "interp" if cold else None)
        self._rented: Optional[Engine] = self.engine if cold else None
        self.costs = costs or TransitionCosts()

        self.sim_time = 0.0
        self.ticks = 0
        #: dispatches whose engine retired a quiescent span unexecuted
        self.idle_fastforwards = 0
        self.traps_total = 0
        self.trap_seconds_total = 0.0
        self.telemetry: List[TelemetryEvent] = []

        self.backend: Optional[DirectBoardBackend] = None
        self.placement: Optional[Placement] = None
        self._hw_ready_at: Optional[float] = None
        self.saved_context: Optional[Context] = None
        self.pending_restore: Optional[Context] = None

    # -- properties ----------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.host.finished

    @property
    def mode(self) -> str:
        return self.engine.kind

    def log(self, tag: str, value: float = 0.0) -> None:
        self.telemetry.append(TelemetryEvent(self.sim_time, tag, value))

    # -- engines ------------------------------------------------------------------

    def _software_engine(self, quiet: bool, backend=None) -> SoftwareEngine:
        return SoftwareEngine(self.program, self.host,
                              backend=backend or self.sim_backend,
                              compiler=self.compiler, quiet_init=quiet,
                              opt_level=self.opt_level)

    def _codegen_warm(self) -> bool:
        return self.compiler.warmth(self.program.digest,
                                    self.opt_level)["codegen"]

    def _rent_or_buy(self, horizon: Optional[int]) -> None:
        """Tier up unless nobody bought the codegen and the statements
        interpreted so far plus *horizon* ticks at the tick bound stay
        within what the compile is worth.  No clock is read, so a run
        repeats exactly."""
        rented = self._rented
        if self.engine is not rented:  # it left for a board or a lane
            self._rented = None
            return
        spent = rented.sim.stmts_executed
        bound = self.program.tick_bound[0]
        if (horizon is None or bound is None
                or spent + bound * horizon > compile_worth(self.program)
                or self._codegen_warm()):
            self._rented = None
            self.adopt_software(rented.snapshot(), rented.time)
            self.log("tier_up", spent)

    def adopt_software(self, state: Dict[str, object], time: int) -> None:
        """Swap in a scalar software engine holding *state* at ``$time``
        *time* — where a program lands when it leaves fabric or a lane.

        The replacement boots quietly (its initial blocks ran when this
        instance started; replaying their side effects would violate
        transparency) and restores through ``restore_state`` — edge
        re-detection suppressed, so state captured with a trigger still
        high does not replay that edge.  A software engine leaving hands
        on the waveform it dumps, rebound to the new store.
        """
        engine = self._software_engine(quiet=True)
        engine.sim.restore_state({"store": state,
                                  "vfs": self.host.vfs.snapshot(),
                                  "time": time})
        engine.sim.step()
        old = getattr(self.engine, "sim", None)  # a software engine's
        if old is not None and old._vcd is not None:
            old._vcd.rebind(engine.sim.store)
            engine.sim._vcd, old._vcd = old._vcd, None
        self.engine = engine

    # -- hardware attachment ----------------------------------------------------

    def attach(self, backend: DirectBoardBackend) -> Placement:
        """Request hardware compilation on *backend*.

        Compilation is scheduled asynchronously (§4.2): the program keeps
        executing in software and transitions once ``sim_time`` passes
        the modeled compile+reconfigure latency (zero-ish on cache hit).
        """
        placement = backend.place(self.program)  # a refusal attaches nothing
        self.backend = backend
        self.placement = placement
        self._hw_ready_at = (
            self.sim_time + placement.compile_seconds + placement.reconfig_seconds
        )
        self.log("compile_requested", placement.compile_seconds)
        return placement

    def _maybe_transition_to_hardware(self) -> None:
        if (self.backend is None or self.placement is None
                or self.engine.kind == "hardware"
                or self._hw_ready_at is None
                or self.sim_time < self._hw_ready_at):
            return
        self.transition_to_hardware()

    def transition_to_hardware(self) -> None:
        """Move the engine from software onto the attached backend."""
        if self.backend is None or self.placement is None:
            raise RuntimeError_("no backend attached")
        state = self.engine.snapshot()
        channel = self.backend.channel(self.placement.engine_id)
        engine = HardwareEngine(
            self.program, self.host, channel, self.placement.clock_hz
        )
        engine.restore(state)
        engine.time = self.engine.time
        transfer = self.program.state.total_bits / self.costs.state_bandwidth_bits_s
        self.sim_time += transfer
        self.engine = engine
        self.log("to_hardware")

    def transition_to_software(self) -> None:
        """Evacuate state from hardware back into a software engine."""
        self.adopt_software(self.engine.snapshot(), self.engine.time)
        transfer = self.program.state.total_bits / self.costs.state_bandwidth_bits_s
        self.sim_time += transfer
        self.log("to_software")

    # -- execution ------------------------------------------------------------------

    def tick(self, cycles: int = 1,
             horizon: Optional[int] = None) -> TickStats:
        """Drive *cycles* virtual clock ticks; returns the last stats.

        Each :meth:`Engine.run_chunk` dispatch retires as much of the
        request as it can and comes back exactly where this layer has
        work between logical ticks — ``$finish``, a control trap, the
        placement becoming ready — so :meth:`_post_tick` fires on the
        tick it would under single-stepping.  *horizon* is the ticks the
        caller still expects to ask for, this call's included, or
        ``None``; a renter may tier up before a dispatch
        (:meth:`_rent_or_buy`).
        """
        stats = TickStats()
        remaining = cycles
        while remaining > 0 and not self.finished:
            if self._rented is not None:
                self._rent_or_buy(horizon)
            ready = self._hw_ready_at
            stats = self.engine.run_chunk(self.clock, remaining, self.sim_time,
                                          inf if ready is None else ready)
            self.credit(stats)
            remaining -= stats.ticks
            if horizon is not None:
                horizon -= stats.ticks
        return stats

    def credit(self, stats: TickStats) -> None:
        """Enter one engine dispatch in this instance's account, then do
        the work that waits between logical ticks.  Whoever steps the
        engine calls this before anyone can look: :meth:`tick` for an
        engine of its own, ``CohortEngine.advance`` for a lane."""
        self.sim_time = stats.now
        self.ticks += stats.ticks
        self.traps_total += stats.traps
        self.trap_seconds_total += stats.trap_seconds
        if stats.idle_ticks:
            self.idle_fastforwards += 1
        self._post_tick()

    def tick_chunk(self, budget: int,
                   horizon: Optional[int] = None) -> SliceReport:
        """Drive at most *budget* ticks; returns the cumulative account.
        *horizon* is :meth:`tick`'s.

        The serving layer's non-blocking stepping primitive: one
        bounded synchronous chunk per scheduling turn, always returning
        at a quiescence point (between logical ticks) so the caller can
        suspend, checkpoint, migrate, or re-queue the tenant without
        touching mid-tick state.  On a hardware engine the chunk still
        runs as one on-device batch (§4.1); cohort lanes are stepped
        together, by ``CohortEngine.advance``.
        """
        t0, n0, traps0 = self.sim_time, self.ticks, self.traps_total
        self.tick(budget, horizon)
        return SliceReport(
            ticks=self.ticks - n0,
            seconds=self.sim_time - t0,
            traps=self.traps_total - traps0,
            finished=self.finished,
            idle=self.is_idle(),
        )

    def is_idle(self) -> bool:
        """True when further ticks provably execute nothing.

        Delegates to the engine (only the event-scheduled software
        backend can prove quiescence).  A finished program is not
        *idle* — it is done, and schedulers treat those differently
        (retire vs fast-forward).  Note the engine's proof already
        counts pending NBA shadow-queue entries as activity: a tenant
        whose update queue drains next tick must not be reported idle.
        """
        return not self.finished and self.engine.is_idle()

    def _post_tick(self) -> None:
        # Unsynthesizable control traps are handled between logical
        # ticks, when the program is in a consistent state (§2.1).
        if self.host.save_requested:
            self.host.save_requested = False
            self._do_save()
        if self.host.restart_requested:
            self.host.restart_requested = False
            self._do_restart()
        self.host.yield_asserted = False
        self._maybe_transition_to_hardware()

    def _do_save(self) -> None:
        self.saved_context = self.save_context()
        self.sim_time += self.costs.save_seconds(self.program.state.total_bits)
        self.log("save", self.program.state.total_bits)

    def _do_restart(self) -> None:
        context = self.pending_restore or self.saved_context
        if context is None:
            raise RuntimeError_("$restart with no saved context")
        self.resume(context)
        self.log("restart", self.program.state.total_bits)

    # -- suspend / resume / migrate ----------------------------------------------------

    def save_context(self) -> Context:
        """Capture a portable execution context (suspend)."""
        return Context(
            program_source=self.program.source,
            state=self.engine.snapshot(),
            vfs_state=self.host.vfs.snapshot(),
            vfs_files=dict(self.host.vfs.files),
            ticks=self.ticks,
            display_log=list(self.host.display_log),
            time=self.engine.time,
            write_buffer=self.host.write_buffer,
        )

    def restore_context(self, context: Context) -> None:
        """Restore a context captured by :meth:`save_context` (resume).

        Clears any ``$finish`` state: a restored context is mid-execution
        by definition, whatever this instance did before the restore.
        """
        self.host.vfs.files.update(context.vfs_files)
        self.host.vfs.restore(context.vfs_state)
        self.host.finished = False
        self.host.finish_code = 0
        self.host.write_buffer = context.write_buffer
        self.engine.restore(context.state)
        self.engine.time = context.time
        self.ticks = context.ticks
        self.log("resume")

    def resume(self, context: Context) -> float:
        """Restore *context* and charge the §6.1 restore latency
        (reconfiguration included when on fabric); returns it."""
        reconfig = (
            self.backend.device.reconfig_seconds if self.backend is not None else 0.0
        )
        self.restore_context(context)
        cost = self.costs.restore_seconds(self.program.state.total_bits,
                                          reconfig)
        self.sim_time += cost
        return cost

    # -- profiling ------------------------------------------------------------------------

    def measure_rate(self, cycles: int = 64) -> float:
        """Measured virtual clock frequency (ticks per simulated second).

        This is the paper's profiling interface: Synergy tracks the
        virtual application frequency and logs it (§A.5).
        """
        t0, n0 = self.sim_time, self.ticks
        self.tick(cycles)
        dt = self.sim_time - t0
        if dt <= 0:
            return 0.0
        return (self.ticks - n0) / dt
