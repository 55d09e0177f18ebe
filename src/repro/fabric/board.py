"""The simulated reconfigurable board.

This is the hardware substitute (see DESIGN.md): a board holds one
programmed design consisting of engine slots — one per sub-program the
hypervisor placed — and *executes the transformed Verilog* of each slot
with cycle accounting against the device's clock.

The execution protocol is the hardware half of the Cascade ABI:

* ``set_var``/``get_var`` — data-plane access to program variables
  (over Avalon-MM on the DE10, PCIe on F1; latency modeled);
* ``evaluate`` — drive the native clock until the slot's state machine
  raises ``__done`` or traps with a nonzero ``__task``;
* ``cont`` — pulse ``__abi = CONT`` for one native cycle after the
  runtime services a trap, then keep driving.

Native cycles are counted per slot; dividing by the board clock gives
the simulated wall time used by the performance model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.control import ABI_CONT, ABI_NONE, ABI_PORT, NATIVE_CLOCK
from ..core.pipeline import CompiledProgram
from ..interp.simulator import Simulator, resolve_backend
from ..interp.systasks import TaskHost
from ..verilog import ast_nodes as ast
from .bitstream import Bitstream
from .device import Device
from .errors import BoardDeadError, BoardError  # noqa: F401  (canonical home moved)
from .faults import FaultPlan, default_fault_plan

_MAX_FREERUN_CYCLES = 1_000_000


@dataclass
class EvalOutcome:
    """Result of driving one slot: finished, or trapped on a task."""

    status: str  # "done" | "trap"
    task_id: int = 0
    native_cycles: int = 0


@dataclass
class BatchOutcome:
    """Result of a batched run: ticks completed before stop/trap."""

    status: str  # "done" | "trap"
    ticks_done: int = 0
    task_id: int = 0
    native_cycles_total: int = 0


@dataclass
class EngineSlot:
    """One sub-program resident on the fabric."""

    engine_id: int
    program: CompiledProgram
    sim: Simulator
    native_cycles: int = 0
    abi_ops: int = 0

    @property
    def done(self) -> bool:
        return self.sim.get("__done") != 0

    @property
    def pending_task(self) -> int:
        return self.sim.get("__task")


class SimulatedBoard:
    """A reconfigurable device executing transformed sub-programs."""

    def __init__(self, device: Device, sim_backend: Optional[str] = None,
                 compiler=None, opt_level: Optional[int] = None,
                 faults: Optional[FaultPlan] = None):
        self.device = device
        self.sim_backend = sim_backend
        #: mid-end optimization level for slot codegen (None = ambient
        #: REPRO_OPT_LEVEL); tenants on one board share one level so
        #: their artifacts co-intern under one pipeline fingerprint
        self.opt_level = opt_level
        #: Optional :class:`~repro.compiler.CompilerService`: slots of
        #: programs with the same transformed text then share one
        #: codegen artifact — reprogramming epochs and same-workload
        #: tenants stop paying per-slot compilation.
        self.compiler = compiler
        #: Fault-injection schedule; defaults to the ambient
        #: ``REPRO_FAULT_SPEC`` plan (``None`` when chaos is off).
        self.faults = faults if faults is not None else default_fault_plan()
        #: A dead board rejects every operation with
        #: :class:`~repro.fabric.errors.BoardDeadError`; all slot state
        #: is lost (tenants recover from checkpoints, not the board).
        self.dead = False
        self.bitstream: Optional[Bitstream] = None
        self.clock_hz: float = device.max_clock_hz
        self.slots: Dict[int, EngineSlot] = {}
        self.reconfigurations = 0
        self.reconfig_seconds_total = 0.0

    # -- health ----------------------------------------------------------------

    def kill(self) -> None:
        """Model whole-board death: drop all slot state, reject all ops."""
        self.dead = True
        self.slots.clear()
        self.bitstream = None

    def _check_alive(self) -> None:
        if self.dead:
            raise BoardDeadError(f"board {self.device.name} is dead")

    # -- (re)programming -------------------------------------------------------

    def _slot_code(self, program: CompiledProgram):
        """Shared (or slot-local) codegen for one slot's transformed
        module; ``None`` only for the interpreter backend.

        Trap servicing reads argument expressions and writes results
        over the ABI by *name* — accesses the transformed module's own
        text never shows — so the task table's support set is pinned
        as mid-end optimization roots.
        """
        if resolve_backend(self.sim_backend) != "compiled":
            return None
        keep = program.transform.external_names()
        if self.compiler is not None:
            return self.compiler.codegen(program.transform.module,
                                         env=program.hardware_env,
                                         digest=program.hardware_digest,
                                         opt_level=self.opt_level,
                                         keep=keep)
        from ..interp.compile import CompiledModuleCode

        return CompiledModuleCode(program.transform.module,
                                  env=program.hardware_env,
                                  opt_level=self.opt_level, keep=keep)

    def program(self, bitstream: Bitstream,
                engines: Dict[int, CompiledProgram]) -> None:
        """Load a design; destroys all current slot state (hence the
        hypervisor's state-safe handshake before calling this)."""
        self._check_alive()
        if self.faults is not None and self.faults.active:
            # Injected load failures fire *before* the current design is
            # torn down, so a failed attempt is safely retryable.
            self.faults.program_op(self)
        self.slots.clear()
        self.bitstream = bitstream
        self.clock_hz = bitstream.clock_hz
        self.reconfigurations += 1
        self.reconfig_seconds_total += self.device.reconfig_seconds
        for engine_id, program in engines.items():
            # Each slot executes the transformed module; unsynthesizable
            # behaviour only ever reaches hardware as task traps, so the
            # slot's TaskHost must stay silent.
            sim = Simulator(program.transform.module, TaskHost(),
                            backend=self.sim_backend,
                            code=self._slot_code(program))
            self.slots[engine_id] = EngineSlot(engine_id, program, sim)

    def _slot(self, engine_id: int) -> EngineSlot:
        self._check_alive()
        try:
            return self.slots[engine_id]
        except KeyError:
            raise BoardError(f"no engine slot {engine_id}") from None

    def _control_fault(self, op: str) -> None:
        """Fault-injection point for control-plane ops.

        Fires *before* any slot state is mutated, so a supervised retry
        replays the operation exactly."""
        if self.faults is not None and self.faults.active:
            self.faults.control_op(self, op)

    # -- data plane ----------------------------------------------------------------

    def set_var(self, engine_id: int, name: str, value: int) -> None:
        slot = self._slot(engine_id)
        slot.abi_ops += 1
        slot.sim.set(name, value)
        # A set message lands between native clock cycles: combinational
        # logic (edge-detection wires included) settles before the next
        # edge samples it.
        slot.sim.step()

    def get_var(self, engine_id: int, name: str) -> int:
        slot = self._slot(engine_id)
        slot.abi_ops += 1
        return slot.sim.get(name)

    def read_expr(self, engine_id: int, expr: ast.Expr) -> int:
        """Evaluate a (synthesizable) expression against slot state.

        Used by the runtime to fetch trap arguments — semantically a
        bundle of ``get`` requests.
        """
        slot = self._slot(engine_id)
        slot.abi_ops += 1
        return slot.sim.evaluator.eval(expr)

    def write_lvalue(self, engine_id: int, lhs: ast.Expr, value: int) -> None:
        """Write a trap result back into slot state (a ``set``)."""
        slot = self._slot(engine_id)
        slot.abi_ops += 1
        slot.sim.evaluator.assign(lhs, value)
        slot.sim.step()

    def snapshot(self, engine_id: int, names=None) -> Dict[str, object]:
        """Bulk ``get``: capture slot program state.

        A narrowed capture set (*names*) always gets the transform's
        ``__``-prefixed bookkeeping added back: the control state,
        the NBA shadow registers and the pending-update queues
        (``__wqa/__wqd/__wn``) are what make a snapshot taken
        *mid-schedule* (between a trap and its continuation) replay
        identically — they are state, not volatile scratch, even
        though no source-level capture set ever names them.
        """
        slot = self._slot(engine_id)
        if names is not None:
            env = slot.sim.store.env
            book = [n for n in env.signals if n.startswith("__")]
            names = list(names) + [n for n in book if n not in set(names)]
        snap = slot.sim.store.snapshot(names)
        slot.abi_ops += max(1, len(snap))
        return snap

    def restore(self, engine_id: int, snapshot: Dict[str, object]) -> None:
        """Bulk ``set``: restore slot program state."""
        slot = self._slot(engine_id)
        slot.abi_ops += max(1, len(snapshot))
        slot.sim.store.restore(snapshot)
        slot.sim.step()

    # -- control plane ------------------------------------------------------------------

    def _drive(self, slot: EngineSlot, budget: int = _MAX_FREERUN_CYCLES) -> EvalOutcome:
        cycles = 0
        while True:
            slot.sim.tick(NATIVE_CLOCK)
            cycles += 1
            slot.native_cycles += 1
            task = slot.pending_task
            if task:
                return EvalOutcome("trap", task, cycles)
            if slot.done:
                return EvalOutcome("done", 0, cycles)
            if cycles >= budget:
                raise BoardError(
                    f"engine {slot.engine_id} exceeded the free-run budget"
                )

    def evaluate(self, engine_id: int) -> EvalOutcome:
        """Drive the native clock until the slot finishes or traps."""
        slot = self._slot(engine_id)
        if slot.pending_task:
            raise BoardError("evaluate with a pending trap; call cont()")
        self._control_fault("evaluate")
        return self._drive(slot)

    def cont(self, engine_id: int) -> EvalOutcome:
        """Grant continuation after a serviced trap and keep driving."""
        slot = self._slot(engine_id)
        self._control_fault("cont")
        slot.sim.set(ABI_PORT, ABI_CONT)
        slot.sim.step()  # let the __cont wire settle before the edge
        slot.sim.tick(NATIVE_CLOCK)
        slot.native_cycles += 1
        slot.sim.set(ABI_PORT, ABI_NONE)
        slot.sim.step()
        task = slot.pending_task
        if task:
            return EvalOutcome("trap", task, 1)
        if slot.done:
            return EvalOutcome("done", 0, 1)
        outcome = self._drive(slot)
        return EvalOutcome(outcome.status, outcome.task_id, outcome.native_cycles + 1)

    def run_ticks(self, engine_id: int, clock: str, ticks: int) -> "BatchOutcome":
        """Drive up to *ticks* virtual clock periods autonomously.

        Models on-device virtual-clock generation: no host round trips
        between ticks.  Returns early when a state machine traps; the
        in-flight tick is then mid-rising-edge and the caller finishes
        it through cont/evaluate.
        """
        slot = self._slot(engine_id)
        self._control_fault("run_ticks")
        start_cycles = slot.native_cycles
        done = 0
        while done < ticks:
            slot.sim.set(clock, 1)
            slot.sim.step()
            outcome = self._drive(slot)
            if outcome.status == "trap":
                return BatchOutcome("trap", done, outcome.task_id,
                                    slot.native_cycles - start_cycles)
            slot.sim.set(clock, 0)
            slot.sim.step()
            outcome = self._drive(slot)
            if outcome.status == "trap":
                return BatchOutcome("trap", done, outcome.task_id,
                                    slot.native_cycles - start_cycles)
            done += 1
        return BatchOutcome("done", done, 0, slot.native_cycles - start_cycles)

    # -- the ABI surface ---------------------------------------------------------------------

    def handle(self, engine_id: int, message):
        """One ABI message in, its reply out: the dispatch every
        ``AbiTarget`` over this board (direct backend, hypervisor)
        shares."""
        from ..runtime import abi  # repro.runtime imports this module

        if isinstance(message, abi.Get):
            return self.get_var(engine_id, message.name)
        if isinstance(message, abi.Set):
            return self.set_var(engine_id, message.name, message.value)
        if isinstance(message, abi.Evaluate):
            outcome = self.evaluate(engine_id)
            return abi.TrapReply(outcome.status, outcome.task_id,
                                 outcome.native_cycles)
        if isinstance(message, abi.Cont):
            outcome = self.cont(engine_id)
            return abi.TrapReply(outcome.status, outcome.task_id,
                                 outcome.native_cycles)
        if isinstance(message, abi.RunTicks):
            outcome = self.run_ticks(engine_id, message.clock, message.ticks)
            return abi.BatchReply(outcome.status, outcome.ticks_done,
                                  outcome.task_id, outcome.native_cycles_total)
        if isinstance(message, abi.Update):
            return None  # latching is folded into the update state
        if isinstance(message, abi.Snapshot):
            return self.snapshot(engine_id, message.names)
        if isinstance(message, abi.Restore):
            return self.restore(engine_id, message.state)
        if isinstance(message, abi.ReadExpr):
            return self.read_expr(engine_id, message.expr)
        if isinstance(message, abi.WriteLval):
            return self.write_lvalue(engine_id, message.lhs, message.value)
        raise TypeError(f"unhandled ABI message {type(message).__name__}")

    # -- accounting -------------------------------------------------------------------------

    def utilization(self) -> Dict[str, float]:
        """Fractions of device resources used by the programmed design."""
        if self.bitstream is None:
            return {"luts": 0.0, "ffs": 0.0}
        res = self.bitstream.resources
        return {
            "luts": res.luts / self.device.luts,
            "ffs": res.ffs / self.device.ffs,
        }
