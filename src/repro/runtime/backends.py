"""Hardware backends: where transformed sub-programs get placed.

:class:`DirectBoardBackend` is the single-tenant path (one runtime
instance owning one device, like Cascade's DE10 backend).  Multi-tenant
placement goes through the hypervisor's client backend instead
(:mod:`repro.hypervisor`), which speaks the same :class:`AbiTarget`
protocol — engines cannot tell the difference, which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..compiler.service import CompilerService
from ..core.pipeline import CompiledProgram
from ..fabric.bitstream import Bitstream, BitstreamCompiler
from ..fabric.board import SimulatedBoard
from ..fabric.device import Device
from ..fabric.retry import RetryPolicy, retry_call
from ..fabric.synth import SynthOptions
from .abi import AbiChannel, Message


@dataclass
class Placement:
    """Result of placing a program on a backend."""

    engine_id: int
    clock_hz: float
    compile_seconds: float
    reconfig_seconds: float
    cache_hit: bool
    bitstream: Bitstream


def synth_options_for(program: CompiledProgram,
                      anti_congestion: bool = False) -> SynthOptions:
    """Synthesis options implied by a compiled program.

    State-access logic covers the program's captured (non-volatile)
    state; Synergy's transforms keep memories out of LUTRAM/BRAM
    (``preserve_memories=False``) — the Figures 13–14 effect.
    """
    from ..core.statevars import task_nesting

    captured = None
    if program.state.uses_yield:
        captured = frozenset(program.state.captured_names())
    return SynthOptions(
        preserve_memories=False,
        state_access_bits=program.state.captured_bits,
        control_states=program.transform.n_states,
        anti_congestion=anti_congestion,
        captured_names=captured,
        task_nesting=task_nesting(program.flat),
    )


class DirectBoardBackend:
    """Single-tenant backend: one device, one resident program.

    Bitstreams, the board's slot codegen and every other compiler stage
    share one artifact store: pass *compiler* to join a wider one, e.g.
    the service a hypervisor or harness already uses.
    """

    def __init__(self, device: Device, anti_congestion: bool = False,
                 sim_backend: Optional[str] = None,
                 compiler: Optional[CompilerService] = None):
        self.device = device
        self.compiler = compiler if compiler is not None else CompilerService()
        self.board = SimulatedBoard(device, sim_backend=sim_backend,
                                    compiler=self.compiler)
        self.anti_congestion = anti_congestion
        #: shared retry budget for supervised delivery on this backend's
        #: channels and for bitstream-load retries in :meth:`place`
        self.retry = RetryPolicy()
        self._next_engine_id = 1
        self._programs: Dict[int, CompiledProgram] = {}

    # -- placement -----------------------------------------------------------

    def place(self, program: CompiledProgram) -> Placement:
        """Compile (or cache-hit) and program the board with *program*."""
        options = synth_options_for(program, self.anti_congestion)
        options_key = options.key
        digest = program.hardware_digest
        cached = self.compiler.lookup_bitstream(self.device.name,
                                                options_key, digest)
        if cached is not None:
            bitstream, compile_seconds, hit = cached, 0.0, True
        else:
            compiler = BitstreamCompiler(self.device, options)
            bitstream = compiler.compile(program.transform.module,
                                         program.hardware_text,
                                         env=program.hardware_env,
                                         target_hz=None)
            self.compiler.insert_bitstream(self.device.name, options_key,
                                           bitstream)
            compile_seconds, hit = bitstream.compile_seconds, False
        engine_id = self._next_engine_id
        self._next_engine_id += 1
        self._programs = {engine_id: program}
        # Bitstream loads can fail transiently under fault injection;
        # program() raises before tearing down the old design, so a
        # bounded retry is safe.
        retry_call(self.retry,
                   lambda: self.board.program(bitstream, self._programs))
        return Placement(
            engine_id=engine_id,
            clock_hz=bitstream.clock_hz,
            compile_seconds=compile_seconds,
            reconfig_seconds=self.device.reconfig_seconds,
            cache_hit=hit,
            bitstream=bitstream,
        )

    def release(self, engine_id: int) -> None:
        self._programs.pop(engine_id, None)
        self.board.slots.pop(engine_id, None)

    def channel(self, engine_id: int) -> AbiChannel:
        return AbiChannel(self, engine_id, self.device.abi_latency_s,
                          faults=self.board.faults, retry=self.retry,
                          deadline_s=self.device.op_deadline_s)

    # -- AbiTarget ---------------------------------------------------------------

    def handle(self, engine_id: int, message: Message):
        return self.board.handle(engine_id, message)
