"""Performance profiling: measured mechanics → paper-style rates.

The profile functions run programs on the real machinery (software
interpreter, simulated boards with trap servicing) for a scaled number
of virtual ticks and report the per-tick costs.  Dividing the device
clock by the measured native-cycles-per-tick gives the *virtual clock
frequency* of [Schkufza et al. 2019] that the paper reports throughput
in — e.g. bitcoin's 3 native cycles/tick on a 50 MHz DE10 is the
paper's ~16M hashes/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..core.pipeline import CompiledProgram
from ..fabric.device import Device
from ..interp.systasks import TaskHost
from ..interp.vfs import VirtualFS
from ..runtime.backends import DirectBoardBackend
from ..runtime.engine import (
    SW_SECONDS_PER_STMT,
    SW_SECONDS_PER_TICK,
    SoftwareEngine,
)
from ..runtime.runtime import Runtime


@dataclass
class HwProfile:
    """Measured hardware execution profile for one program."""

    device_name: str
    clock_hz: float
    ticks: int
    native_cycles: int
    traps: int
    abi_messages: int
    abi_seconds: float
    #: ABI time attributable to trap servicing only.  Batch-control
    #: traffic amortizes over arbitrarily long batches (§4.1: "fewer
    #: than one ABI request per second" for batch apps), so steady-state
    #: rates exclude it.
    trap_seconds: float = 0.0

    @property
    def cycles_per_tick(self) -> float:
        return self.native_cycles / max(1, self.ticks)

    @property
    def traps_per_tick(self) -> float:
        return self.traps / max(1, self.ticks)

    @property
    def seconds_per_tick(self) -> float:
        return (self.native_cycles / self.clock_hz + self.trap_seconds) / max(1, self.ticks)

    @property
    def virtual_hz(self) -> float:
        """Virtual clock frequency: ticks per simulated second."""
        per_tick = self.seconds_per_tick
        return 1.0 / per_tick if per_tick > 0 else 0.0

    def at_clock(self, clock_hz: float) -> "HwProfile":
        """The same design rescaled to a different global clock (Fig 12)."""
        return HwProfile(self.device_name, clock_hz, self.ticks,
                         self.native_cycles, self.traps, self.abi_messages,
                         self.abi_seconds, self.trap_seconds)


@dataclass
class SwProfile:
    """Measured software-interpreter profile for one program."""

    ticks: int
    stmts: int
    seconds: float

    @property
    def virtual_hz(self) -> float:
        return self.ticks / self.seconds if self.seconds > 0 else 0.0


def profile_software(program: CompiledProgram, ticks: int = 32,
                     vfs: Optional[VirtualFS] = None,
                     clock: str = "clock",
                     backend: Optional[str] = None,
                     compiler=None) -> SwProfile:
    """Run *ticks* in the software simulator; model interpreted cost.

    *backend* picks the simulation strategy through the
    :func:`~repro.interp.simulator.Simulator` factory ("compiled" by
    default; "interp" measures the reference tree-walker).  *compiler*
    optionally shares a :class:`~repro.compiler.CompilerService` so the
    profiling engine reuses existing codegen artifacts.
    """
    host = TaskHost(vfs if vfs is not None else VirtualFS())
    engine = SoftwareEngine(program, host, backend=backend,
                            compiler=compiler)
    stats = engine.run_chunk(clock, ticks)
    return SwProfile(stats.ticks, engine.sim.stmts_executed,
                     max(stats.seconds, 1e-12))


def profile_hardware(program: CompiledProgram, device: Device,
                     ticks: int = 32, vfs: Optional[VirtualFS] = None,
                     clock: str = "clock", compiler=None) -> HwProfile:
    """Place on a fresh board and measure *ticks* of hardware execution.

    The program is restored from a brief software warm-up first (as the
    JIT would), so declaration-time side effects ($fopen) are live.
    """
    runtime = Runtime(program, vfs=vfs, clock=clock, compiler=compiler)
    backend = DirectBoardBackend(device, compiler=compiler)
    runtime.tick(1)  # software warm-up (initial blocks, $fopen)
    runtime.attach(backend)
    runtime._hw_ready_at = runtime.sim_time  # caches primed (§6)
    runtime.tick(1)  # crosses into hardware
    slot = backend.board.slots[runtime.placement.engine_id]
    channel = runtime.engine.channel
    cycles0 = slot.native_cycles
    traps0 = runtime.traps_total
    msgs0 = channel.stats.messages
    secs0 = channel.stats.seconds
    trap_secs0 = runtime.trap_seconds_total
    ticks0 = runtime.ticks
    runtime.tick(ticks)
    return HwProfile(
        device_name=device.name,
        clock_hz=runtime.placement.clock_hz,
        ticks=runtime.ticks - ticks0,
        native_cycles=slot.native_cycles - cycles0,
        traps=runtime.traps_total - traps0,
        abi_messages=channel.stats.messages - msgs0,
        abi_seconds=channel.stats.seconds - secs0,
        trap_seconds=runtime.trap_seconds_total - trap_secs0,
    )


def throughput_per_tick(profile_hz: float, units_per_tick: float = 1.0) -> float:
    """Convert a virtual frequency into workload units per second."""
    return profile_hz * units_per_tick
