"""The Synergy hypervisor (paper §4, Figure 6).

An indirection layer that lets multiple runtime instances share one
compiler and one device.  A runtime's compiler connects, sends the
source of a sub-program, and receives a unique engine identifier; the
instance-side engine simply forwards ABI requests over the connection.
The hypervisor's compiler coalesces every connected sub-program into a
single monolithic design, recompiles on membership changes behind the
Figure 7 state-safe handshake, serializes ABI requests, and — when its
device is full — can delegate sub-programs to a *second* hypervisor
(the virtualization layer nests, §4.1 step 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..amorphos.hull import Hull, ProtectionError
from ..amorphos.morphlet import ProtectionDomain
from ..compiler.service import CompilerService, KIND_BATCH
from ..core.pipeline import CompiledProgram
from ..fabric.bitstream import Bitstream, BitstreamCompiler
from ..fabric.board import SimulatedBoard
from ..fabric.device import Device
from ..fabric.errors import BoardDeadError, FabricError
from ..fabric.retry import RetryPolicy
from ..fabric.synth import SynthOptions
from ..runtime.abi import AbiChannel, Message
from ..runtime.backends import Placement, synth_options_for
from .coalesce import CoalescedDesign, coalesce
from .engine_table import EngineRecord, EngineTable
from .handshake import HandshakeReport, state_safe_reprogram
from .scheduler import AbiSerializer, RoundRobinIoScheduler


class CapacityError(FabricError):
    """The device cannot host the combined design and no parent exists.

    Part of the typed fabric hierarchy, but deliberately neither
    transient nor persistent: placement rejection is an admission
    decision, not a fault — retrying without shrinking the design is
    pointless, and nothing needs quarantining.
    """


class Hypervisor:
    """Multi-tenant virtualization layer over one simulated device."""

    def __init__(self, device: Device,
                 use_hull: bool = True, parent: Optional["Hypervisor"] = None,
                 network_latency_s: float = 5e-5,
                 anti_congestion: bool = False,
                 clock_domains: bool = False,
                 sim_backend: Optional[str] = None,
                 compiler: Optional[CompilerService] = None,
                 opt_level: Optional[int] = None):
        self.device = device
        if sim_backend == "batched":
            from ..interp.compile.batch import HAVE_NUMPY
            if not HAVE_NUMPY:
                # Graceful degradation: without NumPy the batched
                # backend cannot exist, so every tenant this hypervisor
                # boots falls back to the scalar compiled engine (the
                # two run bit-identically; only the dispatch amortization
                # is lost).  Direct Simulator(backend="batched") calls
                # still raise UnsupportedBackend — the hypervisor is the
                # policy layer, so the fallback lives here.
                sim_backend = "compiled"
        self.sim_backend = sim_backend
        #: mid-end optimization level for every tenant slot this
        #: hypervisor programs (None = ambient REPRO_OPT_LEVEL)
        self.opt_level = opt_level
        # One compiler, many instances (§4): bitstreams, the board's
        # slot codegen, the coalescer's synthesis estimates and the
        # hull's load estimates all address one artifact store.  An
        # explicit *compiler* joins a wider one (e.g. shared across a
        # fleet of hypervisors); otherwise the store is private.
        self.compiler = compiler if compiler is not None else CompilerService()
        self.board = SimulatedBoard(device, sim_backend=sim_backend,
                                    compiler=self.compiler,
                                    opt_level=opt_level)
        self.hull = Hull(device) if use_hull else None
        self.parent = parent
        self.network_latency_s = network_latency_s
        self.anti_congestion = anti_congestion
        #: Run each application in its own clock domain (Figure 12's
        #: future-work fix): arrivals no longer slow co-residents down,
        #: at the cost of clock-crossing logic.
        self.clock_domains = clock_domains
        #: Optional background compilation of likely-next designs (§7's
        #: speculative compilation); armed via enable_speculation().
        self.speculator = None

        self.table = EngineTable()
        self.io_scheduler = RoundRobinIoScheduler()
        self.serializer = AbiSerializer()
        self.design: Optional[CoalescedDesign] = None
        self.handshakes: List[HandshakeReport] = []
        #: Engines delegated to the parent hypervisor: local id → remote id.
        self._remote: Dict[int, Tuple["Hypervisor", int]] = {}
        #: shared retry budget for supervised channels, handshake
        #: reprogram retries, and the supervisor's health reporting.
        #: Under an active fault plan, backoff carries ±25% jitter so
        #: co-failing channels desynchronize — seeded from the plan, so
        #: a replayed fault schedule reproduces the same backoffs.
        faults = self.board.faults
        if faults is not None and faults.active:
            self.retry = RetryPolicy(jitter=0.25,
                                     rng=faults.rng_for("retry"))
        else:
            self.retry = RetryPolicy()
        #: set by :meth:`quarantine`; a quarantined hypervisor admits
        #: nothing and services nothing — its tenants have been (or are
        #: being) restored elsewhere from checkpoints
        self.quarantined = False

    # -- health -----------------------------------------------------------------

    @property
    def healthy(self) -> bool:
        return not self.quarantined and not self.board.dead

    def quarantine(self) -> None:
        """Take this hypervisor out of service after a persistent fault.

        Kills the board (all slot state is already lost or untrusted),
        drops every IO stream, and flags every engine record retired so
        a later sweep finds nothing live.  Recovery of the tenants is
        the supervisor's job — it restores their last checkpoints onto
        healthy fabric.
        """
        self.quarantined = True
        self.board.kill()
        self.io_scheduler.clear()
        for rec in list(self.table.active):
            self.table.retire(rec.engine_id)
        self.table.sweep()
        self.design = None
        self._remote.clear()

    def stats(self) -> Dict[str, object]:
        """Health and traffic counters for this hypervisor."""
        from .telemetry import artifact_snapshot

        out: Dict[str, object] = {
            "healthy": self.healthy,
            "quarantined": self.quarantined,
            "board_dead": self.board.dead,
            "engines": len(self.table),
            "reconfigurations": self.board.reconfigurations,
            "abi_requests": self.serializer.requests,
            "retry": self.retry.stats(),
            "batch_artifacts": artifact_snapshot(
                self.compiler.store, kinds=(KIND_BATCH,))[KIND_BATCH],
        }
        if self.board.faults is not None:
            out["faults"] = self.board.faults.stats()
        return out

    # -- connections -----------------------------------------------------------

    def connect(self, instance: str,
                domain: Optional[ProtectionDomain] = None) -> "HypervisorClient":
        """Accept a runtime instance; returns its private client backend."""
        return HypervisorClient(self, instance,
                                domain or ProtectionDomain(instance))

    @property
    def clock_hz(self) -> float:
        """The current global clock of the combined design (Figure 12)."""
        if self.design is None:
            return self.device.max_clock_hz
        return self.design.clock_hz

    # -- placement --------------------------------------------------------------

    def place_subprogram(self, instance: str, domain: ProtectionDomain,
                         program: CompiledProgram) -> Placement:
        """Admit a sub-program: coalesce, compile, state-safe reprogram."""
        if not self.healthy:
            raise BoardDeadError(
                f"hypervisor on {self.device.name} is quarantined"
            )
        record = self.table.register(instance, domain, program)
        try:
            return self._admit(record)
        except FabricError:
            # A refused or failed placement leaves no engine behind.
            if record.morphlet is not None:
                self.hull.unload(domain, record.morphlet.morphlet_id)
            self.table.retire(record.engine_id)
            self.table.sweep()
            raise

    def _admit(self, record: EngineRecord) -> Placement:
        instance, domain, program = (record.instance, record.domain,
                                     record.program)
        programs = {rec.engine_id: rec.program for rec in self.table.active
                    if rec.engine_id not in self._remote}
        design = coalesce(programs, self.device, self.anti_congestion,
                          self.clock_domains, compiler=self.compiler)

        if not self.device.fits(design.resources.luts, design.resources.ffs):
            # The device is full: delegate this sub-program to the
            # parent hypervisor (nesting) rather than reject it.
            if self.parent is None:
                raise CapacityError(
                    f"design needs {design.resources.luts} LUTs; device "
                    f"{self.device.name} has {self.device.luts} and no parent"
                )
            remote = self.parent.place_subprogram(instance, domain, program)
            self._remote[record.engine_id] = (self.parent, remote.engine_id)
            return Placement(
                engine_id=record.engine_id,
                clock_hz=remote.clock_hz,
                compile_seconds=remote.compile_seconds,
                reconfig_seconds=remote.reconfig_seconds,
                cache_hit=remote.cache_hit,
                bitstream=remote.bitstream,
            )

        if self.hull is not None:
            options = synth_options_for(program, self.anti_congestion)
            est = self.compiler.estimate(
                program.transform.module, program.hardware_env, options,
                digest=program.hardware_digest, env_tag="hw",
            )
            record.morphlet = self.hull.load(domain, program, est)

        bitstream, compile_seconds, cache_hit = self._compile(design)
        report = self._reprogram(bitstream, design)
        return Placement(
            engine_id=record.engine_id,
            clock_hz=design.clock_for(record.engine_id),
            compile_seconds=compile_seconds + report.transfer_seconds,
            reconfig_seconds=report.reconfig_seconds,
            cache_hit=cache_hit,
            bitstream=bitstream,
        )

    def _make_bitstream(self, design: CoalescedDesign) -> Bitstream:
        compiler = BitstreamCompiler(self.device, SynthOptions())
        return Bitstream(
            digest=design.digest,
            device_name=self.device.name,
            resources=design.resources,
            clock_hz=design.clock_hz,
            compile_seconds=compiler.compile_latency(design.resources),
        )

    @property
    def _bitstream_options_key(self) -> str:
        """Options discriminator for coalesced-design bitstreams.

        ``design.digest`` covers the member text, device and clock-domain
        mode but not the P&R strategy, while the cached bitstream's
        clock/resources depend on it — so ``anti_congestion`` must be in
        the key or two hypervisors sharing one store would alias designs
        compiled under different strategies.
        """
        return f"hypervisor;ac={int(self.anti_congestion)}"

    def _compile(self, design: CoalescedDesign) -> Tuple[Bitstream, float, bool]:
        options_key = self._bitstream_options_key
        cached = self.compiler.lookup_bitstream(self.device.name, options_key,
                                                design.digest)
        if cached is not None:
            return cached, 0.0, True
        bitstream = self._make_bitstream(design)
        self.compiler.insert_bitstream(self.device.name, options_key,
                                       bitstream)
        return bitstream, bitstream.compile_seconds, False

    # -- speculative compilation (§7 future work) -----------------------------

    def enable_speculation(self, parallelism: int = 2) -> None:
        from ..fabric.speculative import SpeculativeCompiler

        self.speculator = SpeculativeCompiler(
            self.compiler, self.device.name, self._bitstream_options_key,
            parallelism
        )

    def speculate_departures(self, now: float) -> int:
        """Queue background builds for every single-tenant departure.

        Called by the deployment layer with its wall clock after each
        epoch; finished builds land in the compilation cache via
        ``self.speculator.settle(now)``.
        """
        if self.design is None or self.speculator is None:
            return 0
        queued = 0
        for engine_id in self.design.engine_ids:
            programs = {
                eid: prog
                for eid, prog in self.design.engine_programs.items()
                if eid != engine_id
            }
            if not programs:
                continue
            candidate = coalesce(programs, self.device, self.anti_congestion,
                                 self.clock_domains, compiler=self.compiler)
            self.speculator.enqueue(
                self._make_bitstream(candidate), now,
                reason=f"departure of engine {engine_id}",
            )
            queued += 1
        return queued

    def _reprogram(self, bitstream: Bitstream, design: CoalescedDesign) -> HandshakeReport:
        capture_sets: Dict[int, List[str]] = {}
        for rec in self.table.active:
            if rec.program.state.uses_yield:
                capture_sets[rec.engine_id] = rec.program.state.captured_names()
        report = state_safe_reprogram(
            self.board, bitstream, design.engine_programs, capture_sets,
            retry=self.retry,
        )
        self.design = design
        self.handshakes.append(report)
        return report

    def finish_instance(self, engine_id: int) -> None:
        """Flag an engine for removal; it disappears at the next epoch."""
        remote = self._remote.pop(engine_id, None)
        if remote is not None:
            parent, remote_id = remote
            parent.finish_instance(remote_id)
        if engine_id in self.table:
            record = self.table.lookup(engine_id)
            if self.hull is not None and record.morphlet is not None:
                self.hull.unload(record.domain, record.morphlet.morphlet_id)
            self.table.retire(engine_id)
        self.io_scheduler.unregister(engine_id)
        # Recompile without the retired sub-program (flag-and-sweep, §4.1).
        survivors = self.table.sweep()
        programs = {rec.engine_id: rec.program for rec in survivors
                    if rec.engine_id not in self._remote}
        if programs:
            design = coalesce(programs, self.device, self.anti_congestion,
                              self.clock_domains, compiler=self.compiler)
            bitstream, _, _ = self._compile(design)
            self._reprogram(bitstream, design)
        else:
            self.design = None
            self.board.slots.clear()

    # -- the ABI surface (AbiTarget) ------------------------------------------------

    def channel(self, engine_id: int) -> AbiChannel:
        latency = self.device.abi_latency_s + self.network_latency_s

        def current() -> float:
            # Contention on the shared IO path stretches every message
            # this engine exchanges with the hypervisor (§4.3).
            extra = 0.0
            if engine_id in self.io_scheduler._streams:
                extra = self.io_scheduler.extra_wait(engine_id)
            return latency + extra

        return AbiChannel(self, engine_id, current,
                          faults=self.board.faults, retry=self.retry,
                          deadline_s=self.device.op_deadline_s)

    def handle(self, engine_id: int, message: Message):
        if self.quarantined:
            raise BoardDeadError(
                f"hypervisor on {self.device.name} is quarantined"
            )
        self.serializer.admit()
        remote = self._remote.get(engine_id)
        if remote is not None:
            parent, remote_id = remote
            return parent.handle(remote_id, message)
        if engine_id not in self.table:
            raise KeyError(f"unknown engine {engine_id}")
        return self.board.handle(engine_id, message)


class HypervisorClient:
    """One instance's private connection — the isolation boundary.

    Presents the same backend interface as
    :class:`~repro.runtime.backends.DirectBoardBackend`, so a
    :class:`~repro.runtime.runtime.Runtime` cannot tell whether it owns
    a device or shares one.  Channels are only issued for engines this
    client placed; anything else raises :class:`ProtectionError`.
    """

    def __init__(self, hypervisor: Hypervisor, instance: str,
                 domain: ProtectionDomain):
        self.hypervisor = hypervisor
        self.instance = instance
        self.domain = domain
        self._owned: List[int] = []

    @property
    def device(self) -> Device:
        return self.hypervisor.device

    @property
    def board(self) -> SimulatedBoard:
        return self.hypervisor.board

    def place(self, program: CompiledProgram) -> Placement:
        placement = self.hypervisor.place_subprogram(
            self.instance, self.domain, program
        )
        self._owned.append(placement.engine_id)
        return placement

    def channel(self, engine_id: int) -> AbiChannel:
        if engine_id not in self._owned:
            raise ProtectionError(
                f"instance {self.instance!r} does not own engine {engine_id}"
            )
        return self.hypervisor.channel(engine_id)

    def release(self, engine_id: int) -> None:
        if engine_id in self._owned:
            self._owned.remove(engine_id)
            self.hypervisor.finish_instance(engine_id)
