"""Supervised recovery: checkpoints, quarantine, and tenant restore.

The :class:`Supervisor` closes the reliability loop over a small fleet
of hypervisors.  The layers below it already do the local work — the
ABI channel retries transient faults with capped backoff and converts
hangs into deadline errors; the handshake retries bitstream loads — so
what reaches the supervisor is only what retry cannot fix: a
:class:`~repro.fabric.errors.PersistentFabricError` (dead board,
exhausted retry budget).  Its response is the paper's migration
machinery pointed at disaster recovery:

1. **checkpoint** every tenant at quiescence points (between logical
   ticks), keeping the newest :class:`~repro.hypervisor.checkpoint.Checkpoint`
   on the tenant's own record (digest-keyed, so restore never
   recompiles);
2. on a persistent fault, **quarantine** the afflicted hypervisor
   (board killed, IO streams dropped, admission closed);
3. **restore** every tenant that lived there from its latest
   checkpoint onto a healthy hypervisor — or a software engine when
   none remains — and replay the ticks since the checkpoint.  The
   rebuilt host's display log is seeded from the checkpoint, so the
   crashed run's post-checkpoint output is discarded and the replay
   re-emits it: ``$display`` output stays exactly-once, bit-identical
   to a fault-free run.

Restore is one use of one primitive.  A tenant's **residence** — the
board hosting it, the cohort it is a lane of, or a scalar software
engine — is read off its runtime, and :meth:`Supervisor._move` is the
only code that changes it: admission, release, migration, restore and
cohort formation/extraction are that one move with a different
destination and a different source for the context it carries
(docs/RELIABILITY.md, "The hypervisor's books").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..fabric.errors import FabricError, PersistentFabricError
from ..runtime.cohort import (
    BatchUnsupported, CohortEngine, CohortLaneEngine, UnsupportedBackend,
)
from ..runtime.runtime import Context, Runtime
from .checkpoint import Checkpoint
from .hypervisor import Hypervisor
from .migration import MigrationReport, rehydrate, suspend

#: The residence of a tenant on a scalar software engine; a board's is
#: its :class:`Hypervisor`, a lane's its :class:`CohortEngine`, and
#: ``None`` is nowhere (not admitted yet, or released).
SOFTWARE = "software"

#: Fewest lanes a cohort may have: a vector dispatch over fewer is pure
#: overhead, so none is formed smaller and none survives smaller.
COHORT_FLOOR = 2


def kind(residence) -> str:
    """A residence's class, as :attr:`Supervisor.moves` keys it."""
    if isinstance(residence, Hypervisor):
        return "board"
    if isinstance(residence, CohortEngine):
        return "lane"
    return residence or "nowhere"


def label(residence) -> str:
    """A residence as reports name it: the device, ``cohort``, ``software``."""
    if isinstance(residence, Hypervisor):
        return residence.device.name
    return "cohort" if isinstance(residence, CohortEngine) else SOFTWARE


@dataclass
class Tenant:
    """One supervised application instance."""

    name: str
    runtime: Optional[Runtime]
    clock: str = "clock"
    #: the newest quiescence checkpoint: what a restore resumes from
    checkpoint: Optional[Checkpoint] = None
    recoveries: int = 0

    @property
    def residence(self):
        """Where this tenant lives — read off its runtime, stored nowhere."""
        runtime = self.runtime
        if runtime.backend is not None:
            return runtime.backend.hypervisor
        engine = runtime.engine
        return (engine.engine if isinstance(engine, CohortLaneEngine)
                else SOFTWARE)

    @property
    def host(self) -> Optional[Hypervisor]:
        residence = self.residence
        return residence if isinstance(residence, Hypervisor) else None

    @property
    def cohort_candidate(self) -> bool:
        """Live on a scalar software engine: what a cohort can absorb."""
        return self.residence == SOFTWARE and not self.runtime.finished


@dataclass
class RecoveryReport:
    """Accounting for one tenant restore."""

    tenant: str
    checkpoint_ticks: int
    crash_ticks: int        #: logical time the crashed runtime had reached
    destination: str        #: device name, or "software"
    restore_seconds: float  #: modeled suspend-point→running latency


class Supervisor:
    """Fault supervisor over a fleet of hypervisors."""

    def __init__(self, hypervisors: List[Hypervisor],
                 checkpoint_every: int = 8,
                 software_fallback: bool = True,
                 journal=None):
        if not hypervisors:
            raise ValueError("a supervisor needs at least one hypervisor")
        self.hypervisors = list(hypervisors)
        self.checkpoint_every = checkpoint_every
        #: checkpoints taken (each tenant holds only its newest)
        self.checkpoints_taken = 0
        self.software_fallback = software_fallback
        #: optional :class:`~repro.hypervisor.durable.TenantJournal`:
        #: admissions, quiescence checkpoints, and releases are written
        #: ahead to disk so a process restart can recover every tenant
        self.journal = journal
        self.tenants: Dict[str, Tenant] = {}
        #: residence → the tenants living there, by name (boards,
        #: :data:`SOFTWARE`, live cohorts); written only by :meth:`_move`
        self.residents: Dict[object, Dict[str, Tenant]] = {}
        #: (why, kind left, kind entered) → moves made; every count of
        #: placements, migrations, recoveries and cohorts derives from it
        self.moves: Counter = Counter()
        self.recoveries: List[RecoveryReport] = []
        self.migrations: List[MigrationReport] = []
        self.quarantines = 0
        #: digest[:12] -> why its tenants stay on scalar engines (the
        #: first refusal per digest; the "why slow path" answer)
        self.cohorts_refused: Dict[str, str] = {}
        #: counters accumulated from dissolved cohorts
        self._cohort_divergence = 0
        self._cohort_vector_ticks = 0
        #: idle fast-forwards of runtimes no longer on the books
        self._idle_fastforwards = 0

    # -- the one move -----------------------------------------------------------

    def _move(self, tenant: Tenant, to, why: str,
              context: Optional[Context] = None,
              not_before: float = 0.0) -> float:
        """Move *tenant* to residence *to*: the one place a tenant
        changes where it lives, and the only writer of the books.

        Leaves the current residence (a lane detaches; a board slot is
        released, which a dead board cannot veto), rebuilds the runtime
        when the move carries a *context* (everything that travels —
        state, ``$time``, VFS, display log, pending ``$write`` text — is
        in it; the rebuilt clock starts no earlier than *not_before* and
        is charged the restore latency, which is returned), and
        arrives: a board attaches, a lane joins, a scalar engine is
        built only for state that left a lane.  ``None`` is nowhere:
        admission moves from it, release to it.
        """
        old = tenant.runtime
        origin = tenant.residence if tenant.name in self.tenants else None
        hv = to if isinstance(to, Hypervisor) else None
        state = time = None
        if isinstance(origin, CohortEngine):
            time = old.engine.time
            state = origin.detach(old.engine)
        elif isinstance(origin, Hypervisor):
            try:
                old.backend.release(old.placement.engine_id)
            except FabricError:
                pass
        cost = 0.0
        if context is not None:
            build = hv or old or self.hypervisors[0]
            runtime = rehydrate(
                context, name=tenant.name, clock=tenant.clock,
                compiler=build.compiler, sim_backend=build.sim_backend,
                start_time=max(old.sim_time if old else 0.0, not_before))
            cost = runtime.costs.restore_seconds(
                runtime.program.state.total_bits,
                hv.device.reconfig_seconds if hv else 0.0)
            runtime.sim_time += cost
            tenant.runtime = runtime
        if old is not None and (context is not None or to is None):
            self._idle_fastforwards += old.idle_fastforwards
        runtime = tenant.runtime
        refusal = None
        if hv is not None:
            # Digest-keyed artifacts: a re-placement is a cache hit in
            # the shared store, so no recompilation happens here.
            try:
                runtime.attach(hv.connect(tenant.name))
            except FabricError as err:
                if origin is None:
                    raise  # never became a tenant: nothing to book
                # Booked where it stands: its rebuilt software engine.
                refusal, to, why = err, SOFTWARE, "refused"
        elif isinstance(to, CohortEngine):
            runtime.engine = to.admit(runtime.host,
                                      state=runtime.engine.snapshot(),
                                      time=runtime.engine.time)
        elif to == SOFTWARE and state is not None and context is None:
            runtime.adopt_software(state, time)
        self._book(tenant, why, origin, to)
        if isinstance(origin, CohortEngine):
            self._vacated(origin)
        if refusal is not None:
            raise refusal
        return cost

    def _book(self, tenant: Tenant, why: str, origin, to) -> None:
        """Enter one move in every book."""
        name = tenant.name
        self.moves[why, kind(origin), kind(to)] += 1
        if origin is not None:
            del self.residents[origin][name]
        if to is not None:
            self.residents.setdefault(to, {})[name] = tenant
        if origin is None:
            self.tenants[name] = tenant
            if self.journal is not None:
                program = tenant.runtime.program
                self.journal.admit(name, digest=program.digest,
                                   source=program.source, clock=tenant.clock)
        elif to is None:
            del self.tenants[name]
            if self.journal is not None:
                self.journal.terminal(name, "released")
                self.journal.drop_snapshots(name)

    def _vacated(self, cohort: CohortEngine) -> None:
        """A lane left *cohort*: one left under :data:`COHORT_FLOOR`
        moves out too (each such move calls back here), and an empty
        cohort retires into the accumulated counters."""
        lanes = self.residents[cohort]
        if 0 < len(lanes) < COHORT_FLOOR:
            self._move(next(iter(lanes.values())), SOFTWARE, "extract")
        elif not lanes:
            del self.residents[cohort]
            self._cohort_divergence += cohort.divergence
            self._cohort_vector_ticks += cohort.vector_ticks

    def moved(self, why: Optional[str] = None, origin: Optional[str] = None,
              to: Optional[str] = None) -> int:
        """Moves made so far, filtered by reason and/or residence kinds."""
        return sum(n for (w, o, t), n in self.moves.items()
                   if why in (None, w) and origin in (None, o)
                   and to in (None, t))

    @property
    def cohorts(self) -> List[CohortEngine]:
        """Live vector cohorts (same-digest software tenants)."""
        return [r for r in self.residents if isinstance(r, CohortEngine)]

    # -- admission ------------------------------------------------------------

    def _healthy_host(self, exclude=()) -> Optional[Hypervisor]:
        for hv in self.hypervisors:
            if hv.healthy and hv not in exclude:
                return hv
        return None

    def admit(self, name: str, source=None, clock: str = "clock",
              software: bool = False, host: Optional[Hypervisor] = None,
              vfs=None, context: Optional[Context] = None,
              not_before: float = 0.0) -> Tenant:
        """Admit a tenant: place it and take its baseline checkpoint.

        The tenant runs *source* from boot, or — the restart-recovery
        path — resumes a recovered *context* (clock no earlier than
        *not_before*), so the baseline checkpoint lands at the recovered
        tick and board-death recovery keeps working afterwards.

        With *software* set the tenant is never placed on fabric: it
        runs on a software engine under the fleet's lead compiler (so
        same-digest tenants share artifacts) — what :meth:`form_cohorts`
        vectorizes.  An explicit *host* pins placement (the serving
        layer's balancer chooses it); *vfs* pre-loads input files.
        """
        if name in self.tenants:
            raise ValueError(f"tenant {name!r} already admitted")
        if software:
            host = None
        elif host is None:
            host = self._healthy_host()
        elif not host.healthy:
            raise PersistentFabricError(
                f"requested host {host.device.name} is quarantined")
        if host is None and not (software or self.software_fallback):
            raise PersistentFabricError("no healthy hypervisor to admit onto")
        tenant = Tenant(name=name, runtime=None, clock=clock)
        if context is None:
            build = host or self.hypervisors[0]
            tenant.runtime = Runtime(source, name=name, clock=clock,
                                     compiler=build.compiler,
                                     sim_backend=build.sim_backend, vfs=vfs)
        self._move(tenant, host or SOFTWARE,
                   "admit" if context is None else "readmit",
                   context, not_before)
        self.checkpoint(name)  # baseline: recovery always has one
        return tenant

    def release(self, name: str) -> None:
        """Retire a tenant: free its slot or lane, and drop its record
        and the checkpoint on it (a failing host cannot veto it — a dead
        board's slots die with the board)."""
        tenant = self.tenants.get(name)
        if tenant is not None:
            self._move(tenant, None, "release")

    @property
    def idle_fastforwards(self) -> int:
        """Dispatches whose engine retired a quiescent span unexecuted.

        Counted by the runtimes themselves (``Runtime.tick``), so it
        covers every driver — :meth:`run`, the serving layer's
        slices — and outlives release, migration and recovery.
        """
        return self._idle_fastforwards + sum(
            t.runtime.idle_fastforwards for t in self.tenants.values())

    # -- checkpoint discipline ---------------------------------------------------

    def checkpoint(self, name: str) -> Checkpoint:
        """Checkpoint one tenant now (must be at a quiescence point).

        The serving layer calls this at preemption boundaries so a
        sliced-out tenant always has a restore point no older than its
        last turn.  A cohort lane is no exception: ``advance`` credits
        every lane's runtime before it returns.
        """
        tenant = self.tenants[name]
        runtime = tenant.runtime
        context = suspend(runtime)  # charges the save to runtime.sim_time
        checkpoint = tenant.checkpoint = Checkpoint(
            digest=runtime.program.digest,
            ticks=runtime.ticks,
            sim_time=runtime.sim_time,
            context=context,
        )
        self.checkpoints_taken += 1
        if self.journal is not None:
            self.journal.checkpoint(tenant.name, checkpoint)
        return checkpoint

    # -- execution ------------------------------------------------------------

    def run(self, name: str, ticks: int) -> Runtime:
        """Drive a tenant *ticks* logical ticks with checkpoints and
        recovery; returns the (possibly re-hosted) runtime."""
        tenant = self.tenants[name]
        target = tenant.runtime.ticks + ticks
        while tenant.runtime.ticks < target and not tenant.runtime.finished:
            remaining = target - tenant.runtime.ticks
            chunk = self._chunk_for(tenant.runtime, remaining)
            try:
                tenant.runtime.tick(chunk)
                self.checkpoint(name)
            except FabricError as err:
                self.recover_from(name, err)
        return tenant.runtime

    def _chunk_for(self, runtime: Runtime, remaining: int) -> int:
        """Checkpoint-bounded chunk size, with idle fast-forward.

        A provably quiescent tenant advances its whole remaining span
        in one near-free dispatch instead of ``remaining /
        checkpoint_every`` no-op turns: intermediate checkpoints of an
        idle tenant would all capture identical state, so skipping them
        loses nothing (the post-span checkpoint still lands).  The
        quiescence proof comes from the engine and already counts
        pending NBA shadow-queue entries as activity.
        """
        if remaining > self.checkpoint_every and runtime.is_idle():
            return remaining
        return min(self.checkpoint_every, remaining)

    # -- cohort scheduling (vector carrier) ------------------------------------

    def form_cohorts(self, names: Optional[List[str]] = None) -> int:
        """Group same-digest software tenants into vector cohorts.

        Formation happens at a quiescence boundary (between logical
        ticks): each member moves from its scalar engine into a cohort
        lane, and the cohort then steps as one engine
        (``CohortEngine.advance``).  Programs outside the vector subset
        (or a missing NumPy) leave their group on scalar engines, and so
        does a group under :data:`COHORT_FLOOR`.  *names* restricts
        formation to a subset of tenants (the serving layer forms
        cohorts per priority class, so one class's lockstep schedule
        never couples to another's).  Returns the number of cohorts
        formed.
        """
        groups: Dict[str, List[Tenant]] = {}
        pool = (self.tenants.values() if names is None
                else [self.tenants[n] for n in names if n in self.tenants])
        for tenant in pool:
            if tenant.cohort_candidate:
                groups.setdefault(tenant.runtime.program.digest,
                                  []).append(tenant)
        formed = 0
        for members in groups.values():
            if len(members) < COHORT_FLOOR:
                continue
            lead = members[0].runtime
            try:
                engine = CohortEngine(lead.program, compiler=lead.compiler,
                                      opt_level=lead.opt_level)
            except (BatchUnsupported, UnsupportedBackend) as exc:
                self.cohorts_refused.setdefault(lead.program.digest[:12],
                                                str(exc))
                continue
            for tenant in members:
                self._move(tenant, engine,
                           "join" if engine.members else "found")
            formed += 1
        return formed

    def in_cohort(self, name: str) -> bool:
        tenant = self.tenants.get(name)
        return (tenant is not None
                and isinstance(tenant.residence, CohortEngine))

    def extract(self, name: str) -> None:
        """Pull one tenant out of its cohort onto a scalar engine, at a
        quiescence boundary (anywhere between two ``advance`` calls)."""
        if self.in_cohort(name):
            self._move(self.tenants[name], SOFTWARE, "extract")

    # -- migration (load balancing) --------------------------------------------

    def migrate_tenant(self, name: str,
                       destination: Optional[Hypervisor] = None) -> MigrationReport:
        """Move a live tenant to *destination* (or onto software).

        The serving layer's rebalancer: suspend at quiescence, then the
        one move carries the suspended context — exactly-once
        ``$display``, ``$time`` and all — to the destination.
        """
        tenant = self.tenants[name]
        if destination is not None and not destination.healthy:
            raise PersistentFabricError(
                f"migration destination {destination.device.name} is quarantined")
        old, source = tenant.runtime, label(tenant.residence)
        t0 = old.sim_time
        context = suspend(old)
        suspend_cost = old.sim_time - t0
        resume_cost = self._move(tenant, destination or SOFTWARE, "migrate",
                                 context)
        report = MigrationReport(
            source=source,
            destination=label(destination or SOFTWARE),
            state_bits=old.program.state.total_bits,
            suspend_seconds=suspend_cost,
            resume_seconds=resume_cost,
        )
        self.migrations.append(report)
        return report

    # -- recovery --------------------------------------------------------------

    def recover_from(self, name: str, err: FabricError) -> None:
        """Quarantine *name*'s faulted host and restore everyone it
        carried."""
        host = self.tenants[name].host
        if host is None:
            # A software tenant has no board to lose; a fabric error
            # here is protocol misuse, not something restore can fix.
            raise err
        if not host.quarantined:
            self.quarantines += 1
        host.quarantine()
        victims = [t for t in self.tenants.values() if t.residence is host]
        for victim in victims:
            # Recovery destinations can die too (cascading failure):
            # quarantine each one that faults mid-restore and move on
            # to the next healthy host, ultimately software.
            while True:
                destination = self._healthy_host(exclude=(host,))
                if destination is None and not self.software_fallback:
                    raise PersistentFabricError(
                        "no healthy hypervisor left to restore onto"
                    ) from err
                try:
                    self._restore(victim, destination)
                    break
                except FabricError:
                    if destination is None:
                        raise  # a software restore fault is not a board loss
                    if not destination.quarantined:
                        self.quarantines += 1
                    destination.quarantine()

    def _restore(self, tenant: Tenant, destination: Optional[Hypervisor]) -> None:
        checkpoint = tenant.checkpoint
        if checkpoint is None:
            raise PersistentFabricError(
                f"tenant {tenant.name!r} has no checkpoint to restore"
            )
        crashed = tenant.runtime
        # The crashed runtime's clock already absorbed the failure's
        # detection costs (deadline waits, backoff); recovery continues
        # from there, never from the checkpoint's (earlier) timestamp.
        cost = self._move(tenant, destination or SOFTWARE, "restore",
                          checkpoint.context, not_before=checkpoint.sim_time)
        tenant.recoveries += 1
        self.recoveries.append(RecoveryReport(
            tenant=tenant.name,
            checkpoint_ticks=checkpoint.ticks,
            crash_ticks=crashed.ticks,
            destination=label(destination or SOFTWARE),
            restore_seconds=cost,
        ))

    # -- reporting --------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Fleet health: the ``stats()``/``utilization()`` idiom."""
        cohorts = self.cohorts
        return {
            "tenants": len(self.tenants),
            "hypervisors": len(self.hypervisors),
            "healthy_hypervisors": sum(h.healthy for h in self.hypervisors),
            "quarantines": self.quarantines,
            "recoveries": self.moved("restore"),
            "migrations": self.moved("migrate"),
            "idle_fastforwards": self.idle_fastforwards,
            "checkpoints": self.checkpoints_taken,
            "retry": [h.retry.stats() for h in self.hypervisors],
            "cohorts": {
                "active": len(cohorts),
                "formed": self.moved("found"),
                "refused": dict(self.cohorts_refused),
                "sizes": [engine.size for engine in cohorts],
                "lane_divergence": self._cohort_divergence + sum(
                    engine.divergence for engine in cohorts),
                "vector_ticks": self._cohort_vector_ticks + sum(
                    engine.vector_ticks for engine in cohorts),
            },
        }
