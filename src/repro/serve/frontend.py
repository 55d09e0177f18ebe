"""The asyncio serve frontend: submissions in, results out.

:class:`ServeFrontend` is the event-driven serving plane over one
:class:`~repro.serve.fleet.Fleet`.  Clients ``await submit(...)`` and
get a :class:`~repro.serve.handle.TenantHandle`; one scheduler task
drains the admission queue and runs fair-share turns, cooperating with
the event loop between turns (``await asyncio.sleep(0)``) so
submissions, cancellations, and stream consumers interleave with
execution — progress is event-driven, never lock-stepped on the
slowest tenant.

The execution invariant everything hangs off: **a tenant only ever
changes hands at a quiescence point** (between logical ticks).  A turn
is one bounded synchronous chunk (``Runtime.tick_chunk``); preemption
is the turn budget running out; suspension, checkpointing, migration,
cohort formation/extraction, and cancellation teardown all happen at
the turn boundary, where the paper's ``$save``/``$restart`` machinery
guarantees a consistent state.  A job's life is one ``TenantState``
(``handle.TRANSITIONS``) that only ``_transition`` moves.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..fabric.errors import FabricError
from ..hypervisor.durable import RecoveryError, TenantJournal
from ..hypervisor.supervisor import COHORT_FLOOR
from ..runtime.runtime import SliceReport
from .admission import AdmissionController, UnknownDigestError
from .fleet import Fleet
from .handle import (
    PLACED, SLOT, TRANSITIONS, IllegalTransition, TenantHandle, TenantResult,
    TenantState,
)
from .slicer import DEFAULT_PRIORITIES, FairShareSlicer


@dataclass
class ServeConfig:
    """Frontend policy: budgets, quantum, priorities, hygiene."""

    #: concurrently *running* jobs (scheduling slots)
    max_running: int = 8
    #: queued-but-not-started jobs (bounded backlog)
    max_queue: int = 64
    #: in-flight (queued + running) jobs per principal
    per_tenant: int = 8
    #: base tick quantum one weight unit earns per scheduling round
    quantum_ticks: int = 32
    #: priority class → tick-share weight
    priorities: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_PRIORITIES))
    #: checkpoint every preempted tenant before it leaves the engine
    #: (bounds replay after a board death to one turn)
    checkpoint_on_preempt: bool = True
    #: scheduling turns between quiescence sweeps (rebalance + cohorts)
    quiescence_every: int = 8


@dataclass
class _Job:
    """Scheduler-side record of one submission."""

    name: str
    source: str
    digest: str
    handle: TenantHandle
    priority: str
    principal: str
    #: tick target, or None for run-until-$finish
    target: Optional[int]
    clock: str
    vfs: object
    seq: int
    submitted_at: float
    #: the one lifecycle field; written only by ``_transition``
    state: Optional[TenantState] = None
    first_tick_at: Optional[float] = None
    cursor: int = 0           #: display lines already streamed
    preemptions: int = 0
    migrations: int = 0

    def __lt__(self, other: "_Job") -> bool:
        return self.seq < other.seq


@dataclass
class _CohortUnit:
    """A lockstep group of same-digest jobs scheduled as one unit."""

    priority: str
    jobs: List[_Job]


class ServeFrontend:
    """Async multi-tenant serving over a hypervisor fleet."""

    def __init__(self, fleet: Fleet, config: Optional[ServeConfig] = None,
                 journal: Optional[TenantJournal] = None):
        self.fleet = fleet
        self.config = config or ServeConfig()
        #: write-ahead tenant journal; shared with the supervisor so
        #: admissions, checkpoints, and releases land in the same log
        self.journal = journal
        if journal is not None:
            self.fleet.attach_journal(journal)
        #: tenants recover() could not restore, by name
        self.recovery_errors: Dict[str, RecoveryError] = {}
        self.admission = AdmissionController(self.config)
        self.slicer = FairShareSlicer(quantum=self.config.quantum_ticks,
                                      priorities=self.config.priorities)
        self._jobs: Dict[str, _Job] = {}
        #: the live (non-terminal) jobs, in submission order
        self._live: Dict[str, _Job] = {}
        self._results: Dict[str, TenantResult] = {}
        self._queue: List[Tuple[int, _Job]] = []  # (class_rank, job) heap
        # Queued jobs start heaviest class first, FIFO within a class.
        by_weight = sorted(self.config.priorities,
                           key=lambda n: -self.config.priorities[n])
        self._ranks = {name: i for i, name in enumerate(by_weight)}
        self._programs: Dict[str, str] = {}  # digest → source text
        self._seq = 0
        self._turns = 0
        self.started_order: List[str] = []
        self._task: Optional[asyncio.Task] = None
        self._wake = asyncio.Event()
        self._closed = False

    # -- program registry --------------------------------------------------

    def register(self, source: str, top: Optional[str] = None) -> str:
        """Intern *source* for submit-by-digest; returns the digest.

        Compiled through the fleet's lead compiler, so registration
        also warms the artifact chain every placement scores against.
        """
        program = self.fleet.compiler.compile_program(source, top)
        self._programs[program.digest] = source
        return program.digest

    # -- submission --------------------------------------------------------

    async def submit(self, source: Optional[str] = None, *,
                     digest: Optional[str] = None,
                     ticks: Optional[int] = None,
                     priority: str = "normal",
                     tenant: str = "default",
                     name: Optional[str] = None,
                     clock: str = "clock",
                     vfs=None) -> TenantHandle:
        """Submit one job; returns its handle (or raises AdmissionError).

        Exactly one of *source* (Verilog text) or *digest* (a program
        interned via :meth:`register`) identifies the design.  *ticks*
        bounds the run; omitted, the job runs until ``$finish``.
        *tenant* is the principal charged against the per-tenant
        budget; *priority* picks the fair-share class.
        """
        if self._closed:
            raise RuntimeError("frontend is closed")
        if (source is None) == (digest is None):
            raise ValueError("pass exactly one of source= or digest=")
        if priority not in self.config.priorities:
            raise ValueError(
                f"unknown priority {priority!r}; "
                f"configured: {sorted(self.config.priorities)}")
        if digest is not None:
            interned = self._programs.get(digest)
            if interned is None:
                raise UnknownDigestError(
                    f"digest {digest[:12]}… was never registered here")
            source = interned
        else:
            digest = self.register(source)
        self.admission.check_submit(tenant)  # raises before taking slots
        self._seq += 1
        job_name = name or f"{tenant}-{self._seq}"
        if job_name in self._jobs:
            raise ValueError(f"job name {job_name!r} already in use")
        handle = TenantHandle(job_name, priority, tenant)
        handle._frontend = self
        job = _Job(name=job_name, source=source, digest=digest,
                   handle=handle, priority=priority, principal=tenant,
                   target=ticks, clock=clock, vfs=vfs, seq=self._seq,
                   submitted_at=time.monotonic())
        self._jobs[job_name] = job
        self._transition(job, TenantState.QUEUED)
        if self.journal is not None:
            # Write-ahead of any placement work: a crash from here on
            # leaves a journal image recovery can re-run from source.
            self.journal.job(job_name, digest=digest, source=source,
                             priority=priority, principal=tenant,
                             target=ticks, clock=clock, seq=self._seq)
        heapq.heappush(self._queue, (self._ranks[priority], job))
        self._ensure_running()
        self._wake.set()
        return handle

    def _ensure_running(self) -> None:
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._run())

    # -- restart recovery --------------------------------------------------

    async def recover(self, journal: Optional[TenantJournal] = None
                      ) -> Dict[str, TenantHandle]:
        """Replay the journal and re-admit every in-flight tenant.

        The process-restart entry point: a fresh frontend over the same
        journal directory folds the write-ahead log into per-tenant
        images, then for each tenant the crash caught mid-lifecycle:

        * **queued, never placed** — re-enqueued through the normal
          admission path; the dispatcher re-runs it from its journaled
          source.
        * **running** — its newest *verifiable* snapshot (older
          recorded snapshots are the fallbacks) is handed to
          :meth:`Fleet.readmit`, which re-places it warmth-first.  The
          snapshot's context carries the display log, so the new
          handle streams every line exactly once — history included.
        * **unrecoverable** — no snapshot survives verification, or
          re-admission itself fails: the handle is failed with a typed
          :class:`RecoveryError` (counted once, under admission's
          ``failed``; it never takes a slot in this process), and a
          terminal record is journaled so the next replay does not
          resurrect it.

        Returns fresh handles by tenant name (awaitable like any
        submission's).  Idempotent per name: tenants already known to
        this frontend are skipped.
        """
        journal = journal if journal is not None else self.journal
        if journal is None:
            raise ValueError("recover() needs a journal: pass one, or "
                             "construct the frontend with journal=")
        self.journal = journal
        self.fleet.attach_journal(journal)
        image = journal.replay()
        recovered: Dict[str, TenantHandle] = {}
        for rec in image.in_flight():
            if rec.name in self._jobs:
                continue
            self._seq = max(self._seq, rec.seq)
            priority = (rec.priority
                        if rec.priority in self.config.priorities
                        else "normal")
            handle = TenantHandle(rec.name, priority, rec.principal)
            handle._frontend = self
            job = _Job(name=rec.name, source=rec.source, digest=rec.digest,
                       handle=handle, priority=priority,
                       principal=rec.principal, target=rec.target,
                       clock=rec.clock, vfs=None, seq=rec.seq,
                       submitted_at=time.monotonic())
            self._jobs[rec.name] = job
            recovered[rec.name] = handle
            if rec.source:
                self._programs.setdefault(rec.digest, rec.source)
            if not rec.admitted and not rec.snapshots:
                self._transition(job, TenantState.QUEUED)
                heapq.heappush(self._queue, (self._ranks[priority], job))
                continue
            snapshot = None
            for fname in reversed(rec.snapshots):
                snapshot = journal.load_snapshot(fname)
                if snapshot is not None:
                    break
            err = None
            if snapshot is None:
                err = RecoveryError(
                    f"tenant {rec.name!r} was in flight at the crash but "
                    f"none of its {len(rec.snapshots)} recorded "
                    f"checkpoint(s) survived verification",
                    tenant=rec.name)
            else:
                try:
                    self.fleet.readmit(rec.name, snapshot, rec.digest,
                                       clock=rec.clock)
                except Exception as cause:
                    err = RecoveryError(
                        f"tenant {rec.name!r} could not be re-admitted "
                        f"after restart: {cause}", tenant=rec.name)
                    err.__cause__ = cause
            if err is not None:
                self.recovery_errors[rec.name] = err
                self._terminate(job, TenantState.FAILED, err)
            else:
                self._start(job)
        if recovered:
            self._ensure_running()
            self._wake.set()
        return recovered

    # -- the lifecycle: one transition, one way out ------------------------

    def _transition(self, job: _Job, new: TenantState) -> None:
        """Move *job* to *new*: the only writer of ``job.state``, the
        handle's status, the index of live jobs and the admission books."""
        old = job.state
        if new not in TRANSITIONS[old]:
            raise IllegalTransition(job.name, old, new)
        if new in SLOT:
            self._live[job.name] = job
        else:
            self._live.pop(job.name, None)
        job.state = job.handle._status = new
        self.admission.move(job.principal, old, new)

    def _start(self, job: _Job) -> None:
        """*job* was just placed: a running slot, a place in the slicer."""
        self._transition(job, TenantState.RUNNING)
        self.started_order.append(job.name)
        self.slicer.admit(job)

    def _terminate(self, job: _Job, state: TenantState,
                   err: Optional[BaseException] = None) -> None:
        """Retire *job* into terminal *state*, undoing whatever its
        current state says it holds.

        A placed job has its result built where it lives (unless it
        failed) and is released from the fleet, whose supervisor writes
        the journal's terminal record; a job that never reached the
        fleet has that record written here.  Either way exactly one.
        """
        result = None
        if job.state in PLACED:
            try:
                if err is None:
                    result = self._build_result(job, state)
                self.fleet.release(job.name)
            except Exception as cause:
                # A dying board cannot block retirement: the job still
                # leaves, as a failure if it was not one already.
                if err is None:
                    state, err, result = TenantState.FAILED, cause, None
        else:
            if err is None:
                result = TenantResult(
                    name=job.name, status=state.value,
                    latency_s=time.monotonic() - job.submitted_at)
            if self.journal is not None:
                self.journal.terminal(job.name, state.value)
                self.journal.drop_snapshots(job.name)
        self._transition(job, state)
        if result is not None:
            self._results[job.name] = result
        job.handle._resolve(result, err)

    # -- cancellation ------------------------------------------------------

    def _cancel(self, name: str) -> bool:
        job = self._jobs.get(name)
        if job is None or job.handle.done:
            return False
        if job.state is TenantState.QUEUED:
            # Never placed: retire immediately (its heap entry is
            # dropped lazily, by its state).
            self._terminate(job, TenantState.CANCELLED)
        elif job.state is not TenantState.CANCELLING:
            # Running or preempted: torn down at its next turn
            # boundary, never mid-tick.
            self._transition(job, TenantState.CANCELLING)
            self._wake.set()
        return True

    # -- the scheduler task ------------------------------------------------

    async def _run(self) -> None:
        try:
            while not self._closed:
                self._dispatch_queued()
                turn = self.slicer.next_turn()
                if turn is None:
                    if not self._queue:
                        self._wake.clear()
                        if not self._live:
                            await self._wake.wait()
                            continue
                    await asyncio.sleep(0)
                    continue
                unit, budget = turn
                if isinstance(unit, _CohortUnit):
                    self._run_cohort_turn(unit, budget)
                else:
                    self._run_job_turn(unit, budget)
                self._turns += 1
                if self._turns % self.config.quiescence_every == 0:
                    self._quiescence_sweep()
                # Yield: submissions, cancels, and stream consumers run.
                await asyncio.sleep(0)
        except asyncio.CancelledError:
            raise
        except BaseException as err:  # scheduler died: fail the in-flight
            for job in list(self._live.values()):
                self._terminate(job, TenantState.FAILED, err)
            raise

    def _dispatch_queued(self) -> None:
        while self._queue and self.admission.can_start():
            _, job = heapq.heappop(self._queue)
            if job.state is not TenantState.QUEUED:
                continue  # cancelled while it waited
            try:
                self.fleet.admit_job(job.name, job.source, job.digest,
                                     clock=job.clock, vfs=job.vfs)
            except Exception as err:
                # A compile failure (or a fleet with no takers) fails
                # the one job, never the scheduler.
                self._terminate(job, TenantState.FAILED, err)
                continue
            self._start(job)

    # -- one job's turn ----------------------------------------------------

    def _run_job_turn(self, job: _Job, budget: int) -> None:
        if job.state is TenantState.CANCELLING:
            self._terminate(job, TenantState.CANCELLED)
            self.slicer.charge(job, 1)
            return
        if job.state is TenantState.PREEMPTED:
            self._transition(job, TenantState.RUNNING)
        runtime = self.fleet.runtime(job.name)
        chunk = budget
        if job.target is not None:
            chunk = min(chunk, max(0, job.target - runtime.ticks))
        if chunk <= 0:
            self._terminate(job, TenantState.COMPLETED)
            self.slicer.charge(job, 1)
            return
        report = self._advance(job, chunk)
        if report is None:
            return
        self.slicer.charge(job, max(1, report.ticks))
        if self._retired(job):
            return
        if report.idle:
            self.slicer.note_idle(job)
            if job.target is not None:
                # The engine proved quiescent: every remaining tick to
                # the target is a no-op, so retire the job now in one
                # near-free dispatch instead of cycling it through
                # further turns.  (An until-$finish idle job has no
                # bounded span to skip; it keeps cycling and only the
                # idle counter notes it.)
                runtime = self.fleet.runtime(job.name)
                if self._advance(job, job.target - runtime.ticks) is None:
                    return
                self.slicer.charge(job, 1)  # nothing executed
                if self._retired(job):
                    return
        self._preempt(job)

    def _advance(self, job: _Job, chunk: int) -> Optional[SliceReport]:
        """One guarded ``fleet.advance``; ``None`` when it failed, and
        the job with it.  The horizon is the rest of its target."""
        try:
            ticks = self.fleet.runtime(job.name).ticks
            horizon = None if job.target is None else job.target - ticks
            report = self.fleet.advance(job.name, chunk, horizon)
        except Exception as err:
            self._terminate(job, TenantState.FAILED, err)
            self.slicer.charge(job, 1)
            return None
        self._note_progress(job, report.ticks)
        return report

    def _retired(self, job: _Job) -> bool:
        """Retire *job* if its runtime is done; says whether it was."""
        runtime = self.fleet.runtime(job.name)  # recovery may swap it
        if runtime.finished:
            self._terminate(job, TenantState.FINISHED)
        elif job.target is not None and runtime.ticks >= job.target:
            self._terminate(job, TenantState.COMPLETED)
        else:
            return False
        return True

    def _preempt(self, job: _Job) -> None:
        job.preemptions += 1
        self._transition(job, TenantState.PREEMPTED)
        if self.config.checkpoint_on_preempt:
            try:
                self.fleet.checkpoint(job.name)
            except FabricError as err:  # and recovery failed too
                self._terminate(job, TenantState.FAILED, err)
                return
        self.slicer.requeue(job)

    # -- one cohort's turn -------------------------------------------------

    def _run_cohort_turn(self, unit: _CohortUnit, budget: int) -> None:
        # Whoever has nothing left to run leaves before the advance: a
        # cancelled job, and one swept into the unit already finished or
        # at its target (it would otherwise tick past it with the rest).
        for job in list(unit.jobs):
            if job.state is TenantState.CANCELLING:
                self._terminate(job, TenantState.CANCELLED)
            if job.handle.done or self._retired(job):
                unit.jobs.remove(job)
        if len(unit.jobs) < COHORT_FLOOR:
            # Too small to vectorize: the supervisor already moved the
            # lanes out; each goes back as an individual unit.
            for job in unit.jobs:
                self.slicer.admit(job)
            self.slicer.charge(unit, 1)
            return
        chunk = budget
        for job in unit.jobs:
            if job.target is not None:
                runtime = self.fleet.runtime(job.name)
                chunk = min(chunk, job.target - runtime.ticks)
        names = [job.name for job in unit.jobs]
        reports = self.fleet.advance_cohort(names, chunk)
        self.slicer.charge(unit, max(1, chunk))
        survivors: List[_Job] = []
        for job in list(unit.jobs):
            self._note_progress(job, reports[job.name].ticks)
            if not self._retired(job):
                survivors.append(job)
        unit.jobs = survivors
        for job in survivors:
            job.preemptions += 1
            # The turn was the unit's: a lane stays PREEMPTED through it
            # (only one that never had a turn of its own is still RUNNING).
            if job.state is TenantState.RUNNING:
                self._transition(job, TenantState.PREEMPTED)
            if self.config.checkpoint_on_preempt:
                self.fleet.checkpoint(job.name)
        if len(survivors) >= COHORT_FLOOR:
            self.slicer.requeue(unit)
        else:
            for job in survivors:
                self.slicer.requeue(job)

    # -- quiescence sweeps (rebalance + cohort formation) ------------------

    def _quiescence_sweep(self) -> None:
        for name in self.fleet.rebalance():
            job = self._jobs.get(name)
            if job is not None:
                job.migrations += 1
        self._form_cohorts()

    def _form_cohorts(self) -> None:
        """Group parked same-priority same-digest software jobs into
        lockstep cohort units (the vector carrier's shape).

        A group that stays scalar goes to the back of its class each
        sweep (serve_burst's median latency is 1.6x without that, so it
        stays until scheduling policy has an issue of its own); a
        digest the vector subset already refused is not asked again.
        """
        if not self.fleet.config.cohorts:
            return
        groups: Dict[Tuple[str, str], List[_Job]] = {}
        for job in self._live.values():
            if (job.state not in PLACED
                    or job.state is TenantState.CANCELLING
                    or not self.fleet.cohort_candidate(job.name)):
                continue
            groups.setdefault((job.priority, job.digest), []).append(job)
        for (priority, digest), jobs in groups.items():
            if len(jobs) < COHORT_FLOOR:
                continue
            for job in jobs:
                self.slicer.withdraw(job)
            if not self.fleet.cohort_refused(digest):
                self.fleet.form_cohorts([j.name for j in jobs])
            joined = []
            for job in jobs:
                if self.fleet.in_cohort(job.name):
                    joined.append(job)
                else:
                    self.slicer.admit(job)
            if joined:
                self.slicer.admit(_CohortUnit(priority=priority, jobs=joined))

    # -- retirement --------------------------------------------------------

    def _note_progress(self, job: _Job, ticks: int = 0) -> None:
        """Stamp the first executed tick; stream new ``$display`` lines."""
        if ticks > 0 and job.first_tick_at is None:
            job.first_tick_at = time.monotonic()
        runtime = self.fleet.runtime(job.name)
        lines = runtime.host.display_log
        for line in lines[job.cursor:]:
            job.handle._emit(line)
        job.cursor = len(lines)

    def _build_result(self, job: _Job, status: TenantState) -> TenantResult:
        self._note_progress(job)
        runtime = self.fleet.runtime(job.name)
        lines = runtime.host.display_log
        state: Dict[str, object] = {}
        if status in (TenantState.COMPLETED, TenantState.FINISHED):
            from ..fuzz.oracle import state_names

            # Architectural state only: boards fold their
            # "__"-prefixed virtualization bookkeeping back into any
            # narrowed snapshot, but a retired tenant's result should
            # read like an unvirtualized run of the same design.
            try:
                state = {
                    name: value for name, value in runtime.engine.snapshot(
                        state_names(runtime.program.flat)).items()
                    if not name.startswith("__")
                }
            except FabricError:
                pass  # a dying board cannot block retirement
        now = time.monotonic()
        tenant = self.fleet.tenant(job.name)
        return TenantResult(
            name=job.name,
            status=status.value,
            ticks=runtime.ticks,
            sim_time=runtime.sim_time,
            finished=runtime.finished,
            finish_code=runtime.host.finish_code,
            display=tuple(lines),
            state=state,
            destination=self.fleet.destination(job.name),
            recoveries=tenant.recoveries,
            migrations=job.migrations,
            preemptions=job.preemptions,
            ttft_s=((job.first_tick_at or now) - job.submitted_at),
            latency_s=now - job.submitted_at,
        )

    # -- lifecycle ---------------------------------------------------------

    def result_of(self, name: str) -> Optional[TenantResult]:
        return self._results.get(name)

    async def drain(self) -> None:
        """Wait until every accepted submission has retired."""
        while True:
            pending = [job.handle._future for job in self._live.values()]
            if not pending:
                return
            await asyncio.gather(*pending, return_exceptions=True)

    async def close(self) -> None:
        """Stop the scheduler; in-flight jobs are cancelled."""
        self._closed = True
        for job in list(self._live.values()):
            self._cancel(job.name)
        if self._task is not None and not self._task.done():
            self._wake.set()
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
        # The scheduler is stopped, so this is a turn boundary for all.
        for job in list(self._live.values()):
            self._terminate(job, TenantState.CANCELLED)

    async def __aenter__(self) -> "ServeFrontend":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            await self.drain()
        await self.close()

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "admission": self.admission.stats(),
            "slicer": self.slicer.stats(),
            "turns": self._turns,
            "jobs": len(self._jobs),
            "retired": len(self._results),
        }
        if self.journal is not None:
            out["journal"] = self.journal.stats()
            out["recovery_errors"] = len(self.recovery_errors)
        out.update(self.fleet.stats())
        return out
