"""Cohort engines: N same-program tenants advanced per vector dispatch.

The hypervisor's dominant workload is N instances of one
:class:`~repro.interp.compile.CompiledModuleCode` stepped one at a time
in Python (the artifact store's ~93% hit rate is exactly this shape).
A :class:`CohortEngine` owns one
:class:`~repro.interp.compile.batch.BatchedCohort` — the vectorized
closures of the shared ``batch`` artifact — and hands each tenant a
:class:`CohortLaneEngine`: an :class:`~repro.runtime.engine.Engine`
whose state is one lane of the cohort's ``(slots, N)`` matrix.

Lane engines keep the runtime layer oblivious: ``Runtime.tick`` hands a
lane a tick budget like any other engine.  The first lane asked for
ticks it does not yet have advances the *whole cohort* that many vector
ticks in one loop and credits every other live lane with its share of
each dispatch's cost — so a lane's state may be ahead of the ticks its
runtime has accounted for.  Driven in lockstep (same budget, chunk by
chunk at quiescence boundaries), every lane after the first finds its
budget already run and only collects the shares: one NumPy dispatch per
tick serves the entire cohort.

Cost accounting splits each vector tick's modeled software seconds
evenly across the lanes that were live when it ran, so a cohort of N
reports the aggregate cost of the one dispatch rather than N scalar
simulations — the speedup shows up in ``sim_time`` exactly as it does
on the wall clock.

Interop with suspend/resume/migration is by construction: a lane
snapshot is bit-compatible with the scalar store snapshot, so
``detach`` produces a state any :class:`SoftwareEngine` can restore
(and ``admit`` accepts one captured from either backend).
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Deque, Dict, List, Optional

from ..compiler.service import CompilerService, default_service
from ..core.pipeline import CompiledProgram
from ..interp.compile.batch import (  # noqa: F401  (re-exported for callers)
    BatchedCohort, BatchUnsupported, UnsupportedBackend,
)
from ..interp.systasks import TaskHost
from .engine import (
    Engine, SW_SECONDS_PER_STMT, SW_SECONDS_PER_TICK, TickStats,
)


class CohortError(RuntimeError):
    """Raised on cohort protocol misuse (e.g. snapshot mid-bank)."""


class CohortEngine:
    """One vectorized cohort of same-digest tenants.

    Building one raises
    :class:`~repro.interp.compile.batch.UnsupportedBackend` when NumPy
    is absent and :class:`~repro.interp.compile.batch.BatchUnsupported`
    when the program is outside the vector subset — callers (the
    supervisor's cohort formation) treat both as "keep the scalar
    engines".
    """

    def __init__(self, program: CompiledProgram,
                 compiler: Optional[CompilerService] = None,
                 opt_level: Optional[int] = None):
        service = compiler if compiler is not None else default_service()
        self.program = program
        self.batch = service.batch(program.flat, env=program.env,
                                   digest=program.digest,
                                   opt_level=opt_level)
        self.cohort = BatchedCohort(self.batch)
        self.members: List["CohortLaneEngine"] = []
        #: vector dispatches issued (each advances every live lane)
        self.vector_ticks = 0

    # -- membership --------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def divergence(self) -> int:
        """Lane-divergence events (masked control flow) so far."""
        return self.cohort.divergence

    def admit(self, host: TaskHost,
              state: Optional[Dict[str, object]] = None,
              time: int = 0) -> "CohortLaneEngine":
        """Join *host* as a new lane; returns its engine.

        *state* is a scalar-compatible snapshot (from any engine kind)
        and *time* the ``$time`` it was taken at; omitted, the lane
        boots fresh through the program's initial blocks.  Requires
        cohort quiescence (between logical ticks).
        """
        lane = self.cohort.join(host, state=state)
        member = CohortLaneEngine(self, lane)
        member.time = time
        self.members.append(member)
        return member

    def detach(self, member: "CohortLaneEngine") -> Dict[str, object]:
        """Remove *member*'s lane; returns its scalar-compatible state.

        The member engine is dead afterwards — the tenant is expected
        to move onto a :class:`SoftwareEngine` restored from the
        returned snapshot (suspend/resume/migration reuse this path).
        """
        if member._banked:
            raise CohortError(
                "detach with banked ticks pending; drain the bank first")
        state = self.cohort.snapshot_lane(member.lane)
        self.cohort.leave(member.lane)
        self.members.remove(member)
        for other in self.members:
            if other.lane > member.lane:
                other.lane -= 1
        member._detached = True
        return state

    # -- vector dispatch ---------------------------------------------------

    def _dispatch(self, clock: str, caller: "CohortLaneEngine", budget: int,
                  now: float, until: float):
        """Advance every live lane up to *budget* ticks for *caller*.

        Each vector tick's cost is split across the lanes live when it
        ran: *caller*'s share goes onto *now*, every other lane's onto
        its bank, which that lane's ``run_chunk`` collects before it
        dispatches anything (a lockstep schedule stays at one dispatch
        per tick).  Stops after the tick that finishes *caller* or
        takes *now* to *until*; returns ``(ticks, now)``.
        """
        cohort = self.cohort
        cohort.sync_alive()
        tick = (cohort.tick if clock == self.batch.clock
                else lambda n: cohort.generic_tick(clock, n))
        host = caller.host
        live = -1
        ticks = 0
        while ticks < budget:
            # Lanes only die inside a dispatch, so the live set moved
            # exactly when its size did.
            n = cohort.n if cohort.alive_all else int(cohort.alive.sum())
            if n != live:
                live = n
                others = [m._banked for m in self.members
                          if m is not caller and cohort.alive[m.lane]]
            before = cohort.stmts_executed
            tick(1)
            self.vector_ticks += 1
            executed = cohort.stmts_executed - before
            seconds = SW_SECONDS_PER_TICK + executed * SW_SECONDS_PER_STMT
            share = seconds / max(1, live)
            for bank in others:
                bank.append(share)
            now += share
            ticks += 1
            if host.finished or now >= until:
                break
        return ticks, now


class CohortLaneEngine(Engine):
    """One tenant's view of a :class:`CohortEngine` (one lane).

    Speaks the same engine ABI as :class:`SoftwareEngine`, so
    :class:`~repro.runtime.runtime.Runtime` drives it unchanged.
    ``kind`` stays ``"software"``: a cohort lane *is* the software
    simulation path, just amortized.
    """

    kind = "software"

    def __init__(self, engine: CohortEngine, lane: int):
        self.engine = engine
        self.lane = lane
        #: per-tick cost shares of ticks other lanes' dispatches already
        #: applied to this lane, oldest first
        self._banked: Deque[float] = deque()
        self._detached = False

    @property
    def cohort(self) -> BatchedCohort:
        return self.engine.cohort

    @property
    def host(self) -> TaskHost:
        return self.cohort.hosts[self.lane]

    @property
    def banked(self) -> int:
        """Vector ticks already applied to this lane but not yet
        accounted through ``run_chunk`` (nonzero only mid-schedule)."""
        return len(self._banked)

    @property
    def time(self) -> int:
        """This lane's ``$time`` (engine snapshots do not carry it, so
        it travels beside them: ``admit(time=)`` in, ``Engine.time`` out)."""
        return int(self.cohort.times[self.lane])

    @time.setter
    def time(self, value: int) -> None:
        self.cohort.times[self.lane] = value

    def _check_attached(self) -> None:
        if self._detached:
            raise CohortError("engine's lane was detached from its cohort")

    # -- Engine ABI --------------------------------------------------------

    def get(self, name: str) -> int:
        self._check_attached()
        return self.cohort.get_value(name, self.lane)

    def set(self, name: str, value: int) -> None:
        self._check_attached()
        self.cohort.set_value(name, value, lane=self.lane)
        self.cohort.step()

    def run_chunk(self, clock: str, budget: int, now: float = 0.0,
                  until: float = inf) -> TickStats:
        self._check_attached()
        start = now
        bank = self._banked
        ticks = 0
        while bank and ticks < budget and now < until:
            now += bank.popleft()
            ticks += 1
        if ticks < budget and now < until and not self.host.finished:
            ran, now = self.engine._dispatch(clock, self, budget - ticks,
                                             now, until)
            ticks += ran
        return TickStats(seconds=now - start, ticks=ticks, now=now)

    def snapshot(self, names=None) -> Dict[str, object]:
        self._check_attached()
        if self._banked:
            # The lane's state is ahead of the ticks its runtime has
            # accounted for; a checkpoint here would replay them.
            raise CohortError(
                "snapshot with banked ticks pending; drain the bank first")
        return self.cohort.snapshot_lane(self.lane, names)

    def restore(self, state: Dict[str, object]) -> None:
        self._check_attached()
        if self._banked:
            raise CohortError(
                "restore with banked ticks pending; drain the bank first")
        self.cohort.restore_lane(self.lane, state)
        self.cohort.step()
