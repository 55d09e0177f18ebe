"""Cohort engines: N same-program tenants advanced per vector dispatch.

The hypervisor's dominant workload is N instances of one
:class:`~repro.interp.compile.CompiledModuleCode` stepped one at a time
in Python (the artifact store's ~93% hit rate is exactly this shape).
A :class:`CohortEngine` owns one
:class:`~repro.interp.compile.batch.BatchedCohort` — running the lane
program of the shared ``batch`` artifact — and hands each tenant a
:class:`CohortLaneEngine`: an :class:`~repro.runtime.engine.Engine`
whose state is one lane of the cohort's ``(slots, N)`` matrix.

The cohort is the unit of stepping: :meth:`CohortEngine.advance`
retires a slice of vector ticks for every lane and credits every
lane's runtime in that same call — one NumPy dispatch per tick serves
the entire cohort, and no lane is ever ahead of the ticks its runtime
has accounted for, so a snapshot, checkpoint or detach is legal at any
point a caller can reach.  A lane's own ``run_chunk`` (what
``Runtime.tick`` calls) steps only a lane with no live neighbour to
leave behind.

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

from math import inf
from typing import Dict, List, Optional

from ..compiler.service import CompilerService, default_service
from ..core.pipeline import CompiledProgram
from ..interp.compile.batch import (  # noqa: F401  (re-exported for callers)
    BatchedCohort, BatchUnsupported, UnsupportedBackend,
)
from ..interp.compile.batch import np  # None without NumPy: no cohort builds
from ..interp.systasks import TaskHost
from .engine import (
    Engine, SW_SECONDS_PER_STMT, SW_SECONDS_PER_TICK, TickStats,
)
from .runtime import SliceReport


class CohortError(RuntimeError):
    """Raised on cohort protocol misuse (e.g. stepping one lane of many)."""


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
        state = self.cohort.snapshot_lane(member.lane)
        self.cohort.leave(member.lane)
        self.members.remove(member)
        for other in self.members:
            if other.lane > member.lane:
                other.lane -= 1
        member._detached = True
        return state

    # -- vector dispatch ---------------------------------------------------

    def _tick(self, clock: str) -> float:
        """One vector tick of every live lane; returns its modeled
        seconds (the one dispatch's, to be split across those lanes)."""
        cohort = self.cohort
        before = cohort.stmts_executed
        cohort.tick(1, clock)
        self.vector_ticks += 1
        return (SW_SECONDS_PER_TICK
                + (cohort.stmts_executed - before) * SW_SECONDS_PER_STMT)

    def advance(self, runtimes, budget: int) -> List[SliceReport]:
        """Retire up to *budget* vector ticks for every lane and credit
        every lane's runtime (*runtimes*, in lane order) in this call.

        Each tick's cost is split across the lanes live when it ran and
        added to those lanes' clocks in turn — one addition per lane
        per tick, as a scalar run makes, so ``sim_time`` does not depend
        on how a span is cut.  A lane that ``$finish``es is counted and
        charged up to that tick; the loop ends with the budget or the
        last live lane.  Returns each lane's account of the slice.
        """
        if [runtime.engine for runtime in runtimes] != self.members:
            raise CohortError("advance takes every lane's runtime, in lane "
                              "order: a lane left out would be left behind")
        cohort = self.cohort
        cohort.sync_alive()
        clock = runtimes[0].clock
        nows = np.array([runtime.sim_time for runtime in runtimes])
        times = cohort.times.copy()
        for _ in range(budget):
            started = cohort.alive.copy()
            live = np.count_nonzero(started)
            if not live:
                break
            nows[started] += self._tick(clock) / live
        reports = []
        for runtime, ticks, now in zip(
                runtimes, (cohort.times - times).tolist(), nows.tolist()):
            seconds = now - runtime.sim_time
            runtime.credit(TickStats(seconds=seconds, ticks=ticks, now=now))
            reports.append(SliceReport(ticks=ticks, seconds=seconds,
                                       finished=runtime.finished))
        return reports


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
        self._detached = False

    @property
    def cohort(self) -> BatchedCohort:
        return self.engine.cohort

    @property
    def host(self) -> TaskHost:
        return self.cohort.hosts[self.lane]

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
        """A lane steps itself only when that leaves nobody behind: a
        cohort with another live lane moves by ``advance``, all at once."""
        self._check_attached()
        cohort = self.cohort
        cohort.sync_alive()
        if cohort.alive.sum() > cohort.alive[self.lane]:  # a live neighbour
            raise CohortError("run_chunk on one lane of a live cohort; "
                              "CohortEngine.advance steps them together")
        return super().run_chunk(clock, budget, now, until)

    def _step(self, clock: str) -> float:
        return self.engine._tick(clock)

    def snapshot(self, names=None) -> Dict[str, object]:
        self._check_attached()
        return self.cohort.snapshot_lane(self.lane, names)

    def restore(self, state: Dict[str, object]) -> None:
        self._check_attached()
        self.cohort.restore_lane(self.lane, state)
        self.cohort.step()
