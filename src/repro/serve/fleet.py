"""The fleet: placement, chunked advance, rebalancing, and recovery.

One :class:`Fleet` owns the supervised board pool the frontend serves
from.  It is the synchronous half of the serving layer — every method
runs to completion between logical ticks — and concentrates all the
policy that needs fleet-wide sight:

* **placement** (:meth:`admit_job`): same-digest software tenants pool
  together so cohort formation has material to vectorize; otherwise
  boards are scored warm-start-first (does the host's artifact store
  already hold this digest's codegen?) and least-loaded second.  A
  placement the fabric refuses falls back to a software engine rather
  than failing the job — admission control already said yes.
* **chunked advance** (:meth:`advance`, :meth:`advance_cohort`): the
  slicer's bounded turns, with the PR 6 recovery path wrapped around
  every chunk — a board death mid-turn quarantines the host and
  restores its tenants from their checkpoint rings, and the turn
  reports whatever progress survived.
* **rebalancing** (:meth:`rebalance`): migration-based load spreading
  at quiescence, reusing the supervisor's suspend→rehydrate→re-place
  machinery (§3.5 pointed at elasticity instead of disaster).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..compiler.service import CompilerService
from ..fabric.errors import FabricError
from ..hypervisor.hypervisor import Hypervisor
from ..hypervisor.supervisor import Supervisor, Tenant, label
from ..hypervisor.telemetry import telemetry_snapshot
from ..interp.compile.batch import HAVE_NUMPY
from ..runtime.cohort import CohortEngine
from ..runtime.runtime import Runtime, SliceReport


@dataclass
class FleetConfig:
    """Placement and balancing policy knobs."""

    #: hardware tenants per board before a board stops taking new ones
    board_capacity: int = 4
    #: load spread (hottest minus coolest board) that triggers migration
    rebalance_threshold: int = 2
    #: minimum same-digest group worth a vector cohort
    cohort_min_size: int = 2
    #: master switch for cohort formation (needs NumPy; off degrades
    #: every software tenant to its scalar engine, nothing else changes)
    cohorts: bool = True


class Fleet:
    """Supervised board pool + software overflow, behind one surface."""

    def __init__(self, hypervisors: List[Hypervisor],
                 config: Optional[FleetConfig] = None,
                 checkpoint_every: int = 8,
                 ring_depth: Optional[int] = None):
        kwargs = {} if ring_depth is None else {"ring_depth": ring_depth}
        self.supervisor = Supervisor(hypervisors,
                                     checkpoint_every=checkpoint_every,
                                     software_fallback=True, **kwargs)
        self.config = config or FleetConfig()
        #: placements the fabric refused (every other placement count
        #: is read off the supervisor's moves)
        self.placement_fallbacks = 0

    # -- introspection -----------------------------------------------------

    @property
    def compiler(self) -> CompilerService:
        """The lead compiler (software tenants share its artifacts)."""
        return self.supervisor.hypervisors[0].compiler

    def runtime(self, name: str) -> Runtime:
        """The tenant's *current* runtime.

        Never cache the returned object across turns: recovery and
        migration replace it wholesale.
        """
        return self.supervisor.tenants[name].runtime

    def tenant(self, name: str) -> Tenant:
        return self.supervisor.tenants[name]

    def attach_journal(self, journal) -> None:
        """Admissions, checkpoints and releases are written ahead to
        *journal* from here on (the supervisor writes them)."""
        self.supervisor.journal = journal

    def destination(self, name: str) -> str:
        """Where *name* lives: a device name, ``cohort`` or ``software``."""
        return label(self.supervisor.tenants[name].residence)

    def board_load(self, host: Hypervisor) -> int:
        return len(self.supervisor.residents.get(host, ()))

    # -- placement ---------------------------------------------------------

    def _software_pool_digest(self, digest: str) -> bool:
        """Any live off-board tenant already running this digest?"""
        return any(t.host is None and not t.runtime.finished
                   and t.runtime.program.digest == digest
                   for t in self.supervisor.tenants.values())

    def _choose_board(self, digest: str) -> Optional[Hypervisor]:
        best, best_score = None, None
        for hv in self.supervisor.hypervisors:
            if not hv.healthy:
                continue
            load = self.board_load(hv)
            if load >= self.config.board_capacity:
                continue
            warmth = hv.compiler.warmth(digest)
            score = (int(warmth["codegen"]) + int(warmth["event"])
                     + int(warmth["batch"]), -load)
            if best_score is None or score > best_score:
                best, best_score = hv, score
        return best

    def admit_job(self, name: str, source: str, digest: str,
                  clock: str = "clock", vfs=None) -> str:
        """Admit and place one job; returns its destination label.

        Same-digest pooling beats a board slot: a software tenant that
        can join a vector cohort amortizes better than one more
        hardware placement, and the slicer treats both identically.
        """
        pool = (self.config.cohorts and HAVE_NUMPY
                and self._software_pool_digest(digest))
        return self._place(
            name, None if pool else self._choose_board(digest),
            source=source, clock=clock, vfs=vfs)

    def readmit(self, name: str, snapshot: Dict[str, object], digest: str,
                clock: str = "clock") -> str:
        """Re-place a tenant from its verified journal *snapshot*;
        returns its destination.

        The recovery analogue of :meth:`admit_job`: boards are scored
        warmth-first — and the warmth probe spans the durable disk tier,
        so a tenant lands where its artifacts already are and restore
        never recompiles.
        """
        return self._place(
            name, self._choose_board(digest), clock=clock,
            context=snapshot["context"],
            not_before=float(snapshot.get("sim_time", 0.0)))

    def _place(self, name: str, board: Optional[Hypervisor], **how) -> str:
        """Admit *name* onto *board*, or onto software when there is
        none — or when the fabric refuses (capacity race, mid-admission
        fault): admission already said yes, so a refusal degrades the
        placement rather than failing the job."""
        if board is not None:
            try:
                self.supervisor.admit(name, host=board, **how)
                return board.device.name
            except FabricError:
                self.placement_fallbacks += 1
        self.supervisor.admit(name, software=True, **how)
        return "software"

    def release(self, name: str) -> None:
        self.supervisor.release(name)

    def add_board(self, hypervisor: Hypervisor) -> None:
        """Grow the fleet; the next rebalance can spread onto it."""
        self.supervisor.hypervisors.append(hypervisor)

    # -- chunked advance (the slicer's turns) ------------------------------

    def advance(self, name: str, budget: int) -> SliceReport:
        """Drive one tenant at most *budget* ticks, with recovery.

        A fabric fault mid-chunk runs the PR 6 path — quarantine the
        host, restore every resident tenant from its checkpoint ring —
        and the turn returns whatever net progress the restored runtime
        kept.  The caller must re-fetch the runtime afterwards.
        """
        runtime = self.runtime(name)
        before = runtime.ticks
        try:
            return runtime.tick_chunk(budget)
        except FabricError as err:
            self.supervisor.recover_from(name, err)
            restored = self.runtime(name)
            return SliceReport(
                ticks=max(0, restored.ticks - before),
                seconds=max(0.0, restored.sim_time - runtime.sim_time),
                finished=restored.finished,
            )

    def advance_cohort(self, names: List[str], budget: int) -> Dict[str, SliceReport]:
        """Drive the cohorts *names* are lanes of up to *budget* ticks.

        A cohort is one engine: one ``advance`` retires the slice for
        every lane — a lane that ``$finish``es mid-chunk stops there,
        accounted as a scalar run would be — and credits every runtime
        before it returns.  A name whose cohort dissolved under it (the
        last lane moves out with its neighbour) takes a scalar chunk.
        """
        reports: Dict[str, SliceReport] = {}
        for name in names:
            cohort = self.tenant(name).residence
            if not isinstance(cohort, CohortEngine):
                reports[name] = self.runtime(name).tick_chunk(budget)
            elif name not in reports:  # else its cohort already advanced
                lanes = self.supervisor.residents[cohort]
                runtimes = [tenant.runtime for tenant in lanes.values()]
                reports.update(zip(lanes, cohort.advance(runtimes, budget)))
        return reports

    def checkpoint(self, name: str) -> None:
        """Checkpoint *name* at this quiescence point; a board that dies
        under it is recovered from like one that dies mid-chunk."""
        try:
            self.supervisor.checkpoint(name)
        except FabricError as err:
            self.supervisor.recover_from(name, err)

    # -- cohorts -----------------------------------------------------------

    def form_cohorts(self, names: List[str]) -> int:
        if not (self.config.cohorts and HAVE_NUMPY):
            return 0
        return self.supervisor.form_cohorts(
            min_size=self.config.cohort_min_size, names=names)

    def in_cohort(self, name: str) -> bool:
        return self.supervisor.in_cohort(name)

    def cohort_candidate(self, name: str) -> bool:
        return self.supervisor.tenants[name].cohort_candidate

    def cohort_refused(self, digest: str) -> bool:
        """Did a formation attempt already find *digest* outside the
        vector subset?  (The reason is in ``stats()``.)"""
        return digest[:12] in self.supervisor.cohorts_refused

    def extract(self, name: str) -> None:
        self.supervisor.extract(name)

    # -- rebalancing -------------------------------------------------------

    def rebalance(self) -> List[str]:
        """Move one tenant hottest→coolest board when the spread says to.

        One migration per call keeps each quiescence window bounded;
        sustained imbalance drains over successive rounds.  Returns the
        migrated tenant names (empty when balanced).
        """
        boards = [hv for hv in self.supervisor.hypervisors if hv.healthy]
        if len(boards) < 2:
            return []
        loads = {hv: self.board_load(hv) for hv in boards}
        hottest = max(boards, key=lambda hv: loads[hv])
        coolest = min(boards, key=lambda hv: loads[hv])
        if loads[hottest] - loads[coolest] < self.config.rebalance_threshold:
            return []
        if loads[coolest] >= self.config.board_capacity:
            return []
        victim = next((t for t in self.supervisor.tenants.values()
                       if t.residence is hottest and not t.runtime.finished),
                      None)
        if victim is None:
            return []
        try:
            self.supervisor.migrate_tenant(victim.name, destination=coolest)
        except FabricError:
            return []
        return [victim.name]

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        out = telemetry_snapshot(supervisor=self.supervisor)
        moved = self.supervisor.moved
        out["placement"] = {
            "hardware": moved(origin="nowhere", to="board"),
            "software": moved(origin="nowhere", to="software"),
            "fallbacks": self.placement_fallbacks,
            "rebalances": moved("migrate", "board", "board"),
            "readmissions": moved("readmit"),
            "board_loads": {f"{hv.device.name}#{i}": self.board_load(hv)
                            for i, hv in
                            enumerate(self.supervisor.hypervisors)},
        }
        return out
