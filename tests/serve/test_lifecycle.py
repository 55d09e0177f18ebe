"""The tenant lifecycle: the transition table, and the books under
adversarial schedules.

:data:`~repro.serve.handle.TRANSITIONS` is the whole lifecycle; the
first half checks it entry by entry (every listed move works, every
other one raises and changes nothing).  The second half is a
Hypothesis state machine that interleaves submissions, cancellations,
scheduling turns, quiescence sweeps, board deaths and ``close()`` in
any order and runs :func:`serve_helpers.audit` — the serving plane's
books and the hypervisor's — after every step.  Two more rules move
tenants behind the scheduler's back: *relocate* (one placed tenant onto
another residence through ``migrate_tenant``) and *process kill* (the
frontend dropped without ``close()``, a fresh fleet and frontend
``recover()``ing from the same journal and ``REPRO_ARTIFACT_DIR``).
The last section seeds one mutation per hypervisor invariant and shows
the audit catching it.
"""

import asyncio
import atexit
import collections
import os
import shutil
import tempfile
import time

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, invariant, precondition, rule,
    run_state_machine_as_test,
)

from repro.compiler import ArtifactStore, DiskArtifactStore
from repro.compiler.service import CompilerService
from repro.fabric import FabricError, FaultPlan
from repro.hypervisor import CheckpointRing, Supervisor, TenantJournal
from repro.interp.compile.batch import HAVE_NUMPY
from repro.runtime import Runtime
from repro.runtime.cohort import CohortEngine
from repro.serve import (
    AdmissionError, IllegalTransition, ServeConfig, ServeFrontend,
    TenantHandle, TenantState,
)
from repro.serve.frontend import _Job
from repro.serve.handle import PLACED, TRANSITIONS

from serve_helpers import APP, APP_FOREVER, APP_IDLE, audit, make_fleet

STATES = list(TenantState)


#: the durable artifact tier every serving "process" here mounts
ARTIFACT_DIR = tempfile.mkdtemp(prefix="lifecycle-art-")
atexit.register(shutil.rmtree, ARTIFACT_DIR, ignore_errors=True)


@pytest.fixture(autouse=True)
def no_fsync(monkeypatch):
    """This file audits the books, not durability: the journal's disk
    barrier would be two thirds of its run time."""
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", ARTIFACT_DIR)


def path_to(state):
    """A legal walk from a newborn job to *state* (breadth first)."""
    frontier = collections.deque([[None]])
    while frontier:
        path = frontier.popleft()
        if path[-1] is state:
            return path[1:]
        frontier.extend(path + [nxt] for nxt in STATES
                        if nxt in TRANSITIONS[path[-1]] and nxt not in path)
    raise AssertionError(f"{state} is unreachable")


def job_in(frontend, state, name="j"):
    handle = TenantHandle(name, "normal", "p")
    job = _Job(name=name, source="", digest="", handle=handle,
               priority="normal", principal="p", target=None, clock="clock",
               vfs=None, seq=1, submitted_at=time.monotonic())
    for step in path_to(state) if state is not None else ():
        frontend._transition(job, step)
    return job


def books(frontend):
    return frontend.admission.stats(), list(frontend._live)


ALL_MOVES = [(old, new) for old in [None] + STATES for new in STATES]


class TestTransitionTable:
    @pytest.mark.parametrize(
        "old,new", [m for m in ALL_MOVES if m[1] not in TRANSITIONS[m[0]]],
        ids=lambda s: s.value if s else "new")
    def test_illegal_move_raises_and_changes_nothing(self, service, old,
                                                     new):
        async def main():
            frontend = ServeFrontend(make_fleet(service, boards=1))
            job = job_in(frontend, old)
            before = books(frontend)
            with pytest.raises(IllegalTransition) as caught:
                frontend._transition(job, new)
            assert (caught.value.old, caught.value.new) == (old, new)
            assert job.state is old
            assert job.handle.status() == (old.value if old else "queued")
            assert books(frontend) == before

        asyncio.run(main())

    @pytest.mark.parametrize(
        "old,new", [m for m in ALL_MOVES if m[1] in TRANSITIONS[m[0]]],
        ids=lambda s: s.value if s else "new")
    def test_legal_move_moves_the_slot(self, service, old, new):
        async def main():
            frontend = ServeFrontend(make_fleet(service, boards=1))
            job = job_in(frontend, old)
            frontend._transition(job, new)
            assert job.state is new and job.handle.status() == new.value
            stats = frontend.admission.stats()
            assert stats["queued"] == (new is TenantState.QUEUED)
            assert stats["running"] == (new in PLACED)
            assert stats["tenants_in_flight"] == (
                new is TenantState.QUEUED or new in PLACED)

        asyncio.run(main())

    def test_terminal_states_are_exactly_the_result_statuses(self):
        terminal = {s.value for s in STATES if not TRANSITIONS[s]}
        assert terminal == {"completed", "finished", "cancelled", "failed"}
        assert {s.value for s in STATES} - terminal == {
            "queued", "running", "preempted", "cancelling"}


# -- the books under adversarial schedules -----------------------------------

#: the digest of a program whose source does not parse
BROKEN = "0" * 64

#: one store for every example: only the first pays for compilation.
#: It writes through to ``ARTIFACT_DIR``, which is all a process
#: restarted by the kill rule has.
SERVICE = CompilerService(ArtifactStore(disk=DiskArtifactStore(ARTIFACT_DIR)))


class CountingJournal(TenantJournal):
    """A journal that remembers how many terminal records it wrote."""

    def __init__(self, root):
        super().__init__(root)
        self.terminals = collections.Counter()

    def terminal(self, name, status):
        self.terminals[name] += 1
        return super().terminal(name, status)


class Lifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.loop = asyncio.new_event_loop()
        self.root = tempfile.mkdtemp(prefix="lifecycle-")
        self.boot(SERVICE)
        self.handles = []
        self.steps = 0
        self.closed = False

    def boot(self, service):
        """One serving process over the journal directory."""
        self.fleet = make_fleet(service, boards=2, board_capacity=1,
                                cohort_min_size=2)
        self.fleet.supervisor.checkpoint_every = 4
        config = ServeConfig(max_running=4, max_queue=4, per_tenant=5,
                             quantum_ticks=2, quiescence_every=3)
        self.frontend = ServeFrontend(self.fleet, config,
                                      journal=CountingJournal(self.root))
        #: a registered program that will not survive dispatch
        self.frontend._programs[BROKEN] = "module broken("
        self.cursors = {}
        self.seen = {}

    def run(self, coro):
        return self.loop.run_until_complete(coro)

    def teardown(self):
        if not self.closed:
            self.close()
            self.books_balance()
        self.acknowledge()
        self.frontend.journal.close()
        self.loop.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def acknowledge(self):
        """A failure nobody awaited is logged: read the settled ones."""
        for handle in self.handles:
            if handle.done and not handle._future.cancelled():
                handle._future.exception()

    # -- rules ---------------------------------------------------------------

    @rule(design=st.sampled_from([APP, APP, APP_FOREVER, APP_IDLE, None]),
          ticks=st.sampled_from([None, 4, 25, 70]),
          priority=st.sampled_from(["high", "low"]),
          principal=st.sampled_from(["ann", "bob"]),
          copies=st.integers(min_value=1, max_value=4))
    def submit(self, design, ticks, priority, principal, copies):
        """A burst of like jobs: what fills the queue and forms cohorts."""
        if design is APP_FOREVER and ticks is None:
            ticks = 11  # (an until-$finish sleeper stays: it idles cheaply)
        for _ in range(copies):
            try:
                self.handles.append(self.run(self.frontend.submit(
                    design, digest=BROKEN if design is None else None,
                    ticks=ticks, priority=priority, tenant=principal)))
                assert not self.closed
            except AdmissionError:
                pass  # a refusal must leave no residue: the audit checks
            except RuntimeError:
                assert self.closed

    @precondition(lambda self: self.handles)
    @rule(pick=st.integers(min_value=0))
    def cancel(self, pick):
        handle = self.handles[pick % len(self.handles)]
        was_done = handle.done
        assert handle.cancel() == (not was_done and not self.closed)

    @precondition(lambda self: not self.closed)
    @rule(turns=st.integers(min_value=1, max_value=6))
    def run_turns(self, turns):
        for _ in range(turns):
            self.run(asyncio.sleep(0))

    @precondition(lambda self: not self.closed)
    @rule()
    def quiescence_sweep(self):
        self.frontend._quiescence_sweep()

    @precondition(lambda self: not self.closed)
    @rule(board=st.integers(min_value=0, max_value=1))
    def kill_board(self, board):
        """The board's next operation — mid-turn — is its last."""
        hypervisor = self.fleet.supervisor.hypervisors[board]
        hypervisor.board.faults = FaultPlan("board_death@0", seed=1)

    @precondition(lambda self: not self.closed)
    @rule(pick=st.integers(min_value=0), where=st.integers(min_value=0))
    def relocate(self, pick, where):
        """Force one tenant parked on its own onto another residence:
        any other board still in service, or software.  Lanes move only
        with their cohort unit, which the sweep and turn rules exercise."""
        supervisor = self.fleet.supervisor
        parked = [job.name for job in self.frontend._live.values()
                  if job.state in PLACED
                  and not self.fleet.in_cohort(job.name)]
        if not parked:
            return
        name = parked[pick % len(parked)]
        elsewhere = [hv for hv in supervisor.hypervisors if hv.healthy
                     and hv is not supervisor.tenants[name].host] + [None]
        try:
            supervisor.migrate_tenant(name, elsewhere[where % len(elsewhere)])
        except FabricError:
            pass  # a dying board on either end: the next turn recovers

    @precondition(lambda self: not self.closed)
    @rule()
    def kill_process(self):
        """Drop the frontend without ``close()``; a fresh process over
        the same journal and artifact directory recovers."""
        task = self.frontend._task
        if task is not None and not task.done():
            task.cancel()
            self.run(asyncio.gather(task, return_exceptions=True))
        self.frontend.journal.close()
        self.acknowledge()
        self.boot(CompilerService())  # nothing survives but the disk
        self.handles = list(self.run(self.frontend.recover()).values())

    @precondition(lambda self: not self.closed and self.steps > 5)
    @rule()
    def close(self):
        self.run(self.frontend.close())
        self.closed = True

    # -- the audit -----------------------------------------------------------

    @invariant()
    def books_balance(self):
        self.steps += 1
        frontend = self.frontend
        audit(frontend, frontend.journal.terminals, self.seen)
        for job in frontend._jobs.values():
            assert job.cursor >= self.cursors.get(job.name, 0)
            self.cursors[job.name] = job.cursor
            result = frontend.result_of(job.name)
            if result is not None and result.status != "cancelled":
                streamed = list(job.handle._lines._queue)[:-1]  # sans EOF
                assert tuple(streamed) == result.display
        if self.closed:
            assert not frontend._live
            assert not self.fleet.supervisor.tenants


#: tier-1: a fixed 100 examples in ~3 s; the slow variant draws ten
#: times as many, fresh ones every run
_QUICK = settings(max_examples=100, stateful_step_count=16, deadline=None,
                  derandomize=True, database=None,
                  suppress_health_check=list(HealthCheck))

TestLifecycle = Lifecycle.TestCase
TestLifecycle.settings = _QUICK


@pytest.mark.slow
def test_lifecycle_ten_times_the_examples():
    run_state_machine_as_test(Lifecycle, settings=settings(
        _QUICK, max_examples=1000, derandomize=False))


# -- the hypervisor's invariants, each falsified by a seeded mutation --------

needs_cohorts = pytest.mark.skipif(not HAVE_NUMPY, reason="cohorts need NumPy")


def audited_serve(monkeypatch):
    """One small serve touching every residence — a board tenant, a
    three-lane cohort that loses its first lane, an idle sleeper that is
    cancelled — audited after every turn.  Returns the lanes' results."""
    monkeypatch.setenv("REPRO_OPT_LEVEL", "2")  # the vector licence
    fleet = make_fleet(SERVICE, boards=1, board_capacity=1)
    config = ServeConfig(max_running=8, quantum_ticks=4, quiescence_every=2,
                         priorities={"normal": 1.0})

    async def main():
        frontend = ServeFrontend(fleet, config)
        seen = {}

        async def turns(n):
            for _ in range(n):
                await asyncio.sleep(0)
                audit(frontend, None, seen)

        board = await frontend.submit(APP_FOREVER, ticks=30, name="board")
        lanes = [await frontend.submit(APP, name=f"lane{i}") for i in range(3)]
        sleeper = await frontend.submit(APP_IDLE, name="sleeper")
        await turns(12)
        assert all(fleet.in_cohort(f"lane{i}") for i in range(3))
        assert fleet.supervisor.idle_fastforwards > 0 or not proves_idle()
        lanes[0].cancel()
        sleeper.cancel()
        while not all(h.done for h in lanes[1:] + [board]):
            await turns(1)
        await frontend.close()
        audit(frontend, None, seen)
        assert not fleet.supervisor.tenants
        return [await h.result() for h in lanes[1:]]

    return asyncio.run(main())


def proves_idle():
    """Only the event-scheduled compiled backend can prove quiescence
    (not ``REPRO_SIM_BACKEND=interp``, not ``REPRO_SIM_EVENT=0``)."""
    runtime = Runtime(APP_IDLE, compiler=SERVICE)
    runtime.tick(8)
    return runtime.is_idle()


def skip_idle_retirement(monkeypatch):
    if not proves_idle():
        pytest.skip("no idle fast-forwards under this configuration")
    move = Supervisor._move

    def mutant(self, *args, **kwargs):
        retired = self._idle_fastforwards
        try:
            return move(self, *args, **kwargs)
        finally:
            self._idle_fastforwards = retired

    monkeypatch.setattr(Supervisor, "_move", mutant)


def skip_ring_drop(monkeypatch):
    monkeypatch.setattr(CheckpointRing, "drop", lambda self, key: None)


def leave_member_behind(monkeypatch):
    detach = CohortEngine.detach

    def mutant(self, member):
        state = detach(self, member)
        self.members.append(member)
        return state

    monkeypatch.setattr(CohortEngine, "detach", mutant)


def count_board_load_twice(monkeypatch):
    book = Supervisor._book

    def mutant(self, tenant, why, origin, to):
        book(self, tenant, why, origin, to)
        if to in self.hypervisors:
            self.residents[to][tenant.name + "'"] = tenant

    monkeypatch.setattr(Supervisor, "_book", mutant)


def forget_a_lane_credit(monkeypatch):
    advance = CohortEngine.advance

    def mutant(self, runtimes, budget):
        runtimes[0].credit = lambda stats: None
        return advance(self, runtimes, budget)

    monkeypatch.setattr(CohortEngine, "advance", mutant)


@needs_cohorts
class TestSeededMutations:
    def test_the_unmutated_serve_balances(self, monkeypatch):
        """...and a tenant that retires from a lane says so: its result
        is built where it lives, before the lane is detached.  The last
        lane of a cohort does not retire from one — its neighbour's
        departure dissolved the cohort and moved it to a scalar engine
        first — and says that."""
        results = audited_serve(monkeypatch)
        assert [r.status for r in results] == ["finished", "finished"]
        assert [r.destination for r in results] == ["cohort", "software"]

    @pytest.mark.parametrize("mutation", [
        skip_idle_retirement, skip_ring_drop, leave_member_behind,
        count_board_load_twice, forget_a_lane_credit],
        ids=lambda m: m.__name__)
    def test_audit_catches(self, monkeypatch, mutation):
        mutation(monkeypatch)
        with pytest.raises(AssertionError):
            audited_serve(monkeypatch)
