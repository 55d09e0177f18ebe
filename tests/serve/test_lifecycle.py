"""The tenant lifecycle: the transition table, and the books under
adversarial schedules.

:data:`~repro.serve.handle.TRANSITIONS` is the whole lifecycle; the
first half checks it entry by entry (every listed move works, every
other one raises and changes nothing).  The second half is a
Hypothesis state machine that interleaves submissions, cancellations,
scheduling turns, quiescence sweeps, board deaths and ``close()`` in
any order and runs :func:`serve_helpers.audit` after every step.
"""

import asyncio
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

from repro.compiler.service import CompilerService
from repro.fabric import FaultPlan
from repro.hypervisor import TenantJournal
from repro.serve import (
    AdmissionError, IllegalTransition, ServeConfig, ServeFrontend,
    TenantHandle, TenantState,
)
from repro.serve.frontend import _Job
from repro.serve.handle import PLACED, TRANSITIONS

from serve_helpers import APP, APP_FOREVER, audit, make_fleet

STATES = list(TenantState)


@pytest.fixture(autouse=True)
def no_fsync(monkeypatch):
    """This file audits the books, not durability: the journal's disk
    barrier would be two thirds of its run time."""
    monkeypatch.setattr(os, "fsync", lambda fd: None)


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

#: one store for every example: only the first pays for compilation
SERVICE = CompilerService()


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
        self.fleet = make_fleet(SERVICE, boards=2, board_capacity=1,
                                cohort_min_size=2)
        self.fleet.supervisor.checkpoint_every = 4
        config = ServeConfig(max_running=4, max_queue=4, per_tenant=5,
                             quantum_ticks=2, quiescence_every=3)
        self.frontend = ServeFrontend(self.fleet, config,
                                      journal=CountingJournal(self.root))
        #: a registered program that will not survive dispatch
        self.frontend._programs[BROKEN] = "module broken("
        self.handles = []
        self.cursors = {}
        self.steps = 0
        self.closed = False

    def run(self, coro):
        return self.loop.run_until_complete(coro)

    def teardown(self):
        if not self.closed:
            self.close()
            self.books_balance()
        for handle in self.handles:  # a failure nobody awaited is logged
            if not handle._future.cancelled():
                handle._future.exception()
        self.frontend.journal.close()
        self.loop.close()
        shutil.rmtree(self.root, ignore_errors=True)

    # -- rules ---------------------------------------------------------------

    @rule(design=st.sampled_from([APP, APP, APP_FOREVER, None]),
          ticks=st.sampled_from([None, 4, 25, 70]),
          priority=st.sampled_from(["high", "low"]),
          principal=st.sampled_from(["ann", "bob"]),
          copies=st.integers(min_value=1, max_value=4))
    def submit(self, design, ticks, priority, principal, copies):
        """A burst of like jobs: what fills the queue and forms cohorts."""
        if design is APP_FOREVER and ticks is None:
            ticks = 11
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
        audit(frontend, frontend.journal.terminals)
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


#: tier-1: a fixed 100 examples in ~2 s; the slow variant draws ten
#: times as many, fresh ones every run
_QUICK = settings(max_examples=100, stateful_step_count=12, deadline=None,
                  derandomize=True, database=None,
                  suppress_health_check=list(HealthCheck))

TestLifecycle = Lifecycle.TestCase
TestLifecycle.settings = _QUICK


@pytest.mark.slow
def test_lifecycle_ten_times_the_examples():
    run_state_machine_as_test(Lifecycle, settings=settings(
        _QUICK, max_examples=1000, derandomize=False))
