"""Tenant handles: the client's view of one submitted job.

A :class:`TenantHandle` is what :meth:`ServeFrontend.submit` returns —
a future-like object the client awaits for the final
:class:`TenantResult`, polls for status, or async-iterates to stream
``$display`` output as the scheduler produces it.  Handles are plain
asyncio plumbing (one future, one line queue); all scheduling state
lives in the frontend's job record, so a handle can be dropped without
leaking anything but its queued lines.
"""

from __future__ import annotations

import asyncio
import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: queue sentinel marking the end of a job's display stream
_EOF = object()


class TenantState(str, enum.Enum):
    """Where one job is in its life; the values are what
    :meth:`TenantHandle.status` reports."""

    QUEUED = "queued"            #: accepted, waiting for a running slot
    RUNNING = "running"          #: placed; inside a turn, or awaiting its first
    PREEMPTED = "preempted"      #: placed; parked between turns
    CANCELLING = "cancelling"    #: placed; leaves at its next turn boundary
    COMPLETED = "completed"      #: tick target reached
    FINISHED = "finished"        #: ``$finish``
    CANCELLED = "cancelled"
    FAILED = "failed"


_S = TenantState

#: the whole lifecycle: state → the states it may move to.  ``None`` is
#: a job before its first transition (a submission, or a journal image
#: being recovered); terminal states move nowhere.
TRANSITIONS = {
    None: {_S.QUEUED, _S.RUNNING, _S.FAILED},
    _S.QUEUED: {_S.RUNNING, _S.CANCELLED, _S.FAILED},
    _S.RUNNING: {_S.PREEMPTED, _S.CANCELLING, _S.COMPLETED, _S.FINISHED,
                 _S.FAILED},
    _S.PREEMPTED: {_S.RUNNING, _S.CANCELLING, _S.COMPLETED, _S.FINISHED,
                   _S.FAILED},
    _S.CANCELLING: {_S.CANCELLED, _S.FAILED},
    _S.COMPLETED: set(), _S.FINISHED: set(),
    _S.CANCELLED: set(), _S.FAILED: set(),
}

#: what a job in each live state holds: a place in the admission queue,
#: or a running slot and with it a tenant in the fleet
SLOT = {_S.QUEUED: "queued", _S.RUNNING: "running",
        _S.PREEMPTED: "running", _S.CANCELLING: "running"}
PLACED = frozenset(s for s, slot in SLOT.items() if slot == "running")


class IllegalTransition(RuntimeError):
    """A job was asked to make a move :data:`TRANSITIONS` does not list."""

    def __init__(self, name: str, old: Optional[TenantState],
                 new: TenantState):
        super().__init__(f"job {name!r}: illegal transition "
                         f"{old.value if old else 'new'} -> {new.value}")
        self.old, self.new = old, new


@dataclass
class TenantResult:
    """Everything a finished job leaves behind."""

    name: str
    #: "completed" (tick target reached), "finished" ($finish),
    #: "cancelled", or "failed"
    status: str
    ticks: int = 0
    sim_time: float = 0.0
    finished: bool = False
    finish_code: int = 0
    #: full $display transcript, in emission order (exactly-once across
    #: preemption, migration, and recovery)
    display: Tuple[str, ...] = ()
    #: architectural state (register/memory snapshot), when captured
    state: Dict[str, object] = field(default_factory=dict)
    #: where the job last ran ("software", a device name, or "cohort")
    destination: str = "software"
    recoveries: int = 0
    migrations: int = 0
    preemptions: int = 0
    #: wall-clock seconds from submit to first executed tick
    ttft_s: float = 0.0
    #: wall-clock seconds from submit to retirement
    latency_s: float = 0.0


class TenantHandle:
    """Client-side handle for one submission.

    Async-iterating the handle yields ``$display`` lines as the
    scheduler emits them and terminates when the job retires; the
    stream may be consumed concurrently with (or after) awaiting
    :meth:`result`.
    """

    def __init__(self, name: str, priority: str, principal: str):
        self.name = name
        self.priority = priority
        self.principal = principal
        loop = asyncio.get_running_loop()
        self._future: asyncio.Future = loop.create_future()
        self._lines: asyncio.Queue = asyncio.Queue()
        self._status = TenantState.QUEUED
        self._frontend = None  # set by the frontend at submit time

    # -- frontend-side plumbing --------------------------------------------

    def _emit(self, line: str) -> None:
        self._lines.put_nowait(line)

    def _resolve(self, result: Optional["TenantResult"] = None,
                 err: Optional[BaseException] = None) -> None:
        """The job retired: settle the future, end the stream."""
        if not self._future.done():
            if err is not None:
                self._future.set_exception(err)
            elif result.status == "cancelled":
                self._future.cancel()
            else:
                self._future.set_result(result)
        self._lines.put_nowait(_EOF)

    # -- the client surface ------------------------------------------------

    def status(self) -> str:
        """Current lifecycle state (a :class:`TenantState` value):
        ``queued`` → ``running`` (⇄ ``preempted``) → ``completed``/
        ``finished``/``cancelled``/``failed``; a placed job that was
        cancelled reads ``cancelling`` until its next turn boundary."""
        return self._status.value

    @property
    def done(self) -> bool:
        return self._future.done()

    async def result(self) -> TenantResult:
        """Await retirement; raises :class:`asyncio.CancelledError` for
        a cancelled job and the scheduler's exception for a failed one."""
        return await asyncio.shield(self._future)

    def cancel(self) -> bool:
        """Request cancellation; returns False once the job retired.

        A queued job leaves the queue and frees its slots immediately; a
        running (or preempted) job is withdrawn at its next quiescence
        boundary — mid-tick state is never torn down.
        """
        if self._future.done() or self._frontend is None:
            return False
        return self._frontend._cancel(self.name)

    def __aiter__(self) -> "TenantHandle":
        return self

    async def __anext__(self) -> str:
        item = await self._lines.get()
        if item is _EOF:
            # Re-arm the sentinel so a second iteration (or a racing
            # consumer) also terminates instead of hanging.
            self._lines.put_nowait(_EOF)
            raise StopAsyncIteration
        return item
