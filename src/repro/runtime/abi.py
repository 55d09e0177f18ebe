"""The constrained engine ABI (paper §2.1).

Cascade retains the flexibility to relocate engines by imposing a
constrained ABI on its IR, mediated by messages over the runtime's
data/control plane.  The subset relevant to Synergy:

* ``Get``/``Set`` — read and write an engine's inputs, outputs and
  program variables;
* ``Evaluate``/``Update`` — run until no more events can be scheduled /
  latch non-blocking results;
* ``Cont`` — resume after the runtime services a trap;
* ``Snapshot``/``Restore`` — bulk state capture (sequences of gets/sets
  in the paper; batched here with equivalent accounting);
* ``ReadExpr``/``WriteLval`` — argument fetch and result placement when
  servicing a trap (bundles of gets/sets).

Every message crossing an :class:`AbiChannel` is counted and costed,
because ABI frequency is exactly what determines virtualization overhead
for IO-heavy programs (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Protocol, Tuple

from ..fabric.board import BatchReply, TrapReply
from ..fabric.errors import (
    DeadlineExceededError,
    PersistentFabricError,
    SlotHangError,
    TransientFabricError,
)
from ..fabric.retry import RetryPolicy
from ..verilog import ast_nodes as ast


class Message:
    """Base class for ABI messages."""

    __slots__ = ()


@dataclass(frozen=True)
class Get(Message):
    name: str


@dataclass(frozen=True)
class Set(Message):
    name: str
    value: int


@dataclass(frozen=True)
class Evaluate(Message):
    pass


@dataclass(frozen=True)
class Update(Message):
    pass


@dataclass(frozen=True)
class Cont(Message):
    pass


@dataclass(frozen=True)
class Snapshot(Message):
    names: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class Restore(Message):
    state: Dict[str, Any] = field(default_factory=dict, hash=False, compare=False)


@dataclass(frozen=True)
class ReadExpr(Message):
    expr: ast.Expr


@dataclass(frozen=True)
class WriteLval(Message):
    lhs: ast.Expr
    value: int


@dataclass(frozen=True)
class RunTicks(Message):
    """Batch execution: drive up to *ticks* virtual clock periods
    on-device with no per-tick host interaction.

    This is the Cascade optimization (§4.1) that gets batch-style
    applications under one ABI request per second: the device toggles
    the virtual clock itself and only returns early on a trap.
    """

    clock: str
    ticks: int


class AbiTarget(Protocol):
    """Anything able to service engine ABI messages (board backend,
    hypervisor client, nested hypervisor)."""

    def handle(self, engine_id: int, message: Message) -> Any: ...


@dataclass
class ChannelStats:
    """Traffic accounting for one engine's data/control plane."""

    messages: int = 0
    gets: int = 0
    sets: int = 0
    evaluates: int = 0
    traps_serviced: int = 0
    seconds: float = 0.0
    #: supervised-delivery health counters (all zero off the chaos path)
    retries: int = 0
    redeliveries: int = 0
    deadline_hits: int = 0
    failures: int = 0


#: Messages safe to deliver more than once: pure reads, and absolute
#: writes whose repeat is a no-op (transformed modules contain only
#: blocking assignments, so the extra settle step cannot relatch).
_IDEMPOTENT = (Get, Set, Snapshot, Restore, ReadExpr, WriteLval)


class AbiChannel:
    """A costed message channel between an engine proxy and its target.

    ``latency_s`` models the host link (Avalon-MM, PCIe) — or the extra
    network hop when the target is a remote hypervisor (§4.1).

    The channel is also the supervised-delivery layer: transient fabric
    failures (dropped messages, lockup glitches) are retried with capped
    exponential backoff under *retry*; hangs are detected by *deadline_s*
    (the call charges at most one deadline of modeled time, then
    surfaces :class:`~repro.fabric.errors.DeadlineExceededError`);
    an exhausted retry budget escalates to
    :class:`~repro.fabric.errors.PersistentFabricError` so the
    supervisor's quarantine-and-restore path takes over.  *faults* is
    the injection plan exercising all of this — ``None`` (the default)
    keeps the happy path exactly as before.
    """

    def __init__(self, target: AbiTarget, engine_id: int, latency_s,
                 faults=None, retry: Optional[RetryPolicy] = None,
                 deadline_s: Optional[float] = None):
        self.target = target
        self.engine_id = engine_id
        #: Either a float, or a zero-arg callable returning the current
        #: latency — the hypervisor uses the latter so IO-path contention
        #: shows up as longer per-message service times (§4.3).
        self.latency_s = latency_s
        self.faults = faults
        self.retry = retry if retry is not None else RetryPolicy()
        self.deadline_s = deadline_s
        self.stats = ChannelStats()

    def current_latency(self) -> float:
        if callable(self.latency_s):
            return float(self.latency_s())
        return float(self.latency_s)

    def _deliver(self, message: Message) -> Any:
        """One delivery attempt, with link-level fault injection."""
        faults = self.faults
        if faults is not None and faults.active:
            faults.drop_message()
            if (isinstance(message, _IDEMPOTENT)
                    and faults.duplicate_message()):
                # At-least-once link: the duplicate lands first, then
                # the delivery whose reply the caller sees.
                self.stats.redeliveries += 1
                self.target.handle(self.engine_id, message)
        return self.target.handle(self.engine_id, message)

    def _charge_detection(self, err: TransientFabricError) -> TransientFabricError:
        """Charge the modeled time it takes to *notice* the failure.

        A hang (or a dropped message) is only observable as silence; a
        supervised channel waits one deadline and classifies, an
        unsupervised one rides out the whole stall.
        """
        if isinstance(err, SlotHangError):
            if self.deadline_s is not None:
                self.stats.seconds += self.deadline_s
                self.stats.deadline_hits += 1
                converted = DeadlineExceededError(
                    f"engine {self.engine_id}: no reply within "
                    f"{self.deadline_s:g}s: {err}")
                converted.__cause__ = err
                return converted
            self.stats.seconds += err.stalled_seconds
        elif self.deadline_s is not None:
            # Lost message: the reply never arrives; detection costs
            # one deadline of waiting.
            self.stats.seconds += self.deadline_s
        return err

    def send(self, message: Message) -> Any:
        self.stats.messages += 1
        if isinstance(message, Get):
            self.stats.gets += 1
        elif isinstance(message, (Set, WriteLval)):
            self.stats.sets += 1
        elif isinstance(message, (Evaluate, Cont)):
            self.stats.evaluates += 1
        elif isinstance(message, (Snapshot, Restore)):
            # Bulk transfers cost proportionally to their size; the
            # target reports the element count via its reply when known,
            # so the base accounting here is the message itself only.
            pass
        attempt = 0
        while True:
            self.stats.seconds += self.current_latency()
            try:
                return self._deliver(message)
            except PersistentFabricError:
                # Dead board / protocol misuse: not the channel's to fix.
                raise
            except TransientFabricError as err:
                err = self._charge_detection(err)
                attempt += 1
                if not self.retry.should_retry(attempt):
                    self.retry.record_exhausted()
                    self.stats.failures += 1
                    raise PersistentFabricError(
                        f"engine {self.engine_id}: "
                        f"{type(message).__name__} failed after "
                        f"{attempt} attempts") from err
                self.stats.retries += 1
                self.stats.seconds += self.retry.record_retry(attempt)
