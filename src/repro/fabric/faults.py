"""Deterministic, seed-driven fault injection for the fabric.

A :class:`FaultPlan` decides — reproducibly — when the simulated
fabric misbehaves.  The board consults it at every control-plane
operation and every reprogramming; the ABI channel consults it per
message.  Fault kinds:

* ``lockup``      — evaluate/cont/run_ticks raises
                    :class:`~repro.fabric.errors.SlotLockupError`
                    *before* touching slot state (so a retry replays
                    the operation exactly);
* ``hang``        — the operation wedges: it raises
                    :class:`~repro.fabric.errors.SlotHangError`
                    carrying the modeled stall, which the supervised
                    channel converts into deadline-based detection;
* ``program``     — ``program()`` raises
                    :class:`~repro.fabric.errors.ReprogramError` before
                    destroying the current design (bitstream-load
                    failure; the state-safe handshake retries it);
* ``abi_drop``    — an ABI message is lost before delivery
                    (:class:`~repro.fabric.errors.AbiTimeoutError`);
* ``abi_dup``     — an idempotent ABI message is delivered twice
                    (at-least-once links; handlers must tolerate it);
* ``board_death`` — the whole board dies; every later operation raises
                    :class:`~repro.fabric.errors.BoardDeadError` and
                    all slot state is lost;
* ``disk_torn``   — a durable write (artifact file, journal record,
                    checkpoint snapshot) is cut short mid-stream, as a
                    power loss between ``write`` and ``fsync`` would
                    leave it;
* ``disk_bitrot`` — one byte of a durable write is silently flipped
                    (latent media corruption; the CRC on every frame
                    is what detects it at read time);
* ``disk_enospc`` — the filesystem refuses a durable write outright
                    (``OSError``/``ENOSPC``); best-effort writers skip,
                    write-verified writers retry.

Plans are selected by a *spec* string — comma-separated
``kind:rate`` (per-opportunity probability) and/or ``kind@n`` (fire
deterministically at the n-th opportunity, 0-based) entries, e.g.
``"lockup:0.01,abi_drop:0.02,board_death@40"`` — plus an integer seed.
Each kind draws from its own seeded stream, so adding one fault kind
never perturbs the schedule of another.  ``REPRO_FAULT_SPEC`` and
``REPRO_FAULT_SEED`` select a process-wide default plan (one fresh
plan per board, same spec/seed) for chaos runs of existing suites.
"""

from __future__ import annotations

import os
import random
from typing import Dict, Optional, Set

from .errors import (
    AbiTimeoutError, BoardDeadError, ReprogramError, SlotHangError,
    SlotLockupError,
)

#: Recognized fault kinds, in spec order.
FAULT_KINDS = ("lockup", "hang", "program", "abi_drop", "abi_dup",
               "board_death", "disk_torn", "disk_bitrot", "disk_enospc")

#: Modeled stall of a wedged operation (seconds) — far past any
#: per-operation deadline, so hangs are always *detected*, never waited
#: out.
DEFAULT_HANG_SECONDS = 10.0


class FaultSpecError(ValueError):
    """A fault spec string could not be parsed."""


def parse_fault_spec(spec: str) -> Dict[str, object]:
    """Parse a spec string into ``{"rates": {...}, "at": {...}}``."""
    rates: Dict[str, float] = {}
    at: Dict[str, Set[int]] = {}
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if "@" in entry:
            kind, _, index = entry.partition("@")
            kind = kind.strip()
            if kind not in FAULT_KINDS:
                raise FaultSpecError(f"unknown fault kind {kind!r}; "
                                     f"choose from {FAULT_KINDS}")
            try:
                at.setdefault(kind, set()).add(int(index))
            except ValueError:
                raise FaultSpecError(
                    f"bad scheduled fault {entry!r}: expected kind@index"
                ) from None
            continue
        kind, sep, rate = entry.partition(":")
        kind = kind.strip()
        if not sep:
            raise FaultSpecError(f"bad fault entry {entry!r}: expected "
                                 f"kind:rate or kind@index")
        if kind not in FAULT_KINDS:
            raise FaultSpecError(f"unknown fault kind {kind!r}; "
                                 f"choose from {FAULT_KINDS}")
        try:
            value = float(rate)
        except ValueError:
            raise FaultSpecError(f"bad fault rate in {entry!r}") from None
        if not 0.0 <= value <= 1.0:
            raise FaultSpecError(f"fault rate out of [0,1] in {entry!r}")
        rates[kind] = value
    return {"rates": rates, "at": at}


class FaultPlan:
    """A deterministic schedule of injected fabric faults.

    One plan belongs to one board (and the channels reaching it); its
    decisions depend only on ``(spec, seed)`` and the per-kind
    opportunity counters, never on wall clock or interleaving of other
    fault kinds.
    """

    def __init__(self, spec: str = "", seed: int = 0,
                 hang_seconds: float = DEFAULT_HANG_SECONDS):
        parsed = parse_fault_spec(spec)
        self.spec = spec
        self.seed = seed
        self.rates: Dict[str, float] = parsed["rates"]  # type: ignore[assignment]
        self.at: Dict[str, Set[int]] = parsed["at"]  # type: ignore[assignment]
        self.hang_seconds = hang_seconds
        #: per-kind opportunity counters (how many decisions were taken)
        self.opportunities: Dict[str, int] = {k: 0 for k in FAULT_KINDS}
        #: per-kind injection counters (how many faults actually fired)
        self.injected: Dict[str, int] = {k: 0 for k in FAULT_KINDS}
        self._rngs: Dict[str, random.Random] = {
            kind: random.Random(f"{seed}:{kind}") for kind in FAULT_KINDS
        }

    @property
    def active(self) -> bool:
        """Whether this plan can ever inject anything."""
        return bool(self.rates or self.at)

    def fire(self, kind: str) -> bool:
        """Take one decision for *kind*; True when the fault fires.

        Every call consumes exactly one opportunity (and, for rated
        kinds, one RNG draw), so schedules are stable under replay.
        """
        index = self.opportunities[kind]
        self.opportunities[kind] = index + 1
        fired = index in self.at.get(kind, ())
        rate = self.rates.get(kind, 0.0)
        if rate:
            # Draw even when a scheduled fault already fired, keeping
            # the rated stream aligned with the opportunity counter.
            drawn = self._rngs[kind].random() < rate
            fired = fired or drawn
        if fired:
            self.injected[kind] += 1
        return fired

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Injection counters, the ``stats()`` idiom of the stack."""
        return {
            "opportunities": dict(self.opportunities),
            "injected": dict(self.injected),
        }

    # -- decision sites ----------------------------------------------------

    def control_op(self, board, op: str) -> None:
        """One control-plane operation (evaluate/cont/run_ticks).

        Raises the injected failure; ``board_death`` also marks the
        board dead so every subsequent operation fails persistently.
        """
        if self.fire("board_death"):
            board.kill()
            raise BoardDeadError(
                f"board {board.device.name} died during {op}"
            )
        if self.fire("lockup"):
            raise SlotLockupError(f"injected slot lockup during {op}")
        if self.fire("hang"):
            raise SlotHangError(f"injected slot hang during {op}",
                                stalled_seconds=self.hang_seconds)

    def program_op(self, board) -> None:
        """One reprogramming attempt (bitstream load)."""
        if self.fire("board_death"):
            board.kill()
            raise BoardDeadError(
                f"board {board.device.name} died during reprogram"
            )
        if self.fire("program"):
            raise ReprogramError(
                f"injected bitstream-load failure on {board.device.name}"
            )

    def drop_message(self) -> None:
        """One ABI message about to be delivered; may drop it."""
        if self.fire("abi_drop"):
            raise AbiTimeoutError("injected ABI message loss")

    def duplicate_message(self) -> bool:
        """Whether to deliver the current idempotent message twice."""
        return self.fire("abi_dup")

    def disk_write(self) -> Optional[str]:
        """One durable write about to happen; how it should misbehave.

        Returns ``None`` (healthy), ``"enospc"`` (the write must fail
        with an ``OSError`` before touching the file), ``"torn"`` (the
        write lands truncated), or ``"bitrot"`` (one byte lands
        flipped).  Every call consumes one opportunity per disk kind,
        so retry loops redraw deterministically — a write-verified site
        that retries after an injected fault converges with the same
        schedule on every replay.
        """
        if self.fire("disk_enospc"):
            return "enospc"
        if self.fire("disk_torn"):
            return "torn"
        if self.fire("disk_bitrot"):
            return "bitrot"
        return None

    # -- derived deterministic streams -------------------------------------

    def rng_for(self, label: str) -> random.Random:
        """A consumer-owned RNG derived from the plan seed.

        Lets subsystems that need randomness *correlated with the fault
        plan's seed* (e.g. retry-backoff jitter) stay deterministic
        under replay without sharing — and thus perturbing — the
        per-kind fault streams.
        """
        return random.Random(f"{self.seed}:{label}")


def default_fault_plan() -> Optional[FaultPlan]:
    """The ambient plan selected by ``REPRO_FAULT_SPEC``/``_SEED``.

    Returns ``None`` when no spec is set (the overwhelmingly common
    case) so fault bookkeeping stays entirely off the hot path.  Read
    per call — a test monkeypatching the environment affects every
    board constructed afterwards, matching ``REPRO_SIM_BACKEND``.
    """
    spec = os.environ.get("REPRO_FAULT_SPEC")
    if not spec:
        return None
    seed = int(os.environ.get("REPRO_FAULT_SEED", "0"))
    return FaultPlan(spec, seed)
