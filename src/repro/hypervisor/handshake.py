"""The state-safe compilation handshake (paper §4.2, Figure 7).

Changing the text of one instance's sub-programs requires reprogramming
the whole FPGA, which would destroy every connected instance's state.
The hypervisor therefore schedules destructive events only when all
connected instances are between logical clock-ticks and have saved
their state:

1. a compilation request runs asynchronously until it would do
   something destructive;
2. the hypervisor asks every connected instance to schedule an
   interrupt between its logical clock ticks;
3. at the interrupt, each instance issues ``get`` requests to save its
   program state and replies that reprogramming is safe;
4. the device is reprogrammed; instances ``set`` their state back and
   control proceeds as normal.

For programs implementing the quiescence protocol, step 3 waits for a
``$yield`` and captures only non-volatile variables (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.pipeline import CompiledProgram
from ..fabric.bitstream import Bitstream
from ..fabric.board import SimulatedBoard
from ..fabric.retry import RetryPolicy, retry_call


@dataclass
class HandshakeReport:
    """Accounting for one state-safe reprogramming epoch."""

    engines_paused: int = 0
    bits_saved: int = 0
    bits_restored: int = 0
    reconfig_seconds: float = 0.0
    transfer_seconds: float = 0.0
    #: bitstream-load attempts that failed transiently and were retried
    program_retries: int = 0
    #: modeled backoff spent on those retries
    retry_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.reconfig_seconds + self.transfer_seconds + self.retry_seconds


#: get/set bandwidth used for bulk state evacuation during handshakes.
HANDSHAKE_BANDWIDTH_BITS_S = 2e6


def state_safe_reprogram(
    board: SimulatedBoard,
    bitstream: Bitstream,
    programs: Dict[int, CompiledProgram],
    capture_sets: Optional[Dict[int, List[str]]] = None,
    retry: Optional[RetryPolicy] = None,
) -> HandshakeReport:
    """Execute the Figure 7 protocol against a simulated board.

    *capture_sets* optionally narrows each engine's saved variables to
    its quiescence capture set.  Engines present before and after the
    epoch have their state preserved across the reprogram; new engines
    power up fresh.
    """
    capture_sets = capture_sets or {}
    report = HandshakeReport()

    # Steps 2-4: interrupt every connected instance between ticks and
    # evacuate state through get requests.
    saved: Dict[int, Dict[str, object]] = {}
    for engine_id, slot in list(board.slots.items()):
        if engine_id not in programs:
            continue  # retired: flagged for removal, state discarded
        names = capture_sets.get(engine_id)
        snapshot = board.snapshot(engine_id, names)
        saved[engine_id] = snapshot
        bits = slot.sim.store.state_bits(names)
        report.bits_saved += bits
        report.engines_paused += 1

    # Step 5 complete: reprogram the device.  Bitstream loads can fail
    # transiently (fault injection); program() raises before destroying
    # the running design, so the saved state stays valid across retries.
    _, retries, backoff = retry_call(
        retry if retry is not None else RetryPolicy(),
        lambda: board.program(bitstream, programs),
    )
    report.program_retries = retries
    report.retry_seconds = backoff
    report.reconfig_seconds = board.device.reconfig_seconds

    # Reverse handshake: instances restore their state with sets.
    for engine_id, snapshot in saved.items():
        board.restore(engine_id, snapshot)
        report.bits_restored += board.slots[engine_id].sim.store.state_bits(
            capture_sets.get(engine_id)
        )

    report.transfer_seconds = (
        (report.bits_saved + report.bits_restored) / HANDSHAKE_BANDWIDTH_BITS_S
    )
    return report
