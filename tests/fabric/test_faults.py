"""Fault injection and supervised delivery at the fabric layer."""

from pathlib import Path

import pytest

from repro.core import compile_program
from repro.fabric import (
    DE10,
    AbiTimeoutError,
    BitstreamCompiler,
    BoardDeadError,
    BoardError,
    DeadlineExceededError,
    FabricError,
    FaultPlan,
    FaultSpecError,
    PersistentFabricError,
    ReprogramError,
    SimulatedBoard,
    SlotHangError,
    SlotLockupError,
    SynthOptions,
    TransientFabricError,
    parse_fault_spec,
)
from repro.fabric.retry import RetryPolicy, retry_call
from repro.runtime.abi import AbiChannel, Get, Message, TrapReply

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

COUNTER = """
module counter(input wire clock, output wire [31:0] out);
  reg [31:0] n = 0;
  always @(posedge clock) n <= n + 1;
  assign out = n;
endmodule
"""


def board_with(source, faults=None):
    program = compile_program(source)
    compiler = BitstreamCompiler(DE10, SynthOptions())
    bitstream = compiler.compile(program.transform.module, program.hardware_text)
    board = SimulatedBoard(DE10, faults=faults)
    board.program(bitstream, {1: program})
    return board, program


class TestSpecParsing:
    def test_rates_and_scheduled(self):
        parsed = parse_fault_spec("lockup:0.25, abi_drop:0.5, board_death@7")
        assert parsed["rates"] == {"lockup": 0.25, "abi_drop": 0.5}
        assert parsed["at"] == {"board_death": {7}}

    def test_empty_spec_is_inactive(self):
        assert not FaultPlan("").active
        assert FaultPlan("hang:0.1").active

    @pytest.mark.parametrize("spec", [
        "bogus:0.1", "lockup", "lockup:nope", "lockup:1.5", "hang@x",
    ])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(spec)


class TestFaultPlanDeterminism:
    def test_same_seed_same_schedule(self):
        a = FaultPlan("lockup:0.3", seed=11)
        b = FaultPlan("lockup:0.3", seed=11)
        assert [a.fire("lockup") for _ in range(50)] == \
               [b.fire("lockup") for _ in range(50)]

    def test_kinds_draw_from_independent_streams(self):
        solo = FaultPlan("lockup:0.3", seed=5)
        mixed = FaultPlan("lockup:0.3,abi_drop:0.5", seed=5)
        for _ in range(50):
            mixed.fire("abi_drop")  # must not perturb the lockup stream
        assert [solo.fire("lockup") for _ in range(50)] == \
               [mixed.fire("lockup") for _ in range(50)]

    def test_scheduled_fault_fires_exactly_once(self):
        plan = FaultPlan("board_death@2", seed=0)
        fires = [plan.fire("board_death") for _ in range(5)]
        assert fires == [False, False, True, False, False]


class TestBoardFaults:
    def test_lockup_raises_before_state_change(self):
        board, _ = board_with(COUNTER, faults=FaultPlan("lockup@0"))
        cycles_before = board.slots[1].native_cycles
        with pytest.raises(SlotLockupError):
            board.evaluate(1)
        # Pre-mutation injection: nothing ran, so a retry replays exactly.
        assert board.slots[1].native_cycles == cycles_before
        board.evaluate(1)  # next attempt succeeds

    def test_program_failure_preserves_current_design(self):
        board, program = board_with(COUNTER)
        board.set_var(1, "n", 7)
        board.faults = FaultPlan("program@0")
        compiler = BitstreamCompiler(DE10, SynthOptions())
        bitstream = compiler.compile(program.transform.module,
                                     program.hardware_text)
        with pytest.raises(ReprogramError):
            board.program(bitstream, {1: program})
        # The failed load fired before teardown: the old design survives.
        assert board.get_var(1, "n") == 7
        board.program(bitstream, {1: program})  # retry succeeds

    def test_board_death_is_persistent(self):
        board, _ = board_with(COUNTER)
        board.faults = FaultPlan("board_death@0")
        with pytest.raises(BoardDeadError):
            board.evaluate(1)
        assert board.dead
        assert board.slots == {}
        with pytest.raises(BoardDeadError):
            board.get_var(1, "n")
        assert isinstance(BoardDeadError("x"), PersistentFabricError)

    def test_error_hierarchy(self):
        assert issubclass(BoardError, PersistentFabricError)
        assert issubclass(SlotLockupError, TransientFabricError)
        assert issubclass(ReprogramError, TransientFabricError)
        assert issubclass(TransientFabricError, FabricError)
        assert issubclass(PersistentFabricError, FabricError)

    def test_env_selects_ambient_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "lockup:0.1")
        monkeypatch.setenv("REPRO_FAULT_SEED", "42")
        board = SimulatedBoard(DE10)
        assert board.faults is not None
        assert board.faults.seed == 42
        monkeypatch.delenv("REPRO_FAULT_SPEC")
        assert SimulatedBoard(DE10).faults is None


class _FlakyTarget:
    """AbiTarget that fails the first *n* deliveries."""

    def __init__(self, failures, exc=AbiTimeoutError):
        self.failures = failures
        self.exc = exc
        self.attempts = 0

    def handle(self, engine_id: int, message: Message):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise self.exc(f"injected failure {self.attempts}")
        return "ok"


class TestChannelSupervision:
    def test_transient_failures_retried_with_backoff(self):
        policy = RetryPolicy(max_attempts=6, base_backoff_s=1e-4,
                             max_backoff_s=1e-2)
        channel = AbiChannel(_FlakyTarget(3), 1, 1e-6, retry=policy)
        assert channel.send(Get("n")) == "ok"
        assert channel.stats.retries == 3
        # Backoff doubles per attempt: 1e-4 + 2e-4 + 4e-4, plus one link
        # latency per attempt (4 deliveries).
        expected = 4 * 1e-6 + (1e-4 + 2e-4 + 4e-4)
        assert channel.stats.seconds == pytest.approx(expected)

    def test_backoff_ordering_and_cap(self):
        policy = RetryPolicy(base_backoff_s=1e-4, max_backoff_s=4e-4)
        backoffs = [policy.backoff_s(n) for n in range(1, 6)]
        assert backoffs == [1e-4, 2e-4, 4e-4, 4e-4, 4e-4]
        assert backoffs == sorted(backoffs)

    def test_exhausted_retries_escalate_to_persistent(self):
        policy = RetryPolicy(max_attempts=3)
        channel = AbiChannel(_FlakyTarget(99), 1, 1e-6, retry=policy)
        with pytest.raises(PersistentFabricError):
            channel.send(Get("n"))
        assert policy.exhausted == 1
        assert channel.stats.failures == 1

    def test_hang_detected_at_deadline(self):
        policy = RetryPolicy(max_attempts=1)  # no retry: surface the error
        target = _FlakyTarget(99, exc=lambda m: SlotHangError(m, 10.0))
        channel = AbiChannel(target, 1, 1e-6, retry=policy, deadline_s=3e-3)
        with pytest.raises(PersistentFabricError) as info:
            channel.send(Get("n"))
        assert isinstance(info.value.__cause__, DeadlineExceededError)
        assert channel.stats.deadline_hits == 1
        # The channel waits one deadline, not the full 10 s stall.
        assert channel.stats.seconds < 1.0

    def test_unsupervised_channel_rides_out_the_stall(self):
        policy = RetryPolicy(max_attempts=1)
        target = _FlakyTarget(99, exc=lambda m: SlotHangError(m, 10.0))
        channel = AbiChannel(target, 1, 1e-6, retry=policy, deadline_s=None)
        with pytest.raises(PersistentFabricError):
            channel.send(Get("n"))
        assert channel.stats.seconds >= 10.0

    def test_dropped_messages_retried(self):
        board, _ = board_with(COUNTER, faults=FaultPlan("abi_drop@0"))
        channel = AbiChannel(_BoardTarget(board), 1, 1e-6,
                             faults=board.faults,
                             deadline_s=DE10.op_deadline_s)
        board.set_var(1, "n", 5)
        assert channel.send(Get("n")) == 5
        assert channel.stats.retries == 1

    def test_duplicated_delivery_is_idempotent(self):
        board, _ = board_with(COUNTER, faults=FaultPlan("abi_dup@0"))
        channel = AbiChannel(_BoardTarget(board), 1, 1e-6,
                             faults=board.faults)
        board.set_var(1, "n", 9)
        assert channel.send(Get("n")) == 9
        assert channel.stats.redeliveries == 1


class _BoardTarget:
    def __init__(self, board):
        self.board = board

    def handle(self, engine_id: int, message: Message):
        assert isinstance(message, Get)
        return self.board.get_var(engine_id, message.name)


class TestRetryCall:
    def test_returns_result_and_accounting(self):
        policy = RetryPolicy()
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ReprogramError("transient")
            return "done"

        result, retries, backoff = retry_call(policy, flaky)
        assert result == "done" and retries == 2
        assert backoff == pytest.approx(1e-4 + 2e-4)

    def test_persistent_errors_pass_through(self):
        policy = RetryPolicy()

        def dead():
            raise BoardDeadError("gone")

        with pytest.raises(BoardDeadError):
            retry_call(policy, dead)
        assert policy.retries == 0


NBA_LOOP_TRAP = """
module loop_nba_trap(clock);
  input wire clock;
  reg [7:0] cyc = 0;
  reg [7:0] mem [0:3];
  integer i;
  always @(posedge clock) begin
    cyc <= cyc + 1;
    for (i = 0; i < 3; i = i + 1)
      mem[i] <= cyc + i;
    $display("c=%0d", cyc);
  end
endmodule
"""


def _finish_tick(board, outcome):
    """Service pending traps and complete the tick (falling edge)."""
    while outcome.status == "trap":
        outcome = board.cont(1)
    board.set_var(1, "clock", 0)
    return board.evaluate(1)


def _run_ticks(board, n):
    for _ in range(n):
        board.set_var(1, "clock", 1)
        _finish_tick(board, board.evaluate(1))


class TestSnapshotRoundTrip:
    """Checkpoints must capture the §3.4 pending-update queues."""

    def test_narrowed_snapshot_includes_shadow_queues(self):
        source = (CORPUS / "loop_nba_memory.v").read_text()
        board, program = board_with(source)
        _run_ticks(board, 2)
        snap = board.snapshot(1, program.state.captured_names())
        queues = [n for n in snap if n.startswith("__wq") or
                  n.startswith("__wn")]
        assert queues, "pending-update queue state missing from snapshot"

    def test_tick_boundary_roundtrip_on_corpus(self):
        source = (CORPUS / "loop_nba_memory.v").read_text()
        board, program = board_with(source)
        _run_ticks(board, 2)
        snap = board.snapshot(1, program.state.captured_names())

        other, _ = board_with(source)
        other.restore(1, snap)
        _run_ticks(board, 3)
        _run_ticks(other, 3)
        assert board.snapshot(1) == other.snapshot(1)

    def test_mid_schedule_roundtrip_replays_identically(self):
        """Regression: a checkpoint taken at a trap — after the NBA loop
        ran but before the update state drained the queues — must carry
        ``__wqa/__wqd/__wn``, or the restored run drops the writes."""
        board, program = board_with(NBA_LOOP_TRAP)
        _run_ticks(board, 1)
        # Second tick: stop at the $display trap, queues loaded.
        board.set_var(1, "clock", 1)
        outcome = board.evaluate(1)
        assert outcome.status == "trap"
        assert board.get_var(1, "__wn_1") > 0  # live pending updates

        snap = board.snapshot(1, program.state.captured_names())
        other, _ = board_with(NBA_LOOP_TRAP)
        other.restore(1, snap)
        # Ports are driven by the runtime, not captured: resync the
        # virtual clock, then resume from the restored pending trap.
        other.set_var(1, "clock", 1)

        _finish_tick(board, outcome)
        _finish_tick(other, TrapReply("trap", outcome.task_id))
        _run_ticks(board, 2)
        _run_ticks(other, 2)
        board_snap, other_snap = board.snapshot(1), other.snapshot(1)
        board_snap.pop("clock", None), other_snap.pop("clock", None)
        assert board_snap == other_snap


class TestBackoffJitter:
    def test_jitter_spreads_within_bounds(self):
        import random

        policy = RetryPolicy(base_backoff_s=1e-4, max_backoff_s=4e-4,
                             jitter=0.25, rng=random.Random(7))
        base = RetryPolicy(base_backoff_s=1e-4, max_backoff_s=4e-4)
        draws = [policy.backoff_s(n) for n in range(1, 6)]
        for n, drawn in enumerate(draws, start=1):
            nominal = base.backoff_s(n)
            assert 0.75 * nominal <= drawn <= 1.25 * nominal
        # Jitter actually jitters: not every draw is the nominal value.
        assert any(d != base.backoff_s(n)
                   for n, d in enumerate(draws, start=1))

    def test_jitter_is_deterministic_under_replay(self):
        plan_a = FaultPlan("lockup:0.1", seed=11)
        plan_b = FaultPlan("lockup:0.1", seed=11)
        policy_a = RetryPolicy(jitter=0.25, rng=plan_a.rng_for("retry"))
        policy_b = RetryPolicy(jitter=0.25, rng=plan_b.rng_for("retry"))
        assert ([policy_a.backoff_s(n) for n in range(1, 8)]
                == [policy_b.backoff_s(n) for n in range(1, 8)])
        # A different seed gives a different (but still bounded) path.
        policy_c = RetryPolicy(
            jitter=0.25, rng=FaultPlan("lockup:0.1", seed=12).rng_for("retry"))
        assert ([policy_a.backoff_s(n) for n in range(1, 8)]
                != [policy_c.backoff_s(n) for n in range(1, 8)])

    def test_jitter_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_ambient_fault_plan_arms_jittered_retries(self, monkeypatch):
        from repro.hypervisor import Hypervisor

        monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)
        calm = Hypervisor(DE10)
        assert calm.retry.jitter == 0.0
        monkeypatch.setenv("REPRO_FAULT_SPEC", "abi_drop:0.01")
        monkeypatch.setenv("REPRO_FAULT_SEED", "3")
        chaotic = Hypervisor(DE10)
        assert chaotic.retry.jitter == 0.25
        twin = Hypervisor(DE10)
        assert ([chaotic.retry.backoff_s(n) for n in range(1, 5)]
                == [twin.retry.backoff_s(n) for n in range(1, 5)])
