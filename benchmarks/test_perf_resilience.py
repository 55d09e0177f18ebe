"""Resilience benchmark: recovery latency and throughput retention.

Drives one fixed supervised workload over a two-board fleet at 0%, 1%
and 5% injected transient-fault rates, plus a board-death run, and
records the numbers in ``benchmarks/out/BENCH_resilience.json``:
modeled throughput (logical ticks per modeled second) per rate,
retention against the fault-free baseline under the *identical*
checkpoint discipline, and the restore-latency distribution for
supervised board-death recoveries.  Every run is deterministic (seeded
fault plans, modeled clocks), so the numbers are machine-independent.
"""

import dataclasses

from repro.compiler import CompilerService
from repro.fabric import DE10, FaultPlan
from repro.hypervisor import Hypervisor, Supervisor

#: Supervised retry must keep a 1%-fault-rate run within 20% of the
#: fault-free throughput (the acceptance bar for transparent recovery).
MIN_RETENTION_1PCT = 0.80

#: DE10 timing with a fast compile/reconfig so the tenant reaches the
#: hardware path inside a benchmark-sized run (the reliability
#: machinery itself is compile-latency-agnostic).
FAST = dataclasses.replace(DE10, compile_seconds=0.5, reconfig_seconds=0.01)

TICKS = 96
CHECKPOINT_EVERY = 8
FAULT_SEED = 11

APP = """
module bench(input wire clock);
  reg [31:0] n;
  initial n = 0;
  always @(posedge clock) begin
    n <= n + 1;
    if (n % 5 == 0) $display("n=%0d", n);
  end
endmodule
"""


def _mixed_spec(rate):
    """Split *rate* across the transient kinds the channel supervises."""
    return (f"lockup:{rate / 2:.6g},abi_drop:{rate / 4:.6g},"
            f"hang:{rate / 4:.6g}")


def _fleet(service, specs=()):
    hypervisors = [Hypervisor(FAST, compiler=service) for _ in range(2)]
    for hv, spec in zip(hypervisors, specs):
        if spec:
            hv.board.faults = FaultPlan(spec, seed=FAULT_SEED)
    return hypervisors


def _supervised_run(service, specs=()):
    sup = Supervisor(_fleet(service, specs),
                     checkpoint_every=CHECKPOINT_EVERY)
    tenant = sup.admit("bench", APP)
    start = tenant.runtime.sim_time
    sup.run("bench", TICKS)
    runtime = tenant.runtime  # recovery may have re-hosted the tenant
    seconds = runtime.sim_time - start
    return {
        "sup": sup,
        "log": list(runtime.host.display_log),
        "seconds": seconds,
        "ticks_per_sec": runtime.ticks / max(seconds, 1e-12),
        "retries": sum(r["retries"] for r in sup.stats()["retry"]),
    }


def test_resilience_retention_and_recovery_latency(write_result):
    service = CompilerService()
    # Warm the shared artifact store so every fleet's tenant reaches
    # hardware quickly and restores are digest-keyed cache hits.
    _supervised_run(service)

    baseline = _supervised_run(service)
    runs = {
        "fault_1pct": _supervised_run(
            service, specs=(_mixed_spec(0.01), _mixed_spec(0.01))),
        "fault_5pct": _supervised_run(
            service, specs=(_mixed_spec(0.05), _mixed_spec(0.05))),
        "board_death": _supervised_run(service, specs=("board_death@6",)),
    }
    # Faults may slow the run down but never change what it computes.
    for name, run in runs.items():
        assert run["log"] == baseline["log"], f"{name} diverged"

    reports = runs["board_death"]["sup"].recoveries
    assert reports, "board-death run recorded no recovery"
    restores = [r.restore_seconds for r in reports]
    replays = [r.crash_ticks - r.checkpoint_ticks for r in reports]

    def row(run):
        return {
            "modeled_seconds": round(run["seconds"], 4),
            "ticks_per_sec": round(run["ticks_per_sec"], 3),
            "retention": round(run["ticks_per_sec"]
                               / baseline["ticks_per_sec"], 4),
            "retries": run["retries"],
            "recoveries": len(run["sup"].recoveries),
        }

    results = {
        "workload": {"ticks": TICKS, "checkpoint_every": CHECKPOINT_EVERY,
                     "device": FAST.name, "fault_seed": FAULT_SEED},
        "baseline": row(baseline),
        "fault_1pct": row(runs["fault_1pct"]),
        "fault_5pct": row(runs["fault_5pct"]),
        "board_death": row(runs["board_death"]),
        "recovery_latency": {
            "events": len(reports),
            "restore_seconds": [round(s, 4) for s in restores],
            "mean_restore_seconds": round(sum(restores) / len(restores), 4),
            "max_restore_seconds": round(max(restores), 4),
            "replay_ticks": replays,
        },
    }
    result_path = write_result("BENCH_resilience", results)

    retention = results["fault_1pct"]["retention"]
    assert retention >= MIN_RETENTION_1PCT, (
        f"throughput retention at 1% fault rate only {retention:.2%} "
        f"(need >={MIN_RETENTION_1PCT:.0%}); see {result_path}"
    )
