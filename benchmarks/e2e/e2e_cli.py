"""The one command: run, check, print, and (when asked) compare or record.

Two ways in.  Without ``--seconds``/``--trace`` it is the report for
people: all workloads (or one), warm-up + K timed rounds + one traced
round each, every metric printed by name with its unit, result and
trace files under ``out/``.  With them it is the contract the driver
calls once per (workload, seed): one workload measured for
``--seconds``, last stdout line one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.harness.common import bench_vfs

from e2e_check import (
    GOLDEN_PATH, Reference, disagreements, golden_mismatches, load_golden,
)
from e2e_metrics import (
    END_TO_END, MIN_SAMPLES_P95, PER_LAYER, SCOPED, benchmark_json,
    busy_seconds, end_to_end, exact_signature, per_layer, percentile,
    pooled_percentiles, summarize,
)
from e2e_replay import replay
from e2e_trace import Tracer, check_nesting, write_chrome_trace
from e2e_workloads import HERE, WORKLOADS, Round, Runner, serve_paced_jobs

DEFAULT_SEED = 11
DEFAULT_ROUNDS = 5
REPO = HERE.parent.parent

#: ``cohort_burst``'s vector dispatch runs: design → (metric suffix, lanes)
COHORT_LANES = {"mips32": ("lanes128", 128), "counter": ("lanes12", 12)}
COHORT_LANES_SMOKE = {"mips32": ("lanes128", 8), "counter": ("lanes12", 3)}


# -- measuring one workload ----------------------------------------------------


def _checked(runner: Runner, round_: Round, jobs,
             golden: Optional[Dict[str, str]]) -> List[str]:
    """Names of tenants of *round_* whose output is wrong."""
    wrong = set(disagreements(round_.canary_samples + round_.samples))
    wrong.update(runner.wrong_canaries(round_, jobs))
    wrong.update(golden_mismatches(round_.samples, golden))
    if wrong & {s["name"] for s in round_.canary_samples}:
        # A wrong canary convicts the design: fail every tenant of it.
        labels = {s["key"].split("@")[0] for s in round_.canary_samples
                  if s["name"] in wrong}
        wrong.update(s["name"] for s in round_.samples
                     if s["key"].split("@")[0] in labels)
    return sorted(wrong & {s["name"] for s in round_.samples})


def _backlog_problem(round_: Round, jobs) -> Optional[str]:
    """An open-loop run whose queue grew is not a measurement."""
    last_due = max(job.at for job in jobs)
    p95 = percentile([s["done"] - s["submit"] for s in round_.samples], 0.95)
    if round_.wall_s > last_due + p95 + 0.5:
        return (f"backlog grew: run ended {round_.wall_s:.2f} s after start, "
                f"last due {last_due:.2f} s + p95 latency {p95:.2f} s")
    return None


def measure(name: str, seed: int, out_dir: Path, *, smoke: bool = False,
            rounds: Optional[int] = None, seconds: Optional[float] = None,
            traced: bool = True, workload=None,
            reference: Optional[Reference] = None) -> Dict[str, object]:
    """Run one workload by the protocol; returns its result record.

    Protocol: one discarded warm-up round, then timed rounds with
    tracing off (*rounds* of them, or as many as fit *seconds* of
    measured wall, three at least), then — if *traced* — one traced
    round and the stage replay.  ``--smoke`` is one traced round that
    stands in for both.
    """
    workload = workload or WORKLOADS[name]
    runner = Runner(workload, seed, smoke, out_dir, reference)
    jobs = workload.jobs(seed, smoke)
    golden = None
    if seed == DEFAULT_SEED and not smoke and workload is WORKLOADS[name]:
        golden = load_golden().get("workloads", {}).get(name)
    problems: List[str] = []
    per_round: List[Dict[str, float]] = []
    signatures = []
    attempted = failed = 0
    timed: List[Round] = []

    wrongs: List[List[str]] = []

    def account(round_: Round) -> Dict[str, float]:
        nonlocal attempted, failed
        wrong = _checked(runner, round_, jobs, golden)
        wrongs.append(wrong)
        bad = {s["name"] for s in round_.samples if not s["ok"]} | set(wrong)
        attempted += len(round_.samples)
        failed += len(bad)
        for sample in round_.samples:
            if sample["error"]:
                problems.append(f"{sample['name']}: {sample['error']}")
        problems.extend(f"{w}: wrong output" for w in wrong)
        if workload.open_loop:
            late = _backlog_problem(round_, jobs)
            if late:
                problems.append(late)
        e2e = end_to_end(name, round_, wrong)
        signatures.append(exact_signature(name, round_, e2e))
        return e2e

    if not smoke:
        runner.run()                                   # warm-up, discarded
        measured = 0.0
        while True:
            round_ = runner.run()
            timed.append(round_)
            per_round.append(account(round_))
            measured += round_.wall_s
            if rounds is not None:
                if len(timed) >= rounds:
                    break
            elif len(timed) >= 3 and (
                    measured + 0.5 * measured / len(timed) >= seconds):
                break

    layers: Dict[str, float] = {}
    if traced or smoke:
        traced_round = runner.run(traced=True)
        traced_e2e = account(traced_round)
        if smoke:
            per_round.append(traced_e2e)
        for label, spans in traced_round.spans.items():
            problems.extend(f"{label}: {p}" for p in check_nesting(spans))
        replay_tracer = Tracer()
        lanes = {}
        if name == "cohort_burst":
            lanes = COHORT_LANES_SMOKE if smoke else COHORT_LANES
        replayed = replay(jobs, replay_tracer, lanes, smoke)
        untraced = (statistics.median(r.wall_s for r in timed)
                    if timed else None)
        half = (runner.plain_half_wall()
                if workload.durable and not smoke else None)
        layers = per_layer(name, traced_round, replayed, untraced, half)
        out_dir.mkdir(parents=True, exist_ok=True)
        busy = busy_seconds(name, traced_round)
        write_chrome_trace(
            out_dir / f"trace-{name}.json",
            dict(traced_round.spans, replay=replay_tracer.spans),
            {"workload": name, "seed": seed, "wall_s": traced_round.wall_s,
             "busy_s": busy, "idle_s": traced_round.wall_s - busy
             if not workload.durable else 0.0,
             "sched_self_ms": layers["serve.sched_self_ms"]})

    first = signatures[0] if signatures else {}
    for i, sig in enumerate(signatures[1:], start=2):
        for key, value in sig.items():
            if first.get(key) != value:
                problems.append(
                    f"{key} must repeat exactly: round 1 {first.get(key)!r}, "
                    f"round {i} {value!r}")

    summary = {metric: summarize([r[metric] for r in per_round])
               for metric in per_round[0]}
    # ru_maxrss only ever grows, so it is read after a fixed number of
    # rounds (the third timed one: every run has three), not after however
    # many fitted into --seconds.
    summary["peak_rss_mb"] = summarize(
        [per_round[min(2, len(per_round) - 1)]["peak_rss_mb"]])
    measured = timed or [traced_round]
    for metric, value in pooled_percentiles(name, measured, wrongs).items():
        summary[metric]["median"] = value      # over all rounds' samples
    scoped = {m.name: summary[m.name]["median"] for m in SCOPED
              if m.name in summary}
    layers.update({m.name: scoped.get(m.name, 0.0) for m in SCOPED})
    n = len(jobs)
    return {
        "workload": name,
        "loop": "open" if workload.open_loop else "closed",
        "tenants_per_round": n,
        "ticks_per_round": sum(job.ticks for job in jobs),
        "p95_supported": n * max(1, len(timed)) >= MIN_SAMPLES_P95,
        "end_to_end": summary,
        "per_layer": layers,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems[:20],
        "golden_checked": golden is not None,
        "reference_s": runner.reference_s,
    }


# -- printing ------------------------------------------------------------------


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.4g}"


def print_result(result: Dict[str, object]) -> None:
    name = result["workload"]
    print(f"\n== {name} ({result['loop']} loop, "
          f"{result['tenants_per_round']} tenants/round, "
          f"{result['ticks_per_round']:,} ticks/round) ==")
    print(f"  why: {WORKLOADS[name].why}")
    if name == "durable_restart":
        print("  note: journal and artifact store live on the sandbox's "
              "filesystem under the out/ directory - this is not a disk "
              "benchmark")
    print("  end to end (tracing off; median over rounds, percentiles over "
          "all rounds' samples):")
    for metric in END_TO_END + SCOPED:
        stats = result["end_to_end"].get(metric.name)
        if stats is None:
            continue
        if metric.name.endswith("_p95") and not result["p95_supported"]:
            note = "  [fewer than 200 samples in the run: read p50]"
        else:
            note = ""
        print(f"    {metric.name:<18} = {_fmt(stats['median']):>10} "
              f"{metric.unit:<6} (min {_fmt(stats['min'])}, "
              f"max {_fmt(stats['max'])}, {stats['rounds']} rounds){note}")
    if "ttft_ms_p50" in result["end_to_end"]:
        print("    (ttft is program-reported: TenantResult.ttft_s, plus "
              "generator lateness in the open loop)")
    if any(result["per_layer"].get(m.name) for m in PER_LAYER):
        print("  per layer (one traced round + stage replay; layers that "
              "did nothing here are left out):")
        for metric in PER_LAYER:
            value = result["per_layer"].get(metric.name)
            if value:
                print(f"    {metric.name:<44} = {_fmt(value):>12} "
                      f"{metric.unit}")
    verdict = "ok" if result["correct"] else "FAILED"
    print(f"  checks: {verdict} - attempted {result['attempted']}, failed "
          f"{result['failed']}; agreement + canary vs reference interpreter"
          f"{' + golden digests' if result['golden_checked'] else ''}; "
          f"reference runs {result['reference_s']:.2f} s")
    for problem in result["problems"]:
        print(f"    ! {problem}")


# -- result files --------------------------------------------------------------


def stamp(seed: int, rounds: Optional[int], smoke: bool) -> Dict[str, object]:
    try:
        rev = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sizes = {}
    for name, workload in WORKLOADS.items():
        jobs = workload.jobs(seed, smoke)
        sizes[name] = {"tenants": len(jobs),
                       "ticks": sum(job.ticks for job in jobs)}
    return {"git_rev": rev, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed,
            "rounds": rounds, "smoke": smoke, "sizes": sizes,
            "time": time.strftime("%Y-%m-%dT%H:%M:%S")}


def run_all(names: List[str], seed: int, rounds: int, smoke: bool,
            out_dir: Path, tag: str, isolate: bool = False) -> Dict[str, object]:
    """The report for people; also what --selfcheck runs twice.

    With *isolate* each workload runs in an interpreter of its own (this
    command again, with ``--workload``): ``peak_rss_mb`` is a process's
    high-water mark and ``setup_s`` includes a collection over its whole
    heap, so in one shared process both grow with every workload that
    ran before.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    results = {}
    if isolate:
        for name in names:
            part = f"{tag}.{name}"
            command = [sys.executable, str(HERE / "run.py"), "--workload",
                       name, "--seed", str(seed), "--rounds", str(rounds),
                       "--out", str(out_dir), "--tag", part]
            sys.stdout.flush()
            subprocess.run(command + (["--smoke"] if smoke else []))
            part_path = out_dir / f"result-{part}.json"
            results[name] = json.loads(part_path.read_text())[
                "workloads"][name]
            part_path.unlink()
    else:
        reference = Reference()
        for name in names:
            results[name] = measure(name, seed, out_dir, smoke=smoke,
                                    rounds=rounds, reference=reference)
            print_result(results[name])
    record = {"stamp": stamp(seed, rounds, smoke), "workloads": results}
    path = out_dir / f"result-{tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    if "." not in tag:
        print(f"\nresult file: {path}")
        print(f"trace files: {out_dir}/trace-<workload>.json (open in "
              "https://ui.perfetto.dev)")
    return record


# -- compare -------------------------------------------------------------------


def compare(a: Dict[str, object], b: Dict[str, object]) -> int:
    """Apply each metric's stored bound to B against A.

    ``regressed``: B's median is worse than A's by more than the bound.
    ``unresolved``: the round-to-round spread of either side exceeds
    the bound, unless every round of B beats every round of A.  Exact
    metrics must match.  Returns the number of regressions.
    """
    regressions = 0
    print(f"{'workload':<16} {'metric':<18} {'A':>11} {'B':>11} "
          f"{'change':>8}  verdict")
    for name, ra in a["workloads"].items():
        rb = b["workloads"].get(name)
        if rb is None:
            continue
        for metric in END_TO_END + SCOPED:
            sa = ra["end_to_end"].get(metric.name)
            sb = rb["end_to_end"].get(metric.name)
            if sa is None or sb is None:
                continue
            ma, mb = sa["median"], sb["median"]
            sign = 1.0 if metric.better == "lower" else -1.0
            worse = sign * (mb - ma)
            if metric.exact:
                verdict = "unchanged" if ma == mb else "regressed (exact)"
            else:
                limit = metric.bound if metric.absolute else (
                    metric.bound * abs(ma))
                spread = max(sa["max"] - sa["min"], sb["max"] - sb["min"])
                b_all_better = (sb["max"] < sa["min"]
                                if metric.better == "lower"
                                else sb["min"] > sa["max"])
                if worse > limit:
                    verdict = "regressed"
                elif spread > limit and limit > 0 and not b_all_better:
                    verdict = "unresolved"
                elif b_all_better:
                    verdict = "improved"
                else:
                    verdict = "unchanged"
            if verdict.startswith("regressed"):
                regressions += 1
            change = (mb - ma) / ma if ma else 0.0
            print(f"{name:<16} {metric.name:<18} {_fmt(ma):>11} "
                  f"{_fmt(mb):>11} {change:>+8.1%}  {verdict}")
        for metric in PER_LAYER:
            if not metric.exact:
                continue
            va = ra["per_layer"].get(metric.name)
            vb = rb["per_layer"].get(metric.name)
            if va != vb and not WORKLOADS[name].open_loop:
                regressions += 1
                print(f"{name:<16} {metric.name:<18} {_fmt(va or 0):>11} "
                      f"{_fmt(vb or 0):>11} {'':>8}  regressed (exact)")
    print(f"{regressions} regression(s)")
    return regressions


# -- the other modes -----------------------------------------------------------


def sweep_rates(rates: List[float], seed: int, out_dir: Path) -> int:
    """Latency at each fixed rate, and the highest rate that meets
    ``slo_attainment >= 0.95`` without a growing backlog."""
    best = None
    for rate in rates:
        workload = dataclasses.replace(
            WORKLOADS["serve_paced"],
            jobs=functools.partial(serve_paced_jobs, rate_hz=rate))
        result = measure("serve_paced", seed, out_dir, rounds=3,
                         traced=False, workload=workload)
        e2e = result["end_to_end"]
        grew = any("backlog" in p for p in result["problems"])
        slo = e2e["slo_attainment"]["median"]
        print(f"rate {rate:>6.0f}/s: slo_attainment {slo:.3f}, latency p50 "
              f"{e2e['latency_ms_p50']['median']:.1f} ms, p95 "
              f"{e2e['latency_ms_p95']['median']:.1f} ms, failed_share "
              f"{e2e['failed_share']['median']:.3f}"
              f"{', backlog grew' if grew else ''}")
        if slo >= 0.95 and not grew:
            best = rate if best is None else max(best, rate)
    print("highest rate meeting slo_attainment >= 0.95 without a growing "
          f"backlog: {f'{best:.0f}/s' if best else 'none of these'}")
    return 0


def regen_golden() -> int:
    """Full-length results of the default seed on the reference
    interpreter (minutes: bitcoin runs at ~30 reference ticks/s)."""
    reference = Reference()
    golden = {}
    for name, workload in WORKLOADS.items():
        by_source: Dict[str, list] = {}
        for job in workload.jobs(DEFAULT_SEED, False):
            by_source.setdefault(job.source, []).append(job)
        digests = {}
        for source, jobs in by_source.items():
            vfs = bench_vfs(jobs[0].bench) if jobs[0].bench else None
            found = reference.digests(source, [j.ticks for j in jobs], vfs)
            digests.update({j.key: found[j.ticks] for j in jobs})
        golden[name] = dict(sorted(digests.items()))
        print(f"{name}: {len(digests)} (design, target) digests")
    GOLDEN_PATH.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "workloads": golden}, indent=0) + "\n")
    return 0


def driver_run(args, out_dir: Path) -> int:
    """One (workload, seed) for the driver; last line is the JSON."""
    traced = bool(args.trace)
    result = measure(args.workload, args.seed, out_dir, smoke=args.smoke,
                     rounds=2 if traced else args.rounds,
                     seconds=args.seconds if args.seconds is not None
                     else 8.0, traced=traced)
    print_result(result)
    if traced:
        values = result["per_layer"]
        metrics = {m.name: {"value": float(values[m.name]), "unit": m.unit}
                   for m in SCOPED + PER_LAYER}
    else:
        metrics = {m.name: {"value": result["end_to_end"][m.name]["median"],
                            "unit": m.unit} for m in END_TO_END}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description="SYNERGY tenant-journey benchmark")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--rounds", type=int, default=None,
                        help=f"timed rounds per workload (default "
                             f"{DEFAULT_ROUNDS}; at least 3)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--smoke", action="store_true",
                        help="<=16 tenants per workload, one traced round")
    parser.add_argument("--seconds", type=float, default=None,
                        help="driver mode: measure this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: 0 end-to-end, 1 per-layer")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="where result and trace files go")
    parser.add_argument("--record", action="store_true",
                        help="rewrite BENCHMARK.json from the metric tables")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true",
                        help="run everything twice; fail on disagreement")
    parser.add_argument("--sweep-rates", metavar="R1,R2,...")
    parser.add_argument("--regen-golden", action="store_true")
    parser.add_argument("--tag", help=argparse.SUPPRESS)   # result-<tag>.json
    args = parser.parse_args(argv)
    if args.rounds is not None and args.rounds < 3 and not args.smoke:
        parser.error("--rounds must be at least 3")

    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        return 1 if compare(a, b) else 0
    if args.record:
        path = REPO / "BENCHMARK.json"
        path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        print(f"wrote {path}")
        return 0
    if args.regen_golden:
        return regen_golden()
    if args.sweep_rates:
        rates = [float(r) for r in args.sweep_rates.split(",")]
        return sweep_rates(rates, args.seed, args.out)
    if args.seconds is not None or args.trace is not None:
        if args.workload is None:
            parser.error("--seconds/--trace need --workload")
        return driver_run(args, args.out)

    names = [args.workload] if args.workload else list(WORKLOADS)
    rounds = args.rounds or DEFAULT_ROUNDS
    isolate = len(names) > 1

    def run(tag: str) -> Dict[str, object]:
        return run_all(names, args.seed, rounds, args.smoke, args.out, tag,
                       isolate)

    if args.selfcheck:
        return 1 if compare(run("selfcheck-A"), run("selfcheck-B")) else 0
    record = run(args.tag or (f"seed{args.seed}"
                              + ("-smoke" if args.smoke else "")))
    return 0 if all(r["correct"] for r in record["workloads"].values()) else 1
