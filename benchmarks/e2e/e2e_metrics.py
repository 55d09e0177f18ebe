"""Metric names, units, directions and bounds — and how each is computed.

Two tables.  ``END_TO_END`` is what a tenant sees, measured with
tracing off; every metric in it is defined — and steady enough to gate
on — on every workload, because the driver that gates later changes
reads all of them from each workload.  ``PER_LAYER`` comes from one
traced round (proxy spans, public ``stats()``, stage replay) and has no
bound.  The end-to-end metrics that exist on some workloads only, or
are too noisy on one of them to gate on (``SCOPED``), are printed with
the end-to-end block, compared by ``--compare`` with their own bounds,
and listed in ``BENCHMARK.json`` beside the per-layer metrics, since
that file has one bound per metric for all workloads.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from e2e_trace import Span, self_times
from e2e_workloads import SLO_MS, WORKLOADS, Round

#: p95 needs ten samples beyond it
MIN_SAMPLES_P95 = 200


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                       #: "higher" | "lower"
    bound: Optional[float] = None     #: share of the median it may worsen by
    absolute: bool = False            #: bound is in the metric's own unit
    exact: bool = False               #: must repeat exactly across rounds
    on: Optional[Tuple[str, ...]] = None   #: workloads it exists on


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("tenants_per_s", "1/s", "higher", 0.25),
    Metric("ticks_per_s", "1/s", "higher", 0.25),
    Metric("latency_ms_p50", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

_CLOSED = tuple(n for n, w in WORKLOADS.items() if not w.open_loop)

_TTFT = ("cold_compile", "serve_burst", "serve_paced")

SCOPED: Tuple[Metric, ...] = (
    Metric("latency_ms_p95", "ms", "lower", 0.25),
    Metric("ttft_ms_p50", "ms", "lower", 0.10, on=_TTFT),
    Metric("ttft_ms_p95", "ms", "lower", 0.20, on=_TTFT),
    Metric("slo_attainment", "share", "higher", 0.05, absolute=True,
           on=("serve_paced",)),
    Metric("fair_hi_lo_ratio", "ratio", "lower", 0.10, on=("serve_burst",)),
    Metric("recovery_s", "s", "lower", 0.10, on=("durable_restart",)),
    Metric("failed_share", "share", "lower", 0.0, absolute=True),
    Metric("modeled_s", "s", "lower", 0.0, exact=True, on=_CLOSED),
)


#: per-layer numbers where more is better; for every other one (time,
#: work done, bytes) less is
_HIGHER = ("compiler.hits", "compiler.hit_ratio", "compiler.disk_hits",
           "serve.idle_skips", "hypervisor.idle_fastforwards")


def _layer(names_units: str, exact: Sequence[str] = ()) -> List[Metric]:
    out = []
    for item in names_units.split():
        name, unit = item.rsplit(":", 1)
        better = "higher" if unit == "1/s" or name in _HIGHER else "lower"
        out.append(Metric(name, unit, better, exact=name in exact))
    return out

PER_LAYER: Tuple[Metric, ...] = tuple(
    _layer("verilog.parse_ms:ms verilog.parse_kchars_per_s:1/s "
           "verilog.elaborate_ms:ms verilog.print_ms:ms "
           "core.machinify_ms:ms core.statevars_ms:ms core.hw_text_ratio:ratio "
           "opt.pipeline_ms:ms opt.pass_applications:count "
           "opt.ir_nodes_after:count "
           "interp.compile.codegen_ms:ms interp.compile.batch_build_ms:ms "
           "interp.compile.instantiate_us:us "
           "interp.compile.scalar_ticks_per_s.mips32:1/s "
           "interp.compile.scalar_ticks_per_s.bitcoin:1/s "
           "interp.compile.scalar_ticks_per_s.df:1/s "
           "interp.compile.batch_ticks_per_s.lanes128:1/s "
           "interp.compile.batch_ticks_per_s.lanes12:1/s "
           "interp.compile.stmts_per_tick:count "
           "interp.compile.idle_tick_ns:ns "
           "compiler.hits:count compiler.misses:count "
           "compiler.hit_ratio:share compiler.build_self_ms:ms "
           "compiler.warm_lookup_us:us compiler.disk_load_ms:ms "
           "compiler.disk_store_ms:ms compiler.disk_hits:count "
           "compiler.disk_bytes:bytes "
           "runtime.advance_calls:count runtime.advance_busy_ms:ms "
           "runtime.ticks_retired:count runtime.traps:count "
           "runtime.suspend_us:us runtime.resume_us:us "
           "hypervisor.place_calls:count hypervisor.place_ms:ms "
           "hypervisor.abi_msgs:count hypervisor.abi_handle_ms:ms "
           "fabric.reprograms:count hypervisor.checkpoint_calls:count "
           "hypervisor.checkpoint_ms:ms hypervisor.cohort_form_ms:ms "
           "hypervisor.cohorts_formed:count hypervisor.lane_divergence:count "
           "hypervisor.idle_fastforwards:count hypervisor.recoveries:count "
           "hypervisor.durable.append_ms:ms hypervisor.durable.snapshot_ms:ms "
           "hypervisor.durable.records:count "
           "hypervisor.durable.snapshots:count "
           "hypervisor.durable.snapshot_bytes:bytes "
           "hypervisor.durable.replay_ms:ms "
           "hypervisor.durable.load_snapshot_ms:ms "
           "hypervisor.durable.overhead_ms_per_tenant:ms "
           "serve.admit_ms:ms serve.turns:count serve.preemptions:count "
           "serve.idle_skips:count serve.placements_hw:count "
           "serve.placements_sw:count serve.rebalances:count "
           "serve.sched_self_ms:ms serve.sched_self_share:share "
           "serve.gen_late_ms_p95:ms serve.restart_import_s:s "
           "trace.overhead_share:share",
           exact=("core.hw_text_ratio", "opt.pass_applications",
                  "opt.ir_nodes_after", "interp.compile.stmts_per_tick",
                  "runtime.ticks_retired", "runtime.traps", "serve.turns",
                  "serve.preemptions", "hypervisor.durable.records",
                  "hypervisor.durable.snapshots")))

#: ``stats()`` counts that, with ``modeled_s`` and the ticks retired, must
#: be identical in every round of a closed-loop run
EXACT_COUNTERS = ("serve.turns", "serve.preemptions",
                  "hypervisor.durable.records",
                  "hypervisor.durable.snapshots")


def benchmark_json() -> Dict[str, object]:
    """The contract file, rendered from the tables above."""
    def entry(metric: Metric, bounded: bool) -> Dict[str, object]:
        out = {"name": metric.name, "unit": metric.unit,
               "better": metric.better}
        if bounded:
            out["bound"] = metric.bound
        return out

    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": 8,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values() if w.gated],
        "end_to_end": [entry(m, True) for m in END_TO_END],
        "per_layer": [entry(m, False) for m in SCOPED + PER_LAYER],
    }


# -- end to end ----------------------------------------------------------------


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation: a measured sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def _good(round_: Round, wrong) -> List[dict]:
    return [s for s in round_.samples if s["ok"] and s["name"] not in wrong]


def _latency_ms(samples: List[dict]) -> List[float]:
    return [(s["done"] - s["submit"]) * 1e3 for s in samples]


def _ttft_ms(samples: List[dict]) -> List[float]:
    return [(s["ttft_s"] + s["late_s"]) * 1e3 for s in samples]


def pooled_percentiles(workload: str, rounds: Sequence[Round],
                       wrongs: Sequence[Iterable[str]]) -> Dict[str, float]:
    """Latency and TTFT percentiles over the samples of *all* rounds.

    A p95 of one round is its 10th-or-so largest sample; the median of
    three of those is a far noisier number than the 45th largest of the
    three rounds together.
    """
    good = [s for round_, wrong in zip(rounds, wrongs)
            for s in _good(round_, set(wrong))]
    out = {"latency_ms_p50": percentile(_latency_ms(good), 0.50),
           "latency_ms_p95": percentile(_latency_ms(good), 0.95)}
    if workload in _TTFT:
        out["ttft_ms_p50"] = percentile(_ttft_ms(good), 0.50)
        out["ttft_ms_p95"] = percentile(_ttft_ms(good), 0.95)
    return out


def end_to_end(workload: str, round_: Round,
               wrong: Iterable[str] = ()) -> Dict[str, float]:
    """All end-to-end numbers of one round (scoped ones only where they
    exist).  *wrong* names tenants whose output failed a check: they
    count as failed."""
    samples = round_.samples
    good = _good(round_, set(wrong))
    latency = _latency_ms(good)
    ttft = _ttft_ms(good)
    wall = round_.wall_s
    out = {
        "setup_s": round_.setup_s,
        "tenants_per_s": len(good) / wall,
        "ticks_per_s": sum(s["ticks"] for s in good) / wall,
        "latency_ms_p50": percentile(latency, 0.50),
        "latency_ms_p95": percentile(latency, 0.95),
        "peak_rss_mb": round_.peak_rss_mb,
        "failed_share": 1.0 - len(good) / max(1, len(samples)),
    }
    if workload in _TTFT:
        out["ttft_ms_p50"] = percentile(ttft, 0.50)
        out["ttft_ms_p95"] = percentile(ttft, 0.95)
    if workload in _CLOSED:
        out["modeled_s"] = sum(s["sim_time"] for s in good)
    if workload == "serve_paced":
        out["slo_attainment"] = (
            sum(1 for ms in latency if ms <= SLO_MS) / max(1, len(samples)))
    if workload == "serve_burst":
        high = _latency_ms([s for s in good if s["priority"] == "high"])
        low = _latency_ms([s for s in good if s["priority"] == "low"])
        if high and low:
            out["fair_hi_lo_ratio"] = (percentile(high, 0.95)
                                       / percentile(low, 0.50))
    if workload == "durable_restart":
        out["recovery_s"] = round_.phases["recovery_s"]
    return out


def exact_signature(workload: str, round_: Round,
                    e2e: Dict[str, float]) -> Dict[str, float]:
    """The counts a closed-loop workload must repeat round after round."""
    if workload not in _CLOSED:
        return {}
    sig = {"modeled_s": e2e["modeled_s"],
           "ticks_retired": sum(s["ticks"] for s in round_.samples)}
    sig.update({name: round_.counters[name] for name in EXACT_COUNTERS
                if name in round_.counters})
    return sig


def summarize(values: Sequence[float]) -> Dict[str, float]:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "rounds": len(values)}


# -- per layer -----------------------------------------------------------------


class SpanTotals:
    """Count, total and self seconds per span name, over span groups."""

    def __init__(self, groups: Dict[str, List[Span]]):
        self.count: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.own: Dict[str, float] = {}
        self.top_level = 0.0
        self.miss_self = 0.0
        self.batch_build = 0.0
        self.warm_lookups: List[float] = []
        self.ticks = self.traps = 0
        for spans in groups.values():
            for span, own in zip(spans, self_times(spans)):
                name = span.name
                self.count[name] = self.count.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + span.duration
                self.own[name] = self.own.get(name, 0.0) + own
                if span.parent < 0:
                    self.top_level += span.duration
                attrs = span.attrs
                if not attrs:
                    continue
                if attrs.get("miss"):
                    self.miss_self += own
                    if name == "compiler.batch":
                        self.batch_build += own
                elif name == "compiler.compile_program":
                    self.warm_lookups.append(span.duration)
                self.ticks += attrs.get("ticks", 0)
                self.traps += attrs.get("traps", 0)

    def ms(self, *names: str) -> float:
        return sum(self.total.get(n, 0.0) for n in names) * 1e3

    def own_ms(self, *names: str) -> float:
        return sum(self.own.get(n, 0.0) for n in names) * 1e3

    def calls(self, *names: str) -> int:
        return sum(self.count.get(n, 0) for n in names)


def busy_seconds(workload: str, round_: Round) -> float:
    """Seconds the serving loop had work: what sched_self is a share of."""
    if workload == "durable_restart":
        return round_.phases["a_serve_s"] + round_.phases["b_serve_s"]
    if workload == "serve_paced":
        return round_.busy_s
    return round_.wall_s


def per_layer(workload: str, traced: Round, replayed: Dict[str, float],
              untraced_wall: Optional[float],
              plain_half_wall: Optional[float]) -> Dict[str, float]:
    """Every per-layer metric of one traced round; 0 where the layer
    did nothing on this workload."""
    t = SpanTotals(traced.spans)
    c = traced.counters
    busy = busy_seconds(workload, traced)
    sched_self = busy - t.top_level
    lookups = c.get("compiler.hits", 0) + c.get("compiler.misses", 0)
    out = {m.name: 0.0 for m in PER_LAYER}
    out.update(replayed)
    out.update({k: v for k, v in c.items() if k in out})
    out.update({
        "interp.compile.batch_build_ms": t.batch_build * 1e3,
        "compiler.hit_ratio": (c.get("compiler.hits", 0) / lookups
                               if lookups else 0.0),
        "compiler.build_self_ms": t.miss_self * 1e3,
        "compiler.warm_lookup_us": (statistics.median(t.warm_lookups) * 1e6
                                    if t.warm_lookups else 0.0),
        "compiler.disk_load_ms": t.ms("compiler.disk.load"),
        "compiler.disk_store_ms": t.ms("compiler.disk.store"),
        "runtime.advance_calls": t.calls("serve.fleet.advance",
                                         "serve.fleet.advance_cohort"),
        "runtime.advance_busy_ms": t.ms("serve.fleet.advance",
                                        "serve.fleet.advance_cohort"),
        "runtime.ticks_retired": t.ticks,
        "runtime.traps": t.traps,
        "hypervisor.place_calls": t.calls("hypervisor.place_subprogram"),
        "hypervisor.place_ms": t.ms("hypervisor.place_subprogram"),
        "hypervisor.abi_handle_ms": t.ms("hypervisor.handle"),
        "hypervisor.checkpoint_calls": t.calls("serve.fleet.checkpoint"),
        "hypervisor.checkpoint_ms": t.ms("serve.fleet.checkpoint"),
        "hypervisor.cohort_form_ms": t.ms("serve.fleet.form_cohorts"),
        "hypervisor.durable.append_ms": t.ms(
            "hypervisor.durable.job", "hypervisor.durable.admit",
            "hypervisor.durable.terminal"),
        "hypervisor.durable.snapshot_ms": t.ms(
            "hypervisor.durable.checkpoint"),
        "hypervisor.durable.replay_ms": t.ms("hypervisor.durable.replay"),
        "hypervisor.durable.load_snapshot_ms": t.ms(
            "hypervisor.durable.load_snapshot"),
        "serve.admit_ms": t.own_ms("serve.fleet.admit_job",
                                   "serve.fleet.readmit"),
        "serve.sched_self_ms": sched_self * 1e3,
        "serve.sched_self_share": sched_self / busy if busy else 0.0,
        "serve.gen_late_ms_p95": percentile(
            [s["late_s"] * 1e3 for s in traced.samples], 0.95),
        "serve.restart_import_s": traced.phases.get("restart_import_s", 0.0),
    })
    if plain_half_wall is not None:
        out["hypervisor.durable.overhead_ms_per_tenant"] = (
            (traced.phases["a_serve_s"] - plain_half_wall)
            / len(traced.samples) * 1e3)
    if untraced_wall:
        out["trace.overhead_share"] = traced.wall_s / untraced_wall - 1.0
    return out
