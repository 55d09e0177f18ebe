"""Tier-1 smoke test of the tenant-journey benchmark.

``--smoke`` scale (<=16 tenants per workload, one traced round): every
workload and every metric is emitted with a unit, no tenant fails a
check, spans nest, and the run writes nothing outside the directory it
was given.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:   # pytest's prepend mode already does this
    sys.path.insert(0, str(HERE))

import e2e_cli  # noqa: E402
from e2e_metrics import (  # noqa: E402
    END_TO_END, PER_LAYER, SCOPED, benchmark_json,
)
from e2e_workloads import WORKLOADS  # noqa: E402

REPO = HERE.parent.parent


def _tree(root: Path):
    """Every file under *root* that is not a cache, with size and mtime."""
    out = {}
    for base, dirs, files in os.walk(root):
        dirs[:] = [d for d in dirs if d not in ("__pycache__", ".git",
                                                ".pytest_cache",
                                                ".hypothesis")]
        for name in files:
            path = os.path.join(base, name)
            stat = os.stat(path)
            out[path] = (stat.st_size, stat.st_mtime_ns)
    return out


def _check_trace(path: Path) -> None:
    trace = json.loads(path.read_text())
    meta = trace["otherData"]
    labels = {e["pid"]: e["args"]["name"] for e in trace["traceEvents"]
              if e["ph"] == "M"}
    by_pid = {}
    for event in trace["traceEvents"]:
        if event["ph"] == "X":
            by_pid.setdefault(event["pid"], {})[event["args"]["id"]] = event
    serving_top = 0.0
    for pid, spans in by_pid.items():
        own = {i: e["dur"] for i, e in spans.items()}
        for i, event in spans.items():
            parent = event["args"]["parent"]
            if parent < 0:
                if labels[pid] != "replay":
                    serving_top += event["dur"]
                continue
            outer = spans[parent]
            assert event["ts"] >= outer["ts"] - 1e-3, (path, event["name"])
            assert (event["ts"] + event["dur"]
                    <= outer["ts"] + outer["dur"] + 1e-3), (path,
                                                            event["name"])
            own[parent] -= event["dur"]
        assert all(v >= -1.0 for v in own.values()), path   # microseconds
    # top-level spans + the scheduler's own time account for the busy wall
    accounted = serving_top / 1e6 + meta["sched_self_ms"] / 1e3
    assert abs(accounted - meta["busy_s"]) <= 0.02 * meta["busy_s"], path


def test_e2e_smoke(tmp_path):
    before = _tree(REPO / "benchmarks")
    root_before = sorted(os.listdir(REPO))
    contract_before = (REPO / "BENCHMARK.json").read_text()

    record = e2e_cli.run_all(list(WORKLOADS), seed=e2e_cli.DEFAULT_SEED,
                             rounds=None, smoke=True, out_dir=tmp_path,
                             tag="smoke")

    assert set(record["workloads"]) == set(WORKLOADS)
    for name, result in record["workloads"].items():
        assert result["correct"], (name, result["problems"])
        assert result["failed"] == 0 and result["attempted"] >= 1
        e2e = result["end_to_end"]
        for metric in END_TO_END:
            assert metric.unit and metric.name in e2e, (name, metric.name)
            assert e2e[metric.name]["median"] > 0, (name, metric.name)
        assert e2e["failed_share"]["median"] == 0
        for metric in SCOPED:
            if metric.on is None or name in metric.on:
                assert metric.name in e2e, (name, metric.name)
        for metric in SCOPED + PER_LAYER:
            assert metric.unit and metric.name in result["per_layer"], (
                name, metric.name)
        _check_trace(tmp_path / f"trace-{name}.json")
    assert record["stamp"]["seed"] == e2e_cli.DEFAULT_SEED
    assert record["stamp"]["sizes"].keys() == WORKLOADS.keys()

    # the contract file is rendered from the same tables
    assert json.loads(contract_before) == benchmark_json()

    assert _tree(REPO / "benchmarks") == before
    assert sorted(os.listdir(REPO)) == root_before
    assert (REPO / "BENCHMARK.json").read_text() == contract_before
