"""Shared pytest-benchmark configuration.

Every experiment is deterministic and internally cached, but the first
invocation pays real interpreted-simulation cost — so benchmarks run
with a single round unless asked otherwise.
"""

import json
from pathlib import Path

import pytest

#: Where result JSON lands (git-ignored).
OUT_DIR = Path(__file__).resolve().parent / "out"


@pytest.fixture
def once(benchmark):
    """Run a harness function exactly once under the benchmark clock."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return runner


@pytest.fixture
def write_result():
    """``write_result(name, data)`` → path of ``out/<name>.json``."""

    def write(name, data):
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=2) + "\n")
        return path

    return write
