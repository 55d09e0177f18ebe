"""Interpreter golden: what the reference interpreter does is pinned.

``interp_golden.json`` holds, per design, what
:class:`~repro.interp.simulator.InterpSimulator` leaves after a fixed
number of ticks: the ``$display`` text, a sha256 of the final store
(every signal and memory word, wires included), and the two perf
counters ``stmts_executed`` and ``settle_rounds``.
The designs are the six Table-1 designs, ``tests/corpus/`` and fuzz
seeds 0-399.  The interpreter is the oracle every other engine is held
to, so a change to how it evaluates (not what) must leave every entry
as it is, counters included.

Regenerate only at the commit whose interpreter is the reference (see
``docs/TESTING.md``, "Interpreter golden")::

    PYTHONPATH=src python tests/interp/test_interp_golden.py --regen
"""

import hashlib
import json
import os
import re
import sys

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "interp_golden.json")
FUZZ_SEEDS = range(400)
TABLE1_TICKS = 64
CORPUS_TICKS = 16   # the corpus default; a file's `// fuzz-ticks: N` wins


def golden_designs():
    """``(name, source, ticks, vfs)`` for every design, in file order."""
    from repro.bench import BENCHMARKS
    from repro.fuzz.gen import generate
    from repro.harness.common import bench_source_kwargs, bench_vfs

    for name, bench in BENCHMARKS.items():
        yield (f"table1/{name}", bench.source(**bench_source_kwargs(name)),
               TABLE1_TICKS, bench_vfs(name, 1 << 10))
    corpus = os.path.join(HERE, os.pardir, "corpus")
    for name in sorted(os.listdir(corpus)):
        if name.endswith(".v"):
            with open(os.path.join(corpus, name)) as handle:
                text = handle.read()
            match = re.search(r"//\s*fuzz-ticks:\s*(\d+)", text)
            ticks = int(match.group(1)) if match else CORPUS_TICKS
            yield f"corpus/{name}", text, ticks, None
    for seed in FUZZ_SEEDS:
        program = generate(seed)
        yield f"fuzz/{seed}", program.source, program.ticks, None


def record(source, ticks, vfs):
    """Run *source* on the interpreter for *ticks*; the golden entry."""
    from repro.compiler import ArtifactStore, CompilerService
    from repro.interp import TaskHost
    from repro.interp.simulator import InterpSimulator

    program = CompilerService(ArtifactStore()).compile_program(source)
    host = TaskHost(vfs)
    sim = InterpSimulator(program.flat, host, env=program.env)
    sim.tick(cycles=ticks)
    state = json.dumps(sim.store.snapshot(), sort_keys=True)
    return {
        "display": "\n".join(host.display_log),
        "store": hashlib.sha256(state.encode()).hexdigest(),
        "stmts_executed": sim.stmts_executed,
        "settle_rounds": sim.settle_rounds,
    }


def test_interpreter_matches_the_golden():
    with open(GOLDEN) as handle:
        want = json.load(handle)
    got = {name: record(source, ticks, vfs)
           for name, source, ticks, vfs in golden_designs()}
    assert list(got) == list(want)
    moved = {name: sorted(key for key in want[name]
                          if got[name][key] != want[name][key])
             for name in want if got[name] != want[name]}
    assert not moved, f"reference interpreter moved on {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: {sys.argv[0]} --regen")
    golden = {name: record(source, ticks, vfs)
              for name, source, ticks, vfs in golden_designs()}
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(golden)} designs to {GOLDEN}")
