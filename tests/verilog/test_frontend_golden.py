"""Front-end golden: what ``parse`` makes of every text we ship is pinned.

``frontend_golden.json`` holds, per text, the sha256 of
``print_source(parse(text))`` and of ``repr(parse(text))`` — the repr
carries every node's ``SourcePos``, so a moved column or line shows.
The texts are the six Table-1 designs, ``tests/corpus/`` and fuzz seeds
0-399.  The digests were taken from the per-character tokenizer and
dataclass tokens the regex lexer replaced; a change that moves any of
them changes canonical text (and so every artifact digest) or a
reported position, and must say which texts it moves and why.
"""

import hashlib
import json
import os

from repro.verilog import parse
from repro.verilog.printer import print_source

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "frontend_golden.json")
FUZZ_SEEDS = range(400)


def golden_texts():
    """``(name, text)`` for every text the golden covers, in file order."""
    from repro.bench import BENCHMARKS
    from repro.fuzz.gen import generate
    from repro.harness.common import bench_source_kwargs

    for name, bench in BENCHMARKS.items():
        yield f"table1/{name}", bench.source(**bench_source_kwargs(name))
    corpus = os.path.join(HERE, os.pardir, "corpus")
    for name in sorted(os.listdir(corpus)):
        if name.endswith(".v"):
            with open(os.path.join(corpus, name)) as handle:
                yield f"corpus/{name}", handle.read()
    for seed in FUZZ_SEEDS:
        yield f"fuzz/{seed}", generate(seed).source


def digests(text):
    tree = parse(text)
    return [hashlib.sha256(print_source(tree).encode()).hexdigest(),
            hashlib.sha256(repr(tree).encode()).hexdigest()]


def test_printed_text_and_positions_match_the_golden():
    with open(GOLDEN) as handle:
        want = json.load(handle)
    got = {name: digests(text) for name, text in golden_texts()}
    assert list(got) == list(want)
    moved = [name for name in want if got[name] != want[name]]
    assert not moved, f"front end output moved on {moved}"
