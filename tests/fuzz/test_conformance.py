"""Differential conformance fuzzing: generator, oracle, shrinker, corpus.

Tier-1 runs the fast pieces (generator invariants, a small fixed-seed
smoke sweep, the committed corpus).  The long campaign is marked
``fuzz`` and deselected by default — run it with ``-m fuzz`` or via
``python -m repro.fuzz``.
"""

import glob
import os
import re

import pytest

from repro.compiler import ArtifactStore, CompilerService
from repro.fuzz import (
    GrammarWeights, ModuleGenerator, check, generate, shrink_module,
    state_names,
)
from repro.fuzz.shrink import oracle_predicate, write_repro
from repro.verilog import ast, parse, print_module

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


def _corpus_files():
    return sorted(glob.glob(os.path.join(CORPUS_DIR, "*.v")))


def _corpus_ticks(text: str) -> int:
    match = re.search(r"//\s*fuzz-ticks:\s*(\d+)", text)
    return int(match.group(1)) if match else 16


class TestGenerator:
    def test_deterministic_per_seed(self):
        a = ModuleGenerator(7).generate()
        b = ModuleGenerator(7).generate()
        assert a.source == b.source
        assert a.ticks == b.ticks

    def test_distinct_across_seeds(self):
        sources = {generate(seed).source for seed in range(8)}
        assert len(sources) == 8

    def test_programs_are_well_formed(self):
        """Every generated module parses back, prints stably, and
        survives the full §3 pipeline (flatten/widths/machinify)."""
        service = CompilerService(ArtifactStore())
        for seed in range(12):
            program = generate(seed)
            printed = program.source
            reparsed = parse(printed).module(program.module.name)
            assert print_module(reparsed) == printed
            compiled = service.compile_program(reparsed)
            assert compiled.transform.n_states >= 1
            assert state_names(compiled.flat)

    def test_weights_bias_production(self):
        quiet = GrammarWeights(w_display=0.0, finish_prob=0.0,
                               initial_prob=0.0)
        for seed in range(6):
            assert "$display" not in generate(seed, quiet).source
            assert "$finish" not in generate(seed, quiet).source


class TestSmokeConformance:
    def test_fixed_seed_sweep(self):
        """A small fixed-seed sweep through all four paths — the tier-1
        face of the acceptance run (``repro.fuzz --seed 0 --n 100``)."""
        service = CompilerService()
        for seed in range(6):
            program = generate(seed)
            report = check(program.module, min(program.ticks, 16),
                           service=service, lifecycle_seed=seed,
                           label=f"seed {seed}")
            assert report.ok, report.describe()

    def test_batched_lane_runs_a_cohort_or_says_why(self, monkeypatch,
                                                    capsys, tmp_path):
        """Seed 0 vectorizes and is compared; seed 1 is refused, says
        why, and is not a divergence; the campaign counts both."""
        pytest.importorskip("numpy")
        from repro.fuzz.__main__ import main

        monkeypatch.setenv("REPRO_OPT_LEVEL", "2")  # the vector licence
        refused = check(generate(1).module, 8, ("interp", "batched"))
        assert refused.ok
        assert refused.results["batched"].skipped == (
            "not vectorized: expression width 112 outside the 64-bit lane word")
        assert main(["--seed", "0", "--n", "2", "--paths", "interp,batched",
                     "--corpus-dir", str(tmp_path)]) == 0
        assert "batched: vectorized 1 of 2" in capsys.readouterr().out

    def test_compiled_is_the_only_scalar_path(self, capsys, tmp_path):
        """``compiled`` runs the event plan; there is no ``event`` path."""
        from repro.fuzz.__main__ import main
        from repro.fuzz.oracle import ALL_PATHS, DEFAULT_PATHS

        assert "event" not in ALL_PATHS
        assert DEFAULT_PATHS[:4] == ("interp", "compiled", "board",
                                     "lifecycle")
        assert main(["--n", "1", "--paths", "interp,event",
                     "--corpus-dir", str(tmp_path)]) == 2
        assert "unknown paths: event" in capsys.readouterr().err
        with pytest.raises(ValueError, match="unknown execution paths"):
            check(generate(0).module, 4, ("interp", "event"))


class TestCorpus:
    @pytest.mark.parametrize(
        "path", _corpus_files(),
        ids=[os.path.basename(p) for p in _corpus_files()])
    def test_corpus_conformance(self, path):
        with open(path) as handle:
            text = handle.read()
        # The whole file, so a hierarchical design finds its children;
        # the last module is the top.
        report = check(parse(text), _corpus_ticks(text),
                       label=os.path.basename(path))
        name = os.path.basename(path)
        if name.startswith("xfail_"):
            if report.ok:
                pytest.fail(f"{name} now conforms — promote it to a "
                            f"regression by dropping the xfail_ prefix")
            pytest.xfail(f"documented divergence: {report.describe()}")
        assert report.ok, report.describe()

    def test_finish_at_boot_finishes_every_path(self):
        """The paths agree only if none raises: each ends finished at
        time 0 with the boot ``$display`` and the state it left."""
        with open(os.path.join(CORPUS_DIR, "finish_at_boot.v")) as handle:
            text = handle.read()
        report = check(parse(text), _corpus_ticks(text), label="finish_at_boot")
        for path, result in report.results.items():
            if result.skipped is None:
                assert (result.error, result.finished, result.display,
                        result.state) == (None, True, ("boot 5",),
                                          {"r": 5, "n": 0}), path

    @pytest.mark.parametrize("name", ["star_latch.v", "star_temporary.v"])
    def test_star_cones_run_on_both_carriers(self, name, monkeypatch):
        """A latch and a read-after-write temporary are licensed cone
        members: the scalar period and a two-lane cohort both run them,
        and both match the interpreter."""
        pytest.importorskip("numpy")
        from repro.interp.compile import CompiledModuleCode
        from repro.verilog import flatten

        monkeypatch.setenv("REPRO_OPT_LEVEL", "2")  # the vector licence
        with open(os.path.join(CORPUS_DIR, name)) as handle:
            text = handle.read()
        code = CompiledModuleCode(flatten(parse(text), name[:-2]))
        assert code.schedule.period_plan == "static"
        assert [p.kind for p in code.schedule.processes].count("cone") == 1
        report = check(parse(text), _corpus_ticks(text),
                       ("interp", "compiled", "batched"), label=name)
        assert report.ok, report.describe()
        assert report.results["batched"].skipped is None

    def test_no_unresolved_failures_committed(self):
        """fail_* repros are CI artifacts, not permanent residents."""
        stale = [os.path.basename(p) for p in _corpus_files()
                 if os.path.basename(p).startswith("fail_")]
        assert not stale, (f"{stale}: fix and rename, or promote to "
                           f"xfail_* with an explanation")


class TestShrinker:
    def _predicate_contains_display(self, module):
        return "$display" in print_module(module)

    def test_minimizes_under_structural_predicate(self):
        program = generate(3, GrammarWeights(w_display=3.0))
        assert self._predicate_contains_display(program.module)
        shrunk, tests = shrink_module(program.module,
                                      self._predicate_contains_display,
                                      budget=600)
        assert self._predicate_contains_display(shrunk)
        assert tests > 0
        assert len(shrunk.items) < len(program.module.items)
        # Greedy fixpoint: nothing but the port decl and one carrier
        # of the $display should survive a structural predicate.
        assert len(shrunk.items) <= 3

    def test_crashing_predicate_counts_as_false(self):
        module = generate(0).module

        def explosive(candidate):
            raise RuntimeError("boom")

        shrunk, tests = shrink_module(module, explosive, budget=50)
        assert shrunk is module  # nothing accepted, nothing lost
        assert tests == 50  # every candidate was tried and rejected

    def test_oracle_predicate_requires_original_signature(self):
        """A conformant program is not 'failing' under the oracle
        predicate, whatever shape it has."""
        predicate = oracle_predicate(8, ("interp", "compiled"),
                                     lifecycle_seed=0)
        assert predicate(generate(0).module) is False

    def test_write_repro_round_trips(self, tmp_path):
        program = generate(5)
        path = write_repro(str(tmp_path), "fail_seed5", program.module,
                           "demo divergence", seed=5, ticks=9)
        with open(path) as handle:
            text = handle.read()
        assert "// seed: 5" in text
        assert "// fuzz-ticks: 9" in text
        reparsed = parse(text).module(program.module.name)
        assert print_module(reparsed) == program.source


@pytest.mark.fuzz
class TestLongCampaign:
    def test_hundred_seed_campaign(self):
        """The acceptance run: 100 programs, bit-identical everywhere."""
        from repro.fuzz.__main__ import main

        assert main(["--seed", "0", "--n", "100",
                     "--corpus-dir", "tests/corpus"]) == 0
