"""Campaign CLI: ``python -m repro.fuzz``.

Runs a seeded differential-fuzzing campaign: generate N random
programs, run each through every execution path, and compare traces
and final state bit-for-bit.  On divergence the failing program is
shrunk and written to the corpus directory together with its seed.

Examples
--------
python -m repro.fuzz --seed 0 --n 100          # the acceptance run
python -m repro.fuzz --seed 7 --n 1 -v         # replay one seed
python -m repro.fuzz --n 25 --corpus-dir out   # CI smoke (artifacts)
"""

from __future__ import annotations

import argparse
import sys
import time

from ..compiler.service import CompilerService
from .gen import GrammarWeights, ModuleGenerator
from .oracle import ALL_PATHS, DEFAULT_PATHS, check
from .shrink import oracle_predicate, shrink_module, write_repro


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="differential conformance fuzzing across execution paths",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="first generator seed (default 0)")
    parser.add_argument("--n", type=int, default=20,
                        help="number of programs (seeds seed..seed+n-1)")
    parser.add_argument("--ticks", type=int, default=None,
                        help="fixed tick count (default: per-seed random)")
    parser.add_argument("--paths", default=None,
                        help="comma-separated execution paths to compare "
                             "(default: the schedule's paths)")
    parser.add_argument("--schedule", choices=("standard", "crash",
                                               "restart"),
                        default="standard",
                        help="'standard' compares the simulation/board/"
                             "lifecycle paths; 'crash' kills the board at "
                             "a seeded quiescence point and checks that "
                             "supervised recovery replays bit-identically; "
                             "'restart' kills the whole serving process "
                             "mid-flight and checks that journal-driven "
                             "recovery in a fresh process replays "
                             "bit-identically")
    parser.add_argument("--opt-levels", default=None,
                        help="comma-separated mid-end levels to cross-check "
                             "on the compiled path (e.g. 0,2); default: the "
                             "ambient REPRO_OPT_LEVEL only")
    parser.add_argument("--corpus-dir", default="tests/corpus",
                        help="where shrunk repros are written")
    parser.add_argument("--shrink-budget", type=int, default=300,
                        help="max oracle runs per shrink (0 disables)")
    parser.add_argument("--max-failures", type=int, default=3,
                        help="stop after this many divergent seeds")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print one line per seed")
    args = parser.parse_args(argv)

    if args.paths is not None:
        paths = tuple(p.strip() for p in args.paths.split(",") if p.strip())
    elif args.schedule == "crash":
        paths = ("interp", "crash")
    elif args.schedule == "restart":
        paths = ("interp", "restart")
    else:
        paths = DEFAULT_PATHS
    unknown = set(paths) - set(ALL_PATHS)
    if unknown:
        print(f"unknown paths: {', '.join(sorted(unknown))}; "
              f"choose from {', '.join(ALL_PATHS)}", file=sys.stderr)
        return 2
    opt_levels = None
    if args.opt_levels is not None:
        try:
            opt_levels = tuple(int(v) for v in args.opt_levels.split(",") if v != "")
        except ValueError:
            print(f"bad --opt-levels {args.opt_levels!r}: expected e.g. 0,2",
                  file=sys.stderr)
            return 2

    # One service for the whole campaign: every program is a fresh
    # digest, so this doubles as a soak test of the artifact store.
    service = CompilerService()
    weights = GrammarWeights()
    failures = 0
    checked = 0
    vectorized = tiered = 0
    t0 = time.perf_counter()
    for seed in range(args.seed, args.seed + args.n):
        checked += 1
        program = ModuleGenerator(seed, weights).generate()
        ticks = args.ticks if args.ticks is not None else program.ticks
        report = check(program.module, ticks, paths, service=service,
                       lifecycle_seed=seed, label=f"seed {seed}",
                       opt_levels=opt_levels)
        batched = report.results.get("batched")
        if batched is not None and batched.skipped is None:
            vectorized += 1
        lifecycle = report.results.get("lifecycle")
        tiered += lifecycle is not None and lifecycle.tier_ups > 0
        if report.ok:
            if args.verbose:
                note = "" if batched is None or batched.skipped is None \
                    else f"; batched {batched.skipped}"
                print(f"seed {seed}: ok ({ticks} ticks{note})")
            continue
        failures += 1
        print(report.describe(), file=sys.stderr)
        shrunk, tests = program.module, 0
        if args.shrink_budget > 0:
            predicate = oracle_predicate(ticks, paths, lifecycle_seed=seed,
                                         original=report,
                                         opt_levels=opt_levels)
            shrunk, tests = shrink_module(program.module, predicate,
                                          budget=args.shrink_budget)
        path = write_repro(args.corpus_dir, f"fail_seed{seed}", shrunk,
                           report.describe(), seed=seed, ticks=ticks)
        print(f"seed {seed}: DIVERGED — shrunk repro "
              f"({tests} oracle runs) written to {path}", file=sys.stderr)
        if failures >= args.max_failures:
            print(f"stopping after {failures} failures", file=sys.stderr)
            break

    elapsed = time.perf_counter() - t0
    stats = service.stats()
    print(f"{checked} programs, {failures} divergent, {elapsed:.1f}s; "
          f"artifact store: {stats.hits} hits / {stats.misses} misses "
          f"({stats.hit_rate:.0%} hit rate, "
          f"{service.store.count()} entries)")
    if "batched" in paths:
        print(f"batched: vectorized {vectorized} of {checked}")
    if "lifecycle" in paths:
        print(f"lifecycle: tiered up {tiered} of {checked}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
