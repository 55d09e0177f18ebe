"""Command-line interface: ``python -m repro <command>``.

Commands
--------
experiments [name]   regenerate paper tables/figures (all by default)
compile FILE         print the Synergy-transformed Verilog for a module
                     (--sim-source: the software engine's generated Python)
run FILE [--ticks N] run a program (software -> simulated DE10 JIT)
bench                list the Table 1 benchmark suite
"""

from __future__ import annotations

import argparse
import sys


def _cmd_experiments(args: argparse.Namespace) -> int:
    from . import harness

    runners = {
        "table1": lambda: harness.table1.run().render(),
        "fig9": lambda: harness.fig09_suspend_resume.run().render(),
        "fig10": lambda: harness.fig10_migration.run().render(),
        "fig11": lambda: harness.fig11_temporal.run().render(),
        "fig12": lambda: harness.fig12_spatial.run().render(),
        "fig13": lambda: harness.grid.fig13_ff().render(),
        "fig14": lambda: harness.grid.fig14_lut().render(),
        "fig15": lambda: harness.grid.fig15_freq().render(),
        "sec63": lambda: harness.grid.sec63_quiescence().render(),
        "sec64": lambda: harness.sec64_overheads.run().render(),
    }
    if args.name:
        if args.name not in runners:
            print(f"unknown experiment {args.name!r}; "
                  f"choose from {', '.join(runners)}", file=sys.stderr)
            return 2
        print(runners[args.name]())
        return 0
    print(harness.run_all())
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from .core import compile_program

    with open(args.file) as handle:
        program = compile_program(handle.read(), top=args.top)
    if args.sim_source:
        from .interp.compile import CompiledModuleCode

        code = CompiledModuleCode(program.flat, env=program.env)
        print(code.source)
        print(f"// period plan: {code.period_plan}"
              + (f" ({code.period_refused})" if code.period_refused else ""),
              file=sys.stderr)
        for name, how in code.strategy.items():
            print(f"// {name}: {how}", file=sys.stderr)
        print("// counted loops {counted}/{loops}, guards dropped {guards}, "
              "masks dropped {masks}".format(**code.facts), file=sys.stderr)
        return 0
    print(program.hardware_text)
    print(f"// states: {program.transform.n_states}, "
          f"traps: {len(program.transform.tasks)}, "
          f"state bits: {program.state.total_bits}", file=sys.stderr)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .fabric import DE10
    from .runtime import DirectBoardBackend, Runtime

    with open(args.file) as handle:
        runtime = Runtime(handle.read(), top=args.top, echo=True)
    for path in args.data or []:
        with open(path, "rb") as handle:
            runtime.host.vfs.add_file(path, handle.read())
    runtime.tick(1)
    runtime.attach(DirectBoardBackend(DE10))
    runtime._hw_ready_at = runtime.sim_time
    runtime.tick(args.ticks)
    print(f"// {runtime.ticks} ticks, mode={runtime.mode}, "
          f"finished={runtime.finished}", file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import BENCHMARKS

    for name, bench in BENCHMARKS.items():
        star = " *" if bench.streaming else ""
        print(f"{name:10} {bench.description}{star}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Synergy (ASPLOS 2021) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="regenerate tables/figures")
    p_exp.add_argument("name", nargs="?", help="one experiment (e.g. fig9)")
    p_exp.set_defaults(fn=_cmd_experiments)

    p_compile = sub.add_parser("compile", help="print transformed Verilog")
    p_compile.add_argument("file")
    p_compile.add_argument("--top", default=None)
    p_compile.add_argument(
        "--sim-source", action="store_true",
        help="print the software engine's generated Python instead "
             "(process bodies, writers, and the clock period)")
    p_compile.set_defaults(fn=_cmd_compile)

    p_run = sub.add_parser("run", help="run a program on a simulated DE10")
    p_run.add_argument("file")
    p_run.add_argument("--top", default=None)
    p_run.add_argument("--ticks", type=int, default=1000)
    p_run.add_argument("--data", action="append",
                       help="file to preload into the virtual filesystem")
    p_run.set_defaults(fn=_cmd_run)

    p_bench = sub.add_parser("bench", help="list the benchmark suite")
    p_bench.set_defaults(fn=_cmd_bench)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Output truncated by a closed pipe (e.g. `| head`): not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
