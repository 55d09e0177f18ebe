"""Ablations for the design choices DESIGN.md calls out.

* **Trap granularity** — Cascade services unsynthesizable tasks only
  *between* logical ticks (output-only); Synergy's state machine yields
  mid-tick.  We count the mid-tick blocking traps per tick for each
  benchmark: any nonzero count is a program Cascade could not run in
  hardware at all (it would fall back to the software interpreter), so
  the ablation reports the hardware-vs-software speedup Synergy's
  granularity unlocks.

* **Compilation cache** — time-to-hardware with a cold vs. warm cache
  (§5.1/§7): the warm path skips the modeled Quartus/Vivado run.

* **Capture-tree fanout** — §5.2's buffered read tree: sweeping the
  fanout trades FFs (more buffers) against frequency.
"""

from __future__ import annotations

from ..bench import BENCHMARKS
from ..compiler.artifacts import ArtifactStore
from ..compiler.service import KIND_BITSTREAM, CompilerService
from ..fabric.device import DE10, F1
from ..fabric import synth as synth_mod
from ..fabric.synth import SynthOptions, Synthesizer
from ..runtime.backends import DirectBoardBackend, synth_options_for
from ..verilog.width import WidthEnv
from .common import (
    ExperimentResult,
    bench_program,
    bench_source_kwargs,
    hw_profile,
    sw_profile,
)


def granularity() -> ExperimentResult:
    """Sub-clock-tick yields vs. Cascade's between-tick interrupts."""
    result = ExperimentResult(
        "Ablation: granularity",
        "What sub-clock-tick traps buy over between-tick interrupts",
    )
    for name in BENCHMARKS:
        profile = hw_profile(name, DE10)
        sw = sw_profile(name)
        blocking = profile.traps_per_tick
        if blocking > 0:
            speedup = profile.virtual_hz / sw.virtual_hz
            verdict = f"{speedup:.0f}x over software fallback"
        else:
            verdict = "runs under Cascade too (no mid-tick traps)"
        result.rows.append({
            "bench": name,
            "mid-tick traps/tick": blocking,
            "hw virt Hz": profile.virtual_hz,
            "sw virt Hz": sw.virtual_hz,
            "without sub-tick yields": verdict,
        })
    result.notes = [
        "streaming benchmarks block on IO results mid-tick; between-tick "
        "interrupt queues cannot express that (§2.1), so those programs "
        "would be stuck in software simulation",
    ]
    return result


def compilation_cache() -> ExperimentResult:
    """Cold vs. warm compilation cache: time to hardware."""
    result = ExperimentResult(
        "Ablation: compilation cache", "Time-to-hardware, cold vs warm"
    )
    for name in BENCHMARKS:
        program = bench_program(name, **bench_source_kwargs(name))
        backend = DirectBoardBackend(      # a memory-only, cold store
            F1, compiler=CompilerService(ArtifactStore()))
        cold = backend.place(program)
        warm = backend.place(program)
        result.rows.append({
            "bench": name,
            "cold (s)": cold.compile_seconds + cold.reconfig_seconds,
            "warm (s)": warm.compile_seconds + warm.reconfig_seconds,
            "cache hit": warm.cache_hit,
            "saved (s)": backend.compiler.stats(
                KIND_BITSTREAM).seconds_saved,
        })
    result.notes = [
        "the warm path pays only reconfiguration; this is why Synergy "
        "primes bitstream caches before virtualization events (§6)",
    ]
    return result


def capture_tree() -> ExperimentResult:
    """Sweep the §5.2 read-tree fanout for one capture-heavy program."""
    result = ExperimentResult(
        "Ablation: capture tree", "Buffer-tree fanout vs FFs (mips32)"
    )
    program = bench_program("mips32")
    env = WidthEnv(program.transform.module)
    original = synth_mod.CAPTURE_TREE_FANOUT
    try:
        for fanout in (2, 4, 8, 16, 32):
            synth_mod.CAPTURE_TREE_FANOUT = fanout
            options = synth_options_for(program)
            est = Synthesizer(options).estimate(program.transform.module, env)
            result.rows.append({
                "fanout": fanout,
                "FFs": est.ffs,
                "LUTs": est.luts,
                "levels": est.logic_levels,
            })
    finally:
        synth_mod.CAPTURE_TREE_FANOUT = original
    result.notes = [
        "smaller fanout = more pipeline buffers = more FFs but shorter "
        "combinational paths between the hull and program variables",
    ]
    return result


def clock_domains() -> ExperimentResult:
    """Figure 12's future-work fix: per-application clock domains."""
    from ..hypervisor import Hypervisor
    from ..runtime import Runtime

    result = ExperimentResult(
        "Ablation: clock domains",
        "Does adpcm's arrival still halve co-residents' clocks?",
    )
    for tag, domains in (("global clock", False), ("clock domains", True)):
        hv = Hypervisor(F1, clock_domains=domains)
        rt_bitcoin = Runtime(
            bench_program("bitcoin", **bench_source_kwargs("bitcoin")),
            name="bitcoin",
        )
        rt_bitcoin.tick(1)
        rt_bitcoin.attach(hv.connect("bitcoin"))
        rt_bitcoin._hw_ready_at = rt_bitcoin.sim_time
        rt_bitcoin.tick(1)
        before = rt_bitcoin.placement.clock_hz
        from .common import bench_vfs as _vfs

        rt_adpcm = Runtime(bench_program("adpcm"), vfs=_vfs("adpcm"),
                           name="adpcm")
        rt_adpcm.tick(1)
        rt_adpcm.attach(hv.connect("adpcm"))
        rt_adpcm._hw_ready_at = rt_adpcm.sim_time
        rt_adpcm.tick(1)
        after = hv.design.clock_for(rt_bitcoin.placement.engine_id)
        extra_luts = hv.design.resources.luts
        result.rows.append({
            "configuration": tag,
            "bitcoin clock before (MHz)": before / 1e6,
            "bitcoin clock after adpcm (MHz)": after / 1e6,
            "combined LUTs": extra_luts,
        })
    result.notes = [
        "with per-application clock domains (and their CDC logic cost), "
        "a slow arrival no longer drags co-residents' clocks — the fix "
        "the paper's §6.2 discussion proposes as future work",
    ]
    return result


def speculative_compilation() -> ExperimentResult:
    """§7's future-work: precompile likely-next designs in the background."""
    from ..hypervisor import Hypervisor
    from ..runtime import Runtime

    result = ExperimentResult(
        "Ablation: speculative compilation",
        "Departure recompile latency, with and without speculation",
    )
    for tag, speculate in (("reactive", False), ("speculative", True)):
        hv = Hypervisor(F1)
        if speculate:
            hv.enable_speculation()
        runtimes = []
        clients = []
        # Three arrivals, then the MIDDLE one departs: the surviving
        # member set {bitcoin, mips32} is a design no arrival epoch ever
        # compiled, so it is a genuine miss without speculation.
        for name in ("bitcoin", "df", "mips32"):
            rt = Runtime(bench_program(name, **bench_source_kwargs(name)),
                         name=name)
            rt.tick(1)
            client = hv.connect(name)
            rt.attach(client)
            rt._hw_ready_at = rt.sim_time
            rt.tick(1)
            runtimes.append(rt)
            clients.append(client)
        if speculate:
            hv.speculate_departures(now=0.0)
            horizon = max((b.ready_at for b in hv.speculator.in_flight),
                          default=0.0) + 1.0
            hv.speculator.settle(now=horizon)
        bitstreams = hv.compiler.stats(KIND_BITSTREAM)  # live counters
        misses_before = bitstreams.misses
        saved_before = bitstreams.seconds_saved
        clients[1].release(runtimes[1].placement.engine_id)
        recompile_misses = bitstreams.misses - misses_before
        result.rows.append({
            "configuration": tag,
            "departure cache misses": recompile_misses,
            "compile seconds avoided": bitstreams.seconds_saved - saved_before,
        })
    result.notes = [
        "speculation pre-builds the member-set-minus-one designs, so a "
        "departure's mandatory recompile becomes a cache hit (§7)",
    ]
    return result


def main() -> None:
    print(granularity().render())
    print()
    print(compilation_cache().render())
    print()
    print(capture_tree().render())
    print()
    print(clock_domains().render())
    print()
    print(speculative_compilation().render())


if __name__ == "__main__":
    main()
