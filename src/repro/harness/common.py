"""Shared plumbing for the experiment harness.

Each ``figXX``/``secXX`` module measures the real mechanisms (traps,
state capture, reprogramming, coalescing) at a scaled tick count and
lays the measured rates onto the paper's event schedule.  This module
holds the common pieces: benchmark program construction with input
files, profile caching (hardware profiling is interpreter-heavy), and
result containers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..bench import BENCHMARKS, adpcm, bitcoin, datagen, df, mips32, nw, regex
from ..compiler.service import CompilerService
from ..core.pipeline import CompiledProgram
from ..fabric.device import DE10, F1, Device
from ..interp.vfs import VirtualFS
from ..perf.model import HwProfile, SwProfile, profile_hardware, profile_software
from ..perf.timeline import Series

#: The harness-wide compiler service: every figure/table module
#: compiles through one artifact store, so programs, codegen and
#: estimates are shared across experiments.
_COMPILER = CompilerService()

_HW_PROFILE_CACHE: Dict[Tuple[str, str, int], HwProfile] = {}
_SW_PROFILE_CACHE: Dict[Tuple[str, int], SwProfile] = {}


def harness_compiler() -> CompilerService:
    """The shared compiler service of the experiment harness."""
    return _COMPILER


def bench_program(name: str, quiescence: bool = False,
                  **source_kwargs) -> CompiledProgram:
    """Compile one Table 1 benchmark through the full Synergy pipeline.

    Content-addressed through the harness compiler service: repeated
    requests (including ``source_kwargs`` variants that generate the
    same text) return the shared :class:`CompiledProgram` artifact.
    """
    source = BENCHMARKS[name].source(quiescence=quiescence, **source_kwargs)
    return _COMPILER.compile_program(source)


def bench_vfs(name: str, scale: int = 1 << 16) -> VirtualFS:
    """A virtual filesystem pre-loaded with the benchmark's input."""
    vfs = VirtualFS()
    if name == "regex":
        vfs.add_file(regex.INPUT_PATH, datagen.regex_text(scale).encode())
    elif name == "nw":
        vfs.add_file(nw.INPUT_PATH, datagen.nw_pairs(scale // (2 * nw.TILE)))
    elif name == "adpcm":
        vfs.add_file(adpcm.INPUT_PATH,
                     datagen.pack_u16(datagen.adpcm_samples(scale // 2)))
    return vfs


def bench_source_kwargs(name: str) -> dict:
    """Workload-size overrides so profiling runs never hit $finish."""
    if name == "bitcoin":
        return {"target": 1}        # unreachable target: mine forever
    if name == "df":
        return {"iters": 1 << 30}   # effectively unbounded
    return {}


def hw_profile(name: str, device: Device, ticks: int = 48) -> HwProfile:
    """Measured hardware profile for one benchmark (memoized)."""
    key = (name, device.name, ticks)
    if key in _HW_PROFILE_CACHE:
        return _HW_PROFILE_CACHE[key]
    program = bench_program(name, **bench_source_kwargs(name))
    profile = profile_hardware(program, device, ticks=ticks,
                               vfs=bench_vfs(name), compiler=_COMPILER)
    _HW_PROFILE_CACHE[key] = profile
    return profile


def sw_profile(name: str, ticks: int = 8) -> SwProfile:
    """Measured software-interpreter profile (memoized)."""
    key = (name, ticks)
    if key in _SW_PROFILE_CACHE:
        return _SW_PROFILE_CACHE[key]
    program = bench_program(name, **bench_source_kwargs(name))
    profile = profile_software(program, ticks=ticks, vfs=bench_vfs(name),
                               compiler=_COMPILER)
    _SW_PROFILE_CACHE[key] = profile
    return profile


#: default serve-traffic design mix: weight per design family
DEFAULT_SERVE_MIX: Tuple[Tuple[str, float], ...] = (
    ("mips32", 2.0), ("bitcoin", 1.0), ("fuzz", 5.0),
)

#: default priority mix for generated arrivals
DEFAULT_PRIORITY_MIX: Tuple[Tuple[str, float], ...] = (
    ("high", 1.0), ("normal", 3.0), ("low", 2.0),
)


@dataclass(frozen=True)
class Arrival:
    """One tenant arrival in a generated trace."""

    at: float        #: offset from trace start, seconds
    name: str        #: unique job name within the trace
    design: str      #: design family ("mips32", "bitcoin", "fuzz-<seed>")
    source: str      #: Verilog text
    ticks: int       #: tick budget for the job
    priority: str
    tenant: str      #: submitting principal


def arrival_trace(seed: int, n: int, rate_hz: float = 50.0,
                  mix: Tuple[Tuple[str, float], ...] = DEFAULT_SERVE_MIX,
                  priority_mix: Tuple[Tuple[str, float], ...] = DEFAULT_PRIORITY_MIX,
                  tenants: int = 4, fuzz_pool: int = 6,
                  ticks_range: Tuple[int, int] = (8, 48)) -> List[Arrival]:
    """A reproducible Poisson arrival trace over a weighted design mix.

    Inter-arrival gaps are exponential at *rate_hz*; designs are drawn
    from *mix* (``"fuzz"`` expands to a pool of *fuzz_pool* distinct
    grammar-generated smalls, so the trace has the few-designs ×
    many-instances shape the artifact store and the cohorts
    exploit).  Everything — gaps, designs, priorities, tick budgets,
    principals — comes from one ``random.Random(seed)``, so the serve
    benchmark and the serve tests replay identical load by seed.
    """
    import random

    rng = random.Random(seed)
    sources: Dict[str, str] = {
        "mips32": mips32.source(imem_words=64, dmem_words=64),
        "bitcoin": bitcoin.source(b"serve-trace".ljust(32, b"\0"), target=1),
    }
    fuzz_designs: List[str] = []
    if any(name == "fuzz" for name, _ in mix):
        from ..fuzz.gen import GrammarWeights, generate

        weights = GrammarWeights(seq_blocks=(1, 1), seq_regs=(2, 3),
                                 temps_per_block=(0, 1), comb_regs=(0, 1),
                                 wires=(1, 2), stmts_per_block=(2, 3),
                                 memory_prob=0.0, initial_prob=0.5,
                                 finish_prob=0.0)
        for i in range(fuzz_pool):
            label = f"fuzz-{i}"
            sources[label] = generate(seed * 1000 + i, weights).source
            fuzz_designs.append(label)
    names = [name for name, _ in mix]
    design_weights = [w for _, w in mix]
    prio_names = [name for name, _ in priority_mix]
    prio_weights = [w for _, w in priority_mix]
    trace: List[Arrival] = []
    at = 0.0
    for i in range(n):
        at += rng.expovariate(rate_hz)
        family = rng.choices(names, weights=design_weights)[0]
        design = rng.choice(fuzz_designs) if family == "fuzz" else family
        trace.append(Arrival(
            at=at,
            name=f"job-{seed}-{i}",
            design=design,
            source=sources[design],
            ticks=rng.randrange(ticks_range[0], ticks_range[1] + 1),
            priority=rng.choices(prio_names, weights=prio_weights)[0],
            tenant=f"tenant-{rng.randrange(tenants)}",
        ))
    return trace


@dataclass
class ExperimentResult:
    """One regenerated table/figure: series and/or rows plus notes."""

    name: str
    title: str
    series: List[Series] = field(default_factory=list)
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def row_table(self) -> str:
        if not self.rows:
            return ""
        columns = list(self.rows[0].keys())
        widths = {
            c: max(len(str(c)), *(len(_fmt(r.get(c))) for r in self.rows))
            for c in columns
        }
        header = "  ".join(str(c).ljust(widths[c]) for c in columns)
        lines = [header, "  ".join("-" * widths[c] for c in columns)]
        for row in self.rows:
            lines.append("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))
        return "\n".join(lines)

    def render(self) -> str:
        from ..perf.timeline import format_series

        parts = [f"== {self.name}: {self.title} =="]
        if self.rows:
            parts.append(self.row_table())
        if self.series:
            parts.append(format_series(self.series))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)
