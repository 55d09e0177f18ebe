"""Pass schedules, optimization levels, and the pipeline fingerprint.

``REPRO_OPT_LEVEL`` switches the mid-end of the compiled simulation
backend off or on (read per call, like ``REPRO_SIM_BACKEND``):

* ``0`` — no mid-end: the elaborated module is compiled 1:1, with no
  range facts (every loop a ``while``, every guard kept) and no vector
  carrier.  This is the differential-fuzzing counterpart of the
  optimized pipeline.
* any other value (default ``2``, the level the pipeline reports) —
  the word-level pipeline: folding/propagation, alias forwarding,
  always-block fusion, dead-signal/dead-process elimination and
  clock-gate detection; the optimized module also licenses the range
  facts and the vector carrier.

The **fingerprint** names the exact pass schedule *and* the codegen
generation; it joins the program digest in every optimized artifact's
cache key, so two services (or two opt levels inside one fuzz oracle)
can share one artifact store without aliasing.  Bump ``_CODEGEN_REV``
whenever emitted code changes shape.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Optional, Tuple

from ..verilog import ast_nodes as ast
from ..verilog.width import WidthEnv
from . import passes
from .ir import Design, node_count
from .schedule import Schedule

#: Default optimization level when neither the caller nor
#: ``REPRO_OPT_LEVEL`` says otherwise.
DEFAULT_OPT_LEVEL = 2

#: Revision of the code generator; part of every fingerprint so stale
#: code objects cannot be shared across builds that emit differently.
_CODEGEN_REV = 12

_PIPELINES: Dict[int, Tuple[Tuple[str, Callable[[Design], object]], ...]] = {
    0: (),
    # No separate "fold" stage: ``propagate_constants`` already runs
    # ``fold_constants`` before and after itself.
    2: (
        ("const", passes.propagate_constants),
        ("alias", passes.forward_aliases),
        ("fuse", passes.fuse_always_blocks),
        ("dce", passes.eliminate_dead),
        ("gate", passes.detect_clock_gates),
    ),
}


def resolve_opt_level(level: Optional[int] = None) -> int:
    """The effective optimization level for an optional override.

    Explicit argument wins; otherwise ``REPRO_OPT_LEVEL`` (read per
    call so tests can monkeypatch it); otherwise the default.  The
    answer is ``0`` (off) or ``DEFAULT_OPT_LEVEL`` (on, for any
    non-zero request).
    """
    if level is None:
        raw = os.environ.get("REPRO_OPT_LEVEL", "")
        try:
            level = int(raw) if raw != "" else DEFAULT_OPT_LEVEL
        except ValueError:
            level = DEFAULT_OPT_LEVEL
    return DEFAULT_OPT_LEVEL if int(level) > 0 else 0


def pipeline_fingerprint(level: Optional[int] = None) -> str:
    """Deterministic name of (pass schedule, codegen revision).

    This string joins the program digest in the cache key of every
    optimized artifact — the cache-key discipline's second component.
    """
    level = resolve_opt_level(level)
    names = "+".join(name for name, _ in _PIPELINES[level])
    return f"O{level}:{names or 'none'}:cg{_CODEGEN_REV}"


@dataclass
class OptResult:
    """One optimized design plus its reporting metadata."""

    module: ast.Module
    env: WidthEnv
    level: int
    fingerprint: str
    #: how the compiled backend runs the optimized module: processes,
    #: cones, clock, gates and every refusal (``opt/schedule.py``)
    schedule: Schedule
    #: pass name -> rewrites performed
    pass_counts: Dict[str, int] = field(default_factory=dict)

    @cached_property
    def nodes_after(self) -> int:
        """Expression nodes in the optimized module, counted when read."""
        return node_count(self.module)

    @property
    def processes_after(self) -> int:
        """Processes in the optimized module."""
        return len(self.schedule.processes)


def optimize_module(module: ast.Module, env: Optional[WidthEnv] = None,
                    level: Optional[int] = None,
                    keep: "frozenset[str]" = frozenset()) -> OptResult:
    """Run the pass pipeline for *level* over an elaborated module.

    *keep* names additional externally observable signals (e.g. trap
    argument reads the runtime performs over the ABI) that passes must
    treat like ports.  Deterministic: same module text, level and keep
    set always produce the same output module (the property the
    content-addressed artifact store relies on).
    """
    level = resolve_opt_level(level)
    design = Design(module, env=env, keep=keep)
    counts: Dict[str, int] = {}
    for name, fn in _PIPELINES[level]:
        result = fn(design)
        if isinstance(result, tuple):
            counts[name] = sum(int(v) for v in result)
        else:
            counts[name] = int(result)
    return OptResult(
        module=design.to_module() if level > 0 else module,
        env=design.env,
        level=level,
        fingerprint=pipeline_fingerprint(level),
        schedule=Schedule(design, specialize=level > 0),
        pass_counts=counts,
    )
