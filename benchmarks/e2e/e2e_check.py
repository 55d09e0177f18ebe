"""Output checks: a wrong tenant is a failed tenant.

Three levels, all applied by the same command that measures:

1. **agreement** — tenants with the same (design, tick target) must
   agree bit-for-bit on ``display``, ``state``, ``ticks``, ``finished``
   and ``finish_code`` whichever path served them (board, software
   engine, cohort lane, recovered after a restart);
2. **canary** — per distinct design one short target is served through
   the front door and compared with the reference interpreter
   (``Runtime(..., sim_backend="interp")``, unsliced), the independent
   tree-walker — never the compiled backend under test;
3. **golden** — for the default seed, ``golden.json`` holds digests of
   the full-length results, produced offline by ``run.py
   --regen-golden`` with the reference interpreter.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.compiler import ArtifactStore, CompilerService, text_digest
from repro.runtime import Runtime

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def result_digest(display, state, ticks, finished, finish_code) -> str:
    """Digest of everything a tenant's output consists of."""
    payload = json.dumps(
        [list(display), sorted(state.items()), ticks, bool(finished),
         finish_code],
        default=list, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def served_digest(result) -> str:
    return result_digest(result.display, result.state, result.ticks,
                         result.finished, result.finish_code)


class Reference:
    """Reference-interpreter results, memoized by (source, target).

    One runtime per design ticks through its targets in ascending
    order: the state at tick *t* of a longer run is the state a run of
    exactly *t* ticks ends in, so N targets cost one run to the
    largest.  Shares nothing with the stores under test.
    """

    def __init__(self):
        self._service = CompilerService(ArtifactStore())
        self._digests: Dict[Tuple[str, int], str] = {}

    def digests(self, source: str, targets: Iterable[int],
                vfs=None) -> Dict[int, str]:
        key = text_digest(source)
        wanted = sorted(set(targets))
        if any((key, t) not in self._digests for t in wanted):
            runtime = Runtime(source, compiler=self._service,
                              sim_backend="interp", vfs=vfs)
            # Architectural state as a retired tenant reports it: regs
            # and integers, without the "__" virtualization bookkeeping.
            names = [d.name for d in runtime.program.flat.decls()
                     if d.kind in ("reg", "integer")
                     and not d.name.startswith("__")]
            for target in wanted:
                runtime.tick(target - runtime.ticks)
                self._digests[(key, target)] = result_digest(
                    runtime.host.display_log,
                    runtime.engine.snapshot(names), runtime.ticks,
                    runtime.finished, runtime.host.finish_code)
        return {t: self._digests[(key, t)] for t in wanted}


def disagreements(samples: List[dict]) -> List[str]:
    """Names of tenants whose digest differs from the first tenant
    served with the same (design, target) key."""
    first: Dict[str, str] = {}
    wrong = []
    for sample in samples:
        if sample["digest"] is None:
            continue
        expected = first.setdefault(sample["key"], sample["digest"])
        if sample["digest"] != expected:
            wrong.append(sample["name"])
    return wrong


def load_golden() -> Dict[str, object]:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


def golden_mismatches(samples: List[dict],
                      golden: Optional[Dict[str, str]]) -> List[str]:
    """Tenants whose digest differs from (or is missing in) *golden*."""
    if golden is None:
        return []
    return [s["name"] for s in samples
            if s["digest"] is not None and golden.get(s["key"]) != s["digest"]]
