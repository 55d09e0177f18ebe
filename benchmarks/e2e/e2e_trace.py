"""Spans recorded from the benchmark's side of each layer boundary.

Nothing under ``src/`` is edited or monkeypatched: every proxy here is
a subclass of a public class, handed in through a constructor that
already takes that object (``Hypervisor(compiler=...)``,
``ServeFrontend(fleet, journal=...)``, ``ArtifactStore(disk=...)``).
All serving work is synchronous between two awaits of one asyncio
loop, so one stack is enough to know each span's parent.

A span is ``{name, start, end, parent, tenant}`` (plus a small
``attrs`` dict for counts read at the same boundary).  Spans stay in
memory during the round and are written afterwards as Chrome-trace
JSON, which Perfetto (https://ui.perfetto.dev) opens directly.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional

from repro.compiler import CompilerService, DiskArtifactStore
from repro.compiler.service import (
    KIND_BATCH, KIND_CODEGEN, KIND_EVENT, KIND_OPT, KIND_PARSE,
    KIND_PROGRAM, KIND_SYNTH,
)
from repro.hypervisor import Hypervisor, TenantJournal
from repro.serve import Fleet


class Span:
    __slots__ = ("name", "start", "end", "parent", "tenant", "attrs")

    def __init__(self, name: str, start: float, parent: int,
                 tenant: Optional[str]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tenant = tenant
        self.attrs: Optional[Dict[str, object]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        out = {"name": self.name, "start": self.start, "end": self.end,
               "parent": self.parent, "tenant": self.tenant}
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def begin(self, name: str, tenant: Optional[str] = None) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.clock(), parent, tenant)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def span(self, name: str, tenant: Optional[str] = None) -> "_SpanScope":
        return _SpanScope(self, name, tenant)


class _SpanScope:
    def __init__(self, tracer: Tracer, name: str, tenant: Optional[str]):
        self._tracer, self._name, self._tenant = tracer, name, tenant

    def __enter__(self) -> Span:
        self._span = self._tracer.begin(self._name, self._tenant)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.end(self._span)


# -- span arithmetic ---------------------------------------------------------


def self_times(spans: List[Span]) -> List[float]:
    """Per-span self time: duration minus what its child spans cover.

    Children of one span never overlap each other (single thread, one
    stack), so coverage is the plain sum of child durations.
    """
    out = [s.duration for s in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.duration
    return out


def check_nesting(spans: List[Span]) -> List[str]:
    """Every child inside its parent, every self time non-negative."""
    problems = []
    eps = 1e-9
    for i, span in enumerate(spans):
        if span.end < span.start:
            problems.append(f"span {i} {span.name} ends before it starts")
        if span.parent >= 0:
            parent = spans[span.parent]
            if span.start < parent.start - eps or span.end > parent.end + eps:
                problems.append(f"span {i} {span.name} escapes its parent "
                                f"{parent.name}")
    for i, own in enumerate(self_times(spans)):
        if own < -1e-6:
            problems.append(f"span {i} {spans[i].name} has negative self "
                            f"time {own:.9f}")
    return problems


def write_chrome_trace(path, groups: Dict[str, List[Span]],
                       meta: Dict[str, object]) -> None:
    """One complete-event (``ph: X``) per span; one pid per span group
    (the serving process, or the two phases of ``durable_restart``)."""
    events = []
    for pid, (label, spans) in enumerate(groups.items(), start=1):
        events.append({"ph": "M", "pid": pid, "tid": 1,
                       "name": "process_name", "args": {"name": label}})
        if not spans:
            continue
        origin = min(s.start for s in spans)
        for i, span in enumerate(spans):
            args = {"id": i, "parent": span.parent}
            if span.tenant is not None:
                args["tenant"] = span.tenant
            if span.attrs:
                args.update(span.attrs)
            events.append({
                "ph": "X", "pid": pid, "tid": 1, "name": span.name,
                "cat": span.name.split(".")[0],
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": args,
            })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": meta}, fh)


# -- proxies -----------------------------------------------------------------


def _traced(base: type, tracer: Tracer, layer: str,
            methods: Dict[str, Optional[int]],
            after: Optional[Dict[str, Callable]] = None) -> type:
    """Subclass *base* with each listed public method inside a span.

    *methods* maps method name → index of the positional argument that
    names the tenant (``None``: the call is not per-tenant).  *after*
    maps method name → ``hook(span, result)`` for counts that are read
    off the return value at the same boundary.
    """
    after = after or {}

    def wrap(name: str, tenant_arg: Optional[int]):
        inner = getattr(base, name)
        hook = after.get(name)
        label = f"{layer}.{name}"

        def method(self, *args, **kwargs):
            tenant = None
            if tenant_arg is not None and len(args) > tenant_arg:
                tenant = args[tenant_arg]
            span = tracer.begin(label, tenant)
            try:
                result = inner(self, *args, **kwargs)
                if hook is not None:
                    hook(span, result)
                return result
            finally:
                tracer.end(span)

        method.__name__ = name
        method.__doc__ = inner.__doc__
        return method

    body = {name: wrap(name, arg) for name, arg in methods.items()}
    return type(f"Traced{base.__name__}", (base,), body)


def _advance_counts(span: Span, report) -> None:
    span.attrs = {"ticks": report.ticks, "traps": report.traps}


def _cohort_counts(span: Span, reports) -> None:
    span.attrs = {"ticks": sum(r.ticks for r in reports.values()),
                  "traps": sum(r.traps for r in reports.values())}


#: the store kind each CompilerService stage interns under; a span is
#: a miss when that kind's (live) miss counter moved inside it
_STAGE_KINDS = {
    "parse": (KIND_PARSE,),
    "compile_program": (KIND_PROGRAM,),
    "optimize": (KIND_OPT,),
    "codegen": (KIND_CODEGEN, KIND_EVENT),
    "batch": (KIND_BATCH,),
    "estimate": (KIND_SYNTH,),
}


def _traced_compiler(tracer: Tracer) -> type:
    def wrap(name: str, kinds):
        inner = getattr(CompilerService, name)
        label = f"compiler.{name}"

        def method(self, *args, **kwargs):
            stats = [self.store.stats(kind) for kind in kinds]
            before = sum(s.misses for s in stats)
            span = tracer.begin(label)
            try:
                return inner(self, *args, **kwargs)
            finally:
                tracer.end(span)
                span.attrs = {"miss": sum(s.misses for s in stats) > before}

        method.__name__ = name
        method.__doc__ = inner.__doc__
        return method

    body = {name: wrap(name, kinds) for name, kinds in _STAGE_KINDS.items()}
    return type("TracedCompilerService", (CompilerService,), body)


class Proxies:
    """The five traced classes, bound to one tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.CompilerService = _traced_compiler(tracer)
        self.DiskArtifactStore = _traced(
            DiskArtifactStore, tracer, "compiler.disk",
            {"load": None, "store": None})
        self.Hypervisor = _traced(
            Hypervisor, tracer, "hypervisor",
            {"place_subprogram": 0, "finish_instance": None, "handle": None})
        self.Fleet = _traced(
            Fleet, tracer, "serve.fleet",
            {"admit_job": 0, "readmit": 0, "advance": 0,
             "advance_cohort": None, "checkpoint": 0, "form_cohorts": None,
             "rebalance": None, "release": 0},
            after={"advance": _advance_counts,
                   "advance_cohort": _cohort_counts})
        self.TenantJournal = _traced(
            TenantJournal, tracer, "hypervisor.durable",
            {"job": 0, "admit": 0, "checkpoint": 0, "terminal": 0,
             "drop_snapshots": 0, "replay": None, "load_snapshot": None})


class Plain:
    """The same five names, untraced: what timed rounds are built from."""

    tracer = None
    CompilerService = CompilerService
    DiskArtifactStore = DiskArtifactStore
    Hypervisor = Hypervisor
    Fleet = Fleet
    TenantJournal = TenantJournal

