"""One polling surface over the fleet's scattered counters.

Every layer below already keeps the ``stats()`` idiom — the
:class:`~repro.hypervisor.hypervisor.Hypervisor` its health and ABI
traffic, the :class:`~repro.hypervisor.supervisor.Supervisor` its
checkpoints/recoveries/cohorts, the
:class:`~repro.compiler.artifacts.ArtifactStore` its per-kind hit
rates — but consumers used to hand-merge the three dictionaries (and
each invented its own shape for the artifact counters).  The serving
layer polls telemetry once per scheduling round, so the merge lives
here, once: :func:`telemetry_snapshot` collects whatever layers the
caller has into a single nested dict, and
:func:`artifact_snapshot` is the one rendering of a
:class:`~repro.compiler.artifacts.KindStats` everybody shares.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..compiler.artifacts import ArtifactStore


def artifact_snapshot(store: ArtifactStore,
                      kinds: Optional[Iterable[str]] = None) -> Dict[str, object]:
    """Per-kind counters of one artifact store as plain dicts.

    *kinds* restricts the snapshot (e.g. just ``KIND_BATCH`` for the
    hypervisor's cohort view); omitted, every kind the store
    has seen is included, plus an ``"all"`` aggregate.
    """
    selected = list(kinds) if kinds is not None else list(store.kinds())
    out: Dict[str, object] = {}
    for kind in selected:
        stats = store.stats(kind)
        out[kind] = {
            "entries": store.count(kind),
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "hit_rate": round(stats.hit_rate, 4),
        }
    if kinds is None:
        total = store.stats()
        out["all"] = {
            "entries": store.count(),
            "hits": total.hits,
            "misses": total.misses,
            "evictions": total.evictions,
            "hit_rate": round(total.hit_rate, 4),
        }
    return out


def telemetry_snapshot(supervisor=None, hypervisors=None,
                       store: Optional[ArtifactStore] = None) -> Dict[str, object]:
    """Collect fleet/board/artifact counters into one nested dict.

    Pass whichever layers exist: a supervisor implies its hypervisors
    (an explicit *hypervisors* list overrides), and artifact stores are
    gathered from every hypervisor's compiler service — deduplicated by
    identity, so a fleet sharing one store reports it once.  *store*
    adds (or stands in for) an explicit store.
    """
    snapshot: Dict[str, object] = {}
    if supervisor is not None:
        snapshot["fleet"] = supervisor.stats()
        if hypervisors is None:
            hypervisors = supervisor.hypervisors
    hvs = list(hypervisors) if hypervisors is not None else []
    if hvs:
        snapshot["hypervisors"] = [hv.stats() for hv in hvs]
    stores: List[ArtifactStore] = []
    for hv in hvs:
        candidate = hv.compiler.store
        if all(candidate is not s for s in stores):
            stores.append(candidate)
    if store is not None and all(store is not s for s in stores):
        stores.append(store)
    if stores:
        snapshot["artifacts"] = [artifact_snapshot(s) for s in stores]
    return snapshot
