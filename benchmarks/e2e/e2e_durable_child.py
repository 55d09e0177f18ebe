"""One phase of ``durable_restart``, in its own interpreter.

Phase A serves the trace over a disk artifact store and a tenant
journal and dies (``os._exit(9)``, nothing closed or flushed beyond what
the journal already fsync'd) once half the tenants are done.  Phase B
is a fresh interpreter over the same directories: ``recover()``, drain.

Each phase leaves ``phase-<A|B>.json`` in the work directory.  Times
are ``time.monotonic()``, which on Linux is one clock for every
process of a boot, so the parent can subtract its own spawn stamp.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for _path in (str(_HERE), str(_HERE.parent.parent / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def main(argv) -> int:
    import asyncio
    import json
    import os

    from repro.compiler import ArtifactStore
    from repro.serve import ServeFrontend

    imported = time.monotonic()

    from e2e_trace import Plain, Proxies, Tracer
    from e2e_workloads import (
        WORKLOADS, build_stack, read_counters, rss_mb, sample_of,
    )

    spec = json.loads(argv[1])
    phase, workdir = spec["phase"], spec["workdir"]
    workload = WORKLOADS["durable_restart"]
    jobs = workload.jobs(spec["seed"], spec["smoke"])
    classes = Proxies(Tracer(time.monotonic)) if spec["traced"] else Plain
    store = ArtifactStore(disk=classes.DiskArtifactStore(
        os.path.join(workdir, "art")))
    journal = classes.TenantJournal(os.path.join(workdir, "jnl"))
    service, fleet, config = build_stack(workload, classes, store, len(jobs))
    report = {"imported": imported, "refused": 0}

    def leave(frontend, samples) -> None:
        report["samples"] = samples
        report["counters"] = read_counters(frontend, service)
        report["rss_mb"] = rss_mb()
        report["spans"] = ([s.as_dict() for s in classes.tracer.spans]
                           if spec["traced"] else [])
        path = os.path.join(workdir, f"phase-{phase}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(report, fh)
        os.replace(path + ".tmp", path)

    async def phase_a() -> None:
        frontend = ServeFrontend(fleet, config, journal=journal)
        handles = {}
        submitted = {}
        report["first_submit"] = time.monotonic()
        for job in jobs:
            submitted[job.name] = time.monotonic()
            handles[job.name] = await frontend.submit(
                job.source, ticks=job.ticks, priority=job.priority,
                tenant=job.tenant, name=job.name)
        report["submitted"] = submitted
        done_at = {}
        crash = asyncio.Event()

        async def wait(name, handle) -> None:
            try:
                await handle.result()
            except Exception:
                pass   # a failed tenant is done too; result_of() says how
            done_at[name] = time.monotonic()
            if len(done_at) >= len(jobs) // 2:
                crash.set()

        waiters = [asyncio.ensure_future(wait(n, h))
                   for n, h in handles.items()]
        await crash.wait()
        report["crash"] = time.monotonic()
        # A turn can retire several tenants at once: everyone whose
        # handle resolved is done, whether or not its waiter has run.
        for name, handle in handles.items():
            if handle.done:
                done_at.setdefault(name, report["crash"])
        by_name = {job.name: job for job in jobs}
        samples = [sample_of(by_name[name], submitted[name], at,
                             frontend.result_of(name))
                   for name, at in done_at.items()]
        leave(frontend, samples)
        del waiters
        os._exit(9)   # the crash: no close(), no cleanup

    async def phase_b() -> None:
        frontend = ServeFrontend(fleet, config, journal=journal)
        report["recover_start"] = time.monotonic()
        handles = await frontend.recover()
        by_name = {job.name: job for job in jobs}
        recovered = [by_name[name] for name in handles]
        samples = []

        async def wait(job, handle) -> None:
            start = report["recover_start"]
            try:
                result = await handle.result()
                samples.append(sample_of(job, start, time.monotonic(),
                                         result))
            except Exception as err:
                samples.append(sample_of(job, start, time.monotonic(),
                                         error=err))

        await asyncio.gather(*[wait(job, handles[job.name])
                               for job in recovered])
        report["last_done"] = time.monotonic()
        leave(frontend, samples)
        await frontend.close()
        journal.close()

    asyncio.run(phase_a() if phase == "A" else phase_b())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
