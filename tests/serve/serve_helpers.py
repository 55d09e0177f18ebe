"""Shared helpers for the serving-layer tests.

Everything here is stdlib-only: the serving layer must degrade to
scalar engines when NumPy is absent, so this module may not import it.
Cohort-specific tests guard themselves with ``HAVE_NUMPY``.
"""

import dataclasses

from repro.fabric.device import DE10
from repro.hypervisor import Hypervisor
from repro.serve import Fleet, FleetConfig

#: seconds-scale device so software→hardware transitions happen in-test
FAST = dataclasses.replace(DE10, compile_seconds=0.5, reconfig_seconds=0.01)

#: counter app with output and a bounded life — the serve tests' tenant
#: (the combinational mix keeps it inside the vectorizable subset, so
#: cohort tests can form lanes from it)
APP = """
module app(input wire clock);
  reg [31:0] n;
  reg [31:0] acc;
  wire [31:0] twist;
  assign twist = acc ^ (n << 3);
  initial n = 0;
  initial acc = 1;
  always @(posedge clock) begin
    n <= n + 1;
    acc <= acc + (acc << 1) + n + (twist & 32'h f);
    if (n % 7 == 0) $display("n=%0d acc=%0d", n, acc);
    if (n == 40) $finish;
  end
endmodule
"""


#: the same counter with no $finish — for cancellation/starvation tests
APP_FOREVER = APP.replace("  if (n == 40) $finish;\n", "")

#: a counter that stops at 5 and sits still: the engine proves it idle,
#: so its runtime fast-forwards (the idle-counter books need a mover)
APP_IDLE = """
module sleeper(input wire clock);
  reg [7:0] n = 0;
  always @(posedge clock) if (n < 5) n <= n + 1;
endmodule
"""


def make_fleet(service, boards=2, faults=(), **config):
    """A fleet of FAST boards sharing *service*'s artifact store."""
    from repro.fabric import FaultPlan

    hypervisors = [Hypervisor(FAST, compiler=service) for _ in range(boards)]
    for hv, spec in zip(hypervisors, faults):
        if spec:
            hv.board.faults = FaultPlan(spec, seed=1)
    return Fleet(hypervisors, FleetConfig(**config))


def audit(frontend, terminal_records=None, seen=None):
    """The serving plane's and the hypervisor's books, checked against
    each other (docs/RELIABILITY.md states each invariant once).

    Callable whenever the scheduler task is suspended (every ``await``
    in it is a turn boundary).  *terminal_records* is a per-name count
    of the journal's terminal records, when the caller keeps one;
    *seen* is a dict the caller keeps between audits of one process,
    for the counters that may only grow.
    """
    from repro.serve.handle import PLACED, TRANSITIONS, TenantState

    fe, adm = frontend, frontend.admission
    jobs = list(fe._jobs.values())
    placed = {j.name for j in jobs if j.state in PLACED}
    queued = {j.name for j in jobs if j.state is TenantState.QUEUED}

    # Running slots == placed jobs == the supervisor's tenants.
    assert adm.running == len(placed)
    assert placed == set(fe.fleet.supervisor.tenants)
    # Queue slots == queued jobs == live heap entries, each once.
    heap = [j.name for _, j in fe._queue if j.state is TenantState.QUEUED]
    assert adm.queued == len(queued)
    assert sorted(heap) == sorted(queued)
    # Every held slot charges its principal, and nothing else does.
    holds = {}
    for job in jobs:
        if job.name in placed or job.name in queued:
            holds[job.principal] = holds.get(job.principal, 0) + 1
    assert adm._per_tenant == holds
    assert sum(holds.values()) == adm.queued + adm.running
    assert adm.stats()["tenants_in_flight"] == len(holds)

    for job in jobs:
        live = bool(TRANSITIONS[job.state])
        # One lifecycle field: handle, future and live index all agree.
        assert job.handle.status() == job.state.value
        assert job.handle.done == (not live)
        assert (fe._live.get(job.name) is job) == live
        if terminal_records is not None:
            assert terminal_records.get(job.name, 0) == (0 if live else 1)
    # A placed job is parked exactly once: alone, or as a cohort lane
    # (a closed frontend's slicer is not emptied: nothing reads it).
    if fe._closed:
        return
    parked = []
    for cls in fe.slicer.drr._classes.values():
        for unit in cls.queue:
            parked += [j.name for j in getattr(unit, "jobs", [unit])]
    assert sorted(parked) == sorted(placed)
    # The DRR bound that holds after a turn: a class's deficit stays
    # within one tick of [0, weight x quantum] (a turn may be charged
    # one tick over its budget; credit lands only on a deficit under 1).
    drr = fe.slicer.drr
    for cls in drr._classes.values():
        assert -1 <= cls.deficit < cls.weight * drr.quantum + 1
    audit_hypervisor(fe.fleet, len(fe.started_order), seen)


def audit_hypervisor(fleet, started, seen=None):
    """The supervisor's books: residents, cohorts, ring, move counts."""
    from repro.hypervisor.supervisor import SOFTWARE, kind

    sup = fleet.supervisor
    tenants = sup.tenants
    # Every tenant has exactly one residence, and the books know it:
    # board loads + software + lanes == tenants (== placed jobs, above).
    for name, tenant in tenants.items():
        assert sup.residents[tenant.residence][name] is tenant
        # ...and no engine is ahead of (or behind) its runtime.
        assert tenant.runtime.engine.time == tenant.runtime.ticks
    population = {"board": sum(fleet.board_load(hv)
                               for hv in sup.hypervisors),
                  SOFTWARE: len(sup.residents.get(SOFTWARE, ())),
                  "lane": sum(len(sup.residents[c]) for c in sup.cohorts)}
    assert (sum(population.values()) == len(tenants)
            == sum(len(r) for r in sup.residents.values()))
    # A board resident's engine is live in that hypervisor's table and
    # in no other; a quarantined hypervisor hosts nobody.
    for hv in sup.hypervisors:
        residents = sup.residents.get(hv, {})
        assert not (hv.quarantined and residents)
        for name, tenant in residents.items():
            record = hv.table.lookup(tenant.runtime.placement.engine_id)
            assert record.instance == name and not record.retired
        elsewhere = set(tenants) - set(residents)
        assert not elsewhere & {rec.instance for rec in hv.table.active}
    # A live cohort's members are the tenants whose residence it is,
    # and none survives a move with fewer than two.
    for cohort in sup.cohorts:
        lanes = [t.runtime.engine for t in sup.residents[cohort].values()]
        assert sorted(map(id, lanes)) == sorted(map(id, cohort.members))
        assert len(lanes) >= 2
    # The ring holds 1..depth checkpoints per live tenant, none beyond.
    assert sorted(sup.ring.engines()) == sorted(
        t.key for t in tenants.values())
    for tenant in tenants.values():
        assert 1 <= len(sup.ring.history(tenant.key)) <= sup.ring.depth
    # The move count: what entered each kind of residence minus what
    # left it is who lives there; one admission per started job; one
    # report per restore and per migration.
    moved = sup.moved
    assert {kind(r) for r in sup.residents} <= set(population)
    for k, living in population.items():
        assert moved(to=k) - moved(origin=k) == living, k
    assert moved(origin="nowhere") - moved(to="nowhere") == len(tenants)
    assert moved(origin="nowhere") == started
    assert len(sup.recoveries) == moved("restore")
    assert len(sup.migrations) == moved("migrate")
    assert sum(t.recoveries for t in tenants.values()) <= moved("restore")
    # Idle fast-forwards outlive the runtimes that counted them.
    if seen is not None:
        assert sup.idle_fastforwards >= seen.get("idle_fastforwards", 0)
        seen["idle_fastforwards"] = sup.idle_fastforwards
