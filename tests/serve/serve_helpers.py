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


def make_fleet(service, boards=2, faults=(), **config):
    """A fleet of FAST boards sharing *service*'s artifact store."""
    from repro.fabric import FaultPlan

    hypervisors = [Hypervisor(FAST, compiler=service) for _ in range(boards)]
    for hv, spec in zip(hypervisors, faults):
        if spec:
            hv.board.faults = FaultPlan(spec, seed=1)
    return Fleet(hypervisors, FleetConfig(**config))


def audit(frontend, terminal_records=None):
    """The serving plane's books, checked against each other.

    Callable whenever the scheduler task is suspended (every ``await``
    in it is a turn boundary).  *terminal_records* is a per-name count
    of the journal's terminal records, when the caller keeps one.
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
