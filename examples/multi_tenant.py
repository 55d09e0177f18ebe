#!/usr/bin/env python3
"""Multi-tenancy: two distrustful tenants share one FPGA.

The §4 scenario: two independent runtime instances — a streaming regex
matcher and a DNA aligner — connect to a Synergy hypervisor managing a
single DE10.  The hypervisor coalesces their sub-programs into one
monolithic design, reprograms the fabric behind the Figure 7 state-safe
handshake (the incumbent's state survives), isolates them through
per-instance connections, and time-slices the shared IO path.

Run:  python examples/multi_tenant.py
"""

from repro.bench import datagen, nw, regex
from repro.fabric import DE10
from repro.hypervisor import Hypervisor, ProtectionError
from repro.interp import VirtualFS
from repro.runtime import Runtime


def make_regex_runtime() -> Runtime:
    vfs = VirtualFS()
    vfs.add_file(regex.INPUT_PATH, datagen.regex_text(4000).encode())
    return Runtime(regex.source(), name="tenant-a/regex", vfs=vfs)


def make_nw_runtime() -> Runtime:
    vfs = VirtualFS()
    vfs.add_file(nw.INPUT_PATH, datagen.nw_pairs(200))
    return Runtime(nw.source(), name="tenant-b/nw", vfs=vfs)


def main() -> None:
    hypervisor = Hypervisor(DE10)

    # Tenant A arrives, runs alone.
    matcher = make_regex_runtime()
    client_a = hypervisor.connect("tenant-a")
    matcher.tick(1)                       # software start: $fopen etc.
    matcher.attach(client_a)
    matcher._hw_ready_at = matcher.sim_time
    matcher.tick(50)
    print(f"tenant A on fabric: chars={matcher.engine.get('chars')}, "
          f"matches={matcher.engine.get('matches')}, "
          f"global clock {hypervisor.clock_hz / 1e6:.0f} MHz")

    # Tenant B arrives: the hypervisor recompiles the combined design
    # and replays tenant A's state across the reprogram.
    aligner = make_nw_runtime()
    client_b = hypervisor.connect("tenant-b")
    aligner.tick(1)
    aligner.attach(client_b)
    aligner._hw_ready_at = aligner.sim_time
    aligner.tick(30)
    print(f"tenant B on fabric: tiles={aligner.engine.get('tiles')}; "
          f"handshakes so far: {len(hypervisor.handshakes)}")

    # Tenant A kept its progress across the handshake — and keeps going.
    before = matcher.engine.get("chars")
    matcher.tick(50)
    print(f"tenant A after resharing: chars {before} -> "
          f"{matcher.engine.get('chars')} (state preserved and advancing)")

    # Protection: tenant A cannot reach tenant B's engine.
    try:
        client_a.channel(aligner.placement.engine_id)
        raise AssertionError("protection breach!")
    except ProtectionError as exc:
        print(f"protection enforced: {exc}")

    # The hypervisor's engine table: one record per placed sub-program.
    for record in hypervisor.table.active:
        print(f"  engine {record.engine_id}: instance {record.instance!r}, "
              f"program {record.program.name!r}")

    # Tenant B finishes; the design is recompiled without it.
    client_b.release(aligner.placement.engine_id)
    matcher.tick(25)
    print(f"tenant B evicted; tenant A still running "
          f"(chars={matcher.engine.get('chars')}, "
          f"engines resident: {len(hypervisor.table.active)})")


if __name__ == "__main__":
    main()
