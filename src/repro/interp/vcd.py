"""Opt-in VCD waveform dumping (``REPRO_VCD=path``).

Hand-rolled value-change-dump support in the silicon-simulator idiom:
once the scheduler makes value changes explicit, waveforms come nearly
free — the writer diffs the store's slots against a shadow copy at each
sample point and emits only the changed signals.

One process may host many engines but a VCD file has one timeline, so
the dump is claimed by the first engine constructed after ``REPRO_VCD``
is set (:func:`claim_vcd`, on either software engine); later engines run
undumped, except that a tenant moving to a new software engine hands
the writer along (:meth:`VCDWriter.rebind`).  Tests release
the claim with :func:`reset_vcd_claim`.

The format subset written (and read back by :func:`read_vcd`) is the
classic four-state-free core: ``$timescale``/``$scope``/``$var`` header,
``#<time>`` timestamps, and ``b<binary> <id>`` vector changes.  Only
scalar signals are dumped — memories have no standard VCD shape short
of per-word explosion.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

_claimed = False


def claim_vcd() -> bool:
    """Claim the process-wide dump slot; True for the first caller."""
    global _claimed
    if _claimed:
        return False
    _claimed = True
    return True


def reset_vcd_claim() -> None:
    """Release the dump slot (test isolation)."""
    global _claimed
    _claimed = False


def _ident(n: int) -> str:
    """n-th VCD identifier: base-94 over the printable range ``!``-``~``."""
    chars = []
    while True:
        chars.append(chr(33 + n % 94))
        n //= 94
        if not n:
            return "".join(chars)


class VCDWriter:
    """Dump a :class:`~repro.interp.store.Store` to VCD.

    ``sample(time)`` scans the store's scalar data array against a
    shadow copy and emits a ``#time`` section when anything changed
    (the first sample dumps everything, establishing initial values).
    Sampling after every native cycle gives the classic one-timestamp-
    per-period waveform.  :meth:`rebind` moves the dump onto another
    engine's store of the same program, so a waveform follows its
    tenant from engine to engine.
    """

    def __init__(self, path: str, store, env, timescale: str = "1ns"):
        # Slot order makes the variable list deterministic per layout.
        #: (name, width, identifier) of every dumped signal
        self.signals: List[Tuple[str, int, str]] = []
        for name in sorted(store.slot_of, key=store.slot_of.get):
            sig = env.signals.get(name)
            width = sig.width if sig is not None else 1
            self.signals.append((name, width, _ident(len(self.signals))))
        self._shadow: List[object] = [None] * len(self.signals)
        self.rebind(store)
        self._fh = open(path, "w")
        w = self._fh.write
        w(f"$timescale {timescale} $end\n")
        w("$scope module top $end\n")
        for name, width, ident in self.signals:
            w(f"$var wire {width} {ident} {name} $end\n")
        w("$upscope $end\n")
        w("$enddefinitions $end\n")

    def rebind(self, store) -> None:
        """Sample *store* from now on; a signal it lacks stops changing."""
        self.store = store
        self._slots = [(k, store.slot_of[name], width, ident)
                       for k, (name, width, ident) in enumerate(self.signals)
                       if name in store.slot_of]

    def sample(self, time: int) -> None:
        data = self.store.data
        shadow = self._shadow
        changes: List[str] = []
        for k, slot, width, ident in self._slots:
            value = data[slot]
            if shadow[k] == value:
                continue
            shadow[k] = value
            changes.append(f"b{value:0{width}b} {ident}\n")
        if changes:
            fh = self._fh
            fh.write(f"#{time}\n")
            fh.writelines(changes)
            fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_vcd(path: str) -> Tuple[str, Dict[str, List[Tuple[int, int]]]]:
    """Parse the subset :class:`VCDWriter` emits.

    Returns ``(timescale, {signal_name: [(time, value), ...]})`` —
    enough for the round-trip smoke test and for quick waveform
    assertions in unit tests.
    """
    timescale = ""
    by_ident: Dict[str, str] = {}
    waves: Dict[str, List[Tuple[int, int]]] = {}
    time = 0
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("$timescale"):
                timescale = " ".join(line.split()[1:-1])
            elif line.startswith("$var"):
                parts = line.split()
                # $var wire <width> <ident> <name> $end
                by_ident[parts[3]] = parts[4]
                waves[parts[4]] = []
            elif line.startswith("#"):
                time = int(line[1:])
            elif line.startswith("b"):
                bits, ident = line[1:].split()
                name = by_ident[ident]
                waves[name].append((time, int(bits, 2)))
    return timescale, waves
