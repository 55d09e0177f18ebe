"""Value storage for simulation: 2-state signal values and memories.

A :class:`Store` holds the current value of every declared signal in a
flattened module, for every software engine.  Every scalar signal is
interned into an integer slot over one flat ``list`` (``data``) of
plain Python integers masked to the signal width; memories keep their
own lists of words and get a slot id in the same change-tracking
space.  Compiled process code reads and writes ``data[i]`` directly;
the interpreter goes through the name surface
(``get``/``set``/``mem_get``/``mem_set``), which doubles as the data
plane for the Cascade ABI (engine state capture is literally
``store.snapshot()``).

Every change, whoever makes it, is recorded once: a per-slot flag
(``dirty_flags``) and the slots in first-change order (``dirty_list``),
which the engine's scheduler drains.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from ..verilog.width import WidthEnv


@lru_cache(maxsize=None)
def width_mask(width: int) -> int:
    """``(1 << width) - 1``, memoized.

    Layout construction computes one mask per declared signal; wide
    datapaths (256-bit hash pipelines) re-derive the same handful of
    big integers hundreds of times across engines and layouts, so the
    mask table is shared process-wide.
    """
    return (1 << width) - 1


class SlotLayout:
    """Immutable name→slot interning for one width environment.

    Building the layout walks every declared signal; sharing it (via
    :class:`~repro.interp.compile.CompiledModuleCode`) lets each
    additional engine of the same program allocate its :class:`Store`
    by list multiplication instead of re-interning.  The maps are
    read-only by convention — every store built from one layout
    aliases them.
    """

    __slots__ = ("slot_of", "mask_of", "mem_slot_of", "mem_specs",
                 "n_scalars", "n_slots")

    def __init__(self, env: WidthEnv):
        #: scalar name -> index into ``Store.data``
        self.slot_of: Dict[str, int] = {}
        self.mask_of: Dict[str, int] = {}
        #: memory name -> change-tracking slot id (>= n_scalars)
        self.mem_slot_of: Dict[str, int] = {}
        #: memory name -> (base address, word mask, slot id, depth)
        self.mem_specs: Dict[str, Tuple[int, int, int, int]] = {}
        for sig in env.signals.values():
            if sig.is_memory:
                continue
            self.slot_of[sig.name] = len(self.slot_of)
            self.mask_of[sig.name] = width_mask(sig.width)
        slot = len(self.slot_of)
        self.n_scalars = slot
        for sig in env.signals.values():
            if not sig.is_memory:
                continue
            self.mem_slot_of[sig.name] = slot
            self.mem_specs[sig.name] = (
                sig.base, width_mask(sig.width), slot, sig.depth or 0
            )
            slot += 1
        self.n_slots = slot


class Store:
    """Current simulation values for one flattened module."""

    def __init__(self, env: WidthEnv, layout: Optional[SlotLayout] = None):
        self.env = env
        if layout is None:
            layout = SlotLayout(env)
        self.layout = layout
        self.data: List[int] = [0] * layout.n_scalars
        self.memories: Dict[str, List[int]] = {}
        #: scalar name -> index into ``data`` (aliases the layout map)
        self.slot_of = layout.slot_of
        #: memory name -> change-tracking slot id (aliases the layout map)
        self.mem_slot_of = layout.mem_slot_of
        self._mask_of = layout.mask_of
        #: memory name -> (list, base address, word mask, slot id)
        self._mem_info: Dict[str, Tuple[List[int], int, int, int]] = {}
        for name, (base, word_mask, slot, depth) in layout.mem_specs.items():
            memory = self.memories[name] = [0] * depth
            self._mem_info[name] = (memory, base, word_mask, slot)
        #: slots changed since the scheduler last drained them, flagged
        #: and listed in the order they first changed
        self.dirty_flags = bytearray(layout.n_slots)
        self.dirty_list: List[int] = []

    @property
    def values(self) -> Dict[str, int]:
        """Name-keyed view of current scalar values (read-only copy)."""
        data = self.data
        return {name: data[i] for name, i in self.slot_of.items()}

    # -- scalar access -----------------------------------------------------

    def get(self, name: str) -> int:
        i = self.slot_of.get(name)
        if i is None:
            raise KeyError(f"no scalar signal {name!r}")
        return self.data[i]

    def set(self, name: str, value: int, notify: bool = True) -> bool:
        """Write a scalar; returns True when the stored value changed.

        Unchanged writes are never recorded.  A memory name is no
        scalar: it raises, as an undeclared name does.
        """
        i = self.slot_of.get(name)
        if i is None:
            raise KeyError(f"no scalar signal {name!r}")
        value &= self._mask_of[name]
        if self.data[i] == value:
            return False
        self.data[i] = value
        if notify and not self.dirty_flags[i]:
            self.dirty_flags[i] = 1
            self.dirty_list.append(i)
        return True

    # -- memory access -------------------------------------------------------

    def mem_get(self, name: str, addr: int) -> int:
        info = self._mem_info[name]
        memory, idx = info[0], addr - info[1]
        if 0 <= idx < len(memory):
            return memory[idx]
        return 0  # out-of-range reads return 0 in the 2-state model

    def mem_set(self, name: str, addr: int, value: int, notify: bool = True) -> bool:
        memory, base, word_mask, slot = self._mem_info[name]
        idx = addr - base
        if not 0 <= idx < len(memory):
            return False  # out-of-range writes are dropped
        value &= word_mask
        if memory[idx] == value:
            return False
        memory[idx] = value
        if notify and not self.dirty_flags[slot]:
            self.dirty_flags[slot] = 1
            self.dirty_list.append(slot)
        return True

    # -- state capture (the ABI's get/set over full program state) ----------

    def snapshot(self, names: Optional[Iterable[str]] = None) -> Dict[str, object]:
        """Capture state as ``{name: int | list[int]}``.

        With *names* given, captures only those signals — this is how the
        quiescence interface skips volatile variables.
        """
        selected = set(names) if names is not None else None
        data = self.data
        out: Dict[str, object] = {}
        for name, i in self.slot_of.items():
            if selected is None or name in selected:
                out[name] = data[i]
        for name, memory in self.memories.items():
            if selected is None or name in selected:
                out[name] = list(memory)
        return out

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Restore state captured by :meth:`snapshot` (unknown names
        skipped); a restored memory is marked changed regardless."""
        for name, value in snapshot.items():
            if name in self.memories and isinstance(value, list):
                memory, _, word_mask, slot = self._mem_info[name]
                for i, v in enumerate(value[: len(memory)]):
                    memory[i] = v & word_mask
                if not self.dirty_flags[slot]:
                    self.dirty_flags[slot] = 1
                    self.dirty_list.append(slot)
            elif name in self.slot_of:
                self.set(name, int(value))

    def state_bits(self, names: Optional[Iterable[str]] = None) -> int:
        """Total number of bits captured by :meth:`snapshot`.

        Drives the save/restore latency model (mips32's big state makes
        migration dips deeper, §6.1 of the paper).
        """
        selected = set(names) if names is not None else None
        total = 0
        for sig in self.env.signals.values():
            if selected is not None and sig.name not in selected:
                continue
            if sig.is_memory:
                total += sig.width * (sig.depth or 0)
            else:
                total += sig.width
        return total
