"""Slot-indexed value storage for the compiled backend.

Every scalar signal is interned into an integer slot over one flat
``list`` (``data``); memories keep their own python lists and get a
slot id in the same dirty-tracking space.  Compiled process code reads
and writes ``data[i]`` directly — no dict lookups, no callbacks — and
marks changes in a per-slot dirty bitset (``dirty_flags`` +
``dirty_list``) that the compiled scheduler drains.

The name-based :class:`~repro.interp.store.Store` surface
(``get``/``set``/``mem_get``/``mem_set``/``snapshot``/``restore``/
``state_bits``) is preserved as a thin view over the slots, so the
hypervisor's save/restore, migration handshake and the Cascade ABI
data plane are untouched.  One deliberate narrowing: the change feed
is the dirty bitset, for store-API writes and compiled code alike; the
reference store's name-keyed ``dirty`` record is not kept here.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from ...verilog.width import WidthEnv, mask
from ..store import Store


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
    additional engine of the same program allocate its
    :class:`SlotStore` by list multiplication instead of re-interning.
    The maps are read-only by convention — every store built from one
    layout aliases them.
    """

    __slots__ = ("slot_of", "mask_of", "mem_slot_of", "mem_specs",
                 "n_scalars", "n_slots")

    def __init__(self, env: WidthEnv):
        #: scalar name -> index into ``SlotStore.data``
        self.slot_of: Dict[str, int] = {}
        self.mask_of: Dict[str, int] = {}
        #: memory name -> dirty-tracking slot id (>= n_scalars)
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


class SlotStore(Store):
    """Slot-backed store; drop-in for :class:`Store` by interface."""

    def __init__(self, env: WidthEnv, layout: Optional[SlotLayout] = None):
        self.env = env
        if layout is None:
            layout = SlotLayout(env)
        self.layout = layout
        self.data: List[int] = [0] * layout.n_scalars
        self.memories: Dict[str, List[int]] = {}
        #: scalar name -> index into ``data`` (aliases the layout map)
        self.slot_of = layout.slot_of
        #: memory name -> dirty-tracking slot id (aliases the layout map)
        self.mem_slot_of = layout.mem_slot_of
        self._mask_of = layout.mask_of
        #: memory name -> (list, base address, word mask, slot id)
        self._mem_info: Dict[str, Tuple[List[int], int, int, int]] = {}
        #: shadow scalars for set() on declared memory names (reference
        #: store compatibility; see _set_misc)
        self._misc: Dict[str, int] = {}
        for name, (base, word_mask, slot, depth) in layout.mem_specs.items():
            memory = [0] * depth
            self.memories[name] = memory
            self._mem_info[name] = (memory, base, word_mask, slot)
        #: dirty bitset over scalar+memory slots, drained by the scheduler
        self.dirty_flags = bytearray(layout.n_slots)
        self.dirty_list: List[int] = []

    # -- dict-style views (debugger, tests) --------------------------------

    @property
    def values(self) -> Dict[str, int]:
        """Name-keyed view of current scalar values (read-only copy)."""
        data = self.data
        out = {name: data[i] for name, i in self.slot_of.items()}
        out.update(self._misc)
        return out

    # -- scalar access -----------------------------------------------------

    def get(self, name: str) -> int:
        i = self.slot_of.get(name)
        if i is not None:
            return self.data[i]
        if name in self._misc:
            return self._misc[name]
        raise KeyError(f"unknown signal {name!r}")

    def set(self, name: str, value: int, notify: bool = True) -> bool:
        i = self.slot_of.get(name)
        if i is None:
            return self._set_misc(name, value, notify)
        value &= self._mask_of[name]
        if self.data[i] == value:
            return False
        self.data[i] = value
        if notify:
            self.mark_dirty(i)
        return True

    def _set_misc(self, name: str, value: int, notify: bool) -> bool:
        """Scalar write to a declared non-scalar name.

        The reference store lets ``set`` on a declared *memory* name
        store a shadow scalar (and record the change) rather than fail;
        preserve that — undeclared names still raise WidthError.
        """
        sig = self.env.signal(name)  # raises WidthError when undeclared
        value &= (1 << sig.width) - 1
        if self._misc.get(name) == value:
            return False
        self._misc[name] = value
        if notify:
            slot = self.mem_slot_of.get(name)
            if slot is not None:
                self.mark_dirty(slot)
        return True

    def mark_dirty(self, slot: int) -> None:
        """Record a slot change for the compiled scheduler to drain."""
        if not self.dirty_flags[slot]:
            self.dirty_flags[slot] = 1
            self.dirty_list.append(slot)

    # -- memory access -------------------------------------------------------

    def mem_set(self, name: str, addr: int, value: int, notify: bool = True) -> bool:
        memory, base, word_mask, slot = self._mem_info[name]
        idx = addr - base
        if not 0 <= idx < len(memory):
            return False
        value &= word_mask
        if memory[idx] == value:
            return False
        memory[idx] = value
        if notify:
            self.mark_dirty(slot)
        return True

    # -- state capture -----------------------------------------------------

    def snapshot(self, names: Optional[Iterable[str]] = None) -> Dict[str, object]:
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
        for name, value in snapshot.items():
            if name in self.memories and isinstance(value, list):
                info = self._mem_info[name]
                memory, _, word_mask, slot = info
                for i, v in enumerate(value[: len(memory)]):
                    memory[i] = v & word_mask
                self.mark_dirty(slot)
            elif name in self.slot_of:
                self.set(name, int(value))
