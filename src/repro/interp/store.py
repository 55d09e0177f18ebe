"""Value storage for simulation: 2-state signal values and memories.

A :class:`Store` holds the current value of every declared signal in a
flattened module.  Values are plain Python integers masked to the signal
width; memories are lists of integers.  The store exposes a uniform
``get``/``set`` surface that doubles as the data plane for the Cascade
ABI (engine state capture is literally ``store.snapshot()``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..verilog.width import Signal, WidthEnv, mask


class Store:
    """Current simulation values for one flattened module."""

    def __init__(self, env: WidthEnv):
        self.env = env
        self.values: Dict[str, int] = {}
        self.memories: Dict[str, List[int]] = {}
        #: names changed since the simulator last drained them, in the
        #: order they first changed (the reference scheduler's feed)
        self.dirty: Dict[str, None] = {}
        self._masks: Dict[str, int] = {}
        #: memory name -> (words, lowest address, word mask)
        self._mem_info: Dict[str, Tuple[List[int], int, int]] = {}
        for sig in env.signals.values():
            if sig.is_memory:
                memory = self.memories[sig.name] = [0] * sig.depth
                self._mem_info[sig.name] = (memory, sig.base, (1 << sig.width) - 1)
            else:
                self.values[sig.name] = 0
                self._masks[sig.name] = (1 << sig.width) - 1

    # -- scalar access -----------------------------------------------------

    def get(self, name: str) -> int:
        if name in self.values:
            return self.values[name]
        if name in self.env.params:
            return self.env.params[name]
        raise KeyError(f"unknown signal {name!r}")

    def set(self, name: str, value: int, notify: bool = True) -> bool:
        """Write a scalar; returns True when the stored value changed.

        Unchanged writes are never recorded in ``dirty``, and masking
        uses a precomputed per-signal mask instead of a signal lookup.
        """
        sig_mask = self._masks.get(name)
        if sig_mask is None:
            # Raises WidthError for undeclared names, preserving the
            # pre-fast-path error surface.
            sig_mask = mask(-1, self.env.signal(name).width)
        value &= sig_mask
        if self.values.get(name) == value:
            return False
        self.values[name] = value
        if notify:
            self.dirty[name] = None
        return True

    # -- memory access -------------------------------------------------------

    def mem_get(self, name: str, addr: int) -> int:
        info = self._mem_info[name]  # (a slot store's carries its slot too)
        memory, idx = info[0], addr - info[1]
        if 0 <= idx < len(memory):
            return memory[idx]
        return 0  # out-of-range reads return 0 in the 2-state model

    def mem_set(self, name: str, addr: int, value: int, notify: bool = True) -> bool:
        memory, base, word_mask = self._mem_info[name]
        idx = addr - base
        if not 0 <= idx < len(memory):
            return False  # out-of-range writes are dropped
        value &= word_mask
        if memory[idx] == value:
            return False
        memory[idx] = value
        if notify:
            self.dirty[name] = None
        return True

    # -- state capture (the ABI's get/set over full program state) ----------

    def snapshot(self, names: Optional[Iterable[str]] = None) -> Dict[str, object]:
        """Capture state as ``{name: int | list[int]}``.

        With *names* given, captures only those signals — this is how the
        quiescence interface skips volatile variables.
        """
        selected = set(names) if names is not None else None
        out: Dict[str, object] = {}
        for name, value in self.values.items():
            if selected is None or name in selected:
                out[name] = value
        for name, memory in self.memories.items():
            if selected is None or name in selected:
                out[name] = list(memory)
        return out

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Restore state captured by :meth:`snapshot` (unknown names skipped)."""
        for name, value in snapshot.items():
            if name in self.memories and isinstance(value, list):
                memory, _, word_mask = self._mem_info[name]
                for i, v in enumerate(value[: len(memory)]):
                    memory[i] = v & word_mask
                self.dirty[name] = None
            elif name in self.values:
                sig = self.env.signal(name)
                self.set(name, mask(int(value), sig.width))

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
