"""The AmorphOS CntrlReg interface (paper §5.2).

Synergy's AmorphOS backend lowers the §3 transformations onto a module
implementing the CntrlReg register-file protocol: a 64-bit address space
of control/data registers through which the host reads and writes
application state.  We model the protocol surface (address map, word
transfers, op accounting) because get/set traffic volume is what the
buffered state-access trees of §5.2 exist to serve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

WORD_BITS = 64


@dataclass
class RegisterMap:
    """Address assignment for one Morphlet's exposed variables.

    Variables are packed into consecutive 64-bit words; wide variables
    (and memories) span several words.  The map is deterministic so the
    same design always produces the same addresses — a requirement for
    the compilation cache.
    """

    entries: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    words: int = 0

    @classmethod
    def build(cls, variables: List[Tuple[str, int]]) -> "RegisterMap":
        """Lay out ``(name, bits)`` pairs in declaration order."""
        reg_map = cls()
        addr = 0
        for name, bits in variables:
            nwords = max(1, (bits + WORD_BITS - 1) // WORD_BITS)
            reg_map.entries[name] = (addr, nwords)
            addr += nwords
        reg_map.words = addr
        return reg_map

    def address_of(self, name: str) -> int:
        return self.entries[name][0]

    def words_of(self, name: str) -> int:
        return self.entries[name][1]


@dataclass
class CntrlRegStats:
    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes


class CntrlRegPort:
    """One Morphlet's register-file port.

    Translates named variable access into word-granular register
    traffic.  The actual storage lives in the engine slot; this layer
    exists to count the words that would cross the hull — the quantity
    §5.2's pipelining (buffer registers, read trees) optimizes.
    """

    def __init__(self, reg_map: RegisterMap):
        self.reg_map = reg_map
        self.stats = CntrlRegStats()

    def read_words(self, name: str) -> int:
        """Account for reading a variable; returns word count."""
        words = self.reg_map.words_of(name)
        self.stats.reads += words
        return words

    def transfer_seconds(self, words: int, word_latency_s: float) -> float:
        return words * word_latency_s
