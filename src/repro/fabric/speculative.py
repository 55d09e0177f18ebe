"""Speculative compilation (paper §7, future work).

"As more applications use FPGAs, cache hit rates may drop and
symmetry-breaking or speculative compilation may be needed to
compensate."  This module implements that compensation for the
hypervisor's membership churn: after every reprogramming epoch, the
likely *next* designs — the current member set minus each single tenant
— are queued for background compilation.  When a tenant actually leaves,
the recompiled design is already in the cache and the state-safe
handshake pays only reconfiguration.

Background compilation is modeled the way the paper models foreground
compilation: each speculative build has a completion time; a lookup
before that time is still a miss (the build hasn't finished).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..compiler.service import CompilerService
from .bitstream import Bitstream


@dataclass
class SpeculativeBuild:
    """One in-flight background compilation."""

    digest: str
    bitstream: Bitstream
    ready_at: float
    reason: str = ""


class SpeculativeCompiler:
    """Background compilation queue feeding a compiler's bitstream store.

    ``parallelism`` models how many build machines the provider throws
    at speculation (distributed build farms are standard practice for
    FPGA shops; see the paper's §8 discussion of build caching).
    """

    def __init__(self, compiler: CompilerService, device_name: str,
                 options_key: str = "hypervisor", parallelism: int = 2):
        self.compiler = compiler
        self.device_name = device_name
        self.options_key = options_key
        self.parallelism = parallelism
        self.in_flight: List[SpeculativeBuild] = []
        self.completed = 0
        self.wasted = 0  # completed but never looked up

    def enqueue(self, bitstream: Bitstream, now: float, reason: str = "") -> None:
        """Start a background build for *bitstream*'s design."""
        if self.compiler.peek_bitstream(self.device_name, self.options_key,
                                        bitstream.digest):
            return  # already cached
        if any(b.digest == bitstream.digest for b in self.in_flight):
            return  # already building
        # Builds beyond the farm's parallelism queue behind the earliest.
        lane_free_at = now
        if len(self.in_flight) >= self.parallelism:
            lane_free_at = sorted(b.ready_at for b in self.in_flight)[
                len(self.in_flight) - self.parallelism
            ]
        self.in_flight.append(SpeculativeBuild(
            digest=bitstream.digest,
            bitstream=bitstream,
            ready_at=max(now, lane_free_at) + bitstream.compile_seconds,
            reason=reason,
        ))

    def settle(self, now: float) -> int:
        """Move finished builds into the cache; returns how many landed."""
        landed = 0
        remaining: List[SpeculativeBuild] = []
        for build in self.in_flight:
            if build.ready_at <= now:
                self.compiler.insert_bitstream(
                    self.device_name, self.options_key, build.bitstream)
                self.completed += 1
                landed += 1
            else:
                remaining.append(build)
        self.in_flight = remaining
        return landed
