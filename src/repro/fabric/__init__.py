"""Simulated FPGA fabric: devices, synthesis model, bitstreams, boards."""

from .device import DE10, DEVICES, F1, STRATIX10, Device, device_by_name
from .synth import CAPTURE_TREE_FANOUT, ResourceEstimate, SynthOptions, Synthesizer
from .bitstream import Bitstream, BitstreamCompiler, text_digest
from .speculative import SpeculativeBuild, SpeculativeCompiler
from .errors import (
    AbiTimeoutError, BoardDeadError, BoardError, DeadlineExceededError,
    FabricError, PersistentFabricError, ReprogramError, SlotHangError,
    SlotLockupError, TransientFabricError,
)
from .faults import (
    FAULT_KINDS, FaultPlan, FaultSpecError, default_fault_plan,
    parse_fault_spec,
)
from .board import EngineSlot, EvalOutcome, SimulatedBoard

__all__ = [
    "DE10", "DEVICES", "F1", "STRATIX10", "Device", "device_by_name",
    "CAPTURE_TREE_FANOUT", "ResourceEstimate", "SynthOptions", "Synthesizer",
    "Bitstream", "BitstreamCompiler", "text_digest",
    "SpeculativeBuild", "SpeculativeCompiler",
    "FabricError", "TransientFabricError", "PersistentFabricError",
    "BoardError", "SlotLockupError", "SlotHangError",
    "DeadlineExceededError", "AbiTimeoutError", "ReprogramError",
    "BoardDeadError",
    "FAULT_KINDS", "FaultPlan", "FaultSpecError", "default_fault_plan",
    "parse_fault_spec",
    "EngineSlot", "EvalOutcome", "SimulatedBoard",
]
