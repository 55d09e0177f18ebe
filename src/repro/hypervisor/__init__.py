"""Synergy hypervisor: coalescing, scheduling, handshake, migration."""

from .engine_table import EngineRecord, EngineTable
from .coalesce import CoalescedDesign, coalesce, engine_module_name
from .scheduler import (
    AbiSerializer, DeficitRoundRobin, IoStream, RoundRobinIoScheduler,
)
from .handshake import HANDSHAKE_BANDWIDTH_BITS_S, HandshakeReport, state_safe_reprogram
from .hypervisor import (
    CapacityError, Hypervisor, HypervisorClient, ProtectionError,
)
from .migration import MigrationReport, migrate, rehydrate, resume, suspend
from .checkpoint import Checkpoint
from .durable import (
    JournalError, JournalImage, RecoveredTenant, RecoveryError,
    TenantJournal,
)
from .supervisor import RecoveryReport, Supervisor, Tenant
from .telemetry import artifact_snapshot, telemetry_snapshot

__all__ = [
    "EngineRecord", "EngineTable",
    "CoalescedDesign", "coalesce", "engine_module_name",
    "AbiSerializer", "DeficitRoundRobin", "IoStream", "RoundRobinIoScheduler",
    "HANDSHAKE_BANDWIDTH_BITS_S", "HandshakeReport", "state_safe_reprogram",
    "CapacityError", "Hypervisor", "HypervisorClient", "ProtectionError",
    "MigrationReport", "migrate", "rehydrate", "resume", "suspend",
    "Checkpoint",
    "JournalError", "JournalImage", "RecoveredTenant", "RecoveryError",
    "TenantJournal",
    "RecoveryReport", "Supervisor", "Tenant",
    "artifact_snapshot", "telemetry_snapshot",
]
