"""Deterministic model of just-in-time executable-page checking.

A simulated MMU keeps writable-and-executable pages in a shadow W^X
state machine: writes and fetches alternate the page between a write
mode and an exec mode, and every entry to exec mode snapshots the page
for signature scanning.  A bucketed pipeline carries the snapshots to
an asynchronous agent, a per-user guard throttles snapshot floods, and
the whole thing replays from text traces byte-for-byte reproducibly.
"""

from .agent import Agent, RunContext, SimConfig, build_run, replay
from .guard import DosGuard, GuardConfig, ThrottleEntry
from .mmu import (
    AccessKind,
    AccessResult,
    AddressSpace,
    DeadProcessError,
    Machine,
    OverlapError,
    PageNotPresentError,
    PageTableEntry,
    SimError,
    UnknownProcessError,
    UnmappedRangeError,
    VmArea,
)
from .pipeline import PageSnapshot, SnapshotTable
from .report import ActionTaken, Detection, Report
from .shadow import BaselineEngine, ShadowEngine
from .signatures import (
    Match,
    RuleSet,
    RuleSyntaxError,
    SignatureRule,
    parse_rules,
    scan_page,
    sync_check,
)
from .trace import TraceError, parse_trace

__version__ = "0.1.0"

__all__ = [
    "AccessKind",
    "AccessResult",
    "ActionTaken",
    "AddressSpace",
    "Agent",
    "BaselineEngine",
    "DeadProcessError",
    "Detection",
    "DosGuard",
    "GuardConfig",
    "Machine",
    "Match",
    "OverlapError",
    "PageNotPresentError",
    "PageSnapshot",
    "PageTableEntry",
    "Report",
    "RuleSet",
    "RuleSyntaxError",
    "RunContext",
    "ShadowEngine",
    "SignatureRule",
    "SimConfig",
    "SimError",
    "SnapshotTable",
    "ThrottleEntry",
    "TraceError",
    "UnknownProcessError",
    "UnmappedRangeError",
    "VmArea",
    "build_run",
    "parse_rules",
    "parse_trace",
    "replay",
    "scan_page",
    "sync_check",
]
