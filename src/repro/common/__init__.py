"""Common types, errors and helpers shared by every subsystem."""

from repro.common.types import (
    ProcessId,
    Configuration,
    NOT_PARTICIPANT,
    BOTTOM,
    Phase,
    Proposal,
    DEFAULT_PROPOSAL,
)
from repro.common.errors import (
    ReproError,
    SimulationError,
    InvariantViolation,
)

__all__ = [
    "ProcessId",
    "Configuration",
    "NOT_PARTICIPANT",
    "BOTTOM",
    "Phase",
    "Proposal",
    "DEFAULT_PROPOSAL",
    "ReproError",
    "SimulationError",
    "InvariantViolation",
]
