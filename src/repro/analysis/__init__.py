"""Probes and invariants evaluated over a running cluster."""

from repro.analysis.probes import Invariant, Probe, ProbeResult, wait_for

__all__ = [
    "Invariant",
    "Probe",
    "ProbeResult",
    "wait_for",
]
