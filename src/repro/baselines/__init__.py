"""Non-self-stabilizing baselines used for comparison (experiment E9)."""

from repro.baselines.coherent_start import CoherentStartNode, CoherentStartMessage

__all__ = ["CoherentStartNode", "CoherentStartMessage"]
