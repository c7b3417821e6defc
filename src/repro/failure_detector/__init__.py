"""(N, Theta)-failure detector (Section 2 of the paper)."""

from repro.failure_detector.ntheta import NThetaFailureDetector

__all__ = ["NThetaFailureDetector"]
