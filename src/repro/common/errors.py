"""Exception hierarchy used throughout the reproduction package.

The hierarchy is intentionally shallow: one base class (:class:`ReproError`)
and one subclass per broad failure category, so callers can catch either a
specific condition or anything raised by the package.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an illegal state.

    Examples: scheduling an event in the past, running a simulator that has
    already been shut down, registering two processes under the same id.
    """
