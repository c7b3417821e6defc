"""Structured, simulation-time-aware logging helpers.

The simulator has its own notion of time, so log records carry the simulated
timestamp of the step that produced them rather than wall-clock time.  Logging
is off by default (benchmarks run millions of events); tests and examples can
enable it per run via :func:`enable_trace`.
"""

from __future__ import annotations

import logging
from typing import Optional

_LOGGER_NAME = "repro"


def get_logger(child: Optional[str] = None) -> logging.Logger:
    """Return the package logger, optionally a named child of it."""
    name = _LOGGER_NAME if child is None else f"{_LOGGER_NAME}.{child}"
    return logging.getLogger(name)


def enable_trace(level: int = logging.DEBUG) -> None:
    """Enable console logging for the whole package at *level*."""
    logger = get_logger()
    logger.setLevel(level)
    if not logger.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(name)s %(levelname)s %(message)s"))
        logger.addHandler(handler)
