"""Shared fixtures: one session-scoped tiny ensemble trace.

Generating the synthetic trace is the expensive part of most
integration-ish tests, so a single seeded tiny trace (and its derived
context) is shared across the whole session.  Tests must treat these as
read-only.
"""

from __future__ import annotations

import pytest

from repro.sim import context_for_trace
from repro.traces import EnsembleTraceGenerator, tiny_config

#: Number of days in the shared trace (the paper's 8 calendar days).
DAYS = 8


@pytest.fixture(scope="session")
def tiny_trace_config():
    return tiny_config()


@pytest.fixture(scope="session")
def tiny_generator(tiny_trace_config):
    return EnsembleTraceGenerator(tiny_trace_config)


@pytest.fixture(scope="session")
def tiny_trace(tiny_generator):
    """The shared 8-day synthetic ensemble trace's columns (read-only)."""
    return tiny_generator.generate_columnar()


@pytest.fixture(scope="session")
def tiny_context(tiny_trace, tiny_trace_config):
    """Experiment context (daily counts precomputed) for the shared trace."""
    return context_for_trace(
        tiny_trace, days=tiny_trace_config.days, scale=tiny_trace_config.scale
    )
