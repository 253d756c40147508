"""Fixtures shared by several test modules."""

from __future__ import annotations

import pytest

from repro import obs


@pytest.fixture
def live_counters():
    """Counter increments are no-ops while obs is disabled; turn it on
    for tests that assert on them (batches then carry telemetry),
    restoring the prior state."""
    was = obs.is_enabled()
    obs.enable()
    yield
    if not was:
        obs.disable()
