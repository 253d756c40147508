"""Shared fixtures for the benchmark harness.

Loading + analyzing all 11 problems is expensive; do it once per session.
"""

from __future__ import annotations

import pytest

from repro.diagnosis import ExhaustiveOracle
from repro.suite import BENCHMARKS, load_analysis


@pytest.fixture(scope="session")
def suite_artifacts():
    """{name: (benchmark, program, analysis)} for all 11 problems."""
    return {bench.name: (bench, *load_analysis(bench))
            for bench in BENCHMARKS}


@pytest.fixture(scope="session")
def suite_oracles(suite_artifacts):
    """Ground-truth oracles, with their execution caches pre-warmed."""
    oracles = {}
    for name, (bench, program, analysis) in suite_artifacts.items():
        oracles[name] = ExhaustiveOracle(
            program, analysis, radius=bench.oracle_radius
        )
    return oracles
