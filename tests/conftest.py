"""Shared pytest fixtures for the Clock-RSM reproduction test suite."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings as hypothesis_settings

# A fully derandomized Hypothesis profile for the seeded CI job: example
# generation is derived from each test's source rather than a random seed,
# so the same checkout always runs the same examples.  Select it with
# HYPOTHESIS_PROFILE=ci (see .github/workflows/ci.yml).
hypothesis_settings.register_profile("ci", derandomize=True)
if os.environ.get("HYPOTHESIS_PROFILE"):
    hypothesis_settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

# Allow running the tests from a source checkout without installation.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.analysis.ec2 import ec2_latency_matrix  # noqa: E402
from repro.clocks.base import ManualClock  # noqa: E402
from repro.config import ClusterSpec  # noqa: E402
from repro.net.latency import LatencyMatrix  # noqa: E402

from tests.helpers import ALL_PROTOCOLS  # noqa: E402


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: a long-running test (deselect with -m 'not slow')"
    )


@pytest.fixture
def spec3() -> ClusterSpec:
    """Three replicas at the paper's CA/VA/IR sites."""
    return ClusterSpec.from_sites(["CA", "VA", "IR"])


@pytest.fixture
def spec5() -> ClusterSpec:
    """Five replicas at the paper's CA/VA/IR/JP/SG sites."""
    return ClusterSpec.from_sites(["CA", "VA", "IR", "JP", "SG"])


@pytest.fixture
def ec2_matrix_3(spec3) -> LatencyMatrix:
    return ec2_latency_matrix(spec3.sites)


@pytest.fixture
def ec2_matrix_5(spec5) -> LatencyMatrix:
    return ec2_latency_matrix(spec5.sites)


@pytest.fixture
def manual_clock() -> ManualClock:
    return ManualClock(start=1_000_000)


@pytest.fixture(params=ALL_PROTOCOLS)
def any_protocol(request) -> str:
    """Parametrized fixture running a test once per implemented protocol."""
    return request.param
