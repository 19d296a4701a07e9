"""Shared fixtures for the test suite."""

from __future__ import annotations

from collections import Counter

import pytest

import repro.runtime.engine as engine_module
from repro.core.locations import Census
from repro.runtime.central import CentralOp
from repro.runtime.local import LocalTransport


@pytest.fixture
def abc_census() -> Census:
    """A small three-party census used by many unit tests."""
    return Census(["alice", "bob", "carol"])


@pytest.fixture
def cluster_census() -> Census:
    """A client plus three servers, the shape of the KVS case study."""
    return Census(["client", "s1", "s2", "s3"])


@pytest.fixture
def central_abc(abc_census) -> CentralOp:
    """A centralized operator over the three-party census."""
    return CentralOp(abc_census)


@pytest.fixture
def local_transport(abc_census) -> LocalTransport:
    """An in-process transport for the three-party census."""
    transport = LocalTransport(abc_census, timeout=5.0)
    yield transport
    transport.close()


@pytest.fixture
def engine_jobs(monkeypatch) -> Counter:
    """Jobs run per location: every projected job calls ``project`` once at
    its own location, so counting targets counts the workers that woke."""
    counts: Counter = Counter()
    real_project = engine_module.project

    def counting_project(choreography, census, target, endpoint):
        counts[target] += 1
        return real_project(choreography, census, target, endpoint)

    monkeypatch.setattr(engine_module, "project", counting_project)
    return counts
