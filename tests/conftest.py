"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterModel, PowerModel, ServerSpec, Tier
from repro.distributions import Exponential, fit_two_moments
from repro.workload import CustomerClass, Workload


@pytest.fixture
def rng():
    """Deterministic generator for sampling tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def hang_guard():
    """Bound a test that could hang on a lost worker: after 120 s every
    thread's stack is dumped and the test process exits."""
    import faulthandler

    faulthandler.dump_traceback_later(120, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def telemetry(tmp_path):
    """Global telemetry enabled into a temp dir; always disabled after.

    Yields the :class:`repro.obs.Telemetry` singleton so tests can
    inspect ``.tracer.roots`` / ``.metrics`` and finalize the artifact.
    """
    from repro import obs

    obs.TELEMETRY.enable(tmp_path)
    try:
        yield obs.TELEMETRY
    finally:
        obs.TELEMETRY.disable()


@pytest.fixture
def basic_spec():
    """A plain server spec with a cube-law power model."""
    return ServerSpec(
        power=PowerModel(idle=50.0, kappa=100.0, alpha=3.0),
        min_speed=0.4,
        max_speed=1.0,
        cost=3.0,
    )


@pytest.fixture
def two_class_cluster(basic_spec):
    """Single-tier, two-class priority cluster (M/M/1-style demands)."""
    tier = Tier(
        "only",
        (Exponential(1.0), Exponential(1.0)),
        basic_spec,
        servers=1,
        speed=1.0,
        discipline="priority_np",
    )
    return ClusterModel([tier])


@pytest.fixture
def two_class_workload():
    """Matching 2-class workload, stable at speed 1."""
    return Workload([CustomerClass("hi", 0.3), CustomerClass("lo", 0.4)])


@pytest.fixture
def three_tier_cluster(basic_spec):
    """3-tier, 3-class cluster mirroring the canonical experiment setup
    but with the shared basic spec (keeps tests focused on behaviour,
    not parameters)."""

    def demands(means, scv=1.0):
        return tuple(fit_two_moments(m, scv) for m in means)

    tiers = [
        Tier("web", demands((0.02, 0.025, 0.03)), basic_spec, servers=2, speed=1.0),
        Tier("app", demands((0.08, 0.10, 0.12), scv=2.0), basic_spec, servers=4, speed=1.0),
        Tier("db", demands((0.05, 0.06, 0.07), scv=1.5), basic_spec, servers=3, speed=1.0),
    ]
    return ClusterModel(tiers)


@pytest.fixture
def three_class_workload():
    """Matching 3-class workload (busiest tier ~64% at speed 1)."""
    return Workload(
        [
            CustomerClass("gold", 4.0),
            CustomerClass("silver", 8.0),
            CustomerClass("bronze", 12.0),
        ]
    )
