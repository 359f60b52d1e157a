"""Shared fixtures for the test suite."""

from __future__ import annotations

import datetime
import multiprocessing
import random

import pytest

from repro.ekgen.angler import AnglerKit
from repro.ekgen.evolution import default_timeline
from repro.ekgen.nuclear import NuclearKit
from repro.ekgen.rig import RigKit
from repro.ekgen.sweetorange import SweetOrangeKit
from repro.ekgen.telemetry import StreamConfig, TelemetryGenerator


AUG = datetime.date(2014, 8, 5)


@pytest.fixture(scope="session")
def timeline():
    return default_timeline()


@pytest.fixture(scope="session")
def kits(timeline):
    return {
        "nuclear": NuclearKit(timeline),
        "rig": RigKit(timeline),
        "angler": AnglerKit(timeline),
        "sweetorange": SweetOrangeKit(timeline),
    }


@pytest.fixture(scope="session")
def small_generator():
    """A small but representative telemetry generator."""
    return TelemetryGenerator(StreamConfig(
        benign_per_day=12,
        kit_daily_counts={"angler": 6, "nuclear": 4, "rig": 3,
                          "sweetorange": 4},
        seed=42,
    ))


@pytest.fixture()
def no_fork(monkeypatch):
    """Fail the test if anything constructs a ``multiprocessing.Pool``."""
    def forbidden(*args, **kwargs):
        pytest.fail("multiprocessing.Pool was constructed")

    monkeypatch.setattr(multiprocessing, "Pool", forbidden)


@pytest.fixture()
def rng():
    return random.Random(1234)


@pytest.fixture(scope="session")
def august_day():
    return AUG
