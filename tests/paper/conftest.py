"""Shared fixtures for the paper-reproduction suite.

The month-long experiment is by far the most expensive piece, and several
figures (6, 12, 13, 14 and the headline rates) are different views of the
same run, so it is computed once per session and shared.  Volumes are scaled
down from the paper's 80k-500k samples/day to keep the suite runnable on a
laptop; README's Layout section says where each piece of the pipeline lives.
``kizzle-repro evaluate --days 31`` prints the month's tables from the same
configuration.
"""

from __future__ import annotations

import datetime
import pathlib

import pytest

from repro.core.config import KizzleConfig
from repro.ekgen import StreamConfig, TelemetryGenerator
from repro.evalharness import ExperimentConfig, MonthExperiment

AUGUST_START = datetime.date(2014, 8, 1)
AUGUST_END = datetime.date(2014, 8, 31)


def pytest_collection_modifyitems(config, items):
    """Everything under tests/paper/ is the reproduction suite: mark it
    ``slow`` so ``pytest -m "not slow"`` keeps the inner loop fast without
    maintaining per-file marker lists.  (The hook sees the whole session's
    items, so filter to this directory.)"""
    paper_dir = pathlib.Path(__file__).resolve().parent
    for item in items:
        if paper_dir in pathlib.Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def month_config() -> ExperimentConfig:
    return ExperimentConfig(
        start=AUGUST_START,
        end=AUGUST_END,
        seed_days=3,
        stream=StreamConfig(
            benign_per_day=30,
            kit_daily_counts={"angler": 14, "sweetorange": 6, "nuclear": 5,
                              "rig": 3},
            seed=20140801,
        ),
        kizzle=KizzleConfig(machines=10, min_points=3),
    )


@pytest.fixture(scope="session")
def month_report(month_config):
    """The full August 2014 run shared by the accuracy figures."""
    return MonthExperiment(month_config).run()


@pytest.fixture(scope="session")
def generator() -> TelemetryGenerator:
    """A default-scale telemetry generator for the non-accuracy figures."""
    return TelemetryGenerator(StreamConfig(seed=20140801))
