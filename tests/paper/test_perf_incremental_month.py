"""Warm-versus-cold month.

Runs the default-scale month experiment twice — once cold (every day from
scratch, the seed behaviour) and once warm (shedding + carry-forward + fast
scanning) — and asserts what the incremental pipeline promises:

* identical per-day FP/FN metrics for both engines, every day;
* the warm run sheds the known bulk of the stream (over 30 % of samples)
  and still clusters what is left: at least four clusters every day;
* the warm run lexes at most three quarters of the month's samples (the
  cold path lexes every sample at least once).  Lexing runs inside the
  cluster stage's map, so the warm run is counted on the serial backend,
  where every abstract token string is built in this process;
* Angler's August 13 packer update still yields a new Angler signature:
  shedding and carry-forward never freeze the signature set.

The contracts are counts, not clocks: the warm path's speed is measured by
``bench/run.py``.

A second test re-runs the warm month on the serial and process backends
and asserts byte-identical per-day FP/FN and deployed signatures — the
month-scale version of ``tests/test_backends.py``.
"""

from __future__ import annotations

import contextlib
import datetime
from unittest import mock

import repro.clustering.partition as partition
import repro.scanner.normalizer as scanner_normalizer
import repro.signatures.alignment as alignment
from repro.core.config import IncrementalConfig, KizzleConfig
from repro.ekgen import StreamConfig
from repro.evalharness import ExperimentConfig, MonthExperiment
from repro.exec import BackendConfig

AUGUST_START = datetime.date(2014, 8, 1)
AUGUST_END = datetime.date(2014, 8, 31)
ANGLER_UPDATE = datetime.date(2014, 8, 13)

#: Ceiling on the warm month's full lexer runs, as a share of its samples
#: (measured 0.625 when the gate was set: 1,127 runs for 1,803 samples).
MAX_LEXED_FRACTION = 0.75


@contextlib.contextmanager
def lexer_spy():
    """Count the samples lexed in this process: abstract token strings built
    (by the cluster map or by compile, on the fast path or not) and the
    scan normal form's ``tokenize_sample`` calls."""
    with mock.patch.object(partition, "abstract_token_string",
                           wraps=partition.abstract_token_string) as a, \
            mock.patch.object(alignment, "abstract_token_string",
                              wraps=alignment.abstract_token_string) as b, \
            mock.patch.object(scanner_normalizer, "tokenize_sample",
                              wraps=scanner_normalizer.tokenize_sample) as c:
        yield lambda: a.call_count + b.call_count + c.call_count


def _month_config(incremental: bool,
                  backend: str = "process") -> ExperimentConfig:
    return ExperimentConfig(
        start=AUGUST_START, end=AUGUST_END, seed_days=3,
        stream=StreamConfig(
            benign_per_day=30,
            kit_daily_counts={"angler": 14, "sweetorange": 6, "nuclear": 5,
                              "rig": 3},
            seed=20140801),
        kizzle=KizzleConfig(
            machines=10, min_points=3,
            incremental=IncrementalConfig(enabled=incremental),
            backend=BackendConfig(kind=backend)))


def _day_metrics(day) -> tuple:
    return (day.kizzle.confusion.false_positives,
            day.kizzle.confusion.false_negatives,
            day.av.confusion.false_positives,
            day.av.confusion.false_negatives)


def test_incremental_month_equivalence():
    cold_report = MonthExperiment(_month_config(False)).run()

    warm = MonthExperiment(_month_config(True, backend="serial"))
    with lexer_spy() as lexes:
        warm_report = warm.run()
    lexer_runs = lexes()

    assert len(cold_report.days) == len(warm_report.days) == 31
    for cold_day, warm_day in zip(cold_report.days, warm_report.days):
        assert _day_metrics(cold_day) == _day_metrics(warm_day), \
            f"metrics diverged on {cold_day.date}"
    assert cold_report.overall_rates() == warm_report.overall_rates()

    shed_total = sum(day.shed_count for day in warm_report.days)
    sample_total = sum(day.sample_count for day in warm_report.days)
    # The warm path must actually be shedding the known bulk of the
    # stream, not just winning on caching.
    assert shed_total > 0.3 * sample_total
    # ... without shedding away the clustering (measured 6-9 a day).
    assert min(day.cluster_count for day in warm_report.days) >= 4
    # ... and must spare the lexer.
    assert lexer_runs <= MAX_LEXED_FRACTION * sample_total, \
        f"warm month ran the lexer {lexer_runs} times for {sample_total} " \
        f"samples; need <= {MAX_LEXED_FRACTION:.0%}"
    # The Angler August 13 update still yields a new signature mid-month.
    assert any(signature.created >= ANGLER_UPDATE for signature in
               warm.kizzle.database.signatures_for(kit="angler")), \
        "packer change did not produce a new signature on the warm path"


def test_backend_equivalence_on_seeded_month():
    """The warm seeded month is byte-identical on every execution backend:
    per-day FP/FN, overall rates, and the deployed signature database."""

    def run(backend):
        experiment = MonthExperiment(_month_config(True, backend=backend))
        report = experiment.run()
        signatures = [(s.kit, s.created, s.pattern)
                      for s in experiment.kizzle.database]
        return report, signatures

    reference_report, reference_signatures = run("serial")
    report, signatures = run("process")
    assert signatures == reference_signatures, \
        "process signatures diverged from serial"
    for serial_day, other_day in zip(reference_report.days, report.days):
        assert _day_metrics(serial_day) == _day_metrics(other_day), \
            f"process metrics diverged on {serial_day.date}"
    assert report.overall_rates() == reference_report.overall_rates()
