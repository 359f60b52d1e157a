"""Command-line interface for the Kizzle reproduction.

Three subcommands cover the day-to-day uses of the library without writing
any Python:

``process-day``
    Run the full pipeline (cluster → label → compile signatures) over one
    synthetic day and print the cluster/signature summary.

``scan``
    Compile signatures from a reference day, then scan another day's samples
    with them and with the simulated commercial AV, printing the comparison.

``evaluate``
    Run the month-long evaluation for a configurable number of days and print
    the Figure 13/14-style summaries.

The CLI is intentionally a thin veneer over the public API so that every code
path it exercises is already covered by the library's own tests; its own
tests only check argument handling and output plumbing.
"""

from __future__ import annotations

import argparse
import datetime
import sys
from typing import List, Optional, Sequence

from repro.core.config import IncrementalConfig, KizzleConfig
from repro.core.pipeline import Kizzle
from repro.distance.engine import DistanceEngineConfig
from repro.ekgen.telemetry import StreamConfig, TelemetryGenerator
from repro.exec.backend import BACKEND_KINDS, BackendConfig
from repro.evalharness import ExperimentConfig, MonthExperiment, \
    format_absolute_counts, format_day_series

DEFAULT_KITS = ("nuclear", "angler", "rig", "sweetorange")


def _parse_date(text: str) -> datetime.date:
    try:
        return datetime.date.fromisoformat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"not an ISO date (YYYY-MM-DD): {text!r}") from exc


def _host_port(text: str) -> str:
    """Validate a ``host:port`` flag value (kept as a string; the backend
    parses it again — this only turns malformed input into a proper CLI
    usage error instead of a traceback from deep inside construction)."""
    # Imported here: the cluster transport loads only when it is asked for.
    from repro.exec.cluster import parse_address

    try:
        parse_address(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {value}")
    return value


def _august_days(text: str) -> int:
    value = _nonnegative_int(text)
    if not 1 <= value <= 31:
        raise argparse.ArgumentTypeError(f"must be 1-31: {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kizzle-repro",
        description="Kizzle signature compiler reproduction (DSN 2016)")
    parser.add_argument("--benign", type=int, default=30,
                        help="benign samples per synthetic day")
    parser.add_argument("--angler", type=int, default=14,
                        help="Angler samples per day")
    parser.add_argument("--nuclear", type=int, default=5,
                        help="Nuclear samples per day")
    parser.add_argument("--sweetorange", type=int, default=6,
                        help="Sweet Orange samples per day")
    parser.add_argument("--rig", type=int, default=3,
                        help="RIG samples per day")
    parser.add_argument("--seed", type=int, default=20140801,
                        help="stream seed")
    parser.add_argument("--backend", choices=BACKEND_KINDS,
                        default="process",
                        help="execution backend: 'serial' runs everything "
                             "in one process, 'process' (default) runs "
                             "whole partitions on a local process pool, "
                             "'cluster' executes on real worker processes "
                             "over TCP (see --listen/--spawn-workers; "
                             "external workers join with `python -m "
                             "repro.exec.worker --connect host:port`); "
                             "results and the reported virtual timeline "
                             "are identical across all of them")
    parser.add_argument("--listen", metavar="HOST:PORT", type=_host_port,
                        default=None,
                        help="with --backend cluster: address the "
                             "coordinator binds (default 127.0.0.1 with an "
                             "OS-assigned port; use 0.0.0.0:<port> to "
                             "accept workers from other machines)")
    parser.add_argument("--spawn-workers", type=_nonnegative_int, default=2,
                        help="with --backend cluster: localhost worker "
                             "subprocesses launched automatically "
                             "(default 2; 0 = wait for external workers "
                             "to --connect)")
    parser.add_argument("--cluster-secret", default=None, metavar="SECRET",
                        help="with --backend cluster: shared wire secret — "
                             "every coordinator/worker frame is "
                             "HMAC-authenticated under it and unauthorized "
                             "peers are rejected before payload decode "
                             "(default: the REPRO_CLUSTER_SECRET "
                             "environment variable; unset = integrity "
                             "checking only, for single-host development)")
    parser.add_argument("--machines", type=int, default=10,
                        help="logical machine count, wired through the "
                             "backend config: sets the clustering "
                             "partition default and the size of the "
                             "modelled machine pool behind every report's "
                             "virtual timeline, whatever the backend")
    parser.add_argument("--workers", type=_nonnegative_int, default=0,
                        help="width of the partition-level map pool "
                             "(0 = auto-detect CPU count, 1 = inline; "
                             "ignored by --backend serial and cluster)")
    parser.add_argument("--partition-parallel",
                        action=argparse.BooleanOptionalAction, default=True,
                        help="run the per-partition map (tokenize + DBSCAN) "
                             "on a persistent --workers-wide process pool "
                             "(default on; results are byte-identical "
                             "either way, and batches with a single "
                             "partition or worker stay inline; with "
                             "--no-partition-parallel the process "
                             "backend runs in one process)")
    parser.add_argument("--no-length-filter", action="store_true",
                        help="disable the length-gap distance prefilter")
    parser.add_argument("--no-bag-filter", action="store_true",
                        help="disable the token-bag distance prefilter")
    parser.add_argument("--incremental", action="store_true",
                        help="enable the day-over-day warm path: shed "
                             "known samples, carry clusters forward")
    parser.add_argument("--no-shed", action="store_true",
                        help="with --incremental: disable known-sample "
                             "shedding")
    parser.add_argument("--no-carry-forward", action="store_true",
                        help="with --incremental: disable cluster label "
                             "carry-forward")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply all stream volumes (e.g. 360 for a "
                             "paper-scale ~20k-sample day)")

    commands = parser.add_subparsers(dest="command", required=True)

    process = commands.add_parser(
        "process-day", help="run the pipeline over one synthetic day")
    process.add_argument("--date", type=_parse_date,
                         default=datetime.date(2014, 8, 5))

    scan = commands.add_parser(
        "scan", help="compile signatures on one day, scan another")
    scan.add_argument("--train-date", type=_parse_date,
                      default=datetime.date(2014, 8, 5))
    scan.add_argument("--scan-date", type=_parse_date,
                      default=datetime.date(2014, 8, 6))

    evaluate = commands.add_parser(
        "evaluate", help="run the month-long Kizzle-vs-AV evaluation")
    evaluate.add_argument("--days", type=_august_days, default=7,
                          help="number of August 2014 days to simulate")
    return parser


def _stream_config(args: argparse.Namespace) -> StreamConfig:
    config = StreamConfig(
        benign_per_day=args.benign,
        kit_daily_counts={"angler": args.angler, "nuclear": args.nuclear,
                          "sweetorange": args.sweetorange, "rig": args.rig},
        seed=args.seed)
    if args.scale != 1.0:
        config = config.scaled(args.scale)
    return config


def _incremental_config(args: argparse.Namespace) -> IncrementalConfig:
    return IncrementalConfig(
        enabled=args.incremental,
        shed_known=not args.no_shed,
        carry_forward=not args.no_carry_forward)


def _engine_config(args: argparse.Namespace) -> DistanceEngineConfig:
    return DistanceEngineConfig(
        length_filter=not args.no_length_filter,
        bag_filter=not args.no_bag_filter)


def _backend_config(args: argparse.Namespace) -> BackendConfig:
    # machines/workers flow through the backend config.  The cluster-only
    # fields are inert on other backends; spawn_workers is zeroed for them
    # so its default never implies subprocesses elsewhere.
    return BackendConfig(kind=args.backend, machines=args.machines,
                         workers=args.workers,
                         partition_parallel=args.partition_parallel,
                         listen=args.listen,
                         spawn_workers=args.spawn_workers
                         if args.backend == "cluster" else 0,
                         secret=args.cluster_secret)


def _kizzle_config(args: argparse.Namespace) -> KizzleConfig:
    return KizzleConfig(machines=args.machines,
                        distance=_engine_config(args),
                        incremental=_incremental_config(args),
                        backend=_backend_config(args))


def _seeded_kizzle(generator: TelemetryGenerator,
                   args: argparse.Namespace,
                   seed_date: datetime.date) -> Kizzle:
    kizzle = Kizzle(_kizzle_config(args))
    for kit in DEFAULT_KITS:
        kizzle.seed_known_kit(kit, [generator.reference_core(kit, seed_date)])
    return kizzle


def command_process_day(args: argparse.Namespace, out) -> int:
    generator = TelemetryGenerator(_stream_config(args))
    # The context manager drains the backend on exit: pooled workers are
    # released, and a cluster run's spawned worker subprocesses are reaped.
    with _seeded_kizzle(generator, args,
                        args.date - datetime.timedelta(days=7)) as kizzle:
        batch = generator.generate_day(args.date)
        result = kizzle.process_day(
            [(sample.sample_id, sample.content) for sample in batch.samples],
            args.date)
    print(f"{args.date}: {result.sample_count} samples, "
          f"{result.cluster_count} clusters "
          f"({len(result.malicious_clusters)} malicious), "
          f"{result.noise_count} noise, "
          f"{len(result.new_signatures)} new signatures", file=out)
    stage_walls = " ".join(f"{stage}={seconds:.2f}s"
                           for stage, seconds in result.stage_walls.items())
    print(f"  backend={result.backend}  {stage_walls}", file=out)
    if result.shed_count:
        by_kit = ", ".join(f"{kit}: {count}" for kit, count
                           in sorted(result.shed_by_kit().items()))
        print(f"  shed {result.shed_count} known samples ({by_kit})",
              file=out)
    for report in result.clusters:
        verdict = report.kit or "benign"
        print(f"  cluster size={report.size:3d} -> {verdict} "
              f"(overlap {report.label.overlap:.2f})", file=out)
    for signature in result.new_signatures:
        print(f"  signature [{signature.kit}] {signature.length} chars",
              file=out)
    return 0


def command_scan(args: argparse.Namespace, out) -> int:
    generator = TelemetryGenerator(_stream_config(args))
    with _seeded_kizzle(generator, args,
                        args.train_date
                        - datetime.timedelta(days=7)) as kizzle:
        train_batch = generator.generate_day(args.train_date)
        kizzle.process_day(
            [(s.sample_id, s.content) for s in train_batch.samples],
            args.train_date)

        from repro.scanner.avbaseline import SimulatedCommercialAV

        av = SimulatedCommercialAV(timeline=generator.timeline)
        scan_batch = generator.generate_day(args.scan_date)
        rows = []
        for kit, samples in sorted(scan_batch.by_kit().items()):
            kizzle_hits = sum(1 for s in samples if kizzle.detects(s.content))
            av_hits = sum(1 for s in samples
                          if av.scan(s.sample_id, s.content,
                                     as_of=args.scan_date).detected)
            rows.append((kit, len(samples), kizzle_hits, av_hits))
        print(f"scanning {args.scan_date} with signatures compiled on "
              f"{args.train_date}:", file=out)
        for kit, total, kizzle_hits, av_hits in rows:
            print(f"  {kit:12s} {kizzle_hits:3d}/{total:<3d} (Kizzle)   "
                  f"{av_hits:3d}/{total:<3d} (AV)", file=out)
        benign_fp = sum(1 for s in scan_batch.benign
                        if kizzle.detects(s.content))
        print(f"  benign false positives (Kizzle): {benign_fp}", file=out)
    return 0


def command_evaluate(args: argparse.Namespace, out) -> int:
    start = datetime.date(2014, 8, 1)
    end = start + datetime.timedelta(days=args.days - 1)
    config = ExperimentConfig(start=start, end=end, seed_days=3,
                              stream=_stream_config(args),
                              kizzle=_kizzle_config(args))
    with MonthExperiment(config) as experiment:
        report = experiment.run()
    fn = report.fn_series()
    print(format_day_series(fn["dates"], {"Kizzle FN": fn["kizzle"],
                                          "AV FN": fn["av"]},
                            title="False negatives per day"), file=out)
    print("", file=out)
    print(format_absolute_counts(report.ground_truth.kit_totals(),
                                 report.av_counts(), report.kizzle_counts()),
          file=out)
    rates = report.overall_rates()
    print(f"\nKizzle FP {rates['kizzle_fp_rate']:.3%} / "
          f"FN {rates['kizzle_fn_rate']:.3%}; "
          f"AV FP {rates['av_fp_rate']:.3%} / FN {rates['av_fn_rate']:.3%}",
          file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "process-day":
        return command_process_day(args, out)
    if args.command == "scan":
        return command_scan(args, out)
    if args.command == "evaluate":
        return command_evaluate(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
