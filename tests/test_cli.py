"""Tests for the command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import build_parser, main
from repro.exec.cluster import parse_address
from repro.exec.worker import main as worker_main


def run_cli(arguments):
    buffer = io.StringIO()
    code = main(arguments, out=buffer)
    return code, buffer.getvalue()


SMALL_STREAM = ["--benign", "8", "--angler", "5", "--nuclear", "3",
                "--sweetorange", "3", "--rig", "2", "--machines", "4"]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["process-day"])
        assert args.benign == 30
        assert args.machines == 10
        assert args.date.isoformat() == "2014-08-05"

    def test_date_parsing(self):
        args = build_parser().parse_args(["process-day", "--date",
                                          "2014-08-20"])
        assert args.date.isoformat() == "2014-08-20"

    def test_invalid_date_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["process-day", "--date", "yesterday"])

    @pytest.mark.parametrize("address", ["127.0.0.1:99999", "127.0.0.1:-1",
                                         "127.0.0.1:x"])
    def test_bad_address_is_a_usage_error(self, address, capsys):
        """The coordinator's --listen and the worker's --connect reject a
        port outside 0-65535 before anything binds or connects."""
        with pytest.raises(SystemExit) as cli_exit:
            main(["--backend", "cluster", "--listen", address,
                  "--spawn-workers", "0", "process-day"])
        assert cli_exit.value.code == 2
        assert address in capsys.readouterr().err
        with pytest.raises(SystemExit) as worker_exit:
            worker_main(["--connect", address])
        assert worker_exit.value.code == 2
        assert address in capsys.readouterr().err

    @pytest.mark.parametrize("days", ["0", "-2", "32", "x"])
    def test_days_outside_august_are_a_usage_error(self, days, capsys):
        with pytest.raises(SystemExit) as cli_exit:
            main(["evaluate", "--days", days])
        assert cli_exit.value.code == 2
        assert "--days" in capsys.readouterr().err

    @pytest.mark.parametrize("days", [1, 31])
    def test_august_edges_accepted(self, days):
        args = build_parser().parse_args(["evaluate", "--days", str(days)])
        assert args.days == days

    def test_port_range_edges_accepted(self):
        assert parse_address("127.0.0.1:0") == ("127.0.0.1", 0)
        assert parse_address("0.0.0.0:65535") == ("0.0.0.0", 65535)


class TestCommands:
    def test_process_day(self):
        code, output = run_cli(SMALL_STREAM + ["process-day",
                                               "--date", "2014-08-05"])
        assert code == 0
        assert "clusters" in output
        assert "cluster size=" in output

    def test_scan(self):
        code, output = run_cli(SMALL_STREAM + ["scan",
                                               "--train-date", "2014-08-05",
                                               "--scan-date", "2014-08-06"])
        assert code == 0
        assert "(Kizzle)" in output and "(AV)" in output
        assert "benign false positives" in output

    def test_evaluate_two_days(self):
        code, output = run_cli(SMALL_STREAM + ["evaluate", "--days", "2"])
        assert code == 0
        assert "False negatives per day" in output
        assert "Kizzle FP" in output

    def test_evaluate_incremental(self):
        code, output = run_cli(SMALL_STREAM + ["--incremental",
                                               "evaluate", "--days", "3"])
        assert code == 0
        assert "Kizzle FP" in output

    def test_incremental_flags_parsed(self):
        args = build_parser().parse_args(
            ["--incremental", "--no-shed", "--scale", "2.0", "process-day"])
        assert args.incremental and args.no_shed
        assert args.scale == 2.0

    def test_backend_flag_parsed(self):
        assert build_parser().parse_args(
            ["process-day"]).backend == "process"
        for kind in ("serial", "process", "cluster"):
            args = build_parser().parse_args(
                ["--backend", kind, "process-day"])
            assert args.backend == kind

    def test_cluster_flags_parsed(self):
        args = build_parser().parse_args(
            ["--backend", "cluster", "--listen", "0.0.0.0:9200",
             "--spawn-workers", "3", "process-day"])
        assert args.listen == "0.0.0.0:9200"
        assert args.spawn_workers == 3
        # Defaults: OS-assigned loopback port, two local workers.
        defaults = build_parser().parse_args(["process-day"])
        assert defaults.listen is None
        assert defaults.spawn_workers == 2

    def test_spawn_workers_only_apply_to_cluster_backend(self):
        from repro.cli import _backend_config

        args = build_parser().parse_args(
            ["--backend", "process", "process-day"])
        assert _backend_config(args).spawn_workers == 0
        args = build_parser().parse_args(
            ["--backend", "cluster", "process-day"])
        assert _backend_config(args).spawn_workers == 2

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--backend", "gpu", "process-day"])

    def test_process_day_serial_backend(self):
        code, output = run_cli(SMALL_STREAM + ["--backend", "serial",
                                               "process-day",
                                               "--date", "2014-08-05"])
        assert code == 0
        assert "backend=serial" in output

    def test_backends_print_identical_clusters(self):
        outputs = []
        for kind in ("serial", "process"):
            code, output = run_cli(SMALL_STREAM + ["--backend", kind,
                                                   "process-day",
                                                   "--date", "2014-08-05"])
            assert code == 0
            outputs.append("\n".join(
                line for line in output.splitlines()
                if "backend=" not in line))
        assert outputs[0] == outputs[1]

    @pytest.mark.slow
    def test_process_day_cluster_backend_end_to_end(self):
        """`--backend cluster` spawns its two localhost workers, runs the
        day on them, and reaps them on exit — same clusters as serial."""
        code, serial_output = run_cli(
            SMALL_STREAM + ["--backend", "serial", "process-day",
                            "--date", "2014-08-05"])
        assert code == 0
        code, output = run_cli(
            SMALL_STREAM + ["--backend", "cluster", "process-day",
                            "--date", "2014-08-05"])
        assert code == 0
        assert "backend=cluster" in output
        strip = lambda text: "\n".join(  # noqa: E731 - local one-liner
            line for line in text.splitlines() if "backend=" not in line)
        assert strip(output) == strip(serial_output)
