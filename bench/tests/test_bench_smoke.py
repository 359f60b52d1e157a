"""Self-test of the benchmark harness (not of the program under test).

    PYTHONPATH=src python -m pytest bench/tests -q

Runs every workload, traced, at ``--scale 0.02`` (under a minute) and checks
the harness's own promises: metric names match ``BENCHMARK.json``, the tracer
leaves nothing patched, traced and untraced passes agree, a run compared with
itself is all ``same``, and the percentile helper keeps ten samples beyond
the percentile it picks.
"""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(ROOT))

from bench import compare, measure, run  # noqa: E402 - needs the path above
from bench.trace import Tracer  # noqa: E402
from bench.workloads import WORKLOADS, kizzle_config  # noqa: E402
from repro.core.pipeline import Kizzle  # noqa: E402

SPEC = run.load_spec()
END_TO_END = {metric["name"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"] for metric in SPEC["per_layer"]}


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Every workload once: one untraced pass plus the traced pass."""
    directory = tmp_path_factory.mktemp("bench")
    files = {}
    for name in WORKLOADS:
        files[name] = directory / f"{name}.json"
        code = run.main(["--workload", name, "--scale", "0.02",
                         "--repeats", "1", "--trace", "1",
                         "--out", str(files[name])])
        assert code == 0, name
    return files


def test_benchmark_json_names_the_workloads():
    assert [workload["name"] for workload in SPEC["workloads"]] \
        == list(WORKLOADS)
    assert "setup_s" in END_TO_END


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_named_metric_appears_and_no_other(traced_runs, name):
    with open(traced_runs[name], encoding="utf-8") as stream:
        data = json.load(stream)
    assert {"nproc", "python", "platform", "seed", "scale", "repeats",
            "calibration_s"} <= set(data["env"])
    workload = data["workloads"][name]
    assert workload["correct"], workload["problems"]
    assert workload["failed"] == 0 and workload["attempted"] >= 1
    assert set(workload["end_to_end"]) == END_TO_END
    assert set(workload["per_layer"]) == PER_LAYER
    for entry in [*workload["end_to_end"].values(),
                  *workload["per_layer"].values()]:
        assert entry["unit"]
    for entry in workload["end_to_end"].values():
        assert entry["value"] > 0


def test_contract_lines(capsys):
    """``--trace 0`` ends with the end-to-end metrics, ``--trace 1`` with the
    per-layer ones; the traced pass reproduced the untraced digest (a
    mismatch would make the run incorrect)."""
    for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
        code = run.main(["--workload", "cold_day", "--scale", "0.05",
                         "--repeats", "1", "--trace", str(trace)])
        line = last_json_line(capsys.readouterr().out)
        assert code == 0 and line["correct"] is True
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == names
        assert all(metric["unit"] for metric in line["metrics"].values())


def test_tracer_uninstall_restores_every_object():
    with Kizzle(kizzle_config(warm=True)) as kizzle:
        tracer = Tracer()
        tracer.install(kizzle)
        patched = list(tracer.patches)
        try:
            assert len(patched) > 30
            for owner, attr, original in patched:
                assert tracer.raw_attribute(owner, attr) is not original
        finally:
            tracer.uninstall()
        assert tracer.patches == []
        for owner, attr, original in patched:
            assert tracer.raw_attribute(owner, attr) is original


def test_compare_a_run_with_itself_is_all_same(traced_runs, capsys):
    for path in traced_runs.values():
        capsys.readouterr()
        assert compare.main([str(path), str(path)]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if " is better, bound " in line]
        assert len(rows) == len(END_TO_END)
        assert all("  same  (" in row for row in rows)


def test_compare_flags_a_regression():
    slower = [1.30, 1.31, 1.32]
    assert compare.verdict([1.0, 1.01, 1.02], slower, "lower", 0.15) \
        == "worse"
    assert compare.verdict(slower, [1.0, 1.01, 1.02], "lower", 0.15) \
        == "better"
    assert compare.verdict([1.0, 1.01], [1.05, 1.06], "lower", 0.15) \
        == "same"
    assert compare.verdict([1.0, 1.5, 2.0], [1.4, 1.7, 2.2], "lower", 0.15) \
        == "unresolved"


def test_tail_percentile_keeps_ten_samples_beyond():
    assert measure.highest_tail(93) == 85.0      # 31 days x 3 repeats
    assert measure.highest_tail(31) == 67.0
    assert measure.highest_tail(29) is None
    assert measure.highest_tail(22500) == 99.9
    for count in (31, 93, 441, 5991):
        chosen = measure.highest_tail(count)
        assert measure.samples_beyond(count, chosen) >= measure.MIN_BEYOND
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 95) == 95
    assert measure.percentile([7.0], 99) == 7.0
