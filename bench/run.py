#!/usr/bin/env python3
"""Run one workload of the Kizzle day-loop benchmark (or all four).

    python3 bench/run.py --workload steady_day --seed 20140801 \\
        --seconds 15 --trace 0

generates the inputs from the seed, repeats the workload's pass on fresh
program state for ``--seconds`` (or exactly ``--repeats`` times), checks the
outputs, prints every metric by name with its unit and regression bound, and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and the
metrics — the end-to-end ones with ``--trace 0``, the per-layer ones with
``--trace 1``.  End-to-end metrics only ever come from untraced passes; a
traced run spends half its time on untraced passes and then adds one traced
pass.  The exit code is 0 only when every check passed.

``--workload all`` runs the four workloads one after the other, each in its
own process, so that peak memory is per workload and the load generator
never uses more than one core.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
# Started as a script, sys.path[0] is bench/ itself, where trace.py would
# shadow the standard library's module of that name: import this directory
# as the package ``bench`` from the checkout root instead.
if sys.path and pathlib.Path(sys.path[0]).resolve() == ROOT / "bench":
    sys.path[0] = str(ROOT)
elif str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench/run.py: the program under test is missing: "
             f"{ROOT / 'src' / 'repro'} is not a directory")
sys.path.insert(1, str(ROOT / "src"))

from bench import measure  # noqa: E402 - needs the paths above
from bench.trace import Tracer, layer_metrics  # noqa: E402
from bench.workloads import WORKLOADS, PassResult, Workload, \
    wire_probe  # noqa: E402

DEFAULT_SEED = 20140801
OUT_DIR = ROOT / "bench" / "out"
#: Share of ``--seconds`` a traced run gives to its untraced passes.
TRACED_RUN_UNTRACED_SHARE = 0.5


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        return json.load(stream)


def run_passes(workload: Workload, seconds: float, repeats: Optional[int]
               ) -> Tuple[List[PassResult], List[float]]:
    """Repeat prepare + pass on fresh state until the next pass would not
    fit in ``seconds`` (or ``repeats`` times); always at least once.
    Returns the pass results and the seconds each prepare took."""
    results: List[PassResult] = []
    prepare_seconds: List[float] = []
    started = time.perf_counter()
    while True:
        gc.collect()
        prepare_started = time.perf_counter()
        state = workload.prepare()
        prepare_seconds.append(time.perf_counter() - prepare_started)
        try:
            results.append(workload.run_pass(state))
        finally:
            workload.close(state)
        del state
        if repeats is not None:
            if len(results) >= repeats:
                break
            continue
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(results) > seconds:
            break
    return results, prepare_seconds


def run_traced_pass(workload: Workload, trace_path: pathlib.Path,
                    header: Dict[str, Any]):
    """One more pass with the tracer installed; wrappers never outlive it."""
    gc.collect()
    state = workload.prepare()
    tracer = Tracer()
    try:
        tracer.install(workload.pipeline_of(state))
        try:
            result = workload.run_pass(state)
        finally:
            tracer.uninstall()
    finally:
        workload.close(state)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path, header)
    return tracer, result


def end_to_end_metrics(results: List[PassResult], setups: List[float]
                       ) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics with the per-pass samples behind each."""
    process_walls = [result.process_wall for result in results]
    throughput = [measure.per_second(result.samples, result.process_wall)
                  for result in results]
    scan_rates = [measure.per_second(len(result.scan_latencies),
                                     sum(result.scan_latencies))
                  for result in results]

    def entry(value: float, samples: List[float], count: int) -> Dict[str, Any]:
        return {"value": value, "samples": samples, "n": count}

    return {
        "setup_s": entry(measure.median(setups), setups, len(setups)),
        "process_wall_s": entry(measure.median(process_walls), process_walls,
                                len(results)),
        "samples_per_s": entry(measure.median(throughput), throughput,
                               len(results)),
        "scan_docs_per_s": entry(measure.median(scan_rates), scan_rates,
                                 len(results)),
        "peak_rss_mb": entry(measure.peak_rss_mb(), [measure.peak_rss_mb()], 1),
    }


def untraced_layer_metrics(workload: Workload, results: List[PassResult]
                           ) -> Dict[str, float]:
    """Per-layer metrics read from the program's public results and stats:
    the median over the untraced passes."""
    layer = measure.column_medians([result.layer for result in results])
    day_walls = [wall for result in results for wall in result.day_walls]
    latencies = [latency for result in results
                 for latency in result.scan_latencies]
    # The highest percentile that still has ten samples beyond it.
    day_tail = measure.highest_tail(len(day_walls))
    scan_tail = measure.highest_tail(len(latencies))
    last = results[-1]
    layer.update({
        "core.day_wall_p50_s":
            measure.percentile(day_walls, 50) if day_walls else 0.0,
        "core.day_wall_tail_s":
            measure.percentile(day_walls, day_tail) if day_tail else 0.0,
        "core.day_wall_tail_pct": day_tail or 0.0,
        "scanner.scan_p50_us": measure.percentile(latencies, 50) * 1e6,
        "scanner.scan_tail_us":
            measure.percentile(latencies, scan_tail) * 1e6
            if scan_tail else 0.0,
        "scanner.scan_tail_pct": scan_tail or 0.0,
        "evalharness.false_positives": last.false_positives,
        "evalharness.false_negatives": last.false_negatives,
        "evalharness.fp_rate": measure.ratio(last.false_positives,
                                             last.benign),
        "evalharness.fn_rate": measure.ratio(last.false_negatives,
                                             last.malicious),
        "ekgen.generate_s": workload.generate_seconds,
        "ekgen.samples": workload.input_samples,
        "ekgen.mbytes": workload.input_bytes / 1e6,
    })
    return {name: float(value) for name, value in layer.items()}


def run_workload(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Run one workload in this process; returns the exit code."""
    environment = measure.environment(args.seed, args.scale, args.seconds,
                                      args.repeats)
    workload: Workload = WORKLOADS[args.workload](args.seed, args.scale)
    build_started = time.perf_counter()
    workload.build_inputs()
    build_seconds = time.perf_counter() - build_started

    budget = args.seconds * (TRACED_RUN_UNTRACED_SHARE if args.trace else 1.0)
    results, prepare_seconds = run_passes(workload, budget, args.repeats)
    end_to_end = end_to_end_metrics(
        results, [build_seconds + seconds for seconds in prepare_seconds])
    per_layer = untraced_layer_metrics(workload, results)

    digests = {result.digest for result in results}
    problems: List[str] = []
    if len(digests) != 1:
        problems.append(f"output digest differs between passes: {digests}")
    if args.trace:
        header = {"workload": workload.name, **environment}
        tracer, traced = run_traced_pass(
            workload, OUT_DIR / f"trace-{workload.name}.jsonl", header)
        if traced.digest not in digests:
            problems.append("traced pass produced a different output digest")
        per_layer.update(layer_metrics(
            tracer, traced.layer["distance.pairs"]))
        untraced_wall = measure.median(
            [r.process_wall + sum(r.scan_latencies) for r in results])
        per_layer["trace.overhead_share"] = measure.ratio(
            traced.process_wall + sum(traced.scan_latencies) - untraced_wall,
            untraced_wall)
        # The wire probe rides on one workload's traced run only.
        per_layer.update(wire_probe(
            min(1.0, args.seconds / 10.0) if workload.name == "cold_day"
            else 0.0))

    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    quality_checked = args.scale >= 1.0
    if quality_checked and not all(result.quality_ok for result in results):
        problems.append(
            f"detection quality outside the paper's envelope: "
            f"FN {results[-1].false_negatives}/{results[-1].malicious}, "
            f"FP {results[-1].false_positives}/{results[-1].benign}")
    problems.extend(metric_name_problems(
        spec, end_to_end, per_layer, traced=bool(args.trace)))
    correct = not problems

    units = {metric["name"]: metric["unit"]
             for metric in spec["end_to_end"] + spec["per_layer"]}
    print_report(workload, spec, environment, results, end_to_end, per_layer,
                 units, sorted(digests)[0], quality_checked, problems)
    if args.out:
        write_run_file(pathlib.Path(args.out), environment, {
            workload.name: {
                "passes": len(results),
                "correct": correct, "problems": problems,
                "attempted": attempted, "failed": failed,
                "output_digest": sorted(digests)[0],
                "quality_checked": quality_checked,
                "end_to_end": {
                    name: {**entry, "unit": units.get(name, "")}
                    for name, entry in end_to_end.items()},
                "per_layer": {
                    name: {"value": value, "unit": units.get(name, "")}
                    for name, value in per_layer.items()},
            }})

    reported = per_layer if args.trace else {
        name: entry["value"] for name, entry in end_to_end.items()}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in reported.items()}}))
    return 0 if correct else 1


def metric_name_problems(spec: Dict[str, Any], end_to_end: Dict[str, Any],
                         per_layer: Dict[str, float],
                         traced: bool) -> List[str]:
    """The output carries every metric BENCHMARK.json names, and no other.
    An untraced run leaves out the per-layer metrics only a trace gives."""
    problems = []
    named_e2e = {metric["name"] for metric in spec["end_to_end"]}
    named_layer = {metric["name"] for metric in spec["per_layer"]}
    if set(end_to_end) != named_e2e:
        problems.append(f"end-to-end metrics differ from BENCHMARK.json: "
                        f"{sorted(set(end_to_end) ^ named_e2e)}")
    unnamed = set(per_layer) - named_layer
    missing = named_layer - set(per_layer) if traced else set()
    if unnamed or missing:
        problems.append(f"per-layer metrics differ from BENCHMARK.json: "
                        f"unnamed {sorted(unnamed)}, missing {sorted(missing)}")
    return problems


def print_report(workload: Workload, spec: Dict[str, Any],
                 environment: Dict[str, Any], results: List[PassResult],
                 end_to_end: Dict[str, Any], per_layer: Dict[str, float],
                 units: Dict[str, str], digest: str, quality_checked: bool,
                 problems: List[str]) -> None:
    why = next((entry["why"] for entry in spec["workloads"]
                if entry["name"] == workload.name), "")
    bounds = {metric["name"]: metric["bound"]
              for metric in spec["end_to_end"]}
    print(f"== {workload.name}: {why}")
    print("   " + "  ".join(f"{key}={value}"
                            for key, value in environment.items()))
    print(f"   input: {workload.input_samples} samples, "
          f"{workload.input_bytes / 1e6:.1f} MB; {len(results)} passes; "
          f"{results[-1].samples} samples on the process side and "
          f"{len(results[-1].scan_latencies)} documents on the scan side "
          f"per pass")
    print("-- end to end (median over passes; n = samples behind the value)")
    for name, entry in end_to_end.items():
        print(f"   {name:<34}{entry['value']:>14.4f} {units.get(name, ''):<6}"
              f" n={entry['n']:<7} bound {bounds.get(name, 0.0):.0%}")
    print("-- per layer")
    for name in sorted(per_layer):
        print(f"   {name:<34}{per_layer[name]:>14.4f} {units.get(name, '')}")
    print(f"-- output_digest {digest}"
          f"  (quality envelope {'checked' if quality_checked else 'not checked below --scale 1'})")
    for problem in problems:
        print(f"!! {problem}")


def write_run_file(path: pathlib.Path, environment: Dict[str, Any],
                   workloads: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump({"env": environment, "workloads": workloads}, stream,
                  indent=1, sort_keys=True)
        stream.write("\n")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one after the other."""
    out = pathlib.Path(args.out) if args.out else OUT_DIR / "run.json"
    merged: Dict[str, Any] = {}
    environment: Dict[str, Any] = {}
    exit_code = 0
    for name in WORKLOADS:
        part = out.with_name(f"{out.stem}-{name}{out.suffix}")
        command = [sys.executable, str(pathlib.Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--scale", str(args.scale),
                   "--trace", str(args.trace), "--out", str(part)]
        if args.repeats is not None:
            command += ["--repeats", str(args.repeats)]
        completed = subprocess.run(command, check=False)
        exit_code = exit_code or completed.returncode
        if part.exists():
            with open(part, encoding="utf-8") as stream:
                data = json.load(stream)
            environment = data["env"]
            merged.update(data["workloads"])
            part.unlink()
    write_run_file(out, environment, merged)
    print(f"== all: wrote {out}; exit code {exit_code}")
    return exit_code


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed: the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to keep repeating the pass "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="repeat the pass exactly this many times "
                             "instead of for --seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add one traced pass and report the per-layer "
                             "metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's sample counts; "
                             "below 1 the detection-quality check is off")
    parser.add_argument("--out", default=None,
                        help="also write the run (with per-pass samples) to "
                             "this JSON file, for bench/compare.py")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.scale <= 0:
        parser.error("--scale must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
