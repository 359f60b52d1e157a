"""The four ``bench/`` workloads' ``output_digest``s, pinned.

Each workload's pass hashes what the program decided -- signatures (kit,
creation date, pattern) and per-day clusters, shed, noise, false positives
and false negatives, or the scan verdicts -- into one sha256.  Every
byte-identical rewrite of a layer must leave all four unchanged, so they are
pinned here: one untimed pass of each at the benchmark's default seed and
scale, in a fresh process, and ``month_replay`` and ``scan_fleet`` once more
under another ``PYTHONHASHSEED``, because output that depends on the process
(hash seed, set order) shows only there.

A deliberate change of output re-pins: run
``PYTHONPATH=src python -m pytest tests/test_output_digests.py`` and copy
the new digests from the failure message into :data:`DIGESTS`.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import run  # noqa: E402 - needs the path above
from bench.workloads import WORKLOADS  # noqa: E402

DIGESTS = {
    "steady_day":
        "d7cde0adf3702e9cd1aedc330f1f559e3ad2d1cea191ad8182c44fcd9ab5d19d",
    "cold_day":
        "951792faeb45fff3c6082edd623a3c54bf8aff85aafc21d11ff5a6a1910df505",
    "month_replay":
        "8d7d0d5add9c35fe4c42e78a5362b839a9a9c137f28caa974acd3e8d4cb23ae7",
    "scan_fleet":
        "5c7c319f35983b73d5892dcb4b7cbe15b92eb0aa32a14b41755686b52533b032",
}
#: Run again in a fresh process under another hash seed.
RERUN = ("month_replay", "scan_fleet")

#: One pass of each workload named in ``argv``; prints ``name digest failed``.
PASS_SCRIPT = """
import sys
from test_output_digests import one_pass
for name in sys.argv[1:]:
    result = one_pass(name)
    print(name, result.digest, result.failed)
"""


def regold_message(digests):
    return (f"output digests {digests}, pinned {DIGESTS}.  If the change "
            f"of output is intended, re-pin by setting DIGESTS in "
            f"tests/test_output_digests.py to the values printed here.")


def one_pass(name):
    workload = WORKLOADS[name](run.DEFAULT_SEED, 1.0)
    workload.build_inputs()
    state = workload.prepare()
    try:
        return workload.run_pass(state)
    finally:
        workload.close(state)


def digests_of(names, hash_seed=None):
    """One pass of each named workload in a fresh process.  (Not in this
    one: a pass fails when its measured region ends with a child process
    alive, and pools other tests leave behind would count.)"""
    path = [str(ROOT / "tests"), str(ROOT), str(ROOT / "src")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    completed = subprocess.run(
        [sys.executable, "-c", PASS_SCRIPT, *names], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, completed.stderr
    lines = [line.split() for line in completed.stdout.splitlines()]
    assert all(failed == "0" for _, _, failed in lines), lines
    return {name: digest for name, digest, _ in lines}


@pytest.mark.slow
class TestOutputDigests:
    def test_one_pass_of_each_workload(self):
        digests = digests_of(sorted(WORKLOADS))
        assert digests == DIGESTS, regold_message(digests)

    def test_under_another_hash_seed(self):
        hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        digests = digests_of(RERUN, hash_seed)
        assert digests == {name: DIGESTS[name] for name in RERUN}, \
            regold_message(digests)
