"""Self-tests of the benchmark.

Run explicitly: ``python3 -m pytest perfbench/bench_selftest.py -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402


def _names(section: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec[section]}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(
    ("trace", "section"), [("0", "end_to_end"), ("1", "per_layer")]
)
def test_smoke_every_workload(trace, section):
    out = _run("--smoke", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    assert set(result["metrics"]) == _names(section)
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    for workload in ("grid_cold", "grid_warm", "sweep_scaleup", "service_mix"):
        assert f"{workload}: " in out.stdout


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "grid_cold", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


#: Runs the benchmark as a child of a Linux child-subreaper, so any
#: process the benchmark leaves behind, running or ended, is re-parented
#: to this one; prints "clean" when there is none.
_ORPHAN_PROBE = """
import ctypes, os, subprocess, sys
PR_SET_CHILD_SUBREAPER = 36
if ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1) != 0:
    sys.exit(3)
subprocess.run([sys.executable, *sys.argv[1:]], check=True,
               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("clean")
else:
    print("orphans")
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl")
@pytest.mark.parametrize("workload", ["sweep_scaleup", "service_mix"])
def test_no_process_outlives_the_run(workload):
    out = subprocess.run(
        [sys.executable, "-c", _ORPHAN_PROBE, "perfbench/run.py",
         "--workload", workload, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "clean"


def test_self_time_subtracts_union_of_children():
    # parent 0..10; two overlapping pool children 1..4 and 3..6; a
    # grandchild 1..2 inside the first child.
    records = [
        ("runner.warm", 0.0, 10.0, None, None),
        ("artifacts.warm", 1.0, 4.0, 0, None),
        ("artifacts.warm", 3.0, 6.0, 0, None),
        ("memory.replay", 1.0, 2.0, 1, None),
    ]
    own, roots = spans.self_times(records)
    assert own["runner.warm"] == pytest.approx(5.0)
    assert own["artifacts.warm"] == pytest.approx(2.0 + 3.0)
    assert own["memory.replay"] == pytest.approx(1.0)
    assert roots == [(0.0, 10.0)]


def test_generator_segments_share_their_children():
    # Two segments of one run_cells call; a pool cell submitted in the
    # first runs on through the second.
    records = [
        ("runner.fanout", 0.0, 1.0, None, None),
        ("runner.fanout", 2.0, 5.0, None, 0),
        ("gpu.run", 0.5, 4.0, 0, None),
    ]
    own, _ = spans.self_times(records)
    assert own["runner.fanout"] == pytest.approx(0.5 + 1.0)


def test_layer_metrics_other_and_shares():
    export = {
        "spans": [["store.load", 1.0, 2.0, None, None]],
        "counts": {"store.load": 1, "store.hits": 1},
        "distinct_graphs": 0,
    }
    m = spans.layer_metrics([export], [(0.0, 4.0)])
    assert m["store.load_s"] == pytest.approx(1.0)
    assert m["store.hit_ratio"] == 1.0
    assert m["trace.other_s"] == pytest.approx(3.0)
    assert m["share.platforms.store"] == pytest.approx(0.25)
    assert m["frontend.redundancy"] == 0.0


def test_wrappers_restore_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.platforms.runner import GridRunner
    from repro.platforms.store import ArtifactStore

    before = (GridRunner.run_cells, ArtifactStore.load)
    restore = spans.install(spans.Tracer())
    assert GridRunner.run_cells is not before[0]
    restore()
    assert (GridRunner.run_cells, ArtifactStore.load) == before
