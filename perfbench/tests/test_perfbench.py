"""The benchmark's own tests, on workloads shrunk to one benchmark.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gate import Gate, cell_key, load_reference  # noqa: E402
from layers import layer_metrics  # noqa: E402
from run import Runner  # noqa: E402
from spans import self_times  # noqa: E402
from workloads import Workload  # noqa: E402

SEED = 20160516
TINY = Workload("tiny", "fig11", "smoke", cells=6, benchmarks=("stencil",))
TINY_DURABLE = Workload(
    "tiny-durable", "vecdiff", "smoke", cells=12, jobs=2, durable=True,
    benchmarks=("gen-map0",),
)
COUNTS = ("codegen.lines", "golden.runs", "journal.records", "journal.bytes")


def runner(tmp_path: Path) -> Runner:
    return Runner(ROOT, tmp_path, SEED, time.monotonic() + 170)


def traced_layers(tmp_path: Path, workload: Workload) -> tuple[dict, float]:
    sweep = runner(tmp_path).sweep(workload, trace=True)
    assert sweep.failure is None, sweep.failure
    return layer_metrics(sweep.traces, sweep.wall_s), sweep.wall_s


def test_self_times_split_nested_and_concurrent_spans():
    spans = [
        ("outer", 1, 0.0, 10.0),
        ("inner", 1, 2.0, 5.0),
        ("inner", 1, 6.0, 7.0),
        ("pool.wait", 1, 12.0, 20.0),
        # Another thread works while thread 1 waits: the wait yields.
        ("golden", 2, 14.0, 18.0),
        # Two threads working at once split the instant evenly.
        ("golden", 2, 8.0, 9.0),
    ]
    got = self_times(spans)
    assert got["inner"] == pytest.approx(4.0)
    assert got["outer"] == pytest.approx(6.0 - 0.5)
    assert got["golden"] == pytest.approx(4.0 + 0.5)
    assert got["pool.wait"] == pytest.approx(4.0)
    # Everything covered (0..10, 12..20) is counted exactly once.
    assert sum(got.values()) == pytest.approx(18.0)


@pytest.mark.parametrize("workload", [TINY, TINY_DURABLE], ids=lambda w: w.name)
def test_layer_self_times_plus_other_equal_traced_wall(tmp_path, workload):
    layers, wall = traced_layers(tmp_path, workload)
    seconds = [v for name, (v, unit) in layers.items() if unit == "s"]
    assert sum(seconds) == pytest.approx(wall, rel=1e-9)
    assert all(v >= 0 for v in seconds), layers
    assert layers["golden.runs"][0] > 0 and layers["codegen.lines"][0] > 0


def test_gate_flags_an_altered_reference_row(tmp_path):
    sweep = runner(tmp_path).sweep(TINY)
    refs = tmp_path / "refs"
    refs.mkdir()
    path = refs / f"{TINY.name}-{SEED}.json"
    path.write_text(json.dumps({"rows": sweep.rows}))

    clean = Gate(TINY.cells)
    clean.check_rows(sweep.rows, TINY.scale)
    clean.check_reference(sweep.rows, load_reference(TINY.name, SEED, refs), SEED)
    assert clean.failed_count == 0 and clean.reference.startswith("passed")

    altered = [dict(r) for r in sweep.rows]
    altered[2]["sdc"], altered[2]["benign"] = altered[2]["benign"], altered[2]["sdc"]
    if altered[2]["sdc"] == sweep.rows[2]["sdc"]:
        altered[2]["crash_kinds"] = {"altered": 1}
    path.write_text(json.dumps({"rows": altered}))
    gate = Gate(TINY.cells)
    gate.check_reference(sweep.rows, load_reference(TINY.name, SEED, refs), SEED)
    assert gate.failed_count == 1
    assert list(gate.failed) == [cell_key(sweep.rows[2])]
    assert gate.reference.startswith("FAILED")

    unchecked = Gate(TINY.cells)
    unchecked.check_reference(sweep.rows, load_reference(TINY.name, SEED + 1, refs), SEED + 1)
    assert unchecked.failed_count == 0 and unchecked.reference.startswith("unchecked")


def test_count_metrics_repeat_exactly_across_traced_runs(tmp_path):
    first, _ = traced_layers(tmp_path / "a", TINY_DURABLE)
    second, _ = traced_layers(tmp_path / "b", TINY_DURABLE)
    for name in COUNTS:
        assert first[name] == second[name], name
    assert first["journal.records"][0] > 0 and first["journal.bytes"][0] > 0


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fig11-smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
