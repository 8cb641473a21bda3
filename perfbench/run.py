"""End-to-end benchmark on the paper's own sweeps (see README.md).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout: it runs the CLI from ``src/`` there, in
fresh processes, and keeps its scratch files under ``.perfbench/``.  The
last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (cells of the outcome gate) and ``metrics``
(the end-to-end metrics, or with ``--trace 1`` the per-layer ones).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gate import Gate, load_reference, report_rows  # noqa: E402
from layers import layer_metrics  # noqa: E402
from workloads import BASE_SEED, WORKLOADS, Workload  # noqa: E402

#: Fresh set-up processes per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Seconds after which a run starts no further sweep, and kills what runs.
DEADLINE_S = 170.0


@dataclass
class Sweep:
    """One timed pass over a workload's commands."""

    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    rows: list | None = None
    #: Rows ``report`` rebuilt from the journal (durable workloads).
    rebuilt: list | None = None
    failure: str | None = None
    traces: list = field(default_factory=list)
    #: The campaign store the sweep journaled into (durable workloads).
    store: Path | None = None


class Runner:
    """Launches the benchmark's fresh processes from one checkout."""

    def __init__(self, root: Path, scratch: Path, seed: int, deadline: float):
        self.root = root
        self.scratch = scratch
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # Measure the program as users get it: every tier at its default.
        self.env.pop("REPRO_VECTOR_BATCHING", None)
        self._count = 0

    def fresh_dir(self, prefix: str) -> Path:
        self._count += 1
        path = self.scratch / f"{prefix}{self._count}"
        path.mkdir(parents=True)
        return path

    def launch(self, child_args: list[str], log: Path) -> tuple[float, float, int]:
        """Run ``child.py`` with ``child_args``: (wall s, peak RSS MB, exit code).

        Peak RSS is the largest of the process and the workers it waited
        for (``wait4``).  The whole process group is killed at the deadline.
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run deadline passed")
        argv = [sys.executable, str(HERE / "child.py"), *child_args]
        with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdout=out, stderr=err,
                start_new_session=True,
            )
            fired = threading.Event()

            def kill():
                fired.set()
                _kill_group(proc.pid)

            killer = threading.Timer(remaining, kill)
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)
        if fired.is_set():
            raise TimeoutError(f"{' '.join(child_args[:6])} killed at the run deadline")
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def setup(self, workload: Workload) -> float:
        args = ["setup", "--experiment", workload.experiment]
        for name in workload.benchmarks:
            args += ["--benchmark", name]
        log = self.fresh_dir("setup") / "out"
        wall, _rss, code = self.launch(args, log)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {_tail(log)}")
        return wall

    def sweep(self, workload: Workload, trace: bool = False, jobs: int | None = None) -> Sweep:
        """Run the workload's commands once, timed; ``jobs`` runs the bare
        sweep (no report/verify) at another ``--jobs``, untimed."""
        d = self.fresh_dir("sweep")
        out, store = d / "json", d / "store"
        commands = (
            [workload.sweep_args(out, store if workload.durable else None, jobs=jobs)]
            if jobs is not None else workload.commands(out, store)
        )
        result = Sweep(store=store if workload.durable else None)
        for i, args in enumerate(commands):
            spans = d / f"trace{i}.json"
            trace_args = ["--trace", str(spans)] if trace else []
            log = d / f"cmd{i}.out"
            wall, rss, code = self.launch(
                ["cli", "--seed", str(self.seed), *trace_args, "--", *args], log
            )
            result.wall_s += wall
            result.peak_rss_mb = max(result.peak_rss_mb, rss)
            if trace and spans.is_file():
                result.traces.append(json.loads(spans.read_text()))
            if code != 0:
                result.failure = f"`{args[0]}` exited {code}: {_tail(log)}"
                return result
        result.rows = report_rows(out / f"{workload.experiment}.json")
        if workload.durable and jobs is None:
            result.rebuilt = report_rows(d / "cmd1.out")
        return result


def _kill_group(pid: int) -> None:
    """Stop anything the command left behind in its process group."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _tail(log: Path) -> str:
    err = log.with_suffix(".err")
    text = err.read_text(errors="replace").strip() if err.exists() else ""
    return text.splitlines()[-1] if text else "(no stderr)"


def gate_sweeps(gate: Gate, workload: Workload, sweeps: list[Sweep], seed: int) -> None:
    first = None
    for sweep in sweeps:
        if sweep.failure is not None:
            gate.fail_all(sweep.failure)
            continue
        gate.check_rows(sweep.rows, workload.scale)
        if sweep.rebuilt is not None:
            gate.check_same(sweep.rebuilt, sweep.rows, "report's rebuild from the journal")
        if first is None:
            first = sweep.rows
            gate.check_reference(first, load_reference(workload.name, seed), seed)
        else:
            gate.check_same(sweep.rows, first, "the run's first sweep")


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        runner: Runner) -> tuple[Gate, dict, list[str]]:
    gate = Gate(workload.cells)
    lines = [f"workload {workload.name}, seed {seed}, engine compiled"]
    timed: list[Sweep] = []
    setups: list[float] = []
    if trace:
        timed.append(runner.sweep(workload))
        traced = runner.sweep(workload, trace=True)
    else:
        setups = [runner.setup(workload) for _ in range(SETUP_SAMPLES)]
        measured = 0.0
        while True:
            timed.append(runner.sweep(workload))
            last = timed[-1]
            measured += last.wall_s
            if (
                last.failure is not None
                or measured >= seconds
                or time.monotonic() + 1.5 * last.wall_s > runner.deadline
            ):
                break
    checked = timed + ([traced] if trace else [])
    if workload.durable:
        serial = runner.sweep(workload, jobs=1)
        if serial.failure is None:
            for sweep in checked:
                if sweep.failure is None:
                    gate.check_parity(sweep.store, serial.store)
        checked.append(serial)
        lines.append("journal parity with --jobs 1: checked on every sweep")
    gate_sweeps(gate, workload, checked, seed)

    walls = [s.wall_s for s in timed]
    experiments = sum(r["experiments"] for r in timed[0].rows) if timed[0].rows else 0
    e2e = {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "experiments_per_s": (
            statistics.median(experiments / w for w in walls), "1/s", len(walls)
        ),
        "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in timed), "MB", len(walls)),
    }
    if setups:
        e2e["setup_s"] = (statistics.median(setups), "s", len(setups))
    lines.append(f"{'experiments':<18} {experiments:12d}      (per sweep)")
    for name, (value, unit, n) in e2e.items():
        lines.append(f"{name:<18} {value:12.4f} {unit:<4} (median of {n})")
    lines.append("sweep walls: " + " ".join(f"{w:.3f}" for w in walls)
                 + "; set-up probes: " + " ".join(f"{w:.3f}" for w in setups))
    lines.append(
        f"{'failed_cells':<18} {gate.failed_count / gate.cells:12.4f} share "
        f"({gate.failed_count}/{gate.cells} cells)"
    )
    lines.append(f"outcome check against the instrumented engine: {gate.reference}")
    if gate.all_failed:
        lines.append(f"  every cell failed: {gate.all_failed}")
    for cell, reason in sorted(gate.failed.items()):
        lines.append(f"  failed {cell}: {reason}")

    if not trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _n) in e2e.items()}
        return gate, metrics, lines

    layers = layer_metrics(traced.traces, traced.wall_s)
    layers["trace.overhead_s"] = (traced.wall_s - e2e["wall_s"][0], "s")
    lines.append(f"traced wall {traced.wall_s:.4f} s; self time per layer:")
    for name, (value, unit) in layers.items():
        lines.append(f"  {name:<18} {value:16.4f} {unit}")
    lines.append(
        f"traffic: experiments={experiments} golden.runs={layers['golden.runs'][0]} "
        f"golden.hit_ratio={layers['golden.hit_ratio'][0]:.4f}"
    )
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    return gate, metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=BASE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "experiments" / "__main__.py").is_file():
        print(
            f"{root} is not a checkout of the repository (no src/repro); run "
            f"the benchmark from the checkout's root",
            file=sys.stderr,
        )
        return 2
    start = time.monotonic()
    (root / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench"))
    try:
        runner = Runner(root, scratch, args.seed, start + DEADLINE_S)
        gate, metrics, lines = run(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), runner
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps({
        "correct": gate.failed_count == 0,
        "attempted": gate.cells,
        "failed": gate.failed_count,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
