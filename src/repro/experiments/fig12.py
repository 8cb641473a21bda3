"""Fig. 12: the foreach-invariant detector study on the micro-benchmarks.

For vector copy, dot product, and vector sum, under each fault-site
category (2000 experiments each at paper scale):

* **Avg. Overhead** — detector cost, measured here as the dynamic-
  instruction-count ratio of the kernel with vs without the detector block
  (paper: wall clock; ~8% on all three micros);
* **SDC** — the SDC rate with the detector-equipped binary;
* **SDC Detection Rate** — fraction of SDC outcomes flagged by
  ``checkInvariantsForeachFullBody``.

Expected shape (§IV-E): **zero** detected SDCs under pure-data (the loop
iterator can never be a pure-data site — Fig. 2 containment); the highest
SDC rates and detection rates (~50-57%) under control; address faults
mostly crash, leaving low SDC rates.
"""

from __future__ import annotations

import functools
from random import Random

import numpy as np

from ..analysis.report import pct, render_table
from ..core.campaign import run_batch
from ..core.injector import FaultInjector
from ..core.parallel import run_sweep
from ..detectors.runtime import detector_bindings_factory
from ..vm.interpreter import Interpreter
from ..workloads.registry import Workload, micro_workloads
from .common import (
    CATEGORIES,
    ExperimentReport,
    FIG12_EXPERIMENTS,
    campaign_worker_context,
    cell_seed,
)

#: Paper Fig. 12 values for comparison (SDC rate, SDC detection rate).
PAPER_FIG12 = {
    ("vcopy", "pure-data"): (0.9995, 0.0),
    ("vcopy", "control"): (0.753, 0.571),
    ("vcopy", "address"): (0.3945, 0.0875),
    ("dot_product", "pure-data"): (0.978, 0.0),
    ("dot_product", "control"): (0.9525, 0.5765),
    ("dot_product", "address"): (0.4195, 0.08),
    ("vector_sum", "pure-data"): (1.0, 0.0),
    ("vector_sum", "control"): (0.965, 0.487),
    ("vector_sum", "address"): (0.4325, 0.055),
}
PAPER_OVERHEADS = {"vcopy": 0.086, "dot_product": 0.0809, "vector_sum": 0.0839}

HEADERS = [
    "micro",
    "category",
    "n",
    "overhead",
    "SDC",
    "SDC detect",
    "paper SDC",
    "paper detect",
]


def cell_recorder(
    store,
    workload: Workload,
    category: str,
    experiments: int,
    scale: str,
    injector: FaultInjector,
    extras: dict | None = None,
    abort_after: int | None = None,
):
    """One (micro, category) cell's store recorder."""
    return store.recorder(
        experiment="fig12",
        cell={"benchmark": workload.name, "category": category},
        scale=scale,
        injector=injector,
        seed=cell_seed("fig12", workload.name, "avx", category),
        config={"experiments": experiments},
        planned=experiments,
        extras=extras,
        abort_after=abort_after,
    )


def measure_overhead(workload: Workload, target: str = "avx", samples: int = 5) -> float:
    """Dynamic-instruction overhead of the detector block (mean over inputs)."""
    plain = workload.compile(target, foreach_detectors=False)
    detected = workload.compile(target, foreach_detectors=True)
    rng = Random(cell_seed("fig12-overhead", workload.name, target))
    ratios = []
    factory = detector_bindings_factory()
    for _ in range(samples):
        runner = workload.make_runner(workload.sample_input(rng))
        vm0 = Interpreter(plain)
        runner(vm0)
        vm1 = Interpreter(detected)
        bindings, _fired = factory()
        vm1.bind_all(bindings)
        runner(vm1)
        ratios.append(vm1.stats.total / vm0.stats.total - 1.0)
    return float(np.mean(ratios))


def run_cell(
    workload: Workload,
    category: str,
    experiments: int,
    target: str = "avx",
    jobs: int = 1,
    engine: str = "direct",
    checkpoint_interval: int | None = None,
    injector: FaultInjector | None = None,
    scale: str = "custom",
    store=None,
    recorder=None,
    abort_after: int | None = None,
    shard=None,
) -> dict:
    if injector is None:
        module = workload.compile(target, foreach_detectors=True)
        injector = FaultInjector(
            module, category=category, step_limit=500_000, engine=engine,
            checkpoint_interval=checkpoint_interval,
        )
    if recorder is None and store is not None:
        recorder = cell_recorder(
            store, workload, category, experiments, scale, injector,
            abort_after=abort_after,
        )
    rng = Random(cell_seed("fig12", workload.name, target, category))
    factory = detector_bindings_factory()
    worker_context = (
        campaign_worker_context(injector, workload, with_detectors=True)
        if jobs > 1
        else None
    )
    stats = run_batch(
        injector,
        workload.runner_factory(),
        experiments,
        rng,
        bindings_factory=factory,
        jobs=jobs,
        worker_context=worker_context,
        recorder=recorder,
        shard=shard,
    )
    paper = PAPER_FIG12.get((workload.name, category))
    return {
        "benchmark": workload.name,
        "category": category,
        "experiments": stats.total,
        "sdc": stats.rate("sdc"),
        "crash": stats.rate("crash"),
        "detection_rate": stats.sdc_detection_rate,
        "detected_sdc": stats.detected_sdc,
        "paper_sdc": paper[0] if paper else None,
        "paper_detection": paper[1] if paper else None,
    }


def run(
    scale: str = "quick",
    jobs: int = 1,
    engine: str = "direct",
    checkpoint_interval: int | None = None,
    store=None,
    abort_after: int | None = None,
    shard=None,
) -> ExperimentReport:
    if shard is not None and store is None:
        raise ValueError("fig12.run(shard=...) requires a store")
    experiments = FIG12_EXPERIMENTS[scale]
    report = ExperimentReport(name="fig12", scale=scale, headers=list(HEADERS))
    overheads = {w.name: measure_overhead(w) for w in micro_workloads()}
    # Same pattern as Fig. 11: with --jobs or --store every cell's engine
    # is built here first, and with --store every cell is manifested (with
    # its measured overhead) before the first injection.
    upfront = jobs > 1 or store is not None

    def cell(w, category):
        injector = recorder = None
        if upfront:
            injector = FaultInjector(
                w.compile("avx", foreach_detectors=True), category=category,
                step_limit=500_000, engine=engine,
                checkpoint_interval=checkpoint_interval,
            )
        if store is not None:
            recorder = cell_recorder(
                store, w, category, experiments, scale, injector,
                extras={
                    "overhead": overheads[w.name],
                    "paper_overhead": PAPER_OVERHEADS.get(w.name),
                },
                abort_after=abort_after,
            )
        run = functools.partial(
            run_cell, w, category, experiments, engine=engine,
            checkpoint_interval=checkpoint_interval, injector=injector,
            scale=scale, shard=shard,
        )
        return run, recorder

    cells = [cell(w, category) for w in micro_workloads() for category in CATEGORIES]
    for row in run_sweep(cells, jobs, store):
        row["overhead"] = overheads[row["benchmark"]]
        row["paper_overhead"] = PAPER_OVERHEADS.get(row["benchmark"])
        report.rows.append(row)
    report.notes.append(
        "Overhead is a dynamic-instruction ratio (deterministic proxy for "
        "the paper's ~8% wall-clock figure). Expect 0% detection under "
        "pure-data and the highest detection under control."
    )
    return report


def render(report: ExperimentReport) -> str:
    rows = [
        [
            r["benchmark"],
            r["category"],
            r["experiments"],
            pct(r["overhead"]),
            pct(r["sdc"]),
            pct(r["detection_rate"]),
            pct(r["paper_sdc"]) if r["paper_sdc"] is not None else "-",
            pct(r["paper_detection"]) if r["paper_detection"] is not None else "-",
        ]
        for r in report.rows
    ]
    out = render_table(report.headers, rows, title="Fig. 12 — detector study on micro-benchmarks")
    return out + "\n\n" + "\n".join(report.notes)
