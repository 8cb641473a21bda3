"""Deterministic parallel campaigns and CampaignStats aggregation."""

import functools
from collections import Counter
from random import Random

import pytest

from repro.core import (
    CampaignConfig,
    CampaignStats,
    ExperimentResult,
    FaultInjector,
    Outcome,
    run_batch,
    run_campaigns,
)
from repro.core.parallel import EngineSpec, ServicePool
from repro.workloads import get_workload

#: Small but non-trivial: 2 campaigns x 25 experiments, no early convergence.
_CONFIG = CampaignConfig(
    experiments_per_campaign=25,
    max_campaigns=2,
    min_campaigns=2,
    require_normality=False,
    margin_target=0.0,
)


def _result(outcome, detected=False, crash_kind=None):
    return ExperimentResult(
        outcome=outcome,
        detected=detected,
        crash_kind=crash_kind,
        injection=None,
        dynamic_sites=1,
        target_index=1,
    )


class TestCampaignStats:
    def test_crash_kinds_is_counter(self):
        stats = CampaignStats()
        stats.add(_result(Outcome.CRASH, crash_kind="segfault"))
        stats.add(_result(Outcome.CRASH, crash_kind="segfault"))
        stats.add(_result(Outcome.CRASH))  # kind unknown
        assert isinstance(stats.crash_kinds, Counter)
        assert stats.crash_kinds == {"segfault": 2, "unknown": 1}
        # Counter semantics: absent kinds read as 0 instead of raising.
        assert stats.crash_kinds["step-limit"] == 0

    def test_merge(self):
        a = CampaignStats()
        a.add(_result(Outcome.SDC, detected=True))
        a.add(_result(Outcome.BENIGN))
        a.add(_result(Outcome.CRASH, crash_kind="segfault"))
        b = CampaignStats()
        b.add(_result(Outcome.SDC))
        b.add(_result(Outcome.CRASH, crash_kind="segfault"))
        b.add(_result(Outcome.CRASH, detected=True, crash_kind="step-limit"))

        merged = a.merge(b)
        assert merged is a
        assert (a.sdc, a.benign, a.crash) == (2, 1, 3)
        assert a.detected_sdc == 1
        assert a.detected_total == 2
        assert a.crash_kinds == {"segfault": 2, "step-limit": 1}
        # b is untouched.
        assert (b.sdc, b.benign, b.crash) == (1, 0, 2)

    def test_merge_empty_is_identity(self):
        a = CampaignStats()
        a.add(_result(Outcome.SDC))
        before = (a.sdc, a.benign, a.crash, dict(a.crash_kinds))
        a.merge(CampaignStats())
        assert (a.sdc, a.benign, a.crash, dict(a.crash_kinds)) == before


def _summary_fingerprint(summary):
    return (
        [(c.sdc, c.benign, c.crash, c.detected_total, dict(c.crash_kinds))
         for c in summary.campaigns],
        (summary.totals.sdc, summary.totals.benign, summary.totals.crash),
        summary.converged,
    )


def _spec(workload):
    return EngineSpec(workload.name, "avx", "all", step_limit=500_000)


class TestParallelDeterminism:
    """Experiment-grain fan-out (the ``serve`` daemon's path): the parent
    pre-draws the schedule, a :class:`ServicePool` runs the faulty halves."""

    @pytest.fixture(scope="class")
    def setup(self):
        workload = get_workload("vector_sum")
        module = workload.compile("avx")
        return workload, module

    def _run(self, setup, pool=None):
        workload, module = setup
        injector = FaultInjector(module, category="all", step_limit=500_000)
        return run_campaigns(
            injector,
            workload.runner_factory(),
            _CONFIG,
            seed=7,
            pool=pool.cell(_spec(workload)) if pool is not None else None,
        )

    def test_serial_vs_parallel_identical(self, setup):
        serial = self._run(setup)
        with ServicePool(2) as pool:
            parallel = self._run(setup, pool)
        assert _summary_fingerprint(serial) == _summary_fingerprint(parallel)
        # The mini-campaign must exercise every outcome class for this to be
        # a meaningful determinism check.
        assert serial.totals.sdc > 0
        assert serial.totals.benign > 0
        assert serial.totals.crash > 0

    def test_run_batch_serial_vs_parallel(self, setup):
        """A flat batch equals one pooled campaign drawn from the same
        ``Random(seed)`` stream."""
        workload, module = setup
        batch = run_batch(
            FaultInjector(module, category="all", step_limit=500_000),
            workload.runner_factory(), 30, Random(5),
        )
        one_campaign = CampaignConfig(
            experiments_per_campaign=30, max_campaigns=1, min_campaigns=1
        )
        with ServicePool(2) as pool:
            pooled = run_campaigns(
                FaultInjector(module, category="all", step_limit=500_000),
                workload.runner_factory(), one_campaign, seed=5,
                pool=pool.cell(_spec(workload)),
            ).totals
        assert (batch.sdc, batch.benign, batch.crash) == (
            pooled.sdc, pooled.benign, pooled.crash,
        )
        assert batch.crash_kinds == pooled.crash_kinds

    def test_pool_rejects_detector_bindings(self, setup):
        """Pool workers run without detector bindings, so a detector
        campaign cannot silently lose its detections to a pool."""
        from repro.detectors.runtime import detector_bindings_factory

        workload, module = setup
        with pytest.raises(ValueError, match="bindings_factory"):
            run_campaigns(
                FaultInjector(module), workload.runner_factory(), _CONFIG,
                bindings_factory=detector_bindings_factory(),
                pool=object(),  # refused before any worker is asked
            )


class TestWorkerEngine:
    """The per-worker execution state: one engine per spec, built once and
    kept warm.  Exercised in-process — the task runner below is exactly
    what forked :class:`ServicePool` workers execute."""

    def _schedule(self, injector, workload, count, seed=21):
        from repro.core.parallel import make_schedule_entry

        rng = Random(seed)
        runner = workload.build_runner({"n": 90, "seed": 55})
        return [make_schedule_entry(injector, runner, rng) for _ in range(count)]

    @pytest.fixture()
    def worker(self, monkeypatch):
        """A fresh worker-side engine cache, and the task runner over it."""
        from repro.core import parallel

        engines = {}
        monkeypatch.setattr(parallel, "_service_engines", engines)
        return engines, parallel._run_service_task

    def test_worker_decodes_module_once(self, worker):
        from repro.vm.decode import DECODE_EVENTS

        engines, run_task = worker
        workload = get_workload("vector_sum")
        spec = _spec(workload)
        tasks = self._schedule(spec.build(), workload, 8)
        run_task((spec, tasks[0]))  # first task builds the spec's engine
        (built,) = engines.values()
        before = DECODE_EVENTS["functions"]
        for task in tasks[1:]:
            run_task((spec, task))
        assert DECODE_EVENTS["functions"] == before
        assert engines == {spec: built}

    def test_sweep_worker_builds_only_the_cells_it_runs(self, monkeypatch):
        """A sweep worker runs a cell on the engine it inherited, generates
        code for that cell alone, and drops the engine afterwards."""
        import gc
        import weakref

        from repro.core import parallel
        from repro.experiments import fig11
        from repro.experiments.common import SCALES

        workload = get_workload("blackscholes")
        cells, plans = [], []
        for category in ("pure-data", "control", "address"):
            injector = FaultInjector(
                workload.compile("avx"), category=category, engine="compiled"
            )
            plans.append(injector._plan)
            run = functools.partial(
                fig11.run_cell, workload, "avx", category, SCALES["smoke"],
                injector=injector,
            )
            cells.append((run, None))
        ran = weakref.ref(cells[1][0].keywords["injector"])
        del injector, run
        monkeypatch.setattr(parallel, "_sweep_cells", cells)

        row, ops = parallel._run_sweep_cell(1)
        gc.collect()
        assert row["category"] == "control" and ops == []
        assert [plan._compiled is not None for plan in plans] == [
            False, True, False,
        ]
        assert cells[1] is None and ran() is None

    def test_worker_results_match_parent_serial(self, worker):
        """Workers synthesize the golden from the schedule entry; their
        faulty runs equal the parent's, checkpoint tapes or not."""
        _, run_task = worker
        workload = get_workload("vector_sum")
        spec = _spec(workload)
        injector = FaultInjector(
            workload.compile("avx"), category="all", step_limit=500_000,
            checkpoint_interval=30,
        )
        tasks = self._schedule(injector, workload, 10)
        worker_results = [run_task((spec, t)) for t in tasks]
        runner = workload.build_runner({"n": 90, "seed": 55})
        golden = injector.cached_golden(runner)
        serial_results = [
            injector.faulty(runner, golden, t.k, bit=t.bit) for t in tasks
        ]
        sig = lambda r: repr(
            (r.outcome, r.crash_kind, r.injection, r.dynamic_sites,
             r.faulty_dynamic_instructions)
        )
        assert [sig(r) for r in worker_results] == [sig(r) for r in serial_results]
