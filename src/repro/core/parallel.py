"""Deterministic parallel execution, at two grains.

**Sweeps parallelise by cell.**  The paper's protocol (§IV-D) runs every
(benchmark, ISA, category) cell as its own campaign with its own seed, so
the cells of fig11/fig12/vecdiff are independent by construction.
:func:`run_sweep` forks a :class:`SweepPool` once; each worker runs whole
cells on the unchanged serial path with the engine it inherited through
fork, and the parent journals each cell's buffered store operations in
cell order — so journals are byte-identical to serial at any ``--jobs``.

**Single campaigns parallelise by experiment** (``perf``, a standalone
``run_cell(jobs>1)``, and the ``serve`` daemon).  The paper's experiments
are independent (input, site ``k``, bit) triples, but naive fan-out would
give each worker its own RNG and change the published numbers.  Here the
*parent* pre-draws the complete schedule with the one campaign
``Random(seed)`` stream (input draw, then ``k ~ U{1..N}``, then the bit
from the golden run's recorded site width — exactly the serial draw
order), and workers only execute the faulty halves.  Results come back in
schedule order, so a campaign summary is bit-identical to serial execution
at any ``--jobs``.  Workers are initialized once per process with a
:class:`WorkerContext`: the pristine module travels pickled, and each
worker rebuilds its own :class:`~repro.core.injector.FaultInjector` from
it (instrumentation is deterministic, so site ids agree with the
parent's).  Golden runs stay in the parent where the input-keyed cache
lives; with ``Pool.imap`` over a lazy schedule generator they overlap
with worker faulty runs.
"""

from __future__ import annotations

import functools
import multiprocessing
from dataclasses import dataclass, field
from typing import Callable

from .injector import BindingsFactory, FaultInjector, GoldenRun, Runner
from .outcomes import ExperimentResult


@dataclass
class WorkerContext:
    """Everything a worker process needs; must be picklable.

    ``bindings_factory_maker`` is called once per worker to produce the
    per-run bindings factory (the factory itself is usually a closure, so
    the picklable *maker* — e.g. ``functools.partial(
    detector_bindings_factory, halt_on_detection=False)`` — travels
    instead).
    """

    injector: dict = field(repr=False)  # FaultInjector kwargs incl. module
    make_runner: Callable[[dict], Runner]
    bindings_factory_maker: Callable[[], BindingsFactory] | None = None


@dataclass
class ScheduledExperiment:
    """One pre-drawn experiment: rebuild the runner, flip, classify."""

    params: dict
    k: int
    bit: int
    golden_output: dict
    dynamic_sites: int
    golden_dynamic_instructions: int


#: Tasks shipped per pickle round-trip.  Faulty runs take milliseconds, so
#: one-task batches leave workers starved on IPC; a small constant batch
#: keeps the pipeline full without delaying the in-order result stream.
DEFAULT_CHUNKSIZE = 4

class _WorkerEngine:
    """One worker process's execution state for one campaign cell.

    Built exactly once per (worker, campaign) — at fork for an
    :class:`ExperimentPool`, on first use for a :class:`ServicePool` — so
    no task ever pays injector construction or module re-decode.
    Checkpoint tapes are process-local (register files are keyed by live IR
    instruction objects), so a checkpointing worker rebuilds the golden run
    — tape and all — *adaptively*: only for input keys it sees a second
    time.  A
    worker in the unique-input regime therefore never doubles its golden
    work, while the pooled-input regime records each hot input's tape once
    and fast-forwards every later experiment on it.
    """

    def __init__(self, context: WorkerContext):
        self.context = context
        self.injector = FaultInjector(**context.injector)
        # Decode — and for engine="compiled", exec-compile — every defined
        # function now, at fork, so no faulty run ever pays one-time code
        # generation inside its timed window.
        self.injector.warm()
        self.bindings_factory = (
            context.bindings_factory_maker()
            if context.bindings_factory_maker is not None
            else None
        )
        self._seen_keys: set = set()

    def run_task(self, task: ScheduledExperiment) -> ExperimentResult:
        runner = self.context.make_runner(task.params)
        golden = self._golden_for(runner, task)
        return self.injector.faulty(
            runner,
            golden,
            task.k,
            bit=task.bit,
            bindings_factory=self.bindings_factory,
        )

    def _golden_for(self, runner, task: ScheduledExperiment) -> GoldenRun:
        injector = self.injector
        key = getattr(runner, "input_key", None)
        if injector.checkpoint_interval and key is not None:
            if key in self._seen_keys:
                golden = injector.cached_golden(runner, self.bindings_factory)
                if (
                    golden.dynamic_sites != task.dynamic_sites
                    or golden.dynamic_instructions
                    != task.golden_dynamic_instructions
                ):
                    from ..errors import InjectionError

                    raise InjectionError(
                        "worker golden run disagrees with the parent's "
                        "schedule: the program is nondeterministic"
                    )
                return golden
            self._seen_keys.add(key)
        return GoldenRun(
            output=task.golden_output,
            dynamic_sites=task.dynamic_sites,
            dynamic_instructions=task.golden_dynamic_instructions,
            detector_fired=False,
        )


_worker_engine: _WorkerEngine | None = None


def _init_worker(context: WorkerContext) -> None:
    global _worker_engine
    _worker_engine = _WorkerEngine(context)


def _run_scheduled(task: ScheduledExperiment) -> ExperimentResult:
    assert _worker_engine is not None
    return _worker_engine.run_task(task)


class ExperimentPool:
    """A worker pool executing pre-drawn schedules in order.

    Thin wrapper over ``multiprocessing.Pool`` so campaign code reads as
    "map the schedule"; ``imap`` keeps the parent producing goldens while
    workers chew on faulty runs.
    """

    def __init__(self, jobs: int, context: WorkerContext):
        self.jobs = jobs
        self._pool = multiprocessing.get_context().Pool(
            processes=jobs, initializer=_init_worker, initargs=(context,)
        )

    def imap(self, schedule, chunksize: int = DEFAULT_CHUNKSIZE):
        return self._pool.imap(_run_scheduled, schedule, chunksize)

    def close(self) -> None:
        self._pool.close()
        self._pool.join()

    def __enter__(self) -> "ExperimentPool":
        return self

    def __exit__(self, *exc) -> None:
        self._pool.terminate()
        self._pool.join()


#: A sweep worker's cells, inherited through fork (never pickled):
#: ``(run, recorder)`` pairs (see :func:`run_sweep`).  The worker clears
#: each entry once its cell has run, which releases that cell's engine.
_sweep_cells: list = []


def _adopt_sweep_cells(cells: list) -> None:
    global _sweep_cells
    _sweep_cells = cells


def _run_sweep_cell(index: int):
    """Worker side of one sweep cell: the serial path, writes buffered.

    Returns ``(row, ops)``.  If the cell raises, the exception carries the
    ops completed before it as ``sweep_ops``, so the parent can journal
    them before re-raising.
    """
    from ..store.recorder import BufferedRecorder

    run, recorder = _sweep_cells[index]
    _sweep_cells[index] = None
    if recorder is not None:
        recorder = BufferedRecorder(recorder)
    try:
        row = run(recorder=recorder)
    except Exception as exc:
        exc.sweep_ops = recorder.ops if recorder is not None else []
        raise
    return row, recorder.ops if recorder is not None else []


class SweepPool:
    """A worker pool that runs whole cells of an experiment sweep.

    The paper's protocol (§IV-D) gives every (benchmark, ISA, category)
    cell its own campaign and seed, so cells are independent by
    construction.  The pool forks ``min(jobs, cells)`` workers once; each
    task is one cell index, run on the unchanged serial path with the
    engine and recorder the worker inherited — nothing is pickled or
    rebuilt, so every cell's code generation happens exactly once across
    all processes.  :meth:`imap_keyed` yields each cell's ``(row, ops)``
    in cell order.
    """

    def __init__(self, jobs: int, cells: list):
        self._cells = len(cells)
        # Fork, not spawn: the workers must inherit the cells' engines and
        # recorders, and the store index, instead of rebuilding them.
        self._pool = multiprocessing.get_context("fork").Pool(
            processes=min(jobs, len(cells)),
            initializer=_adopt_sweep_cells,
            initargs=(cells,),
        )

    def imap_keyed(self):
        return self._pool.imap(_run_sweep_cell, range(self._cells))

    def close(self) -> None:
        self._pool.close()
        self._pool.join()

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, *exc) -> None:
        self._pool.terminate()
        self._pool.join()


def run_sweep(cells: list, jobs: int = 1, store=None) -> list:
    """Run an experiment sweep's cells; their rows, in cell order.

    ``cells`` holds one ``(run, recorder)`` pair per cell: ``run(recorder=
    recorder)`` runs the cell's campaigns serially and returns its row, and
    ``recorder`` is its store recorder (``None`` without a store).  Entries
    are cleared as their cells finish, releasing each cell's engine.

    With ``jobs > 1`` the cells run in a :class:`SweepPool`.  The parent
    takes results in cell order and performs each cell's buffered store
    operations on its recorder, so only the parent writes the store, in
    exactly the serial order: journals are byte-identical to ``jobs=1``,
    and a cell's failure journals what the cell completed, re-raises, and
    leaves every later cell unjournaled, as the serial path does.
    """
    from ..store.recorder import apply_ops

    rows = []
    try:
        if jobs <= 1 or len(cells) < 2:
            for index, (run, recorder) in enumerate(cells):
                cells[index] = None
                rows.append(run(recorder=recorder))
            return rows
        if store is not None:
            store.flush()  # no worker may inherit buffered records
        with SweepPool(jobs, cells) as pool:
            results = pool.imap_keyed()
            for index in range(len(cells)):
                recorder = cells[index][1]
                try:
                    row, ops = next(results)
                except Exception as exc:
                    if recorder is not None:
                        apply_ops(getattr(exc, "sweep_ops", []), recorder)
                    raise
                cells[index] = None
                if recorder is not None:
                    apply_ops(ops, recorder)
                rows.append(row)
            pool.close()
        return rows
    finally:
        if store is not None:
            store.flush()


@dataclass(frozen=True)
class EngineSpec:
    """A by-name recipe for one campaign cell's execution engine.

    Unlike :class:`WorkerContext` — which ships the pickled module itself —
    a spec is a few strings: workers rebuild the module by compiling the
    named registry workload locally (compilation and site enumeration are
    deterministic, so the rebuilt engine is bit-identical to the parent's).
    That makes specs cheap enough to ride along with *every* task, which is
    what lets one persistent pool serve campaigns that did not exist when
    the pool forked: a worker receiving a spec it has never seen builds the
    engine once, caches it, and every later campaign on the same spec —
    any tenant, any seed — reuses it warm.
    """

    workload: str
    target: str
    category: str
    engine: str = "direct"
    step_limit: int = 2_000_000
    respect_masks: bool = True
    checkpoint_interval: int | None = None


def _spec_context(spec: EngineSpec) -> WorkerContext:
    """Build a :class:`WorkerContext` from a by-name spec (worker side)."""
    from ..workloads.registry import build_runner, get_workload

    module = get_workload(spec.workload).compile(spec.target)
    return WorkerContext(
        injector={
            "module": module,
            "category": spec.category,
            "step_limit": spec.step_limit,
            "respect_masks": spec.respect_masks,
            "engine": spec.engine,
            "checkpoint_interval": spec.checkpoint_interval,
        },
        make_runner=functools.partial(build_runner, spec.workload),
    )


#: Service-mode worker state: engines built on first use and kept warm for
#: every later campaign with the same spec (the handoff the campaign
#: service's warm-submission speedup rests on).  Maps EngineSpec ->
#: _WorkerEngine; lives for the worker process's whole life.
_service_engines: dict = {}


def _run_service_task(keyed_task) -> ExperimentResult:
    spec, task = keyed_task
    engine = _service_engines.get(spec)
    if engine is None:
        engine = _service_engines[spec] = _WorkerEngine(_spec_context(spec))
    return engine.run_task(task)


def _warm_service_engine(spec: EngineSpec) -> bool:
    """Pre-build one worker's engine for ``spec``; True if it was cold."""
    if spec in _service_engines:
        return False
    _service_engines[spec] = _WorkerEngine(_spec_context(spec))
    return True


class ServicePool:
    """One persistent worker pool shared by every campaign of a service.

    An experiment pool forks with its campaign's context known upfront; a
    service cannot know its future submissions, so its pool forks *empty* and
    workers build engines lazily from the :class:`EngineSpec` riding along
    with each task, keeping them cached across campaigns and tenants.
    Concurrent ``imap`` calls from different scheduler threads are safe —
    ``multiprocessing.Pool`` serializes its task queue — and results of
    each campaign still stream back in that campaign's schedule order.
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
        self._pool = multiprocessing.get_context().Pool(processes=jobs)

    def cell(self, spec: EngineSpec) -> "ServiceCell":
        return ServiceCell(self, spec)

    def imap_spec(
        self, spec: EngineSpec, schedule, chunksize: int = DEFAULT_CHUNKSIZE
    ):
        return self._pool.imap(
            _run_service_task, ((spec, task) for task in schedule), chunksize
        )

    def prewarm(self, spec: EngineSpec) -> int:
        """Build ``spec``'s engine in every worker; returns cold builds.

        Best-effort: ``map`` hands the batch to whichever workers are
        free, so a busy pool may warm fewer than ``jobs`` processes — the
        stragglers build on first task instead, which is correct, just
        colder.
        """
        return sum(
            self._pool.map(_warm_service_engine, [spec] * self.jobs, chunksize=1)
        )

    def close(self) -> None:
        self._pool.close()
        self._pool.join()

    def terminate(self) -> None:
        self._pool.terminate()
        self._pool.join()

    def __enter__(self) -> "ServicePool":
        return self

    def __exit__(self, *exc) -> None:
        self.terminate()


class ServiceCell:
    """One campaign's pool-compatible view of a :class:`ServicePool`."""

    def __init__(self, pool: ServicePool, spec: EngineSpec):
        self._pool = pool
        self.spec = spec

    def imap(self, schedule, chunksize: int = DEFAULT_CHUNKSIZE):
        return self._pool.imap_spec(self.spec, schedule, chunksize)

    def close(self) -> None:
        """No-op: the owning :class:`ServicePool` manages worker lifetime."""


def draw_experiment(
    injector: FaultInjector,
    runner: Runner,
    rng,
    bindings_factory: BindingsFactory | None = None,
) -> tuple[GoldenRun, int, int]:
    """Draw one experiment's ``(golden, k, bit)`` in the parent.

    Consumes the RNG stream exactly as :meth:`FaultInjector.experiment`
    does: ``k = rng.randint(1, n)`` then ``bit = rng.randrange(width_k)``.
    Raises the same :class:`~repro.errors.InjectionError` as the serial path
    for detector-tainted goldens and site-free programs.  Shared by the
    parallel scheduler and the store-recorded serial path, which both need
    the schedule triple *before* (or instead of) the faulty run.
    """
    from ..errors import InjectionError

    golden = injector.cached_golden(runner, bindings_factory)
    if golden.detector_fired:
        raise InjectionError(
            "detector fired during the golden run: the invariants are "
            "wrong or the program is miscompiled"
        )
    n = golden.dynamic_sites
    if n == 0:
        raise InjectionError(
            f"program exercised no dynamic fault sites in category "
            f"{injector.category!r}"
        )
    k = rng.randint(1, n)
    bit = rng.randrange(golden.site_widths[k - 1])
    return golden, k, bit


def make_schedule_entry(
    injector: FaultInjector,
    runner: Runner,
    rng,
    bindings_factory: BindingsFactory | None = None,
) -> ScheduledExperiment:
    """Draw one experiment's schedule entry in the parent (see
    :func:`draw_experiment` for the RNG-stream contract)."""
    from ..errors import InjectionError

    golden, k, bit = draw_experiment(injector, runner, rng, bindings_factory)
    params = getattr(runner, "params", None)
    if params is None:
        raise InjectionError(
            "parallel campaigns need runners that carry their input params "
            "(build them via Workload.build_runner / runner_factory)"
        )
    return ScheduledExperiment(
        params=params,
        k=k,
        bit=bit,
        golden_output=golden.output,
        dynamic_sites=golden.dynamic_sites,
        golden_dynamic_instructions=golden.dynamic_instructions,
    )
