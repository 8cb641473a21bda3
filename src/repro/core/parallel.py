"""Deterministic parallel execution, at two grains.

**Sweeps parallelise by cell.**  The paper's protocol (§IV-D) runs every
(benchmark, ISA, category) cell as its own campaign with its own seed, so
the cells of fig11/fig12/vecdiff are independent by construction.
:func:`run_sweep` forks a :class:`SweepPool` once; each worker runs whole
cells on the unchanged serial path with the engine it inherited through
fork, and the parent journals each cell's buffered store operations in
cell order — so journals are byte-identical to serial at any ``--jobs``.

**The ``serve`` daemon parallelises by experiment.**  The paper's
experiments are independent (input, site ``k``, bit) triples, but naive
fan-out would give each worker its own RNG and change the published
numbers.  Here the *parent* pre-draws the complete schedule with the one
campaign ``Random(seed)`` stream (input draw, then ``k ~ U{1..N}``, then
the bit from the golden run's recorded site width — exactly the serial
draw order), and workers only execute the faulty halves.  Results come
back in schedule order, so a campaign summary is bit-identical to serial
execution at any ``--jobs``.  The daemon's :class:`ServicePool` forks
before any campaign exists, so every task carries an :class:`EngineSpec`
and each worker builds the engine it names once, from the registry, and
keeps it for every later campaign on that spec.  Golden runs stay in the
parent where the input-keyed cache lives; with ``Pool.imap`` over a lazy
schedule generator they overlap with worker faulty runs.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

from .injector import BindingsFactory, FaultInjector, GoldenRun, Runner
from .outcomes import ExperimentResult


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

    A spec is a few strings: :meth:`build` compiles the named registry
    workload and enumerates its sites, both deterministic, so every process
    that builds a spec gets a bit-identical engine.  That makes specs cheap
    enough to ride along with *every* task, which is what lets one
    persistent pool serve campaigns that did not exist when the pool
    forked: a worker receiving a spec it has never seen builds the engine
    once, caches it, and every later campaign on the same spec — any
    tenant, any seed — reuses it warm.
    """

    workload: str
    target: str
    category: str
    engine: str = "direct"
    step_limit: int = 2_000_000

    def build(self) -> FaultInjector:
        """A fresh injector for this spec, every function decoded (and, for
        ``engine="compiled"``, code-generated) so no run pays for it."""
        from ..workloads.registry import get_workload

        injector = FaultInjector(
            get_workload(self.workload).compile(self.target),
            category=self.category,
            step_limit=self.step_limit,
            engine=self.engine,
        )
        injector.warm()
        return injector


#: Service-mode worker state: engines built on first use and kept warm for
#: every later campaign with the same spec (the handoff the campaign
#: service's warm-submission speedup rests on).  Maps EngineSpec ->
#: FaultInjector; lives for the worker process's whole life.
_service_engines: dict = {}


def _run_service_task(keyed_task) -> ExperimentResult:
    """Worker side of one scheduled experiment: its faulty half only.

    The golden run is rebuilt from the parent's schedule entry instead of
    executed, so a worker never repeats the parent's golden work.
    """
    from ..workloads.registry import build_runner

    spec, task = keyed_task
    injector = _service_engines.get(spec)
    if injector is None:
        injector = _service_engines[spec] = spec.build()
    golden = GoldenRun(
        output=task.golden_output,
        dynamic_sites=task.dynamic_sites,
        dynamic_instructions=task.golden_dynamic_instructions,
        detector_fired=False,
    )
    return injector.faulty(
        build_runner(spec.workload, task.params), golden, task.k, bit=task.bit
    )


class ServicePool:
    """One persistent worker pool shared by every campaign of a service.

    A service cannot know its future submissions, so its pool forks
    *empty* and workers build engines lazily from the :class:`EngineSpec`
    riding along with each task, keeping them cached across campaigns and
    tenants.  Concurrent ``imap`` calls from different scheduler threads
    are safe — ``multiprocessing.Pool`` serializes its task queue — and
    results of each campaign still stream back in that campaign's schedule
    order.
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
    """One campaign's view of a :class:`ServicePool`: the pool argument of
    :func:`~repro.core.campaign.run_campaigns`.  The owning pool manages
    worker lifetime."""

    def __init__(self, pool: ServicePool, spec: EngineSpec):
        self._pool = pool
        self.spec = spec

    def imap(self, schedule, chunksize: int = DEFAULT_CHUNKSIZE):
        return self._pool.imap_spec(self.spec, schedule, chunksize)


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
