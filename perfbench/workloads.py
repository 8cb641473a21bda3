"""The benchmark's workloads: which CLI commands a sweep runs, on which cells.

Every workload passes ``--engine compiled`` explicitly, so the measured
program stays fixed when the CLI's default engine changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: The CLI's own default seed; the stored references are keyed by it.
BASE_SEED = 20160516

ENGINE = "compiled"


@dataclass(frozen=True)
class Workload:
    name: str
    #: The CLI experiment the sweep runs (``fig11`` or ``vecdiff``).
    experiment: str
    scale: str
    #: Cells (outcome rows) one sweep produces.
    cells: int
    jobs: int = 1
    #: Journal the sweep into a fresh store, then run ``report`` and
    #: ``verify`` on it, and hold it to the ``--jobs 1`` journal.
    durable: bool = False
    #: ``--benchmark`` filter; empty means every benchmark (tests shrink
    #: workloads with it).
    benchmarks: tuple[str, ...] = ()

    def sweep_args(self, out: Path, store: Path | None, engine: str = ENGINE,
                   jobs: int | None = None) -> list[str]:
        args = [
            self.experiment, "--scale", self.scale, "--engine", engine,
            "--jobs", str(self.jobs if jobs is None else jobs),
            "--json-dir", str(out),
        ]
        for name in self.benchmarks:
            args += ["--benchmark", name]
        if store is not None:
            args += ["--store", str(store)]
        return args

    def commands(self, out: Path, store: Path) -> list[list[str]]:
        """The CLI argument lists of one timed sweep, in order."""
        if not self.durable:
            return [self.sweep_args(out, None)]
        return [
            self.sweep_args(out, store),
            ["report", "--store", str(store), "--json"],
            ["verify", "--store", str(store)],
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig11-smoke", "fig11", "smoke", cells=54),
        Workload("fig11-quick", "fig11", "quick", cells=54),
        Workload("vecdiff-quick", "vecdiff", "quick", cells=72),
        Workload("vecdiff-durable", "vecdiff", "quick", cells=72, jobs=2,
                 durable=True),
    )
}


def cell_workloads(experiment: str, benchmarks: tuple[str, ...] = ()) -> list:
    """The registry workloads an ``experiment`` sweep covers (imports repro)."""
    if experiment == "fig11":
        from repro.workloads.registry import benchmark_workloads

        found = benchmark_workloads()
        names = [w.name for w in found]
    else:
        from repro.workloads.generated import form_pairs

        found, names = [], []
        for base, hand, auto in form_pairs():
            found += [hand, auto]
            names += [base, base]
    if not benchmarks:
        return found
    return [
        w for w, base in zip(found, names)
        if w.name in benchmarks or base in benchmarks
    ]
