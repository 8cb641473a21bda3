"""One fresh process of the benchmark: a CLI command, or the set-up probe.

    python child.py cli --seed N [--trace FILE] -- CLI-ARGS...
    python child.py setup --experiment fig11|vecdiff [--benchmark NAME ...]

``cli`` assigns ``repro.experiments.common.BASE_SEED`` and calls the CLI's
``main``; the program sees only the cell seeds derived from it.  With
``--trace`` it wraps every layer's entry points first and writes self
times and counts to FILE when ``main`` returns.

``setup`` imports the CLI, then builds and warms the compiled engine of
every cell the experiment sweeps, through the public API, and exits
without running an experiment.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def run_cli(seed: int, trace: Path | None, args: list[str]) -> int:
    rec = None
    if trace is None:
        import repro.experiments.__main__ as cli
    else:
        import layers
        from spans import Recorder

        rec = Recorder()
        with rec.span("import"):
            import repro.experiments.__main__ as cli

            layers.install(rec)
    from repro.experiments import common

    common.BASE_SEED = seed
    try:
        if rec is not None and args[0] in ("report", "verify"):
            with rec.span(args[0]):
                return cli.main(args)
        return cli.main(args)
    finally:
        # Written even when the command raises: a failed sweep still
        # reports the layers it went through.
        if rec is not None:
            trace.write_text(json.dumps(rec.summary()))


def run_setup(experiment: str, benchmarks: list[str]) -> int:
    import repro.experiments.__main__  # noqa: F401 - the CLI, as a sweep loads it
    from repro.core.injector import FaultInjector
    from repro.experiments.common import CATEGORIES, TARGETS
    from workloads import ENGINE, cell_workloads

    for workload in cell_workloads(experiment, tuple(benchmarks)):
        for target in TARGETS:
            module = workload.compile(target)
            for category in CATEGORIES:
                FaultInjector(
                    module, category=category, step_limit=2_000_000,
                    engine=ENGINE,
                ).warm()
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    modes = parser.add_subparsers(dest="mode", required=True)
    cli = modes.add_parser("cli")
    cli.add_argument("--seed", type=int, required=True)
    cli.add_argument("--trace", type=Path)
    cli.add_argument("args", nargs=argparse.REMAINDER)
    setup = modes.add_parser("setup")
    setup.add_argument("--experiment", choices=("fig11", "vecdiff"), required=True)
    setup.add_argument("--benchmark", action="append", default=[])
    opts = parser.parse_args(argv)
    if opts.mode == "setup":
        return run_setup(opts.experiment, opts.benchmark)
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
    return run_cli(opts.seed, opts.trace, args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
