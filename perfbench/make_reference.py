"""Build the outcome reference of a workload with the instrumented engine.

    python3 perfbench/make_reference.py --workload NAME [--seed N]

Run from the root of a checkout.  Runs the workload's sweep once with
``--engine instrumented`` (serially, without a store: neither changes an
outcome) and writes ``references/<workload>-<seed>.json``, the rows that
``run.py`` holds every compiled-engine sweep of that seed to.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gate import COMPARED, REFERENCES, reference_path, report_rows  # noqa: E402
from workloads import BASE_SEED, WORKLOADS  # noqa: E402

KEYS = ("benchmark", "target", "category")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/make_reference.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=BASE_SEED)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    (root / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".perfbench") as tmp:
        out = Path(tmp)
        cli = workload.sweep_args(out, None, engine="instrumented", jobs=1)
        subprocess.run(
            [sys.executable, str(HERE / "child.py"), "cli", "--seed",
             str(args.seed), "--", *cli],
            cwd=root, env=env, stdout=subprocess.DEVNULL, check=True,
        )
        rows = report_rows(out / f"{workload.experiment}.json")
    REFERENCES.mkdir(exist_ok=True)
    path = reference_path(workload.name, args.seed)
    path.write_text(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "engine": "instrumented",
        "cli": cli[:cli.index("--json-dir")],
        "rows": [{k: r[k] for k in (*KEYS, *COMPARED)} for r in rows],
    }, indent=1) + "\n")
    print(f"{path}: {len(rows)} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
