"""Whole sweeps at ``--jobs 2`` against ``--jobs 1``, byte for byte.

A sweep's worker pool runs whole cells and only the parent writes the
store, so rows, ``journal.jsonl`` and ``manifests.jsonl`` must equal the
serial run's — clean, resumed after ``--abort-after``, and when a cell
fails partway.
"""

import json
import os

import pytest

from repro.core.injector import FaultInjector
from repro.errors import InjectionError
from repro.experiments import fig11, vecdiff
from repro.experiments.__main__ import main
from repro.store import CampaignStore
from repro.store.journal import Journal

#: The CLI arguments of one small sweep per experiment.
SWEEPS = {
    "vecdiff": ["vecdiff", "--scale", "smoke", "--benchmark", "gen-map0"],
    "fig11": ["fig11", "--scale", "smoke", "--benchmark", "blackscholes"],
    "fig12": ["fig12", "--scale", "smoke"],
}


def _store_bytes(store) -> dict:
    return {
        name: (store / name).read_bytes()
        for name in ("journal.jsonl", "manifests.jsonl")
    }


def _rows(out) -> list:
    return json.loads(next(out.glob("*.json")).read_text())["rows"]


def _sweep(tmp_path, capsys, name, args, *extra):
    store, out = tmp_path / f"{name}_store", tmp_path / f"{name}_out"
    code = main(args + ["--store", str(store), "--json-dir", str(out), *extra])
    capsys.readouterr()
    return code, store, out


@pytest.mark.parametrize("experiment", sorted(SWEEPS))
def test_jobs2_sweep_equals_serial_clean_and_resumed(tmp_path, capsys, experiment):
    args = SWEEPS[experiment]
    code, serial, serial_out = _sweep(tmp_path, capsys, "serial", args)
    assert code == 0
    code, parallel, parallel_out = _sweep(
        tmp_path, capsys, "parallel", args, "--jobs", "2"
    )
    assert code == 0
    assert _rows(parallel_out) == _rows(serial_out)
    assert _store_bytes(parallel) == _store_bytes(serial)

    code, crashed, _ = _sweep(
        tmp_path, capsys, "crashed", args, "--jobs", "2", "--abort-after", "5"
    )
    assert code == 3
    resumed_out = tmp_path / "resumed_out"
    assert main(["resume", "--store", str(crashed), "--jobs", "2",
                 "--json-dir", str(resumed_out)]) == 0
    capsys.readouterr()
    assert _rows(resumed_out) == _rows(serial_out)
    assert _store_bytes(crashed) == _store_bytes(serial)


def test_abort_after_under_workers_leaves_the_serial_store(tmp_path, capsys):
    """Also with four workers, more than a two-core machine has cores."""
    args = SWEEPS["vecdiff"]
    stores = {}
    for jobs in ("1", "2", "4"):
        code, stores[jobs], _ = _sweep(
            tmp_path, capsys, f"j{jobs}", args, "--jobs", jobs,
            "--abort-after", "5",
        )
        assert code == 3
    assert _store_bytes(stores["2"]) == _store_bytes(stores["1"])
    assert _store_bytes(stores["4"]) == _store_bytes(stores["1"])


def test_cell_failure_at_jobs2_journals_like_serial(tmp_path, monkeypatch):
    """The first control cell raises at its third faulty run: the cells
    before it and its first two experiments are journaled, nothing after,
    and the same exception type reaches the caller."""
    faulty = FaultInjector.faulty

    def failing_faulty(self, *args, **kwargs):
        if self.category == "control":
            self.calls = getattr(self, "calls", 0) + 1
            if self.calls == 3:
                raise InjectionError("injected mid-cell failure")
        return faulty(self, *args, **kwargs)

    monkeypatch.setattr(FaultInjector, "faulty", failing_faulty)
    journals = {}
    for jobs in (1, 2):
        root = tmp_path / f"j{jobs}"
        with CampaignStore(root) as store:
            with pytest.raises(InjectionError, match="mid-cell"):
                vecdiff.run("smoke", benchmarks=["gen-map0"], jobs=jobs,
                            store=store)
        journals[jobs] = _store_bytes(root)
    assert journals[2] == journals[1]
    assert journals[1]["journal.jsonl"].count(b"\n") == 8 + 2


def test_only_the_parent_writes_the_store(tmp_path, monkeypatch):
    parent = os.getpid()
    for name in ("append", "flush"):
        original = getattr(Journal, name)

        def checked(self, *args, _original=original, **kwargs):
            assert os.getpid() == parent, "a sweep worker wrote the store"
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Journal, name, checked)
    with CampaignStore(tmp_path / "store") as store:
        report = fig11.run("smoke", benchmarks=["blackscholes"], jobs=2,
                           store=store)
    assert len(report.rows) == 6
    assert (tmp_path / "store" / "journal.jsonl").read_bytes().count(b"\n") == 48
