"""The outcome gate: every cell of a sweep, checked.

A cell fails when
- its outcome row differs from the stored reference of the instrumented
  engine, VULFI's IR-splicing reference semantics (when one exists for the
  seed; otherwise that check reports ``unchecked``);
- its row is malformed, or differs between sweeps of one run, or between
  the sweep and ``report``'s rebuild from the journal;
- its journal records or manifest differ from the same sweep at
  ``--jobs 1`` (durable workloads);
- a command of the sweep exits non-zero, which fails every cell.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

#: The outcome fields compared against the reference, per cell.
COMPARED = ("experiments", "campaigns", "sdc", "benign", "crash", "crash_kinds")

REFERENCES = Path(__file__).resolve().parent / "references"

#: Experiments per campaign of the CLI's scale presets.
PER_CAMPAIGN = {"smoke": 8, "quick": 25}


def cell_key(row: dict) -> str:
    return f"{row['benchmark']}/{row['target']}/{row['category']}"


def outcome(row: dict) -> dict:
    return {k: row[k] for k in COMPARED}


def reference_path(workload: str, seed: int, root: Path = REFERENCES) -> Path:
    return root / f"{workload}-{seed}.json"


def load_reference(workload: str, seed: int, root: Path = REFERENCES) -> dict | None:
    """Reference outcome rows by cell, or ``None`` when the seed has none."""
    path = reference_path(workload, seed, root)
    if not path.is_file():
        return None
    return {cell_key(r): r for r in json.loads(path.read_text())["rows"]}


def report_rows(path: Path) -> list[dict]:
    """The rows of one ``--json-dir`` report or ``report --json`` output."""
    return json.loads(path.read_text())["rows"]


class Gate:
    """Failed cells of one benchmark run, with the reason for each."""

    def __init__(self, cells: int):
        self.cells = cells
        self.failed: dict[str, str] = {}
        self.all_failed: str | None = None
        self.reference = "unchecked"

    @property
    def failed_count(self) -> int:
        return self.cells if self.all_failed else len(self.failed)

    def fail(self, cell: str, reason: str) -> None:
        self.failed.setdefault(cell, reason)

    def fail_all(self, reason: str) -> None:
        if self.all_failed is None:
            self.all_failed = reason

    def check_rows(self, rows: list[dict], scale: str) -> None:
        """Shape checks that hold at any seed."""
        if len(rows) != self.cells or len({cell_key(r) for r in rows}) != self.cells:
            self.fail_all(f"expected {self.cells} distinct cells, got {len(rows)} rows")
        per_campaign = PER_CAMPAIGN[scale]
        for row in rows:
            if row["campaigns"] < 1 or row["experiments"] != row["campaigns"] * per_campaign:
                self.fail(cell_key(row), f"{row['experiments']} experiments in "
                          f"{row['campaigns']} campaigns of {per_campaign}")
            elif abs(row["sdc"] + row["benign"] + row["crash"] - 1.0) > 1e-9:
                self.fail(cell_key(row), "outcome rates do not sum to 1")

    def check_same(self, rows: list[dict], expected: list[dict], what: str) -> None:
        """Rows that must equal ``expected`` cell by cell."""
        want = {cell_key(r): outcome(r) for r in expected}
        for row in rows:
            if want.get(cell_key(row)) != outcome(row):
                self.fail(cell_key(row), f"differs from {what}")

    def check_reference(self, rows: list[dict], reference: dict | None, seed: int) -> None:
        if reference is None:
            self.reference = f"unchecked (no reference for seed {seed})"
            return
        bad = 0
        for row in rows:
            ref = reference.get(cell_key(row))
            got = outcome(row)
            if ref is None or outcome(ref) != got:
                bad += 1
                diff = (
                    "no reference row" if ref is None else ", ".join(
                        f"{k} {got[k]} vs {ref[k]}" for k in COMPARED if got[k] != ref[k]
                    )
                )
                self.fail(cell_key(row), f"instrumented reference: {diff}")
        self.reference = f"{'FAILED' if bad else 'passed'} ({bad} of {len(rows)} cells differ)"

    def check_parity(self, store: Path, serial: Path) -> None:
        """The store must be byte-identical to the ``--jobs 1`` store."""
        if store_digest(store) == store_digest(serial):
            return
        got, want = campaign_lines(store), campaign_lines(serial)
        cells = cells_of(store) | cells_of(serial)
        differing = [key for key in got.keys() | want.keys() if got.get(key) != want.get(key)]
        if not differing:
            self.fail_all("journal order differs from --jobs 1")
        for key in differing:
            self.fail(cells.get(key, key), "journal differs from --jobs 1")


STORE_FILES = ("journal.jsonl", "manifests.jsonl")


def store_digest(store: Path) -> str:
    digest = hashlib.sha256()
    for name in STORE_FILES:
        path = store / name
        digest.update(name.encode() + b"\0")
        digest.update(path.read_bytes() if path.is_file() else b"<missing>")
    return digest.hexdigest()


def _records(path: Path):
    if not path.is_file():
        return
    for line in path.read_bytes().splitlines():
        _crc, _, body = line.partition(b" ")
        yield line, json.loads(body)


def campaign_lines(store: Path) -> dict[str, list[bytes]]:
    """Raw journal and manifest lines of each campaign, in file order."""
    out: dict[str, list[bytes]] = {}
    for name in STORE_FILES:
        for line, record in _records(store / name):
            key = record.get("campaign") or record.get("campaign_key") or ""
            out.setdefault(key, []).append(line)
    return out


def cells_of(store: Path) -> dict[str, str]:
    """Campaign key -> cell name, from the store's manifests."""
    return {
        record["campaign_key"]: cell_key(record["cell"])
        for _line, record in _records(store / "manifests.jsonl")
        if "campaign_key" in record and "cell" in record
    }
