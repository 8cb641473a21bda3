"""Shared experiment machinery: scales, seeds, result containers.

Every experiment is deterministic given (scale, seed): per-cell RNGs are
derived from a stable hash of the cell coordinates, so partial reruns
reproduce the same numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..core.campaign import CampaignConfig

#: Experiment scale presets.  The paper runs 20 campaigns x 100 experiments
#: per cell (108,000 total injections for Fig. 11); the reduced presets keep
#: the estimator identical and shrink only the sample budget.
SCALES: dict[str, CampaignConfig] = {
    "smoke": CampaignConfig(experiments_per_campaign=8, max_campaigns=1, min_campaigns=1),
    "quick": CampaignConfig(experiments_per_campaign=25, max_campaigns=3, min_campaigns=2),
    "full": CampaignConfig(experiments_per_campaign=100, max_campaigns=20, min_campaigns=3),
}

#: Per-category experiment counts for the Fig. 12 micro-benchmark study
#: (the paper uses 2000 per micro-benchmark per category).
FIG12_EXPERIMENTS = {"smoke": 40, "quick": 150, "full": 2000}

#: Golden-run samples per benchmark for Table I's average dynamic counts.
TABLE1_SAMPLES = {"smoke": 2, "quick": 5, "full": 20}

TARGETS = ("avx", "sse")
CATEGORIES = ("pure-data", "control", "address")

BASE_SEED = 20160516  # the venue's year+month, fixed once


def cell_seed(*coords) -> int:
    """A stable 32-bit seed for one experiment cell."""
    text = ":".join(str(c) for c in (BASE_SEED, *coords))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


@dataclass
class ExperimentReport:
    """A rendered experiment: table text plus machine-readable rows."""

    name: str
    scale: str
    headers: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, default=str)

    def save(self, path: str | Path) -> None:
        """Write the report atomically: a crash mid-save never leaves a
        half-written ``results/*.json`` behind (the reader sees either the
        old file or the complete new one)."""
        path = Path(path)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as f:
                f.write(self.to_json())
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
