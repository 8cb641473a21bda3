"""Campaign statistics against closed-form values, plus report rendering."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats as sps

import repro
from repro.analysis import (
    MixEntry,
    confidence_interval,
    estimate_rate,
    instruction_mix,
    is_near_normal,
    margin_of_error,
    pct,
    render_table,
    wilson_interval,
)


class TestMarginOfError:
    def test_matches_closed_form(self):
        samples = [0.10, 0.12, 0.08, 0.11, 0.09]
        n = len(samples)
        s = np.std(samples, ddof=1)
        t_star = sps.t.ppf(0.975, df=n - 1)
        assert margin_of_error(samples) == pytest.approx(t_star * s / math.sqrt(n))

    def test_constant_samples_zero_margin(self):
        assert margin_of_error([0.5] * 10) == 0.0

    def test_single_sample_infinite(self):
        assert margin_of_error([0.5]) == math.inf

    def test_higher_confidence_wider(self):
        samples = [0.1, 0.2, 0.15, 0.12, 0.18]
        assert margin_of_error(samples, 0.99) > margin_of_error(samples, 0.95)

    @given(
        st.lists(st.floats(0, 1), min_size=3, max_size=30),
    )
    def test_margin_nonnegative(self, samples):
        assert margin_of_error(samples) >= 0

    def test_paper_protocol_reachable(self):
        """20 campaigns of a tight-ish distribution reach ±3% at 95%."""
        rng = np.random.default_rng(0)
        samples = rng.normal(0.45, 0.05, 20)
        assert margin_of_error(samples) <= 0.03


class TestIntervals:
    def test_confidence_interval_centered(self):
        lo, hi = confidence_interval([0.4, 0.5, 0.6])
        assert lo < 0.5 < hi
        assert (lo + hi) / 2 == pytest.approx(0.5)

    def test_estimate_rate(self):
        est = estimate_rate([0.1, 0.2, 0.3])
        assert est.mean == pytest.approx(0.2)
        assert est.interval[0] < 0.2 < est.interval[1]
        assert "%" in str(est)

    def test_wilson_interval_contains_p(self):
        lo, hi = wilson_interval(30, 100)
        assert lo < 0.3 < hi
        assert 0.0 <= lo and hi <= 1.0

    def test_wilson_extreme_counts(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi < 0.15
        lo, hi = wilson_interval(50, 50)
        assert lo > 0.85 and hi == 1.0

    def test_wilson_no_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestNormality:
    def test_normal_samples_pass(self):
        rng = np.random.default_rng(1)
        assert is_near_normal(rng.normal(0.5, 0.1, 40))

    def test_bimodal_samples_fail(self):
        samples = [0.0] * 20 + [1.0] * 20
        assert not is_near_normal(samples)

    def test_degenerate_samples_pass(self):
        assert is_near_normal([0.5, 0.5, 0.5])
        assert is_near_normal([0.5, 0.6])  # too few to test


def scipy_margin(samples, confidence=0.95):
    """The margin of error as computed with scipy's t quantile."""
    x = np.asarray(samples, dtype=float)
    t_star = sps.t.ppf(0.5 + confidence / 2.0, df=x.size - 1)
    return float(t_star * x.std(ddof=1) / math.sqrt(x.size))


def scipy_near_normal(samples, alpha=0.05):
    return bool(sps.shapiro(samples).pvalue > alpha)


def grid_triples(denominator):
    """Every non-constant sorted triple of rates k/denominator."""
    grid = [k / denominator for k in range(denominator + 1)]
    return [
        t for t in itertools.combinations_with_replacement(grid, 3)
        if t[0] != t[2]
    ]


#: CI's extended job sets this to check the whole 1/100 grid (~177k triples).
_SHAPIRO_FULL_GRID = os.environ.get("REPRO_SHAPIRO_FULL_GRID") == "1"


class TestExactStatistics:
    """The committed quantiles and the n = 3 Shapiro-Wilk closed form agree
    with scipy, which stays the oracle here."""

    def test_t_table_equals_scipy(self):
        from repro.analysis.stats import _T_975

        assert len(_T_975) == 64
        for df, t_star in enumerate(_T_975, start=1):
            assert t_star == sps.t.ppf(0.975, df=df), df

    def test_z_equals_scipy(self):
        from repro.analysis.stats import _Z_975

        assert _Z_975 == sps.norm.ppf(0.975)

    def test_margin_equals_scipy_for_every_table_df(self):
        rng = np.random.default_rng(3)
        for n in range(2, 66):
            samples = rng.integers(0, 26, n) / 25
            assert margin_of_error(samples) == scipy_margin(samples), n

    def test_off_table_inputs_equal_scipy(self):
        rng = np.random.default_rng(4)
        samples = rng.integers(0, 26, 5) / 25
        assert margin_of_error(samples, 0.99) == scipy_margin(samples, 0.99)
        samples = rng.integers(0, 26, 101) / 25
        assert margin_of_error(samples) == scipy_margin(samples)

    def test_wilson_equals_scipy_z(self):
        for confidence in (0.95, 0.99):
            z = sps.norm.ppf(0.5 + confidence / 2.0)
            for k, n in ((0, 50), (3, 7), (30, 100), (50, 50)):
                p = k / n
                denom = 1 + z * z / n
                centre = (p + z * z / (2 * n)) / denom
                half = (z / denom) * math.sqrt(
                    p * (1 - p) / n + z * z / (4 * n * n)
                )
                assert wilson_interval(k, n, confidence) == (
                    max(0.0, centre - half), min(1.0, centre + half)
                )

    def test_shipped_configs_reach_only_table_df(self):
        from repro.analysis.stats import _T_975
        from repro.experiments.common import SCALES
        from repro.experiments.perf import MINI_CONFIG

        for config in [*SCALES.values(), MINI_CONFIG]:
            assert config.confidence == 0.95
            assert config.max_campaigns - 1 <= len(_T_975)

    @pytest.mark.parametrize("denominator", [8, 25])
    def test_shapiro_n3_decision_equals_scipy_on_grid(self, denominator):
        for triple in grid_triples(denominator):
            assert is_near_normal(triple) == scipy_near_normal(triple), triple

    def test_shapiro_n3_decision_equals_scipy_on_fine_grid(self):
        triples = grid_triples(100)
        if not _SHAPIRO_FULL_GRID:
            triples = Random(12).sample(triples, 2000)
        for triple in triples:
            assert is_near_normal(triple) == scipy_near_normal(triple), triple

    def test_shapiro_n3_ignores_sample_order(self):
        for triple in grid_triples(8):
            for perm in itertools.permutations(triple):
                assert is_near_normal(perm) == is_near_normal(triple)


def _scipy_modules_after_cli(args):
    """Run one CLI command in a fresh interpreter; return the exit code and
    the scipy modules it loaded."""
    probe = (
        "import json, sys\n"
        "from repro.experiments.__main__ import main\n"
        "rc = main(sys.argv[1:])\n"
        "mods = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([rc, mods]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", probe, *args],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_processes_do_not_load_scipy(tmp_path):
    """A quick-config campaign (3 campaigns, so the n = 3 Shapiro-Wilk
    runs), then ``report`` and ``verify`` of its store, load no scipy."""
    store = str(tmp_path / "store")
    for args in (
        ["submit", "--local", "--workload", "vcopy", "--category",
         "pure-data", "--scale", "quick", "--store", store],
        ["report", "--store", store, "--json"],
        ["verify", "--store", store],
    ):
        assert _scipy_modules_after_cli(args) == [0, []], args


class TestRenderTable:
    def test_alignment_and_rows(self):
        text = render_table(
            ["name", "value"], [["a", 1], ["long-name", 2.5]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2]
        assert any("long-name" in l for l in lines)
        assert any("2.500" in l for l in lines)

    def test_pct(self):
        assert pct(0.5) == "50.0%"
        assert pct(float("nan")) == "-"


class TestInstructionMix:
    def test_mix_entry_fraction(self):
        e = MixEntry(scalar=3, vector=1)
        assert e.total == 4
        assert e.vector_fraction == 0.25
        assert MixEntry().vector_fraction != MixEntry().vector_fraction  # NaN

    def test_mix_counts_instructions_once_per_category(self):
        from repro.frontend import compile_source

        m = compile_source(
            """
            export void k(uniform int a[], uniform int n) {
                foreach (i = 0 ... n) { a[i] = a[i] + 1; }
            }
            """,
            "avx",
        )
        mix = instruction_mix(m)
        assert set(mix) == {"pure-data", "control", "address"}
        # A vector kernel must have vector pure-data instructions...
        assert mix["pure-data"].vector > 0
        # ...and scalar loop-control instructions.
        assert mix["control"].scalar > 0

    def test_paper_shape_pure_data_more_vector_than_address(self):
        """Fig. 10's qualitative claim on every benchmark."""
        from repro.workloads import benchmark_workloads

        for w in benchmark_workloads():
            mix = instruction_mix(w.compile("avx"))
            pd = mix["pure-data"].vector_fraction
            addr = mix["address"].vector_fraction
            if addr == addr and pd == pd:  # both defined
                assert pd >= addr, w.name
