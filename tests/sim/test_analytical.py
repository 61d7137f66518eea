"""Validation battery for the analytical estimator (:mod:`repro.sim.analytical`).

The estimator replays each wave's deterministic instruction stream through
the *real* capacity/replacement structures with timing stripped, then
applies a closed-form roofline latency model. Acceptance criterion:
estimated PTW-PKI within ±15% of the simulator across the Figure 13
grid. Because the reach model reuses the simulator's own structures, the
measured error is far tighter (MAPE ~0.2%, worst ~0.7% at the battery
scale), so alongside the required ±15% per-job bound we pin a 5% aggregate
MAPE bound to catch regressions in the replay logic long before they
would breach the acceptance threshold.

Jobs whose simulated walk count is tiny (< ``MIN_WALKS``) are excluded
from the *relative* PTW-PKI bounds — a handful of absolute walks of noise
is a huge relative error on a near-zero denominator — but still assert
exact instruction counts, which must match the simulator for every job.
"""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.config import TxScheme, table1_config
from repro.experiments import common
from repro.experiments.fig13_main import sweep_jobs as fig13_sweep_jobs
from repro.sim.analytical import (
    SERVICE_LEVELS,
    estimate_app,
    estimate_speedups,
)
from repro.system import GPUSystem
from repro.workloads.registry import make_app

SCALE = 0.02

#: Minimum simulated page walks for a job's *relative* PTW-PKI error to be
#: meaningful (below this, a few walks of slack dominate the ratio).
MIN_WALKS = 200

#: ISSUE acceptance bound (per job) and the regression-pinning aggregate.
PER_JOB_BOUND = 0.15
MAPE_BOUND = 0.05


@pytest.fixture(autouse=True)
def _memory_only_cache(monkeypatch):
    monkeypatch.setattr(common, "_CACHE_DIR", "")
    common.clear_cache()
    yield
    common.clear_cache()


def _simulate(app_name, config, scale=SCALE):
    app = make_app(app_name, scale=scale, page_size=config.page_size)
    return GPUSystem(config).run(app)


def _grid_jobs():
    """Every application once, rotating through the fig13 scheme variants."""

    jobs = fig13_sweep_jobs(scale=SCALE)
    apps = list(dict.fromkeys(job.app_name for job in jobs))
    per_app = {name: [j for j in jobs if j.app_name == name] for name in apps}
    return [
        variants[index % len(variants)]
        for index, variants in enumerate(per_app[name] for name in apps)
    ]


def _job_id(job):
    return f"{job.app_name}-{job.config.scheme.value}"


_ERRORS = {}  # populated by the per-job tests, consumed by the MAPE test


class TestFig13Validation:
    """Per-job accuracy across the fig13 diagonal, plus the aggregate."""

    @pytest.mark.parametrize("job", _grid_jobs(), ids=_job_id)
    def test_job_accuracy(self, job):
        sim = _simulate(job.app_name, job.config, job.scale)
        est = estimate_app(job.app_name, job.config, job.scale)

        # Instruction counts come from the same deterministic wave
        # programs — any drift means the replay walked a different stream.
        assert est.instructions == sim.instructions

        if sim.page_walks >= MIN_WALKS:
            error = abs(est.ptw_pki - sim.ptw_pki) / sim.ptw_pki
            _ERRORS[_job_id(job)] = error
            assert error <= PER_JOB_BOUND, (
                f"{_job_id(job)}: est {est.ptw_pki:.2f} vs "
                f"sim {sim.ptw_pki:.2f} ({100 * error:.1f}% off)"
            )
        else:
            # Near-zero-walk jobs: the estimator must agree it is tiny.
            assert est.page_walks < MIN_WALKS

    def test_aggregate_mape(self):
        assert _ERRORS, "per-job tests must run first (collection order)"
        mape = sum(_ERRORS.values()) / len(_ERRORS)
        assert mape <= MAPE_BOUND, (
            f"MAPE {100 * mape:.2f}% over {len(_ERRORS)} jobs; "
            f"worst: {max(_ERRORS, key=_ERRORS.get)}"
        )


class TestSchemeCoverage:
    """Schemes the fig13 diagonal may miss: DUCATI pools and the perfect
    bound exercise distinct estimator paths (pool collapse, perfect flag)."""

    @pytest.mark.parametrize(
        "scheme",
        [TxScheme.DUCATI, TxScheme.DUCATI_ICACHE_LDS, TxScheme.PERFECT_L2_TLB],
        ids=lambda s: s.value,
    )
    def test_scheme_accuracy(self, scheme):
        config = table1_config(scheme)
        sim = _simulate("GEV", config)
        est = estimate_app("GEV", config, SCALE)
        assert est.instructions == sim.instructions
        assert sim.page_walks >= MIN_WALKS  # GEV walks heavily at 0.02
        error = abs(est.ptw_pki - sim.ptw_pki) / sim.ptw_pki
        assert error <= PER_JOB_BOUND

    def test_perfect_l2_walks_only_compulsory(self):
        # "Perfect" means infinite capacity: every page still takes its
        # compulsory walk, but capacity misses vanish, so the perfect
        # bound can never walk more than the finite baseline.
        base = estimate_app("GEV", table1_config(), SCALE)
        perfect = estimate_app(
            "GEV", table1_config(TxScheme.PERFECT_L2_TLB), SCALE
        )
        assert 0 < perfect.page_walks <= base.page_walks
        assert perfect.serviced["l2_tlb"] >= base.serviced["l2_tlb"]


class TestEstimateInvariants:
    """Structural sanity independent of the simulator."""

    def test_serviced_partitions_translations(self):
        est = estimate_app("NW", table1_config(TxScheme.ICACHE_LDS), SCALE)
        assert set(est.serviced) == set(SERVICE_LEVELS)
        assert sum(est.serviced.values()) == est.translations
        assert est.translations > 0
        assert est.est_cycles > 0
        assert 1 <= est.peak_waves_per_cu <= 40

    def test_speedup_directionality(self):
        """The estimator must rank the paper's schemes the same way the
        simulator does at the gmean level: reach schemes help apps that
        walk. Bound the absolute speedup disagreement loosely — the
        roofline is a model, not a cycle-accurate account."""

        schemes = (TxScheme.LDS_ONLY, TxScheme.ICACHE_LDS)
        est = estimate_speedups("GEV", schemes, SCALE)
        base = _simulate("GEV", table1_config())
        for scheme in schemes:
            sim_speedup = base.cycles / _simulate(
                "GEV", table1_config(scheme)
            ).cycles
            assert sim_speedup > 1.0  # GEV benefits in the simulator...
            assert est[scheme.value] > 1.0  # ...and the estimator agrees
            assert abs(est[scheme.value] - sim_speedup) <= 0.15


class TestEstimateCLI:
    """`repro estimate` end-to-end, including --compare."""

    def test_estimate_table2(self, capsys):
        assert cli.main(
            ["estimate", "table2", "--scale", "0.01", "--apps", "NW"]
        ) == 0
        out = capsys.readouterr().out
        assert "est_ptw_pki" in out
        assert "NW" in out

    def test_estimate_fig13_compare_json(self, capsys, tmp_path):
        out_path = tmp_path / "est.json"
        assert cli.main(
            [
                "estimate", "fig13",
                "--scale", "0.01",
                "--apps", "NW",
                "--compare",
                "--json", str(out_path),
            ]
        ) == 0
        rows = json.loads(out_path.read_text())["rows"]
        data = [r for r in rows if r.get("app") not in (None, "GMEAN")]
        assert data
        for row in data:
            assert "est_ptw_pki" in row and "sim_ptw_pki" in row
