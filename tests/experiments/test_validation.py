"""Unit tests for the validation checklists (fed synthetic results)."""

import pytest

from repro.experiments.common import ExperimentResult
from repro.experiments.validation import (
    Check,
    VALIDATORS,
    render_checklist,
    validate,
    validate_dedup,
    validate_fig11,
    validate_fig13b,
    validate_fig16c,
    validate_lookup_order,
    validate_packing,
)
from repro.experiments.report import ALL_EXPERIMENTS

#: Scale of the synthetic harness runs (as in ``test_table_pins.py``).
SCALE = 0.02


def diverged(checks):
    """The claims that render as DIVERGE."""
    return [check.claim for check in checks if not check.passed]


def fig13b_result(combined=1.45, lds=1.30, icache=1.35, hm=1.70, gups=1.05,
                  atax=2.2, bicg=2.1, low=1.0):
    result = ExperimentResult("Figure 13b", "t")
    apps = {
        "ATAX": atax, "GEV": 2.0, "MVT": 1.9, "BICG": bicg, "GUPS": gups,
        "NW": 1.08, "BFS": 1.5, "SSSP": low, "PRK": low, "SRAD": low,
    }
    for app, value in apps.items():
        result.rows.append(
            {"app": app, "lds": value * 0.9, "icache": value * 0.95,
             "icache+lds": value}
        )
    result.rows.append(
        {"app": "GMEAN", "lds": lds, "icache": icache, "icache+lds": combined}
    )
    result.rows.append(
        {"app": "GMEAN-H+M", "lds": lds, "icache": icache, "icache+lds": hm}
    )
    return result


class TestFig13bChecklist:
    def test_good_result_passes(self):
        checks = validate_fig13b(fig13b_result())
        assert all(check.passed for check in checks)

    def test_degraded_low_app_flagged(self):
        checks = validate_fig13b(fig13b_result(low=0.90))
        failed = [check for check in checks if not check.passed]
        assert any("not degraded" in check.claim for check in failed)

    def test_weak_combined_flagged(self):
        checks = validate_fig13b(fig13b_result(combined=1.05, hm=1.10))
        assert any(not check.passed for check in checks)


def fig16c_result(ducati, icache_lds, ducati_icache_lds):
    result = ExperimentResult("Figure 16c", "t")
    result.rows.append(
        {"app": "SRAD", "ducati": 1.0, "icache_lds": 1.0,
         "ducati_icache_lds": 1.0}
    )
    result.rows.append(
        {"app": "GMEAN", "ducati": ducati, "icache_lds": icache_lds,
         "ducati_icache_lds": ducati_icache_lds}
    )
    return result


class TestFig16cChecklist:
    def test_ducati_ordering(self):
        checks = validate_fig16c(fig16c_result(1.05, 1.45, 1.55))
        assert all(check.passed for check in checks)

    def test_ducati_too_strong_flagged(self):
        checks = validate_fig16c(fig16c_result(2.0, 1.45, 2.1))
        assert not checks[0].passed


def fig11_result(util_means):
    result = ExperimentResult("Figure 11", "t")
    for app, mean in util_means.items():
        result.rows.append(
            {"app": app, "launches": 2, "b2b": app == "NW",
             "util_series_head": [mean, mean], "util_mean": mean}
        )
    return result


def lookup_order_result(lds_first, icache_first):
    result = ExperimentResult("Ablation: lookup order", "t")
    result.rows.append({"order": "lds-first", "gmean_speedup": lds_first})
    result.rows.append({"order": "icache-first", "gmean_speedup": icache_first})
    return result


def packing_result(*speedups):
    result = ExperimentResult("Ablation: I-cache packing", "t")
    for density, speedup in zip((1, 2, 4, 8, 16), speedups):
        result.rows.append(
            {"tx_per_line": density, "total_ic_entries": density * 512,
             "gmean_speedup": speedup}
        )
    return result


def dedup_result(gmean_plain=1.40, gmean_dedup=1.45, atax_gain=0.05,
                 gev_skipped=10):
    result = ExperimentResult("Extension: dedup filter", "t")
    for app, gain, skipped in (
        ("ATAX", atax_gain, 1000), ("GEV", 0.0, gev_skipped),
        ("MVT", -0.01, 500), ("BICG", -0.01, 500),
    ):
        result.rows.append(
            {"app": app, "icache_lds": 2.0, "icache_lds_dedup": 2.0 + gain,
             "lds_fills_skipped": skipped}
        )
    result.rows.append(
        {"app": "GMEAN", "icache_lds": gmean_plain,
         "icache_lds_dedup": gmean_dedup}
    )
    return result


#: (validator, hand-built result, the claims that must read DIVERGE) for
#: the validators of Figure 11 and the two ablations and the extension:
#: a paper-shaped result first, then one breaking each ported condition.
HAND_BUILT = [
    pytest.param(validate_fig11, fig11_result({"ATAX": 0.4, "NW": 0.78}), [],
                 id="fig11-headroom"),
    pytest.param(validate_fig11, fig11_result({"ATAX": 0.4, "NW": 1.0}),
                 ["no app fills the I-cache on every launch (flush headroom)"],
                 id="fig11-full-on-every-launch"),
    pytest.param(validate_lookup_order, lookup_order_result(1.50, 1.52), [],
                 id="order-competitive"),
    pytest.param(validate_lookup_order, lookup_order_result(1.10, 1.12),
                 ["both orders win big"], id="order-weak"),
    pytest.param(validate_lookup_order, lookup_order_result(1.30, 1.40),
                 ["the paper's LDS-first order is at least competitive "
                  "(2-cycle private probe)"], id="order-lds-first-behind"),
    pytest.param(validate_packing, packing_result(1.02, 1.10, 1.25, 1.40, 1.45),
                 [], id="packing-diminishing"),
    pytest.param(validate_packing, packing_result(1.20, 1.25, 1.30, 1.45, 1.50),
                 ["one translation per line gains ~nothing (Figure 8b)"],
                 id="packing-one-per-line-wins"),
    pytest.param(validate_packing, packing_result(1.10, 1.12, 1.15, 1.20, 1.22),
                 ["eight per line delivers most of the benefit"],
                 id="packing-eight-adds-little"),
    pytest.param(validate_packing, packing_result(1.02, 1.10, 1.40, 1.30, 1.35),
                 ["gains rise up to eight per line"], id="packing-non-monotone"),
    # Scale 1.0 today: 16 per line gives 2.009 against 1.678 at 8.
    pytest.param(validate_packing, packing_result(1.04, 1.10, 1.25, 1.678, 2.009),
                 ["returns diminish past eight per line"],
                 id="packing-returns-keep-growing"),
    pytest.param(validate_dedup, dedup_result(), [], id="dedup-helps"),
    # Scale 1.0 today: 1.471 with the filter against 1.512 without.
    pytest.param(validate_dedup, dedup_result(gmean_plain=1.512, gmean_dedup=1.471),
                 ["the filter does not hurt overall"], id="dedup-hurts"),
    pytest.param(validate_dedup, dedup_result(atax_gain=-0.02),
                 ["it helps a shared-heavy High app"], id="dedup-helps-no-one"),
    pytest.param(validate_dedup, dedup_result(gev_skipped=2000),
                 ["CU-partitioned GEV skips fewer LDS fills than ATAX"],
                 id="dedup-gev-filtered"),
]


@pytest.mark.parametrize("validator,result,claims", HAND_BUILT)
def test_hand_built_result(validator, result, claims):
    checks = validator(result)
    assert diverged(checks) == claims
    rendered = render_checklist(checks)
    assert rendered.count("| DIVERGE |") == len(claims)


@pytest.fixture(scope="module")
def harness_results(synthetic):
    return [runner(SCALE) for _, runner in ALL_EXPERIMENTS]


class TestEveryHarness:
    def test_no_validator_raises(self, harness_results):
        # A renamed column or row key raises here (KeyError).
        checks = validate(harness_results)
        assert len(checks) >= len(VALIDATORS)
        assert all(isinstance(check.passed, bool) for check in checks)
        assert all(check.detail for check in checks)

    def test_every_harness_but_subregion_has_a_checklist(self, harness_results):
        # An id drift would silently drop a checklist from the report.
        produced = {result.experiment_id for result in harness_results}
        assert set(VALIDATORS) == produced - {"Subregion coalescing"}


class TestPlumbing:
    def test_validators_cover_every_experiment(self):
        # Every harness in the report has a checklist (by experiment id).
        known_ids = set(VALIDATORS)
        # ids used by the runners, spot-checked by name mapping:
        assert "Figure 13b" in known_ids
        assert "Section 6.3.1" in known_ids
        # Only the subregion coalescing study is descriptive.
        assert len(known_ids) == 18

    def test_validate_skips_unknown_ids(self):
        result = ExperimentResult("Figure 999", "t")
        assert validate([result]) == []

    def test_render_checklist(self):
        checks = [
            Check("Fig X", "claim holds", True, "detail"),
            Check("Fig Y", "claim fails", False),
        ]
        text = render_checklist(checks)
        assert "PASS" in text and "DIVERGE" in text
        assert "1/2 claims reproduced" in text
