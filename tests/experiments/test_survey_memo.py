"""The Figures 4 + 5 survey results live in the process memo."""

from repro.config import table1_config
from repro.experiments import common, fig04_05_utilization
from repro.workloads.survey import make_survey_suite

SCALE = 0.02


def test_survey_results_are_memoized_until_clear_cache(synthetic):
    fig04_05_utilization.run(SCALE)
    keys = [
        common.cache_key(app.name, table1_config(), SCALE)
        for app in make_survey_suite(scale=SCALE)
    ]
    assert all(common.lookup(key, None) is not None for key in keys)
    common.clear_cache()
    assert not any(common.lookup(key, None) for key in keys)
