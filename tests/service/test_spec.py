"""Job-spec validation, canonicalization, and grid expansion."""

from dataclasses import fields

import pytest

from repro.config import TxScheme
from repro.experiments.report import SWEEP_GRIDS
from repro.schemes import scheme_names
from repro.service.jobs import (
    KNOWN_FIELDS,
    SpecError,
    expand_spec,
    spec_key,
    valid_figures,
    validate_spec,
)
from repro.workloads.registry import app_names


class TestValidation:
    def test_minimal_named_grid(self):
        spec = validate_spec({"figure": "fig13", "scale": 0.05})
        assert spec["figure"] == "fig13"
        assert spec["scale"] == 0.05

    def test_minimal_custom_grid_defaults_all_schemes(self):
        spec = validate_spec({"apps": ["GUPS"], "scale": 0.05})
        assert spec["apps"] == ["GUPS"]
        # The default grid is every scheme, in enum order.
        assert spec["schemes"] == scheme_names()
        assert [s.value for s in TxScheme] == scheme_names()

    def test_not_a_dict(self):
        with pytest.raises(SpecError, match="JSON object"):
            validate_spec(["fig13"])

    def test_unknown_field_lists_known_fields(self):
        with pytest.raises(SpecError) as excinfo:
            validate_spec({"figure": "fig13", "figur": "typo"})
        assert "figur" in str(excinfo.value)
        assert excinfo.value.choices == sorted(KNOWN_FIELDS)

    def test_figure_and_apps_both_rejected(self):
        with pytest.raises(SpecError, match="exactly one"):
            validate_spec({"figure": "fig13", "apps": ["GUPS"]})

    def test_neither_figure_nor_apps_rejected(self):
        with pytest.raises(SpecError, match="exactly one"):
            validate_spec({"scale": 0.05})

    def test_unknown_figure_lists_choices(self):
        with pytest.raises(SpecError) as excinfo:
            validate_spec({"figure": "fig99"})
        assert excinfo.value.field == "figure"
        assert excinfo.value.choices == valid_figures()

    def test_unknown_app_lists_choices(self):
        with pytest.raises(SpecError) as excinfo:
            validate_spec({"apps": ["NOPE"]})
        assert excinfo.value.field == "apps"
        assert excinfo.value.choices == app_names()

    def test_unknown_scheme_lists_choices(self):
        with pytest.raises(SpecError) as excinfo:
            validate_spec({"apps": ["GUPS"], "schemes": ["warp"]})
        assert excinfo.value.field == "schemes"
        assert "baseline" in excinfo.value.choices

    def test_unknown_engine_lists_choices(self):
        # There is one simulator; a spec naming an engine is rejected as an
        # unknown field, and the error lists the fields a spec may set.
        with pytest.raises(SpecError, match="unknown spec field") as excinfo:
            validate_spec({"figure": "fig13", "engine": "event"})
        assert excinfo.value.field == "engine"
        assert excinfo.value.choices == sorted(KNOWN_FIELDS)
        assert "engine" not in excinfo.value.choices

    @pytest.mark.parametrize("scale", [0, -1, "big", None])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(SpecError, match="scale"):
            validate_spec({"figure": "fig13", "scale": scale})

    def test_scheme_knobs_rejected_on_named_grids(self):
        with pytest.raises(SpecError, match="custom 'apps' grids"):
            validate_spec({"figure": "fig13", "schemes": ["baseline"]})
        with pytest.raises(SpecError, match="custom 'apps' grids"):
            validate_spec({"figure": "fig13", "page_size": 65536})

    def test_page_size_must_be_power_of_two(self):
        with pytest.raises(SpecError, match="power-of-two"):
            validate_spec({"apps": ["GUPS"], "page_size": 1000})

    def test_page_size_the_page_table_cannot_walk_lists_the_sizes(self):
        for size in (512, 8192):
            with pytest.raises(SpecError) as excinfo:
                validate_spec({"apps": ["SRAD"], "schemes": ["baseline"],
                               "page_size": size})
            assert excinfo.value.to_json()["field"] == "page_size"
            assert excinfo.value.to_json()["choices"] == ["4096", "65536", "2097152"]
        for size in (4096, 65536, 2097152):
            spec = validate_spec({"apps": ["SRAD"], "page_size": size})
            assert spec["page_size"] == size

    def test_bad_max_retries_rejected(self):
        with pytest.raises(SpecError, match="max_retries"):
            validate_spec({"figure": "fig13", "max_retries": -1})


class TestCanonicalization:
    def test_app_names_uppercased(self):
        spec = validate_spec({"apps": ["gups", "Atax"], "scale": 0.05})
        assert spec["apps"] == ["GUPS", "ATAX"]

    def test_int_and_float_scale_share_identity(self):
        int_spec = validate_spec({"figure": "fig13", "scale": 1})
        float_spec = validate_spec({"figure": "fig13", "scale": 1.0})
        assert spec_key(int_spec) == spec_key(float_spec)

    def test_equivalent_specs_share_key(self):
        one = validate_spec({"apps": ["gups"], "schemes": ["baseline"], "scale": 0.05})
        two = validate_spec({"scale": 0.05, "schemes": ["baseline"], "apps": ["GUPS"]})
        assert spec_key(one) == spec_key(two)

    def test_different_specs_differ(self):
        one = validate_spec({"apps": ["GUPS"], "schemes": ["baseline"], "scale": 0.05})
        two = validate_spec({"apps": ["GUPS"], "schemes": ["lds"], "scale": 0.05})
        assert spec_key(one) != spec_key(two)


class TestExpansion:
    def test_named_grid_matches_sweep_grids(self):
        spec = validate_spec({"figure": "fig13a", "scale": 0.05})
        expanded = expand_spec(spec)
        direct = SWEEP_GRIDS["fig13a"](0.05)
        assert [job.key() for job in expanded] == [job.key() for job in direct]

    def test_custom_grid_is_apps_times_schemes(self):
        spec = validate_spec(
            {"apps": ["GUPS", "ATAX"], "schemes": ["baseline", "lds"], "scale": 0.05}
        )
        jobs = expand_spec(spec)
        assert [(job.app_name, job.config.scheme.value) for job in jobs] == [
            ("GUPS", "baseline"),
            ("GUPS", "lds"),
            ("ATAX", "baseline"),
            ("ATAX", "lds"),
        ]
        assert all(job.scale == 0.05 for job in jobs)

    def test_engine_and_config_knobs_applied(self):
        spec = validate_spec(
            {
                "apps": ["GUPS"],
                "schemes": ["baseline"],
                "scale": 0.05,
                "page_size": 65536,
                "l2_tlb_entries": 512,
            }
        )
        (job,) = expand_spec(spec)
        assert job.config.page_size == 65536
        assert job.config.tlb.l2_entries == 512
        # The engine is no longer a knob: a config has no field to carry it.
        assert "engine" not in {field.name for field in fields(job.config)}

    def test_engine_choice_does_not_change_cache_identity(self):
        # Specs once chose an engine, which job keys left out. Without the
        # field a spec's jobs keep the keys they had then, so a resubmission
        # still dedups against results already in the store.
        spec = validate_spec(
            {
                "apps": ["GUPS"],
                "schemes": ["baseline"],
                "scale": 0.05,
                "page_size": 65536,
                "l2_tlb_entries": 512,
            }
        )
        (job,) = expand_spec(spec)
        assert job.key() == "GUPS|0.05|0d66cd661023dd7a"
