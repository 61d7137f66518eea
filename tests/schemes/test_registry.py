"""The scheme set: the :class:`TxScheme` members, the only schemes.

Covers name resolution, the capability-flag wiring into
:class:`GPUSystem`, cache-identity guarantees (pinned signatures for the
paper's arms — any schema change must update these *explicitly*), the
perfect-l2-tlb selection fix, and the scheme-universe agreement between
the CLI, the service, and the experiment grids.
"""

from __future__ import annotations

import argparse

import pytest

from repro.config import SubregionConfig, TxScheme, table1_config
from repro.config_io import config_from_json, config_to_json
from repro.schemes import (
    DESCRIPTIONS,
    apply_scheme,
    config_for,
    resolve,
    scheme_names,
)
from repro.system import GPUSystem

#: Pre-refactor cache signatures for every builtin arm
#: (captured on the commit before the registry landed). These pin both
#: the cache schema and the byte-identity of the existing scheme
#: configurations: if one of these changes, cached results silently
#: stop being reused — bump them only with a deliberate schema change.
PINNED_SIGNATURES = {
    "baseline": "26dedf985b22459e",
    "lds": "97abcb45815660a7",
    "icache": "e7139c9641f015da",
    "icache+lds": "3d19eb276d733b4c",
    "ducati": "19099c989f865d51",
    "ducati+icache+lds": "88eae2e0b9702980",
}
#: perfect-l2-tlb is special-cased: selecting it by name also sets
#: ``tlb.perfect_l2`` (a name-only path once did not — that was the
#: latent bug), so its signature matches the config ``fig02_03`` always
#: used via ``with_perfect_l2_tlb()``.
PINNED_PERFECT_L2 = "3abb200ae508a7f8"


class TestRegistration:
    def test_builtins_in_enum_order(self):
        # Pinned: the CLI, the service and /version list these, in order.
        assert scheme_names() == [s.value for s in TxScheme] == [
            "baseline", "lds", "icache", "icache+lds", "ducati",
            "ducati+icache+lds", "perfect-l2-tlb", "subregion-coalescing",
        ]

    def test_descriptions_one_per_member_in_enum_order(self):
        assert list(DESCRIPTIONS) == list(TxScheme)
        assert all(DESCRIPTIONS.values())

    def test_unknown_scheme_lists_choices(self):
        for lookup in (resolve, config_for):
            with pytest.raises(ValueError) as excinfo:
                lookup("not-a-scheme")
            assert f"valid schemes: {scheme_names()}" in str(excinfo.value)

    def test_resolve_builtin_returns_enum_member(self):
        # A name must resolve to the TxScheme member itself (pickling and
        # cache identity depend on it), not a wrapper.
        for member in TxScheme:
            assert resolve(member.value) is member
            assert resolve(member) is member


class TestCapabilityWiring:
    """Each member's flags drive exactly which structures GPUSystem builds."""

    @pytest.mark.parametrize("name", [s.value for s in TxScheme])
    def test_flags_match_structures(self, name):
        scheme = resolve(name)
        system = GPUSystem(config_for(name))
        tr = system.cus[0].translation
        assert (tr.lds_tx is not None) == scheme.uses_lds_tx
        assert (tr.icache_tx is not None) == scheme.uses_icache_tx
        assert (tr.ducati is not None) == scheme.uses_ducati
        assert (tr.subregion is not None) == scheme.uses_subregion
        assert (system.subregion is not None) == scheme.uses_subregion


class TestCacheIdentity:
    def test_builtin_signatures_pinned(self):
        for name, expected in PINNED_SIGNATURES.items():
            assert config_for(name).signature == expected, name

    def test_perfect_l2_tlb_signature_matches_full_config(self):
        assert config_for("perfect-l2-tlb").signature == PINNED_PERFECT_L2
        assert table1_config().with_perfect_l2_tlb().signature == PINNED_PERFECT_L2

    def test_all_schemes_have_distinct_cache_keys(self):
        signatures = {}
        for name in scheme_names():
            signature = config_for(name).signature
            assert signature not in signatures, (
                f"{name} collides with {signatures.get(signature)}"
            )
            signatures[signature] = name

    def test_subregion_section_does_not_perturb_builtin_signatures(self):
        # The subregion config section is only serialized when it is
        # non-default or the scheme uses it — adding it must not have
        # moved any existing arm's signature.
        config = table1_config()
        assert config.subregion == SubregionConfig()
        assert config.signature == PINNED_SIGNATURES["baseline"]

    def test_config_for_shares_one_config_per_scheme(self):
        for name in scheme_names():
            assert config_for(name) is config_for(name)
            assert config_for(name) == apply_scheme(table1_config(), name)


class TestPerfectL2Fix:
    def test_config_for_sets_perfect_l2(self):
        assert config_for("perfect-l2-tlb").tlb.perfect_l2

    def test_apply_scheme_sets_perfect_l2(self):
        assert apply_scheme(table1_config(), "perfect-l2-tlb").tlb.perfect_l2

    def test_cli_build_config_sets_perfect_l2(self):
        from repro.cli import _build_config

        args = argparse.Namespace(scheme="perfect-l2-tlb")
        assert _build_config(args).tlb.perfect_l2

    def test_service_expand_spec_sets_perfect_l2(self):
        from repro.service.jobs import expand_spec, validate_spec

        spec = validate_spec(
            {"apps": ["GUPS"], "schemes": ["perfect-l2-tlb"], "scale": 0.05}
        )
        (job,) = expand_spec(spec)
        assert job.config.tlb.perfect_l2


class TestSchemeUniverseAgreement:
    """Regression for the scheme-list drift bug: every surface that
    enumerates schemes must agree with ``scheme_names()``."""

    def test_service_valid_schemes_is_registry(self):
        from repro.service.jobs import valid_schemes

        assert valid_schemes() == scheme_names()

    def test_cli_argparse_choices_are_registry(self):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        for command, option in (("run", "--scheme"), ("compare", "--schemes")):
            sub_parser = sub.choices[command]
            action = next(
                a for a in sub_parser._actions if option in a.option_strings
            )
            assert list(action.choices) == scheme_names(), (command, option)

    # The grid orders are pinned to the historical tuples: changing one
    # reorders that figure's sweep job list.
    def test_fig13_grid_matches_tag(self):
        from repro.experiments.fig13_main import SCHEMES

        assert [s.value for s in SCHEMES] == ["lds", "icache", "icache+lds"]

    def test_fig14_grid_matches_tag(self):
        from repro.experiments.fig14_sharing_walks_pagesize import _SCHEMES_14B

        assert [s.value for s in _SCHEMES_14B] == ["lds", "icache", "icache+lds"]

    def test_fig16c_grid_membership_from_tag(self):
        from repro.experiments.fig16_sensitivity import _FIG16C_SCHEMES

        assert [s.value for s in _FIG16C_SCHEMES] == [
            "ducati", "icache+lds", "ducati+icache+lds",
        ]

    def test_subregion_grid_from_tag(self):
        from repro.experiments.fig_subregion import GRID_SCHEMES

        assert GRID_SCHEMES == ("baseline", "icache+lds", "subregion-coalescing")

    def test_sweep_grid_registered(self):
        from repro.experiments.report import SWEEP_GRIDS

        assert "subregion" in SWEEP_GRIDS

    def test_every_spec_resolves_and_builds(self):
        for name in scheme_names():
            assert config_for(name).scheme is resolve(name)


class TestConfigRoundtrip:
    def test_plugin_config_roundtrips_through_json(self):
        config = config_for("subregion-coalescing")
        restored = config_from_json(config_to_json(config))
        assert restored == config
        assert restored.scheme.value == "subregion-coalescing"
        assert restored.signature == config.signature

    def test_every_member_roundtrips_with_its_flags(self):
        # The serialized config names the scheme and its flags come back
        # from the member, so one name never carries two sets of flags.
        flags = ("uses_lds_tx", "uses_icache_tx", "uses_ducati", "uses_subregion")
        for member in TxScheme:
            restored = config_from_json(config_to_json(config_for(member.value))).scheme
            assert restored is member
            assert [getattr(restored, f) for f in flags] == [
                getattr(member, f) for f in flags
            ]

    def test_unknown_scheme_in_config_file_lists_valid_schemes(self, tmp_path):
        from repro.config_io import load_config

        path = tmp_path / "config.json"
        path.write_text('{"scheme": "throwaway"}')
        with pytest.raises(ValueError) as excinfo:
            load_config(str(path))
        assert str(excinfo.value) == (
            f"unknown scheme 'throwaway'; valid schemes: {scheme_names()}"
        )

    def test_roundtrip_does_not_reapply_transform(self):
        # A payload that names perfect-l2-tlb but (unusually) carries
        # perfect_l2=False must roundtrip exactly — deserialization
        # restores the payload, it does not re-select the scheme by name.
        config = table1_config(TxScheme.PERFECT_L2_TLB)
        assert not config.tlb.perfect_l2
        restored = config_from_json(config_to_json(config))
        assert restored == config
