"""Configuration serialization: SystemConfig <-> dict/JSON.

Every experiment arm is fully described by a :class:`~repro.config.SystemConfig`;
serializing it makes runs reproducible from a single artifact (the
experiment harness hashes the same representation for its result cache) and
lets the CLI accept configuration files.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict

from repro.config import (
    DRAMConfig,
    DRAMEnergyConfig,
    DataCacheConfig,
    DucatiConfig,
    GPUConfig,
    ICacheConfig,
    ICacheReplacement,
    ICacheTxConfig,
    IOMMUConfig,
    LDSConfig,
    LDSTxConfig,
    SubregionConfig,
    SystemConfig,
    TLBConfig,
)

_SECTION_TYPES = {
    "gpu": GPUConfig,
    "tlb": TLBConfig,
    "icache": ICacheConfig,
    "icache_tx": ICacheTxConfig,
    "lds": LDSConfig,
    "lds_tx": LDSTxConfig,
    "data_cache": DataCacheConfig,
    "dram": DRAMConfig,
    "dram_energy": DRAMEnergyConfig,
    "iommu": IOMMUConfig,
    "ducati": DucatiConfig,
}

_ENUM_FIELDS = {
    ("icache_tx", "replacement"): ICacheReplacement,
}


def config_to_dict(config: SystemConfig) -> Dict[str, Any]:
    """Serialize a SystemConfig to plain JSON-compatible data."""

    payload: Dict[str, Any] = {
        "scheme": config.scheme.value,
        "page_size": config.page_size,
        "va_bits": config.va_bits,
        "lds_before_icache": config.lds_before_icache,
        "dedup_shared_fills": config.dedup_shared_fills,
    }
    # The subregion-coalescing section is emitted only when the scheme wires
    # the store or a knob was changed, so every other configuration (and
    # its cache signature) serializes as it did before the section existed.
    if config.scheme.uses_subregion or config.subregion != SubregionConfig():
        payload["subregion"] = dataclasses.asdict(config.subregion)
    for section, section_type in _SECTION_TYPES.items():
        values = dataclasses.asdict(getattr(config, section))
        for name, value in values.items():
            if isinstance(value, ICacheReplacement):
                values[name] = value.value
        payload[section] = values
    return payload


def config_from_dict(payload: Dict[str, Any]) -> SystemConfig:
    """Rebuild a SystemConfig from :func:`config_to_dict` output.

    Unknown top-level or per-section keys raise so that a typo in a config
    file is an error rather than a silently-ignored setting.
    """

    known_top = set(_SECTION_TYPES) | {"scheme", "subregion", "page_size", "va_bits", "lds_before_icache", "dedup_shared_fills"}
    unknown = set(payload) - known_top
    if unknown:
        raise ValueError(f"unknown configuration sections: {sorted(unknown)}")

    kwargs: Dict[str, Any] = {}
    if "scheme" in payload:
        # An unknown name raises listing the valid schemes.
        from repro.schemes import resolve

        kwargs["scheme"] = resolve(payload["scheme"])
    for scalar in ("page_size", "va_bits", "lds_before_icache", "dedup_shared_fills"):
        if scalar in payload:
            kwargs[scalar] = payload[scalar]

    sections = dict(_SECTION_TYPES, subregion=SubregionConfig)
    for section, section_type in sections.items():
        if section not in payload:
            continue
        values = dict(payload[section])
        field_names = {field.name for field in dataclasses.fields(section_type)}
        unknown = set(values) - field_names
        if unknown:
            raise ValueError(
                f"unknown keys in section {section!r}: {sorted(unknown)}"
            )
        for (sec, name), enum_type in _ENUM_FIELDS.items():
            if sec == section and name in values:
                values[name] = enum_type(values[name])
        kwargs[section] = section_type(**values)
    config = SystemConfig(**kwargs)
    if "page_size" in payload:
        # Checked as --page-size is: a file may not name a page size the
        # page table cannot walk either.
        config = config.with_page_size(config.page_size)
    return config


def config_to_json(config: SystemConfig, indent: int = 2) -> str:
    return json.dumps(config_to_dict(config), indent=indent, sort_keys=True)


def config_from_json(text: str) -> SystemConfig:
    return config_from_dict(json.loads(text))


def save_config(config: SystemConfig, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(config_to_json(config) + "\n")


def load_config(path: str) -> SystemConfig:
    with open(path) as handle:
        return config_from_json(handle.read())
