"""The translation schemes, one closed set: the :class:`~repro.config.TxScheme`
members.

The CLI and the service list every member, in enum order; each
experiment grid names its own schemes in an explicit tuple. This module
adds each member's description and its selection by name;
:mod:`repro.schemes.subregion` holds the subregion-coalescing store.
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import SystemConfig, TxScheme, table1_config

#: One line per scheme, in enum order (``repro list`` prints them).
DESCRIPTIONS: Dict[TxScheme, str] = {
    TxScheme.BASELINE: "Unmodified Table 1 baseline (no victim caches)",
    TxScheme.LDS_ONLY: "Reconfigurable LDS victim cache (Section 4.2)",
    TxScheme.ICACHE_ONLY: "Reconfigurable I-cache victim cache (Section 4.3)",
    TxScheme.ICACHE_LDS: "Combined LDS + I-cache design (Section 4.4)",
    TxScheme.DUCATI: "DUCATI comparator: L2-resident + in-memory TLB (Section 6.3.4)",
    TxScheme.DUCATI_ICACHE_LDS: "DUCATI combined with the LDS + I-cache victim caches",
    TxScheme.PERFECT_L2_TLB: "Perfect (never-missing) L2 TLB upper bound (Section 3.1)",
    TxScheme.SUBREGION_COALESCING: (
        "Subregion-contiguity coalesced L2-TLB entries learned in the "
        "walker path (arXiv 2110.08613)"
    ),
}


def scheme_names() -> List[str]:
    """Every scheme name, in enum order."""

    return [scheme.value for scheme in TxScheme]


def _unknown(scheme: object) -> ValueError:
    return ValueError(f"unknown scheme {scheme!r}; valid schemes: {scheme_names()}")


def resolve(scheme: object) -> TxScheme:
    """The member named ``scheme`` (a member resolves to itself); an
    unknown name raises a ``ValueError`` listing the valid names."""

    try:
        return TxScheme(scheme)
    except ValueError:
        raise _unknown(scheme) from None


def apply_scheme(config: SystemConfig, scheme: object) -> SystemConfig:
    """Select a scheme on ``config`` by name.

    The perfect-L2 bound is a TLB property, not just a label, so selecting
    it also sets ``tlb.perfect_l2``.
    """

    member = resolve(scheme)
    if member is TxScheme.PERFECT_L2_TLB:
        return config.with_perfect_l2_tlb()
    return config.with_scheme(member)


#: Scheme name -> its shared Table-1 configuration (see :func:`config_for`).
_CONFIGS: Dict[str, SystemConfig] = {
    scheme.value: apply_scheme(table1_config(), scheme) for scheme in TxScheme
}


def config_for(name: str) -> SystemConfig:
    """The Table-1 configuration with the scheme ``name`` selected.

    Every call for one name returns the same object, so its signature is
    derived once.
    """

    try:
        return _CONFIGS[name]
    except KeyError:
        raise _unknown(name) from None
