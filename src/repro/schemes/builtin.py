"""Built-in scheme registrations (the paper's evaluation arms).

Imported for its side effects by :mod:`repro.schemes`; the built-ins
keep their :class:`~repro.config.TxScheme` enum members as config
values, so serialized configurations, cache signatures, and pickled
sweep jobs are byte-identical to the pre-registry code. Registration
order matches the historical enum order, which is what every derived
scheme list (CLI, service, ``/version``) used to hardcode.

Grid tags:

- ``fig13-victim`` — the Figure 13b/c (and 14a/b) victim-cache arms.
- ``fig16-ducati`` — the Figure 16c DUCATI-comparison arms.
- ``subregion-grid`` — the comparison arms of the subregion-coalescing
  experiment (the plugin itself also carries this tag).
"""

from __future__ import annotations

from repro.config import TxScheme
from repro.schemes.base import SchemeSpec
from repro.schemes.registry import register


def _configure_perfect_l2(config):
    """The perfect-L2 bound is a TLB property, not just a label.

    Selecting the scheme by name must flip ``tlb.perfect_l2`` exactly as
    :meth:`repro.config.SystemConfig.with_perfect_l2_tlb` does — the CLI
    and service used to set only the scheme label, which silently ran a
    baseline-behaving machine under the perfect-L2 name.
    """

    from dataclasses import replace

    return replace(config, tlb=replace(config.tlb, perfect_l2=True))


_BUILTINS = (
    SchemeSpec(
        name=TxScheme.BASELINE.value,
        scheme=TxScheme.BASELINE,
        description="Unmodified Table 1 baseline (no victim caches)",
        tags=("subregion-grid",),
        builtin=True,
    ),
    SchemeSpec(
        name=TxScheme.LDS_ONLY.value,
        scheme=TxScheme.LDS_ONLY,
        description="Reconfigurable LDS victim cache (Section 4.2)",
        tags=("fig13-victim",),
        builtin=True,
    ),
    SchemeSpec(
        name=TxScheme.ICACHE_ONLY.value,
        scheme=TxScheme.ICACHE_ONLY,
        description="Reconfigurable I-cache victim cache (Section 4.3)",
        tags=("fig13-victim",),
        builtin=True,
    ),
    SchemeSpec(
        name=TxScheme.ICACHE_LDS.value,
        scheme=TxScheme.ICACHE_LDS,
        description="Combined LDS + I-cache design (Section 4.4)",
        tags=("fig13-victim", "fig16-ducati", "subregion-grid"),
        builtin=True,
    ),
    SchemeSpec(
        name=TxScheme.DUCATI.value,
        scheme=TxScheme.DUCATI,
        description="DUCATI comparator: L2-resident + in-memory TLB (Section 6.3.4)",
        tags=("fig16-ducati",),
        builtin=True,
    ),
    SchemeSpec(
        name=TxScheme.DUCATI_ICACHE_LDS.value,
        scheme=TxScheme.DUCATI_ICACHE_LDS,
        description="DUCATI combined with the LDS + I-cache victim caches",
        tags=("fig16-ducati",),
        builtin=True,
    ),
    SchemeSpec(
        name=TxScheme.PERFECT_L2_TLB.value,
        scheme=TxScheme.PERFECT_L2_TLB,
        description="Perfect (never-missing) L2 TLB upper bound (Section 3.1)",
        configure=_configure_perfect_l2,
        builtin=True,
    ),
)


def register_builtins() -> None:
    for spec in _BUILTINS:
        register(spec)


register_builtins()
