"""Scheme plugin contract.

A *scheme* is one translation-reach design point — an experiment arm in
the paper's evaluation (baseline, the reconfigurable LDS/I-cache victim
caches, DUCATI, the perfect-L2 bound) or a plugin landed from related
work. Every scheme is described by a :class:`SchemeSpec`:

- ``name`` — the stable string identity used by the CLI (``--scheme``),
  the service (``"schemes": [...]``), serialized configurations, cache
  keys, and report labels.
- capability flags (``uses_lds_tx`` / ``uses_icache_tx`` / ``uses_ducati``
  / ``uses_subregion``) — which victim-cache structures
  :class:`~repro.system.GPUSystem` wires up for the scheme.
- ``tags`` — grid-membership labels the experiment harnesses enumerate
  (e.g. the fig13 victim-cache arms), so a new scheme joins the right
  grids by declaring a tag rather than by editing every harness.
- ``configure`` — an optional config transform applied when a scheme is
  *selected by name* (CLI ``--scheme``, service specs,
  :func:`repro.schemes.registry.config_for`); e.g. the perfect-L2 bound
  must also flip ``tlb.perfect_l2``, not just relabel the scheme.

The legacy :class:`~repro.config.TxScheme` enum members remain the
``SystemConfig.scheme`` values for the built-in arms (preserving cache
identity and pickling); plugin schemes carry a :class:`PluginScheme`
value instead, which duck-types the same interface (``.value`` plus the
capability-flag properties). Everything downstream of a ``SystemConfig``
only ever reads that interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple


@dataclass(frozen=True)
class PluginScheme:
    """The ``SystemConfig.scheme`` value of an out-of-enum scheme.

    Frozen and picklable (sweep jobs cross process-pool boundaries), and
    duck-compatible with :class:`~repro.config.TxScheme`: ``.value`` and
    the capability-flag properties are all the simulator reads.
    """

    name: str
    uses_lds_tx: bool = False
    uses_icache_tx: bool = False
    uses_ducati: bool = False
    uses_subregion: bool = False

    @property
    def value(self) -> str:
        return self.name


@dataclass(frozen=True)
class SchemeSpec:
    """One registered scheme: identity, capabilities, grid tags."""

    name: str
    #: The object stored on ``SystemConfig.scheme`` — a ``TxScheme``
    #: member for built-ins, a :class:`PluginScheme` for plugins.
    scheme: object
    description: str = ""
    #: Grid-membership labels enumerated by the experiment harnesses.
    tags: Tuple[str, ...] = ()
    #: Applied when the scheme is selected by name on a base config;
    #: must be a picklable module-level callable or None.
    configure: Optional[Callable[..., object]] = field(
        default=None, compare=False
    )
    builtin: bool = False

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"scheme name must be a non-empty string, got {self.name!r}")
        if getattr(self.scheme, "value", None) != self.name:
            raise ValueError(
                f"scheme object value {getattr(self.scheme, 'value', None)!r} "
                f"does not match spec name {self.name!r}"
            )

    def apply(self, config):
        """Select this scheme on ``config`` (transform included)."""

        updated = config.with_scheme(self.scheme)
        if self.configure is not None:
            updated = self.configure(updated)
        return updated
