"""The scheme registry: one authoritative list of translation schemes.

Everything that used to hardcode scheme lists — the CLI's ``--scheme``
choices and figure tables, ``valid_schemes()`` in the service, the
experiment harness grids, report labels — derives from this registry,
so registering a scheme makes it appear everywhere automatically.

Contract:

- :func:`register` adds a :class:`~repro.schemes.base.SchemeSpec`;
  duplicate names are rejected (a plugin must never alias an existing
  scheme's cached results).
- :func:`register_plugin` is the convenience form for out-of-enum
  schemes: it builds the frozen, picklable
  :class:`~repro.schemes.base.PluginScheme` config value coherently
  with the declared capabilities.
- :func:`resolve` maps a name (or an already-resolved scheme object)
  to the ``SystemConfig.scheme`` value; unknown names raise
  :class:`SchemeError` listing the valid choices — the actionable-error
  style the service's spec validation established.
- :func:`config_for` / :func:`apply_scheme` build configurations by
  name, applying per-scheme config transforms (e.g. the perfect-L2
  bound flips ``tlb.perfect_l2`` in addition to the scheme label).
  ``config_for(name)`` returns one shared Table-1 configuration per
  registered scheme, until the next :func:`register` or
  :func:`unregister`.
- :func:`schemes_for_tag` enumerates grid members in registration
  order, which for the built-ins matches the historical enum order so
  existing grids stay byte-identical.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.schemes.base import PluginScheme, SchemeSpec

_REGISTRY: Dict[str, SchemeSpec] = {}

#: Scheme name -> its shared Table-1 configuration (see :func:`config_for`);
#: emptied by :func:`register` and :func:`unregister`.
_CONFIGS: Dict[str, object] = {}


class SchemeError(ValueError):
    """An unknown or unusable scheme name.

    Mirrors :class:`repro.service.jobs.SpecError`: the message lists the
    valid choices and ``choices`` carries them structurally.
    """

    def __init__(self, message: str, choices: Optional[Sequence[str]] = None) -> None:
        super().__init__(message)
        self.choices = list(choices) if choices else []


def register(spec: SchemeSpec) -> SchemeSpec:
    """Add ``spec`` to the registry; duplicate names are an error."""

    if spec.name in _REGISTRY:
        raise SchemeError(
            f"scheme {spec.name!r} is already registered; a plugin must not "
            f"alias an existing scheme (cached results are keyed by name)"
        )
    _REGISTRY[spec.name] = spec
    _CONFIGS.clear()
    return spec


def register_plugin(
    name: str,
    description: str = "",
    *,
    uses_lds_tx: bool = False,
    uses_icache_tx: bool = False,
    uses_ducati: bool = False,
    uses_subregion: bool = False,
    tags: Tuple[str, ...] = (),
    configure: Optional[Callable[..., object]] = None,
) -> SchemeSpec:
    """Register an out-of-enum scheme, building its config value coherently."""

    scheme = PluginScheme(
        name=name,
        uses_lds_tx=uses_lds_tx,
        uses_icache_tx=uses_icache_tx,
        uses_ducati=uses_ducati,
        uses_subregion=uses_subregion,
    )
    return register(
        SchemeSpec(
            name=name,
            scheme=scheme,
            description=description,
            tags=tags,
            configure=configure,
        )
    )


def unregister(name: str) -> None:
    """Remove a scheme (test cleanup for throwaway plugins)."""

    _REGISTRY.pop(name, None)
    _CONFIGS.clear()


def scheme_names() -> List[str]:
    """Every registered scheme name, in registration order."""

    return list(_REGISTRY)


def schemes() -> List[SchemeSpec]:
    """Every registered spec, in registration order."""

    return list(_REGISTRY.values())


def get(name: str) -> SchemeSpec:
    """The spec registered under ``name``; unknown names are actionable."""

    spec = _REGISTRY.get(name)
    if spec is None:
        names = scheme_names()
        raise SchemeError(
            f"unknown scheme {name!r}; valid schemes: {names}", choices=names
        )
    return spec


def spec_for(scheme: object) -> SchemeSpec:
    """The spec describing ``scheme`` (a name or a scheme object)."""

    if isinstance(scheme, str):
        return get(scheme)
    return get(getattr(scheme, "value", scheme))


def resolve(scheme: object):
    """Map a scheme name (or scheme object) to its config value."""

    return spec_for(scheme).scheme


def schemes_for_tag(tag: str) -> List[SchemeSpec]:
    """Grid members carrying ``tag``, in registration order."""

    return [spec for spec in _REGISTRY.values() if tag in spec.tags]


def apply_scheme(config, scheme: object):
    """Select a scheme on ``config`` by name, transforms included."""

    return spec_for(scheme).apply(config)


def config_for(scheme: object, base=None):
    """A Table-1 configuration (or ``base``) with ``scheme`` selected by
    name.

    Without ``base``, every call for one registered scheme returns the
    same configuration object, so its signature is derived once.
    """

    spec = spec_for(scheme)
    if base is not None:
        return spec.apply(base)
    config = _CONFIGS.get(spec.name)
    if config is None:
        from repro.config import table1_config

        config = _CONFIGS.setdefault(spec.name, spec.apply(table1_config()))
    return config
