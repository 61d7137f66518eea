"""Pluggable translation-scheme registry.

Importing this package registers the built-in arms (the paper's
evaluation schemes, :mod:`repro.schemes.builtin`) and the bundled
plugins (:mod:`repro.schemes.subregion`); every scheme list in the CLI,
service, and experiment harnesses derives from here. See
:mod:`repro.schemes.base` for the plugin contract and docs/MODEL.md for
a how-to-write-a-scheme walkthrough.
"""

from repro.schemes.base import PluginScheme, SchemeSpec  # noqa: F401
from repro.schemes.registry import (  # noqa: F401
    SchemeError,
    apply_scheme,
    config_for,
    get,
    register,
    register_plugin,
    resolve,
    scheme_names,
    schemes,
    schemes_for_tag,
    spec_for,
    unregister,
)
from repro.schemes import builtin  # noqa: F401  (registers the built-ins)
from repro.schemes import subregion  # noqa: F401  (registers the plugin)
from repro.schemes.subregion import SubregionStore  # noqa: F401

__all__ = [
    "PluginScheme",
    "SchemeSpec",
    "SchemeError",
    "SubregionStore",
    "apply_scheme",
    "config_for",
    "get",
    "register",
    "register_plugin",
    "resolve",
    "scheme_names",
    "schemes",
    "schemes_for_tag",
    "spec_for",
    "unregister",
]
