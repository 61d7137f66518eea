"""Job specifications for the simulation service.

A *job spec* is the JSON body of ``POST /jobs``: either a named figure
grid (``{"figure": "fig13"}``) or a custom ``apps`` × ``schemes`` grid,
plus the scale and fault-tolerance knobs the sweep CLI already exposes.
Three operations, shared by the HTTP endpoint, the ``repro submit`` CLI,
and the tests:

- :func:`validate_spec` — reject malformed specs *early*, at submission,
  with the list of valid choices in the error (not deep inside a worker
  process minutes later).
- canonicalization — :func:`validate_spec` returns the spec in canonical
  form (defaults materialized, names normalized, scale coerced to float)
  and :func:`spec_key` hashes that form, so equivalent submissions share
  one identity and deduplicate against in-flight and completed jobs.
- :func:`expand_spec` — the canonical spec's :class:`SweepJob` grid, in
  deterministic order (results are returned in this order).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence

from repro.pagetable.page_table import SUPPORTED_PAGE_SIZES
from repro.schemes import config_for, scheme_names
from repro.sim.runner import SweepJob
from repro.workloads.registry import app_names

#: Every field a job spec may carry.
KNOWN_FIELDS = (
    "figure",
    "apps",
    "schemes",
    "scale",
    "page_size",
    "l2_tlb_entries",
    "timeout",
    "max_retries",
)


class SpecError(ValueError):
    """A job spec failed validation.

    Carries the offending ``field`` and, when the value came from a
    closed vocabulary, the full list of valid ``choices`` — the HTTP layer
    returns both so a client can self-correct without reading docs.
    """

    def __init__(
        self,
        message: str,
        field: Optional[str] = None,
        choices: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(message)
        self.field = field
        self.choices = [str(choice) for choice in choices] if choices else []

    def to_json(self) -> Dict:
        payload: Dict = {"error": str(self)}
        if self.field:
            payload["field"] = self.field
        if self.choices:
            payload["choices"] = self.choices
        return payload


def valid_figures() -> List[str]:
    """Named sweep grids accepted as ``{"figure": ...}``."""

    from repro.experiments.report import SWEEP_GRIDS

    return sorted(SWEEP_GRIDS)


def valid_schemes() -> List[str]:
    """Scheme names accepted in a custom grid: every scheme, in enum order."""

    return scheme_names()


def _require(condition: bool, message: str, field: str, choices=None) -> None:
    if not condition:
        raise SpecError(message, field=field, choices=choices)


def _positive_number(raw, field: str) -> float:
    _require(
        isinstance(raw, (int, float)) and not isinstance(raw, bool) and raw > 0,
        f"{field} must be a positive number, got {raw!r}",
        field,
    )
    return float(raw)


def validate_spec(raw: Dict) -> Dict:
    """Validate ``raw`` and return the canonical spec.

    Raises :class:`SpecError` (with the valid choices where applicable) on
    the first problem found. The canonical form materializes defaults,
    upper-cases app names, coerces ``scale`` to float (``1`` and ``1.0``
    are the same simulation and must share one spec identity), and keeps
    only known fields — it is the exact dict :func:`spec_key` hashes and
    ``GET /jobs/<id>`` echoes back.
    """

    if not isinstance(raw, dict):
        raise SpecError(
            f"job spec must be a JSON object, got {type(raw).__name__}"
        )
    unknown = sorted(set(raw) - set(KNOWN_FIELDS))
    _require(
        not unknown,
        f"unknown spec field(s) {unknown}; valid fields: {sorted(KNOWN_FIELDS)}",
        unknown[0] if unknown else None,
        choices=sorted(KNOWN_FIELDS),
    )

    figure = raw.get("figure")
    apps = raw.get("apps")
    _require(
        (figure is None) != (apps is None),
        "spec must name exactly one of 'figure' (a named grid) or 'apps' "
        "(a custom grid)",
        "figure",
        choices=valid_figures(),
    )

    spec: Dict = {}
    if figure is not None:
        figures = valid_figures()
        _require(
            isinstance(figure, str) and figure in figures,
            f"unknown figure {figure!r}; valid figures: {figures}",
            "figure",
            choices=figures,
        )
        for field in ("schemes", "page_size", "l2_tlb_entries"):
            _require(
                field not in raw,
                f"{field!r} only applies to custom 'apps' grids; the "
                f"{figure!r} grid defines its own configurations",
                field,
            )
        spec["figure"] = figure
    else:
        known_apps = app_names()
        _require(
            isinstance(apps, list) and apps,
            f"'apps' must be a non-empty list of application names, "
            f"got {apps!r}; valid apps: {known_apps}",
            "apps",
            choices=known_apps,
        )
        normalized_apps = []
        for app in apps:
            name = app.upper() if isinstance(app, str) else app
            _require(
                name in known_apps,
                f"unknown app {app!r}; valid apps: {known_apps}",
                "apps",
                choices=known_apps,
            )
            normalized_apps.append(name)
        spec["apps"] = normalized_apps

        known_schemes = valid_schemes()
        schemes = raw.get("schemes", known_schemes)
        _require(
            isinstance(schemes, list) and schemes,
            f"'schemes' must be a non-empty list, got {schemes!r}; "
            f"valid schemes: {known_schemes}",
            "schemes",
            choices=known_schemes,
        )
        for scheme in schemes:
            _require(
                scheme in known_schemes,
                f"unknown scheme {scheme!r}; valid schemes: {known_schemes}",
                "schemes",
                choices=known_schemes,
            )
        spec["schemes"] = list(schemes)

        if "page_size" in raw:
            page_size = raw["page_size"]
            _require(
                isinstance(page_size, int)
                and not isinstance(page_size, bool)
                and page_size in SUPPORTED_PAGE_SIZES,
                f"page_size must be a power-of-two integer the page table "
                f"supports, one of {list(SUPPORTED_PAGE_SIZES)}, got {page_size!r}",
                "page_size",
                choices=SUPPORTED_PAGE_SIZES,
            )
            spec["page_size"] = page_size
        if "l2_tlb_entries" in raw:
            entries = raw["l2_tlb_entries"]
            _require(
                isinstance(entries, int)
                and not isinstance(entries, bool)
                and entries > 0,
                f"l2_tlb_entries must be a positive integer, got {entries!r}",
                "l2_tlb_entries",
            )
            spec["l2_tlb_entries"] = entries

    if "scale" in raw:
        spec["scale"] = _positive_number(raw["scale"], "scale")
    else:
        from repro.experiments.common import DEFAULT_SCALE

        spec["scale"] = float(DEFAULT_SCALE)

    if raw.get("timeout") is not None:
        spec["timeout"] = _positive_number(raw["timeout"], "timeout")
    if raw.get("max_retries") is not None:
        retries = raw["max_retries"]
        _require(
            isinstance(retries, int)
            and not isinstance(retries, bool)
            and retries >= 0,
            f"max_retries must be a non-negative integer, got {retries!r}",
            "max_retries",
        )
        spec["max_retries"] = retries

    return spec


def spec_key(spec: Dict) -> str:
    """Stable identity of a canonical spec (dedup key for submissions).

    Distinct from :meth:`SweepJob.key`: the spec key identifies a whole
    submission (grid + knobs, in result order), while job keys identify
    the individual simulations — the runner deduplicates those against
    the disk cache independently.
    """

    text = json.dumps(spec, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def expand_spec(spec: Dict) -> List[SweepJob]:
    """The canonical spec's job grid, in deterministic (result) order."""

    scale = spec["scale"]
    if "figure" in spec:
        from repro.experiments.report import SWEEP_GRIDS

        return SWEEP_GRIDS[spec["figure"]](scale)
    # One configuration per scheme, shared by every app's job: a fresh
    # object derives its signature on first use.
    configs = {}
    for scheme in spec["schemes"]:
        config = config_for(scheme)
        if "page_size" in spec:
            config = config.with_page_size(spec["page_size"])
        if "l2_tlb_entries" in spec:
            config = config.with_l2_tlb_entries(spec["l2_tlb_entries"])
        configs[scheme] = config
    return [SweepJob(app, configs[scheme], scale)
            for app in spec["apps"] for scheme in spec["schemes"]]
