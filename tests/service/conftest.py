"""Shared service-test fixtures: isolated caches."""

from __future__ import annotations

import pytest

from repro.experiments import common


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Every service test gets its own disk cache and a clean in-process
    cache."""

    monkeypatch.setattr(common, "_CACHE_DIR", str(tmp_path / "cache"))
    common.clear_cache()
    yield
    common.clear_cache()
