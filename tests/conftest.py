"""Shared fixtures: small configurations and a tiny synthetic app."""

from __future__ import annotations

import socket

import pytest

from repro.config import SystemConfig, TxScheme, table1_config
from repro.gpu.instructions import alu, lds_op, line, mem
from repro.workloads.base import AppSpec, KernelSpec


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden snapshot files under tests/goldens/ with "
        "the current simulator output instead of comparing against them",
    )


@pytest.fixture
def update_goldens(request) -> bool:
    return bool(request.config.getoption("--update-goldens"))


@pytest.fixture
def ipv6_loopback() -> str:
    """``"::1"``; skips the test on a machine without IPv6 loopback."""

    try:
        with socket.socket(socket.AF_INET6) as probe:
            probe.bind(("::1", 0))
    except OSError:
        pytest.skip("no IPv6 loopback on this machine")
    return "::1"


@pytest.fixture
def config() -> SystemConfig:
    return table1_config()


def make_tiny_kernel(
    name: str = "tiny_kernel",
    num_workgroups: int = 4,
    waves_per_workgroup: int = 2,
    lds_bytes: int = 0,
    static_lines: int = 4,
    vpn_base: int = 1 << 20,
    pages: int = 64,
    ops_per_wave: int = 6,
) -> KernelSpec:
    """A deterministic little kernel touching ``pages`` pages."""

    def factory(ctx):
        def ops():
            yield line(0)
            for index in range(ops_per_wave):
                start = (ctx.global_wave * ops_per_wave + index) * 2 % pages
                yield mem((vpn_base + start, vpn_base + (start + 1) % pages), 8)
                yield alu(4)
                if lds_bytes:
                    yield lds_op(1)
                yield line(index % static_lines)
        return ops()

    return KernelSpec(
        name=name,
        num_workgroups=num_workgroups,
        waves_per_workgroup=waves_per_workgroup,
        lds_bytes_per_workgroup=lds_bytes,
        static_lines=static_lines,
        program_factory=factory,
    )


def make_tiny_app(name: str = "tinyapp", kernels: int = 2, **kernel_kwargs) -> AppSpec:
    specs = tuple(
        make_tiny_kernel(name=f"{name}_k{i}", **kernel_kwargs) for i in range(kernels)
    )
    return AppSpec(name=name, kernels=specs, category="?")


@pytest.fixture
def tiny_app() -> AppSpec:
    return make_tiny_app()
