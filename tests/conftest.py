"""Shared fixtures: machines, kernels, and small workloads.

Also enforces a per-test wall-clock timeout so a hung simulation fails the
run instead of wedging it.  When the ``pytest-timeout`` plugin is active
with a configured timeout it takes precedence; otherwise (the plugin is an
optional dev dependency) a SIGALRM fallback covers POSIX platforms.
Override the budget with ``REPRO_TEST_TIMEOUT`` seconds (0 disables).
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.kernel.daemons import quiet_profile
from repro.kernel.kernel import Kernel, KernelConfig
from repro.parallel.supervisor import _drop_pool
from repro.topology.presets import generic_smp, power6_js22

_TEST_TIMEOUT_S = int(os.environ.get("REPRO_TEST_TIMEOUT", "120"))


def _alarm_timeout_active(item) -> bool:
    if _TEST_TIMEOUT_S <= 0 or not hasattr(signal, "SIGALRM"):
        return False
    # pytest-timeout (when installed *and* given a timeout) already covers
    # this test; don't stack a second, shorter clock on top of it.
    if getattr(item.config.option, "timeout", None):
        return False
    return True


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if not _alarm_timeout_active(item):
        return (yield)

    def _expired(signum, frame):
        raise pytest.fail.Exception(
            f"test exceeded the {_TEST_TIMEOUT_S}s wall-clock budget "
            f"(REPRO_TEST_TIMEOUT to change)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(_TEST_TIMEOUT_S)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _fresh_campaign_pool():
    """Shut the process's campaign worker pool down after every test.

    Pooled campaigns reuse one forked pool per process.  A test's
    monkeypatches are undone at teardown, but workers forked under them
    would keep them, so no pool outlives the test that built it."""
    yield
    _drop_pool()


@pytest.fixture
def js22():
    return power6_js22()


@pytest.fixture
def smp4():
    return generic_smp(4)


@pytest.fixture
def stock_kernel(js22):
    """A stock kernel on the js22 with no noise."""
    return Kernel(js22, KernelConfig.stock(), seed=1)


@pytest.fixture
def hpl_kernel(js22):
    """An HPL kernel on the js22 with no noise."""
    return Kernel(js22, KernelConfig.hpl(), seed=1)


@pytest.fixture
def quiet():
    return quiet_profile()


def run_to_completion(kernel, horizon=600_000_000):
    """Drive a kernel's simulator until quiescence or *horizon*."""
    return kernel.sim.run_until(horizon)


@pytest.fixture
def drive():
    return run_to_completion
