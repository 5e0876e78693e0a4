"""Shared corpora and reporting for the test suite.

The expensive shared artifacts (exhaustive cycle lists for the 3- and
4-cube, fixed-seed samples for the 5- and 6-cube, and one analysis sweep
over all of them) are session-scoped fixtures, so the acceptance
tests that quote "the same corpus" really do share one corpus and one
pass over it.
"""

from __future__ import annotations

import sys
import time

import pytest
from hypothesis import HealthCheck, settings

import qube.cli  # noqa: F401 -- imports every qube module, for QUBE_MODULES
from qube.cycles import HamiltonianCycle
from qube.enumeration import enumerate_cycles, sample_cycles
from qube.verify import sweep

from _registry import summary_lines

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

SAMPLE_SEED = 20260825
SAMPLE_K = 10_000

# The qube modules of this suite.  The benchmark's tests import qube afresh,
# which replaces these entries of sys.modules when both suites run in one
# process, in either order.  So the test modules here are imported, and
# their tests run, with these entries put back: names looked up by module
# path (monkeypatch targets) then resolve to the modules the tests imported.
QUBE_MODULES = {
    name: module
    for name, module in sys.modules.items()
    if name == "qube" or name.startswith("qube.")
}


@pytest.hookimpl(hookwrapper=True)
def pytest_make_collect_report(collector):
    with pytest.MonkeyPatch.context() as m:
        for name, module in QUBE_MODULES.items():
            m.setitem(sys.modules, name, module)
        yield


@pytest.fixture(autouse=True)
def qube_modules_of_this_suite(monkeypatch):
    for name, module in QUBE_MODULES.items():
        monkeypatch.setitem(sys.modules, name, module)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = summary_lines()
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def q3_cycles() -> list[HamiltonianCycle]:
    return list(enumerate_cycles(3))


@pytest.fixture(scope="session")
def q4_cycles() -> list[HamiltonianCycle]:
    return list(enumerate_cycles(4))


@pytest.fixture(scope="session")
def q5_samples() -> list[HamiltonianCycle]:
    return sample_cycles(5, seed=SAMPLE_SEED, k=SAMPLE_K)


@pytest.fixture(scope="session")
def q6_samples() -> list[HamiltonianCycle]:
    return sample_cycles(6, seed=SAMPLE_SEED, k=SAMPLE_K)


def edge_set_of(h: HamiltonianCycle) -> frozenset[frozenset[int]]:
    """The cycle's undirected edges, independent of start and direction."""
    size = len(h.seq)
    return frozenset(
        frozenset((h.seq[k], h.seq[(k + 1) % size])) for k in range(size)
    )


@pytest.fixture(scope="session")
def corpus_sweeps(q3_cycles, q4_cycles, q5_samples, q6_samples) -> dict[str, tuple]:
    """Per corpus, the tallies of one sweep of every per-cycle acceptance
    check, by property, and the seconds that sweep took."""
    corpora = {
        "Q3 exhaustive": q3_cycles,
        "Q4 exhaustive": q4_cycles,
        "n=5 sample": q5_samples,
        "n=6 sample": q6_samples,
    }
    sweeps = {}
    for label, cycles in corpora.items():
        start = time.perf_counter()
        tallies = sweep(("balance", "recurrence", "segments", "chromatic", "squares"), cycles)
        sweeps[label] = (tallies, time.perf_counter() - start)
    return sweeps
