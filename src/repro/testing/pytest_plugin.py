"""Pytest plugin wiring invariant checks into every Session-built run.

Loaded by the repository's root ``conftest.py`` (``pytest_plugins``), so
every tier-1 test and benchmark that assembles a simulation through
:meth:`repro.api.Session.build` gets a live
:class:`~repro.testing.invariants.InvariantObserver` for free — the
experiment drivers, CLI tests, sweep cells (in-process ones) and
benchmarks are all invariant-checked on every run without any of them
knowing.

Opt out per-test with the ``no_invariants`` marker, for the rare test
that intentionally drives the simulation into an illegal state::

    @pytest.mark.no_invariants
    def test_breaks_things_on_purpose(): ...
"""

from __future__ import annotations

import os

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="run tests marked slow (e.g. the million-job scale bench)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "no_invariants: disable the automatic InvariantObserver wiring "
        "for this test (it intentionally violates a simulation invariant)",
    )
    config.addinivalue_line(
        "markers",
        "slow: multi-minute test, skipped unless --run-slow (or "
        "REPRO_RUN_SLOW=1) is given",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow") or os.environ.get("REPRO_RUN_SLOW"):
        return
    skip_slow = pytest.mark.skip(
        reason="slow test: opt in with --run-slow or REPRO_RUN_SLOW=1"
    )
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(autouse=True)
def _invariant_checked_sessions(request, monkeypatch):
    """Append an InvariantObserver to every Session.build in the test."""
    if request.node.get_closest_marker("no_invariants"):
        yield
        return
    from repro.api.session import Session
    from repro.testing.invariants import InvariantObserver

    original_build = Session.build
    observers = []

    def checked_build(self):
        observer = InvariantObserver()
        observers.append(observer)
        return original_build(self.observe(observer))

    monkeypatch.setattr(Session, "build", checked_build)
    yield
    # End-of-run sweep: last-timestamp failures have no later event to
    # trigger the online check, so verify them at teardown (raises
    # InvariantViolation, failing the test).
    for observer in observers:
        observer.verify_final()
