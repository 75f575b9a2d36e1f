"""Repository-root pytest configuration.

Loads the :mod:`repro.testing` plugin so every test and benchmark in the
tier-1 run — experiment drivers, CLI invocations, sweep cells and the
per-figure benches alike — gets an
:class:`~repro.testing.invariants.InvariantObserver` attached to each
``Session.build`` for free (opt out per test with
``@pytest.mark.no_invariants``).
"""

import os
import sys

# The suite is documented to run with PYTHONPATH=src; make collection
# robust when a bare `pytest` is invoked without it, and let the child
# processes some tests start (`python -m repro ...`) import it too.
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH")))
)

pytest_plugins = ("repro.testing.pytest_plugin",)
