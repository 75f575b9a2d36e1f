"""Deterministic discrete-event simulation kernel.

The workload-level experiments of the reproduction run entirely in virtual
time on this kernel: the Slurm substrate, the Nanos++ runtime model and the
application iteration models are all simulation processes.

Public surface::

    env = Environment()
    env.process(gen)          # start a generator-based process
    env.timeout(5.0)          # waitable delay
    env.run(until=...)        # drive the clock

plus :class:`RandomStreams` for named reproducible randomness.  The
pending events live in one ``(time, priority, serial, event)`` heap owned
by :class:`Environment` (see :mod:`repro.sim.engine`).
"""

from repro.sim.engine import EmptySchedule, Environment
from repro.sim.events import AllOf, AnyOf, Condition, ConditionValue, Event, Timeout
from repro.sim.process import Interrupt, Process
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "EmptySchedule",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "RandomStreams",
    "Timeout",
]
