"""OmpSs offload semantics over the MPI substrate (Section VI).

The paper's programming model expresses the reconfiguration hand-over as
task offloads::

    #pragma omp task inout(subdata) onto(handler, dest)
    compute(subdata, t);
    #pragma omp taskwait

An offloaded task ships its ``inout`` data to process ``dest`` of the
spawned communicator; the ``taskwait`` closes the region, after which the
original process terminates and execution continues in the new set.

:class:`OffloadRegion` provides that shape for rank generators: each
:meth:`~OffloadRegion.task` transfers the data dependence to the target
process, and :meth:`~OffloadRegion.taskwait` completes the region.  The
receiving generation calls :func:`receive_offload` — the runtime side
that unpacks the data dependence and the resume point.
"""

from __future__ import annotations

from typing import Any, Generator, List, Tuple

from repro.errors import RuntimeAPIError
from repro.mpi.comm import Intercommunicator
from repro.mpi.executor import RankContext
from repro.mpi.ops import Op

#: Message tag reserved for offloaded task payloads.
OFFLOAD_TAG = 0x0F0D


class OffloadRegion:
    """An open set of offload tasks onto a spawned process set."""

    def __init__(self, ctx: RankContext, handler: Intercommunicator) -> None:
        if not isinstance(handler, Intercommunicator):
            raise RuntimeAPIError(
                f"onto() needs the spawn handler (an intercommunicator), "
                f"got {handler!r}"
            )
        self.ctx = ctx
        self.handler = handler
        self._tasks: List[int] = []
        self._closed = False

    def task(
        self, dest: int, inout: Any, resume_at: int = 0
    ) -> Generator[Op, Any, None]:
        """``task inout(data) onto(handler, dest)``: offload one task.

        ``inout`` is the task's data dependence; ``resume_at`` tells the
        target where to pick up the computation (the ``t`` argument of
        Listing 3's offloaded ``compute(subdata, t)``).
        """
        if self._closed:
            raise RuntimeAPIError("offload region already closed by taskwait")
        yield self.ctx.send(dest, (inout, resume_at), tag=OFFLOAD_TAG, comm=self.handler)
        self._tasks.append(dest)

    def taskwait(self) -> Generator[Op, Any, int]:
        """``#pragma omp taskwait``: close the region.

        Offload transfers are eager on this substrate, so the wait
        completes once every task has been shipped; afterwards the caller
        is expected to terminate (the Listing 2/3 semantics: "the initial
        processes terminate, letting the execution continue in the
        processes of the new communicator").  Returns the task count.
        """
        self._closed = True
        return len(self._tasks)
        yield  # pragma: no cover - makes this a generator for API symmetry

    @property
    def offloaded(self) -> Tuple[int, ...]:
        """Destinations that received a task from this rank."""
        return tuple(self._tasks)


def receive_offload(ctx: RankContext) -> Generator[Op, Any, Tuple[Any, int]]:
    """Runtime side of an offloaded task in the spawned process set.

    Returns ``(inout_data, resume_at)`` — the analogue of Listing 1's
    child branch (``MPI_Comm_get_parent`` + receives from the parent).
    """
    if ctx.parent is None:
        raise RuntimeAPIError(
            "receive_offload() called in a world with no parent "
            "(MPI_Comm_get_parent returned MPI_COMM_NULL)"
        )
    payload = yield ctx.recv(tag=OFFLOAD_TAG, comm=ctx.parent)
    data, resume_at = payload
    return data, resume_at
