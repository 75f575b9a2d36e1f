"""Communicators for the in-process MPI substrate."""

from __future__ import annotations

from itertools import count
from typing import List, Optional, Tuple

from repro.errors import CommunicatorError

_comm_ids = count(1)


class Communicator:
    """An intra-communicator: an ordered group of process ids."""

    def __init__(self, procs: Tuple[int, ...], name: str = "comm") -> None:
        if not procs:
            raise CommunicatorError("a communicator needs at least one process")
        if len(set(procs)) != len(procs):
            raise CommunicatorError(f"duplicate processes in {procs}")
        self.cid = next(_comm_ids)
        self.procs = tuple(procs)
        self.name = name
        self.freed = False

    @property
    def size(self) -> int:
        return len(self.procs)

    def rank_of(self, proc_id: int) -> int:
        """Rank of a process id within this communicator."""
        try:
            return self.procs.index(proc_id)
        except ValueError:
            raise CommunicatorError(
                f"process {proc_id} is not in {self.name} ({self.procs})"
            ) from None

    def proc_at(self, rank: int) -> int:
        """Process id of the given rank."""
        if not 0 <= rank < self.size:
            raise CommunicatorError(
                f"rank {rank} out of range for {self.name} of size {self.size}"
            )
        return self.procs[rank]

    def contains(self, proc_id: int) -> bool:
        return proc_id in self.procs

    def free(self) -> None:
        self.freed = True

    def __repr__(self) -> str:
        return f"<Communicator {self.name!r} size={self.size}>"


class Intercommunicator:
    """Connects two disjoint groups (the result of ``MPI_Comm_spawn``).

    Ranks are *remote-group relative*: sending to rank ``r`` through an
    intercommunicator targets the r-th process of the other group, exactly
    as in MPI.
    """

    def __init__(
        self,
        local: Communicator,
        remote: Communicator,
        name: str = "intercomm",
    ) -> None:
        overlap = set(local.procs) & set(remote.procs)
        if overlap:
            raise CommunicatorError(f"groups overlap on processes {sorted(overlap)}")
        self.cid = next(_comm_ids)
        self.local = local
        self.remote = remote
        self.name = name
        self.freed = False

    def side_of(self, proc_id: int) -> str:
        if self.local.contains(proc_id):
            return "local"
        if self.remote.contains(proc_id):
            return "remote"
        raise CommunicatorError(f"process {proc_id} not part of {self.name}")

    def peer_group(self, proc_id: int) -> Communicator:
        """The group a process sends *to* through this intercommunicator."""
        return self.remote if self.side_of(proc_id) == "local" else self.local

    def free(self) -> None:
        self.freed = True

    def __repr__(self) -> str:
        return (
            f"<Intercommunicator {self.name!r} "
            f"local={self.local.size} remote={self.remote.size}>"
        )
