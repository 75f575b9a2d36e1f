"""Real Slurm behind the backend contract, Kive ``slurmlib``-style.

Drives a Slurm installation through its command-line tools — the same
surface the paper's protocol is defined against — with subprocess calls:

* ``sbatch --parsable -J <name> -N <nodes> -t <limit> --wrap "sleep D"``
* ``scancel <id>``
* ``scontrol update JobId=<id> TimeLimit=<limit>``
* ``sacct --parsable2 --noheader --format=... -j id1,id2,...``

Accounting is *batched*: one ``sacct`` call covers every job this
backend submitted, and results are cached for ``poll_interval`` wall
seconds (the poll-interval budget), so a driver polling in a tight loop
costs one subprocess per interval, not one per job per iteration — the
lesson of Kive's slurmlib, which Slurm operators learn the hard way.

State strings parse into first-class :class:`~repro.slurm.job.JobState`
members, including the real-cluster-only taxonomy (``NODE_FAIL``,
``PREEMPTED``, ``SUSPENDED``, ``DEADLINE``, ``BOOT_FAIL``) and the
suffixed forms (``CANCELLED by <uid>``).

Every command is overridable — constructor option, else environment
variable (``REPRO_SLURM_SBATCH`` etc.), else the bare tool name — which
is how the conformance suite points this backend at the hermetic
:mod:`repro.backend.fake_slurmd` spool instead of a slurmctld.
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.backend.base import (
    AccountingRecord,
    BackendCapabilities,
    ExecutionBackend,
    JobRequest,
    register_backend,
)
from repro.errors import BackendError
from repro.slurm.job import JobState

#: (option key, environment variable, default executable).
_COMMANDS = (
    ("sbatch", "REPRO_SLURM_SBATCH", "sbatch"),
    ("scancel", "REPRO_SLURM_SCANCEL", "scancel"),
    ("squeue", "REPRO_SLURM_SQUEUE", "squeue"),
    ("sacct", "REPRO_SLURM_SACCT", "sacct"),
    ("scontrol", "REPRO_SLURM_SCONTROL", "scontrol"),
)

#: sacct fields the accounting query requests, in order.
_SACCT_FIELDS = "JobID,JobName,State,NNodes,Submit,Start,End,ElapsedRaw"


def format_timelimit(seconds: float) -> str:
    """Seconds -> an sbatch/scontrol ``minutes:seconds`` time spec."""
    if seconds <= 0:
        raise BackendError(f"time limit must be positive, got {seconds}")
    whole = int(seconds)
    if whole < seconds:
        whole += 1  # never round a limit down
    return f"{whole // 60}:{whole % 60:02d}"


def parse_sacct_time(text: str) -> Optional[float]:
    """One sacct time cell -> epoch seconds (None when not applicable).

    Real sacct prints ISO-8601 to whole seconds (``2017-08-07T12:00:05``)
    or ``Unknown``/``None``; the fake prints epoch floats for sub-second
    precision.  Accept all of them.
    """
    text = text.strip()
    if not text or text in ("Unknown", "None", "N/A", "NONE", "INVALID"):
        return None
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return time.mktime(time.strptime(text, "%Y-%m-%dT%H:%M:%S"))
    except ValueError:
        raise BackendError(f"unparseable sacct timestamp {text!r}") from None


@register_backend
class SubprocessSlurmBackend(ExecutionBackend):
    """``sbatch``/``scancel``/``sacct`` subprocess calls as a backend."""

    name = "slurm"
    #: No external resize: growing a running Slurm job needs the paper's
    #: in-application protocol, which a --wrap "sleep" job cannot run.
    CAPABILITIES = BackendCapabilities(
        supports_resize=False, supports_faults=False, clock="wall"
    )

    def __init__(
        self,
        poll_interval: float = 0.2,
        partition: Optional[str] = None,
        **commands: str,
    ) -> None:
        unknown = set(commands) - {key for key, _, _ in _COMMANDS}
        if unknown:
            raise BackendError(f"unknown slurm backend options: {sorted(unknown)}")
        self.poll_interval = poll_interval
        self.partition = partition
        self._commands: Dict[str, List[str]] = {}
        for key, env_var, default in _COMMANDS:
            value = commands.get(key) or os.environ.get(env_var) or default
            self._commands[key] = shlex.split(value)
        self._submitted: List[str] = []
        self._names: Dict[str, str] = {}
        self._cache: Optional[Tuple[float, Set[str], Dict[str, AccountingRecord]]] = None

    # -- clock ----------------------------------------------------------------
    def now(self) -> float:
        return time.time()

    def wait(self, seconds: float) -> None:
        if seconds < 0:
            raise BackendError(f"cannot wait a negative time ({seconds})")
        if seconds:
            time.sleep(seconds)

    # -- subprocess plumbing --------------------------------------------------
    def _run(self, tool: str, args: Sequence[str]) -> str:
        cmd = self._commands[tool] + list(args)
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=60.0
            )
        except FileNotFoundError as exc:
            raise BackendError(f"{tool}: executable not found ({cmd[0]!r})") from exc
        except subprocess.TimeoutExpired as exc:
            raise BackendError(f"{tool} timed out: {cmd}") from exc
        if proc.returncode != 0:
            raise BackendError(
                f"{tool} failed (exit {proc.returncode}): "
                f"{proc.stderr.strip() or proc.stdout.strip()}"
            )
        return proc.stdout

    # -- job control ----------------------------------------------------------
    def submit(self, request: JobRequest) -> str:
        args = [
            "--parsable",
            "-J",
            request.name,
            "-N",
            str(request.num_nodes),
            "-t",
            format_timelimit(request.time_limit),
        ]
        if self.partition:
            args += ["-p", self.partition]
        args += ["--wrap", f"sleep {request.duration}"]
        out = self._run("sbatch", args).strip()
        if not out:
            raise BackendError("sbatch produced no job id")
        # --parsable prints "jobid" or "jobid;cluster".
        job_id = out.splitlines()[-1].split(";")[0].strip()
        self._submitted.append(job_id)
        self._names[job_id] = request.name
        self._cache = None
        return job_id

    def _known(self, job_id: str) -> None:
        if job_id not in self._names:
            raise BackendError(f"slurm backend: unknown job id {job_id!r}")

    def cancel(self, job_id: str) -> None:
        self._known(job_id)
        self._run("scancel", [job_id])
        self._cache = None

    def update_nodes(self, job_id: str, num_nodes: int) -> None:
        raise BackendError(
            "slurm backend: external resize is unsupported (the paper's "
            "expand protocol must run inside the application; see "
            "capabilities.supports_resize)"
        )

    def update_time_limit(self, job_id: str, time_limit: float) -> None:
        self._known(job_id)
        self._run(
            "scontrol",
            ["update", f"JobId={job_id}", f"TimeLimit={format_timelimit(time_limit)}"],
        )
        self._cache = None

    # -- accounting -----------------------------------------------------------
    def query_jobs(
        self, job_ids: Optional[Sequence[str]] = None
    ) -> Dict[str, AccountingRecord]:
        wanted = list(job_ids) if job_ids is not None else list(self._submitted)
        for job_id in wanted:
            self._known(job_id)
        if not wanted:
            return {}
        key = set(wanted)
        if self._cache is not None:
            at, cached_ids, cached = self._cache
            if key <= cached_ids and self.now() - at < self.poll_interval:
                return {job_id: cached[job_id] for job_id in wanted if job_id in cached}
        records = self._sacct(list(self._submitted))
        self._cache = (self.now(), set(records), records)
        return {job_id: records[job_id] for job_id in wanted if job_id in records}

    def _sacct(self, job_ids: List[str]) -> Dict[str, AccountingRecord]:
        out = self._run(
            "sacct",
            [
                "--parsable2",
                "--noheader",
                f"--format={_SACCT_FIELDS}",
                "-j",
                ",".join(job_ids),
            ],
        )
        records: Dict[str, AccountingRecord] = {}
        for line in out.splitlines():
            line = line.strip()
            if not line:
                continue
            cells = line.split("|")
            if len(cells) < 8:
                raise BackendError(f"malformed sacct row: {line!r}")
            job_id = cells[0].strip()
            if "." in job_id or "+" in job_id:
                continue  # job steps (4242.batch) and het components
            start = parse_sacct_time(cells[5])
            records[job_id] = AccountingRecord(
                job_id=job_id,
                name=cells[1],
                state=JobState.from_slurm(cells[2]),
                num_nodes=int(cells[3] or 0),
                submit_time=parse_sacct_time(cells[4]),
                start_time=start,
                end_time=parse_sacct_time(cells[6]),
                elapsed=float(cells[7]) if cells[7].strip() else None,
            )
        # sacct can lag a freshly submitted job; surface it as PENDING
        # rather than dropping it from the answer.
        for job_id in job_ids:
            if job_id not in records:
                records[job_id] = AccountingRecord(
                    job_id=job_id,
                    name=self._names.get(job_id, ""),
                    state=JobState.PENDING,
                    num_nodes=0,
                )
        return records

    # -- availability ---------------------------------------------------------
    @classmethod
    def available(cls) -> Tuple[bool, str]:
        missing = []
        for key, env_var, default in _COMMANDS:
            value = os.environ.get(env_var) or default
            argv0 = shlex.split(value)[0]
            if shutil.which(argv0) is None and not os.path.exists(argv0):
                missing.append(f"{key} ({argv0})")
        if missing:
            return False, "not on PATH: " + ", ".join(missing)
        return True, "slurm command-line tools found"
