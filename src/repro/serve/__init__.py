"""Scheduler-as-a-service: `repro serve` and its load-generator client.

Layering::

    http.py     wire format (request parsing, response/SSE framing)
    jobs.py     bounded worker pool, job registry, drain lifecycle
    app.py      routes, validation, metrics, the server itself
    loadgen.py  concurrent benchmark client (`repro loadgen`)
"""

from repro.serve.app import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    ReproServer,
    RequestMetrics,
    ServerThread,
    run_server,
)
from repro.serve.jobs import (
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_WORKERS,
    EventBridge,
    JobManager,
    ServeJob,
)

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DEFAULT_QUEUE_LIMIT",
    "DEFAULT_WORKERS",
    "ReproServer",
    "RequestMetrics",
    "ServerThread",
    "run_server",
    "JobManager",
    "ServeJob",
    "EventBridge",
]
