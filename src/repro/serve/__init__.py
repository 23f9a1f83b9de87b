"""repro.serve — the always-on study service.

The one-shot CLI answers "run this config once"; the service answers
"keep a warm cache and answer study requests for as long as I'm up".
It is a zero-dependency HTTP server hand-rolled over
``asyncio.start_server`` streams (no ``http.server``, no third-party
frameworks) wrapping three existing layers:

* **submissions** — ``POST /studies`` takes a world-config payload
  (schema ``repro.serve/job/v1``), schedules it on a bounded job queue
  and executes it through :func:`repro.runtime.run_study` against the
  server's shared content-addressed cache, so a re-submitted config
  replays warm;
* **progress** — ``GET /studies/<id>/events`` streams each job's
  lifecycle as Server-Sent Events (schema ``repro.serve/event/v1``)
  sourced live from the span tracer: stage start/finish, wall times,
  and the cache hit/miss outcome;
* **history** — the PR-5 run ledger is served over HTTP: ``GET /runs``,
  ``GET /runs/<selector>``, ``GET /runs/<a>/diff/<b>`` and
  ``PUT /baseline``, plus ``GET /healthz`` and ``GET /metrics`` for
  liveness and the headline warm-cache hit-rate gauge.

Start it with ``repro serve --port P --cache-dir D --workers N``; see
``docs/service.md`` for the endpoint reference, the job state machine
and a curl walkthrough.

Layering: serve sits between the runtime facade and the CLI — it may
import config/obs/runtime, and only the CLI imports it.  It is also the
single package the I902 resource rule allows to open a listening
socket; everything beneath it stays hermetic.
"""

from repro.serve.http import HttpError, Request, Router, read_request
from repro.serve.jobs import Job, JobManager, JobQueueFullError
from repro.serve.schemas import (
    EVENT_SCHEMA,
    JOB_SCHEMA,
    config_from_payload,
    event_payload,
    validate_event,
)
from repro.serve.server import StudyServer
from repro.serve.sse import SSE_CONTENT_TYPE, decode_events, encode_event

__all__ = [
    "HttpError",
    "Request",
    "Router",
    "read_request",
    "Job",
    "JobManager",
    "JobQueueFullError",
    "EVENT_SCHEMA",
    "JOB_SCHEMA",
    "config_from_payload",
    "event_payload",
    "validate_event",
    "StudyServer",
    "SSE_CONTENT_TYPE",
    "decode_events",
    "encode_event",
]
