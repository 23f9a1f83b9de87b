"""The study service: routes, transport and process lifecycle.

:class:`StudyServer` binds its listening socket explicitly (the one
socket the I902 carve-out sanctions — ``SO_REUSEADDR``, port ``0``
means "pick an ephemeral port", published as ``server.port`` once
bound) and hands it to ``asyncio.start_server``; every connection is
one request (``Connection: close``), parsed and answered by the
handlers below.

Endpoints (see ``docs/service.md`` for the full reference)::

    GET  /healthz                     liveness
    GET  /metrics                     job counts + registry snapshot
                                      (?format=prometheus or an Accept
                                      preferring text/plain switches to
                                      the Prometheus text exposition)
    POST /studies                     submit a config     -> 202 job
    GET  /studies                     all jobs, oldest first
    GET  /studies/{job_id}            one job document
    GET  /studies/{job_id}/events     SSE progress stream
    GET  /runs                        ledger summaries
    GET  /runs/{selector}             one ledger record
    GET  /runs/{a}/diff/{b}           classified metric deltas
    PUT  /baseline                    point the baseline selector

Error taxonomy → status codes: :class:`~repro.serve.http.HttpError`
carries its own status; a full queue is 503; any other
:class:`~repro.errors.ServeError`/:class:`~repro.errors.ConfigError`
(bad submission) is 400; :class:`~repro.errors.ObservabilityError`
(missing ledger, unresolvable selector) is 404.  Handlers never leak
tracebacks onto the wire.

:meth:`StudyServer.run` is the blocking entry point the CLI uses; it
owns an event loop until :meth:`request_stop` (thread-safe) or
``KeyboardInterrupt`` ends it, then drains the job executor before the
loop closes.
"""

from __future__ import annotations

import asyncio
import os
import socket
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError, ObservabilityError, ServeError
from repro.obs import names as obs_names
from repro.obs.diff import diff_records
from repro.obs.ledger import (
    ledger_path,
    load_ledger,
    read_baseline,
    select_record,
    write_baseline,
)
from repro.obs.export import PROMETHEUS_CONTENT_TYPE, prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.persist import append_jsonl_line
from repro.serve.http import (
    HttpError,
    RawResponse,
    Request,
    Router,
    json_response,
    read_request,
    response_head,
)
from repro.serve.jobs import JobManager, JobQueueFullError
from repro.serve.sse import SSE_CONTENT_TYPE, encode_comment, encode_event


class StudyServer:
    """The always-on study service over one shared cache directory."""

    def __init__(
        self,
        cache_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        job_limit: int = 1,
        queue_limit: int = 8,
        log_path: Optional[str] = None,
    ) -> None:
        self.cache_dir = cache_dir
        self.host = host
        self.port = port
        self.log_path = log_path
        self.registry = MetricsRegistry()
        self.jobs = JobManager(
            cache_dir=cache_dir,
            workers=workers,
            job_limit=job_limit,
            queue_limit=queue_limit,
            registry=self.registry,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._router = Router()
        # Literal-suffix routes first: registration order is match order.
        self._router.add("GET", "/healthz", self._get_healthz)
        self._router.add("GET", "/metrics", self._get_metrics)
        self._router.add("POST", "/studies", self._post_studies)
        self._router.add("GET", "/studies", self._get_studies)
        self._router.add(
            "GET", "/studies/{job_id}/events", self._get_study_events
        )
        self._router.add("GET", "/studies/{job_id}", self._get_study)
        self._router.add("GET", "/runs", self._get_runs)
        self._router.add("GET", "/runs/{a}/diff/{b}", self._get_diff)
        self._router.add("GET", "/runs/{selector}", self._get_run)
        self._router.add("PUT", "/baseline", self._put_baseline)
        self._streaming = {self._get_study_events}

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket, start the acceptor and the job workers."""
        await self.jobs.start()
        # The explicit socket (rather than host=/port= on start_server)
        # is deliberate: binding first means the ephemeral port is known
        # and published before the first connection, and the server owns
        # exactly one sanctioned network touchpoint.
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.host, self.port))
        except OSError as exc:
            sock.close()
            raise ServeError(
                f"cannot bind {self.host}:{self.port}: {exc}"
            ) from exc
        sock.listen(128)
        sock.setblocking(False)
        self.port = sock.getsockname()[1]
        self._server = await asyncio.start_server(
            self._handle_connection, sock=sock
        )

    async def stop(self) -> None:
        """Stop accepting, then drain the job workers and executor."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.jobs.stop()

    def run(
        self, on_ready: Optional[Callable[["StudyServer"], None]] = None
    ) -> None:
        """Blocking entry point: serve until :meth:`request_stop`.

        ``on_ready`` fires on the loop thread once the socket is bound
        (``server.port`` is final) — the hook the CLI prints its
        "listening on" line from and the smoke harness unblocks on.
        """
        asyncio.run(self._serve(on_ready))

    async def _serve(
        self, on_ready: Optional[Callable[["StudyServer"], None]]
    ) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self.start()
        try:
            if on_ready is not None:
                on_ready(self)
            await self._stop_event.wait()
        finally:
            await self.stop()

    def request_stop(self) -> None:
        """Thread-safe shutdown signal for a :meth:`run` in flight."""
        if self._loop is None or self._stop_event is None:
            raise ServeError("server is not running")
        self._loop.call_soon_threadsafe(self._stop_event.set)

    # -- connection handling ---------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        route = "(unrouted)"
        status = 500
        request: Optional[Request] = None
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                handler, params, route = self._router.match(
                    request.method, request.path
                )
                self.registry.counter(
                    obs_names.SERVE_HTTP_REQUESTS, route=route
                ).inc()
                if handler in self._streaming:
                    status = await handler(request, params, writer)
                else:
                    status, payload = await handler(request, params)
                    if isinstance(payload, RawResponse):
                        writer.write(
                            response_head(
                                status,
                                content_type=payload.content_type,
                                content_length=len(payload.body),
                            )
                            + payload.body
                        )
                    else:
                        writer.write(json_response(status, payload))
            except HttpError as exc:
                status = exc.status
                writer.write(json_response(status, {"error": str(exc)}))
            except JobQueueFullError as exc:
                status = 503
                writer.write(json_response(status, {"error": str(exc)}))
            except (ConfigError, ServeError) as exc:
                status = 400
                writer.write(json_response(status, {"error": str(exc)}))
            except ObservabilityError as exc:
                status = 404
                writer.write(json_response(status, {"error": str(exc)}))
            await writer.drain()
            try:
                # The access log appends to a file: off the loop thread.
                await asyncio.get_running_loop().run_in_executor(
                    None, self._log, request, route, status
                )
            except asyncio.CancelledError:
                # Loop teardown can cancel the off-thread append after
                # the response went out; drop the log line rather than
                # end the task cancelled — asyncio's streams protocol
                # callback calls task.exception() on it and would spray
                # the cancellation as an unhandled-callback traceback.
                return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                # The peer hanging up mid-close is its business.
                pass

    def _log(
        self, request: Optional[Request], route: str, status: int
    ) -> None:
        if self.log_path is None or request is None:
            return
        append_jsonl_line(self.log_path, {
            "method": request.method,
            "path": request.path,
            "route": route,
            "status": status,
        })

    # -- service handlers ------------------------------------------------
    async def _get_healthz(
        self, request: Request, params: Dict[str, str]
    ) -> Tuple[int, Any]:
        return 200, {
            "status": "ok",
            "cache_dir": self.cache_dir,
            "workers": self.jobs.workers,
            "job_limit": self.jobs.job_limit,
            "queue_limit": self.jobs.queue_limit,
        }

    async def _get_metrics(
        self, request: Request, params: Dict[str, str]
    ) -> Tuple[int, Any]:
        fmt = request.query.get("format")
        if fmt not in (None, "json", "prometheus"):
            raise HttpError(
                400,
                f"unknown metrics format {fmt!r} "
                "(expected 'json' or 'prometheus')",
            )
        accept = request.headers.get("accept", "")
        if fmt == "prometheus" or (
            fmt is None and "text/plain" in accept
        ):
            body = prometheus_text(self.registry.to_dict())
            return 200, RawResponse(
                body=body.encode("utf-8"),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        counts = self.jobs.counts()
        return 200, {
            "jobs": counts,
            "warm_hit_rate": self.jobs.warm_hit_rate,
            "metrics": self.registry.to_dict(),
        }

    # -- study handlers --------------------------------------------------
    async def _post_studies(
        self, request: Request, params: Dict[str, str]
    ) -> Tuple[int, Any]:
        job = self.jobs.submit(request.json())
        return 202, job.to_payload()

    async def _get_studies(
        self, request: Request, params: Dict[str, str]
    ) -> Tuple[int, Any]:
        return 200, {
            "jobs": [
                self.jobs.jobs[job_id].to_payload()
                for job_id in self.jobs.order
            ],
        }

    def _job_or_404(self, job_id: str):
        job = self.jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"no job {job_id!r}")
        return job

    async def _get_study(
        self, request: Request, params: Dict[str, str]
    ) -> Tuple[int, Any]:
        return 200, self._job_or_404(params["job_id"]).to_payload()

    async def _get_study_events(
        self,
        request: Request,
        params: Dict[str, str],
        writer: asyncio.StreamWriter,
    ) -> int:
        """SSE: replay the job's history, then stream until terminal."""
        job = self._job_or_404(params["job_id"])
        writer.write(response_head(200, content_type=SSE_CONTENT_TYPE))
        writer.write(encode_comment(f"repro.serve events for job {job.job_id}"))
        queue = self.jobs.subscribe(job)
        try:
            # Subscribe-then-replay on the loop thread: no event can
            # land between the history snapshot and the live queue.
            seen = len(job.events)
            for event in job.events[:seen]:
                writer.write(encode_event(event))
            await writer.drain()
            terminal = any(
                event["event"] == "job:done" for event in job.events[:seen]
            )
            while not terminal:
                event = await queue.get()
                writer.write(encode_event(event))
                await writer.drain()
                terminal = event["event"] == "job:done"
        finally:
            self.jobs.unsubscribe(job, queue)
        return 200

    # -- ledger handlers -------------------------------------------------
    def _ledger(self) -> Tuple[str, List[Dict[str, Any]], Optional[str]]:
        """Blocking ledger read; handlers call it via ``run_in_executor``
        so the loop thread never touches the filesystem."""
        path = ledger_path(self.cache_dir)
        records = load_ledger(path)
        return path, records, read_baseline(path)

    async def _get_runs(
        self, request: Request, params: Dict[str, str]
    ) -> Tuple[int, Any]:
        path = ledger_path(self.cache_dir)
        if not os.path.exists(path):
            # A service that has not run anything yet has an empty
            # history, not a missing one.
            return 200, {"ledger": path, "baseline": None, "runs": []}
        _path, records, baseline_id = await asyncio.get_running_loop(
        ).run_in_executor(None, self._ledger)
        return 200, {
            "ledger": path,
            "baseline": baseline_id,
            "runs": [
                {
                    "seq": record["seq"],
                    "run_id": record["run_id"],
                    "kind": record["kind"],
                    "config_digest": record.get("config", {}).get("digest"),
                    "workers": record.get("workers"),
                    "wall_s": round(sum(
                        float(stage.get("wall_s", 0.0))
                        for stage in record.get("stages", ())
                    ), 6),
                }
                for record in records
            ],
        }

    async def _get_run(
        self, request: Request, params: Dict[str, str]
    ) -> Tuple[int, Any]:
        _path, records, baseline_id = await asyncio.get_running_loop(
        ).run_in_executor(None, self._ledger)
        return 200, select_record(records, params["selector"], baseline_id)

    async def _get_diff(
        self, request: Request, params: Dict[str, str]
    ) -> Tuple[int, Any]:
        _path, records, baseline_id = await asyncio.get_running_loop(
        ).run_in_executor(None, self._ledger)
        record_a = select_record(records, params["a"], baseline_id)
        record_b = select_record(records, params["b"], baseline_id)
        return 200, diff_records(record_a, record_b).to_dict()

    async def _put_baseline(
        self, request: Request, params: Dict[str, str]
    ) -> Tuple[int, Any]:
        body = request.json()
        if not isinstance(body, dict) or not isinstance(
            body.get("selector"), str
        ):
            raise HttpError(
                400, 'baseline body must be {"selector": "<record>"}'
            )
        loop = asyncio.get_running_loop()
        path, records, baseline_id = await loop.run_in_executor(
            None, self._ledger
        )
        record = select_record(records, body["selector"], baseline_id)
        await loop.run_in_executor(
            None, write_baseline, path, record["run_id"]
        )
        return 200, {"baseline": record["run_id"], "seq": record["seq"]}
