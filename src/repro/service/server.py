"""The allocation service: HTTP front end over the queue and worker pool.

:class:`AllocationService` composes the durable :class:`JobQueue`, the
:class:`WorkerPool` and a :class:`ServiceTelemetry` aggregate, and serves
them over plain :mod:`http.server` (stdlib only — the repo's
zero-dependency rule extends to the service):

========  =====================  ==========================================
method    path                   behaviour
========  =====================  ==========================================
POST      ``/v1/jobs``           submit (201 created, 200 deduped,
                                 400 malformed)
POST      ``/v1/batches``        submit a multi-submission batch, claimed
                                 as one unit by a single worker (same
                                 status codes as ``/v1/jobs``); members
                                 with the same graph share one problem
GET       ``/v1/jobs/<id>``      one job (404 unknown)
GET       ``/v1/jobs``           newest-first listing (``?state=``,
                                 ``?limit=``, an integer >= 1; 400
                                 otherwise)
GET       ``/v1/stats``          queue depths, cache hit/miss split,
                                 per-stage seconds, queue counters
GET       ``/healthz``           liveness probe
========  =====================  ==========================================

Durability: the queue database outlives the process.  On startup the
service re-queues jobs a previous process left ``running``
(:meth:`JobQueue.recover`); on shutdown the pool drains — workers finish
the jobs they hold, pending jobs simply stay pending and are claimed by
the next process.  The kill-and-restart e2e test (and the CI
``service-smoke`` job) exercise exactly this cycle.

All handlers run in threads (``ThreadingHTTPServer``); the queue and the
telemetry aggregate are the only shared mutable state and both are
internally locked.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro.errors import ServiceError
from repro.service import api
from repro.service.queue import JobQueue
from repro.service.workers import ServiceTelemetry, WorkerPool
from repro.store.base import open_store

#: largest accepted request body (a corpus function is a few KiB; 8 MiB is
#: generous headroom, anything larger is likely a client bug).
MAX_BODY_BYTES = 8 * 1024 * 1024


def default_queue_path(store_path: Union[str, Path]) -> Path:
    """The queue database the CLI derives from a store path by default."""
    store = Path(store_path)
    return store.with_name(store.stem + ".queue.sqlite")


class AllocationService:
    """The composed service (see the module docstring).

    Usable in-process without HTTP: :meth:`submit`, :meth:`job`,
    :meth:`stats` are exactly what the handlers call, so tests and the
    bench harness drive the same code paths the wire does.
    """

    def __init__(
        self,
        store_path: Union[str, Path],
        queue_path: Union[str, Path, None] = None,
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.store_path = Path(store_path)
        self.queue_path = Path(queue_path) if queue_path is not None else default_queue_path(store_path)
        # Reject bad arguments here, before the store or the queue database
        # is created and before the server binds.
        if workers < 0:
            raise ServiceError(f"workers must be >= 0, got {workers}")
        open_store(self.store_path).close()
        self.telemetry = ServiceTelemetry()
        self.queue = JobQueue(self.queue_path, tracer=self.telemetry)
        #: jobs found ``running`` at startup and re-queued (crash recovery).
        self.recovered = self.queue.recover()
        self.pool = WorkerPool(
            self.queue, self.store_path, workers=workers, telemetry=self.telemetry
        )
        self._host = host
        self._requested_port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # domain operations (shared by HTTP handlers, tests, bench)
    # ------------------------------------------------------------------ #
    def submit(self, body: Any) -> Tuple[Any, bool]:
        """Validate + enqueue one submission; returns ``(job, deduped)``."""
        payload = api.normalize_submission(body)
        return self._enqueue(payload)

    def submit_batch(self, body: Any) -> Tuple[Any, bool]:
        """Validate + enqueue one batch; returns ``(job, deduped)``.

        The batch enters the queue as a *single* job, so one worker claims
        and drains all member submissions together (cache-first, in
        submission order).
        """
        payload = api.normalize_batch(body)
        return self._enqueue(payload)

    def _enqueue(self, payload: Dict[str, Any]) -> Tuple[Any, bool]:
        key = api.job_key(payload)
        job, deduped = self.queue.enqueue(
            payload,
            job_key=key,
            priority=payload["priority"],
            max_attempts=payload["max_attempts"],
            client=payload.get("client", ""),
        )
        if not deduped:
            self.pool.notify()
        return job, deduped

    def job(self, job_id: str) -> Optional[Any]:
        return self.queue.get(job_id)

    def stats(self) -> Dict[str, Any]:
        telemetry = self.telemetry.stats()
        counters = telemetry["counters"]
        return {
            "queue": self.queue.counts(),
            "cache": {
                "hit": counters.get("store.hit", 0),
                "miss": counters.get("store.miss", 0),
            },
            "recovered_on_startup": len(self.recovered),
            "workers": self.pool.workers,
            **telemetry,
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def start(self) -> "AllocationService":
        """Bind the HTTP server and start the workers."""
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((self._host, self._requested_port), handler)
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-service-http", daemon=True
        )
        self._http_thread.start()
        self.pool.start()
        return self

    def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting, drain the workers, close the queue.

        Draining finishes the claimed jobs; pending jobs stay pending in
        the durable queue and are re-claimed by the next process.
        """
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._http_thread is not None:
            self._http_thread.join(timeout=10.0)
            self._http_thread = None
        self.pool.stop(drain=drain)
        self.queue.close()

    def __enter__(self) -> "AllocationService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


# ---------------------------------------------------------------------- #
# the HTTP layer
# ---------------------------------------------------------------------- #
def _make_handler(service: AllocationService) -> type:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        #: quiet by default; the CLI's serve command reports its own line.
        def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
            pass

        # -- plumbing --------------------------------------------------- #
        def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _read_body(self) -> Any:
            length = int(self.headers.get("Content-Length") or 0)
            if length <= 0:
                raise ServiceError("request body required")
            if length > MAX_BODY_BYTES:
                raise ServiceError(f"request body too large ({length} bytes)")
            raw = self.rfile.read(length)
            try:
                return json.loads(raw)
            except ValueError as error:
                raise ServiceError(f"request body is not valid JSON: {error}") from None

        # -- routes ----------------------------------------------------- #
        def do_GET(self) -> None:  # noqa: N802 - http.server contract
            parsed = urlparse(self.path)
            parts = [p for p in parsed.path.split("/") if p]
            try:
                if parts == ["healthz"]:
                    self._send_json(200, {"status": "ok"})
                elif parts == ["v1", "stats"]:
                    self._send_json(200, service.stats())
                elif parts[:2] == ["v1", "jobs"] and len(parts) == 3:
                    job = service.job(parts[2])
                    if job is None:
                        self._send_json(404, {"error": f"unknown job {parts[2]!r}"})
                    else:
                        self._send_json(200, job.to_dict())
                elif parts == ["v1", "jobs"]:
                    query = parse_qs(parsed.query)
                    state = query.get("state", [None])[0]
                    limit = api.listing_limit(query.get("limit", ["100"])[0])
                    jobs = service.queue.list_jobs(state=state, limit=limit)
                    self._send_json(
                        200,
                        {"jobs": [job.to_dict(include_result=False) for job in jobs]},
                    )
                else:
                    self._send_json(404, {"error": f"no such endpoint {parsed.path!r}"})
            except ServiceError as error:
                self._send_json(400, {"error": str(error)})

        def do_POST(self) -> None:  # noqa: N802 - http.server contract
            parsed = urlparse(self.path)
            parts = [p for p in parsed.path.split("/") if p]
            if parts == ["v1", "jobs"]:
                submit = service.submit
            elif parts == ["v1", "batches"]:
                submit = service.submit_batch
            else:
                self._send_json(404, {"error": f"no such endpoint {parsed.path!r}"})
                return
            try:
                job, deduped = submit(self._read_body())
            except ServiceError as error:
                self._send_json(400, {"error": str(error)})
                return
            self._send_json(
                200 if deduped else 201,
                {"job": job.to_dict(include_result=False), "deduped": deduped},
            )

    return Handler
