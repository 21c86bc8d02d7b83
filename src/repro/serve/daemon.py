"""The long-lived HTTP front-end over the job layer (stdlib only).

A thin JSON-over-HTTP surface on ``http.server.ThreadingHTTPServer``
— no new dependencies, one thread per request, jobs on their own
background threads via :class:`~repro.serve.api.JobManager`::

    GET  /healthz                   liveness + service root
    POST /v1/jobs                   {"kind": K, "config": {...}, "fleet": bool}
                                    K: a registered campaign kind (check,
                                    fuzz, env-sweep); a report's config
                                    block works as config, an unknown
                                    field fails the job at submit; jobs
                                    run one at a time
    GET  /v1/jobs                   all job records
    GET  /v1/jobs/<id>              one job record (live progress)
    GET  /v1/jobs/<id>/results      the report (409 until one exists)
    GET  /v1/jobs/<id>/events       typed lifecycle event log
    POST /v1/jobs/<id>/cancel       graceful stop (drain into the store)
    GET  /v1/store/stats            store entry count/bytes/traffic
    POST /v1/store/gc               {"max_entries": N?, "max_age_s": S?,
                                     "max_bytes": B?}
    GET  /v1/analytics              series-store rollups (trends, cache)
    GET  /metrics                   Prometheus text exposition
    GET  /v1/fleet                  lease board stats + worker registry
    POST /v1/fleet/workers          register a fleet worker
    POST /v1/fleet/lease            {"worker": id, "max_units": N?}
                                    -> shard lease | null (idle/draining)
                                    | 429 + Retry-After (backpressure)
    POST /v1/fleet/renew            {"lease": id} heartbeat (410 if gone)
    POST /v1/fleet/complete         {"lease": id, "results": [...],
                                     "done": bool} stream results back

:class:`ServeClient` is the matching ``urllib``-based client the CLI,
workers, and the tests use — every request carries a timeout, and
transport failures retry a bounded number of times with exponential
backoff and jitter, so a hung or restarting daemon can never wedge a
worker or the CLI forever.  :func:`run_daemon` wires SIGINT/SIGTERM to
a graceful shutdown: the lease board stops granting, running jobs
drain into the store (in-flight workers can still stream results while
that happens), and only then does the socket close — so a killed
daemon's campaigns resume from the store on resubmission with nothing
lost.
"""

from __future__ import annotations

import json
import random
import signal
import socket
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.fleet.leases import Backpressure, UnknownLease
from repro.serve.api import FINISHED_STATES, JobManager, UnknownJob

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7341


class ServeHTTPError(ReproError):
    """An HTTP request to the serve daemon failed."""

    def __init__(
        self,
        status: int,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        #: parsed ``Retry-After`` header, when the daemon sent one
        self.retry_after = retry_after


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "ServeServer"

    # -- plumbing ---------------------------------------------------------

    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        if self.server.verbose:
            super().log_message(fmt, *args)

    def _reply(
        self,
        status: int,
        doc: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(doc, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _reply_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length") or 0)
        if not length:
            return {}
        doc = json.loads(self.rfile.read(length).decode("utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc

    def _route(self) -> Tuple[str, ...]:
        return tuple(p for p in self.path.split("?")[0].split("/") if p)

    # -- methods ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        manager = self.server.manager
        route = self._route()
        try:
            if route == ("healthz",):
                self._reply(200, {"ok": True, "root": manager.root})
            elif route == ("v1", "jobs"):
                self._reply(200, {"jobs": manager.list_jobs()})
            elif len(route) == 3 and route[:2] == ("v1", "jobs"):
                self._reply(200, manager.status(route[2]))
            elif (
                len(route) == 4
                and route[:2] == ("v1", "jobs")
                and route[3] == "results"
            ):
                status = manager.status(route[2])
                try:
                    self._reply(200, manager.results(route[2]))
                except ReproError:
                    self._reply(409, {
                        "error": "no report yet",
                        "state": status["state"],
                    })
            elif (
                len(route) == 4
                and route[:2] == ("v1", "jobs")
                and route[3] == "events"
            ):
                self._reply(200, {
                    "job": route[2],
                    "events": manager.job_events(route[2]),
                })
            elif route == ("v1", "store", "stats"):
                self._reply(200, manager.store.stats())
            elif route == ("v1", "fleet"):
                doc = manager.board.stats()
                doc["workers"] = manager.board.workers()
                self._reply(200, doc)
            elif route == ("v1", "analytics"):
                self._reply(200, manager.analytics())
            elif route == ("metrics",):
                self._reply_text(
                    200,
                    manager.metrics_text(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            else:
                self._reply(404, {"error": f"no such route {self.path!r}"})
        except UnknownJob as exc:
            self._reply(404, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - service boundary
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_POST(self) -> None:  # noqa: N802
        manager = self.server.manager
        route = self._route()
        try:
            body = self._body()
            if route == ("v1", "jobs"):
                kind = str(body.get("kind", ""))
                config = body.get("config") or {}
                if not isinstance(config, dict):
                    raise ReproError("config must be a JSON object")
                self._reply(200, manager.submit(
                    kind, config, fleet=bool(body.get("fleet", False))
                ))
            elif route == ("v1", "fleet", "workers"):
                meta = body.get("meta") or {
                    k: v for k, v in body.items() if k != "meta"
                }
                self._reply(200, manager.board.register_worker(meta))
            elif route == ("v1", "fleet", "lease"):
                worker = str(body.get("worker", ""))
                max_units = body.get("max_units")
                shard = manager.board.lease(
                    worker,
                    max_units=(
                        int(max_units) if max_units is not None else None
                    ),
                )
                self._reply(200, {"shard": shard})
            elif route == ("v1", "fleet", "renew"):
                self._reply(
                    200, manager.board.renew(str(body.get("lease", "")))
                )
            elif route == ("v1", "fleet", "complete"):
                results = body.get("results") or []
                if not isinstance(results, list):
                    raise ReproError("results must be a JSON array")
                self._reply(200, manager.board.complete(
                    str(body.get("lease", "")),
                    results,
                    done=bool(body.get("done", True)),
                ))
            elif (
                len(route) == 4
                and route[:2] == ("v1", "jobs")
                and route[3] == "cancel"
            ):
                self._reply(200, manager.cancel(route[2]))
            elif route == ("v1", "store", "gc"):
                max_entries = body.get("max_entries")
                max_age_s = body.get("max_age_s")
                max_bytes = body.get("max_bytes")
                self._reply(200, manager.gc(
                    max_entries=(
                        int(max_entries) if max_entries is not None else None
                    ),
                    max_age_s=(
                        float(max_age_s) if max_age_s is not None else None
                    ),
                    max_bytes=(
                        int(max_bytes) if max_bytes is not None else None
                    ),
                ))
            else:
                self._reply(404, {"error": f"no such route {self.path!r}"})
        except UnknownJob as exc:
            self._reply(404, {"error": str(exc)})
        except UnknownLease as exc:
            self._reply(410, {"error": str(exc)})
        except Backpressure as exc:
            self._reply(
                429,
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                headers={"Retry-After": f"{exc.retry_after_s:.3f}"},
            )
        except (ReproError, ValueError) as exc:
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - service boundary
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})


class ServeServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`JobManager`."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        manager: JobManager,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, _Handler)
        self.manager = manager
        self.verbose = verbose

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def make_server(
    root: str,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    store_dir: Optional[str] = None,
    fleet_ttl_s: Optional[float] = None,
    fleet_max_units: Optional[int] = None,
    verbose: bool = False,
) -> ServeServer:
    """A ready-to-serve daemon (``port=0`` picks a free port; tests)."""
    manager = JobManager(
        root,
        store_dir=store_dir,
        fleet_ttl_s=fleet_ttl_s,
        fleet_max_units=fleet_max_units,
    )
    return ServeServer((host, port), manager, verbose=verbose)


def run_daemon(server: ServeServer, drain_s: float = 10.0) -> int:
    """Serve until SIGINT/SIGTERM, then drain and exit cleanly.

    The first signal starts a *graceful* drain: the lease board stops
    granting, running jobs are cancelled (they drain their in-flight
    shards into the store), and the HTTP socket **stays open**
    through the drain window so fleet workers can still stream the
    results of shards they already hold instead of losing them to a
    mid-flight connection reset.  Only when every job has settled (or
    ``drain_s`` elapses) does the server close.  A second signal skips
    the ceremony and closes immediately.
    """
    signals = {"count": 0}

    def _drain_then_stop() -> None:
        server.manager.begin_shutdown()
        deadline = time.monotonic() + drain_s
        while (
            time.monotonic() < deadline and server.manager.active_jobs()
        ):
            time.sleep(0.05)
        server.shutdown()

    def _stop(signum, frame) -> None:
        # neither the drain nor shutdown() may run on the serving
        # thread; hand them off
        signals["count"] += 1
        if signals["count"] > 1:
            threading.Thread(target=server.shutdown, daemon=True).start()
            return
        threading.Thread(target=_drain_then_stop, daemon=True).start()

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, _stop)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
        server.manager.shutdown(drain_s=drain_s)
    return 0


# -- the client ------------------------------------------------------------


class ServeClient:
    """Minimal JSON client for the daemon (CLI, tests, CI smoke).

    Transport failures (connection refused/reset, socket timeouts) are
    retried up to ``retries`` times with exponential backoff plus full
    jitter before surfacing as :class:`~repro.errors.ReproError`.  All
    requests the daemon exposes are either reads or idempotent writes
    (job submission is content-addressed per campaign; lease completes
    are deduplicated per ``(lease, index)`` on the board), so a retried
    POST whose first attempt actually landed is harmless.  HTTP error
    *responses* are never retried here — semantics like 429 backpressure
    belong to the caller, which gets the parsed ``Retry-After`` on the
    raised :class:`ServeHTTPError`.
    """

    def __init__(
        self,
        url: str,
        timeout_s: float = 30.0,
        retries: int = 3,
        backoff_s: float = 0.2,
        backoff_max_s: float = 5.0,
    ) -> None:
        self.url = url.rstrip("/")
        self.timeout_s = timeout_s
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        last_reason: object = "unreachable"
        for attempt in range(self.retries + 1):
            req = urllib.request.Request(
                self.url + path, data=data, headers=headers, method=method
            )
            try:
                with urllib.request.urlopen(
                    req, timeout=self.timeout_s
                ) as resp:
                    return json.loads(resp.read().decode("utf-8"))
            except urllib.error.HTTPError as exc:
                try:
                    detail = json.loads(exc.read().decode("utf-8"))
                    message = str(detail.get("error", detail))
                except Exception:  # noqa: BLE001 - best-effort detail
                    message = str(exc)
                retry_after = None
                raw = exc.headers.get("Retry-After") if exc.headers else None
                if raw is not None:
                    try:
                        retry_after = float(raw)
                    except ValueError:
                        retry_after = None
                raise ServeHTTPError(
                    exc.code, message, retry_after=retry_after
                ) from None
            except (urllib.error.URLError, socket.timeout, OSError) as exc:
                last_reason = getattr(exc, "reason", exc)
                if attempt >= self.retries:
                    break
                # exponential backoff with full jitter: avoids a fleet
                # of workers stampeding a daemon that just came back
                cap = min(self.backoff_max_s, self.backoff_s * 2 ** attempt)
                time.sleep(random.uniform(0, cap))
        raise ReproError(
            f"cannot reach serve daemon at {self.url} after "
            f"{self.retries + 1} attempts: {last_reason}"
        ) from None

    # -- endpoints --------------------------------------------------------

    def health(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def submit(
        self, kind: str, config: Dict[str, object], fleet: bool = False
    ) -> Dict[str, object]:
        body: Dict[str, object] = {"kind": kind, "config": config}
        if fleet:
            body["fleet"] = True
        return self._request("POST", "/v1/jobs", body)

    def jobs(self) -> Dict[str, object]:
        return self._request("GET", "/v1/jobs")

    def status(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def results(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/v1/jobs/{job_id}/results")

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def events(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/v1/jobs/{job_id}/events")

    def store_stats(self) -> Dict[str, object]:
        return self._request("GET", "/v1/store/stats")

    def analytics(self) -> Dict[str, object]:
        return self._request("GET", "/v1/analytics")

    def metrics(self) -> str:
        """``GET /metrics`` — raw Prometheus text, not JSON."""
        req = urllib.request.Request(
            self.url + "/metrics",
            headers={"Accept": "text/plain"},
            method="GET",
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                return resp.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise ServeHTTPError(exc.code, str(exc)) from None
        except urllib.error.URLError as exc:
            raise ReproError(
                f"cannot reach serve daemon at {self.url}: {exc.reason}"
            ) from None

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_age_s: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> Dict[str, object]:
        body: Dict[str, object] = {}
        if max_entries is not None:
            body["max_entries"] = max_entries
        if max_age_s is not None:
            body["max_age_s"] = max_age_s
        if max_bytes is not None:
            body["max_bytes"] = max_bytes
        return self._request("POST", "/v1/store/gc", body)

    # -- fleet endpoints --------------------------------------------------

    def fleet_status(self) -> Dict[str, object]:
        return self._request("GET", "/v1/fleet")

    def fleet_register(
        self, meta: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        return self._request("POST", "/v1/fleet/workers", meta or {})

    def fleet_lease(
        self, worker: str, max_units: Optional[int] = None
    ) -> Optional[Dict[str, object]]:
        body: Dict[str, object] = {"worker": worker}
        if max_units is not None:
            body["max_units"] = max_units
        doc = self._request("POST", "/v1/fleet/lease", body)
        shard = doc.get("shard")
        return dict(shard) if shard else None

    def fleet_renew(self, lease: str) -> Dict[str, object]:
        return self._request("POST", "/v1/fleet/renew", {"lease": lease})

    def fleet_complete(
        self,
        lease: str,
        results: List[Dict[str, object]],
        done: bool = False,
    ) -> Dict[str, object]:
        return self._request(
            "POST",
            "/v1/fleet/complete",
            {"lease": lease, "results": results, "done": done},
        )

    def wait(
        self, job_id: str, timeout_s: float = 300.0, poll_s: float = 0.25
    ) -> Dict[str, object]:
        """Poll until the job reaches a terminal state."""
        import time as _time

        deadline = _time.monotonic() + timeout_s
        while True:
            status = self.status(job_id)
            if status["state"] in FINISHED_STATES:
                return status
            if _time.monotonic() > deadline:
                raise ReproError(
                    f"timeout waiting for job {job_id} "
                    f"(state: {status['state']})"
                )
            _time.sleep(poll_s)
