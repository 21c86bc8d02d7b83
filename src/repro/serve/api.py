"""The job layer: campaigns as asynchronous, durable batch jobs.

A *job* is one campaign of any registered kind (``check``, ``fuzz``,
``env-sweep``; see :mod:`repro.serve.kinds`) submitted for background
execution.  The :class:`JobManager` owns a service root directory::

    <root>/
        store/                    the shared content-addressed store
        jobs/<job_id>/job.json       job record (state, config, progress)
        jobs/<job_id>/report.json    final (or partial) report
        jobs/<job_id>/events.jsonl   typed lifecycle event log
        series.jsonl              durable fleet-telemetry series (one
                                  deduped point per finished campaign)

Submission returns immediately; each job runs on a background thread
through the one campaign driver (:func:`~repro.serve.kinds.run_kind`),
on the serve scheduler with the shared store as the job's one durable
record of finished units; jobs keep no checkpoint journal.  Jobs run one
at a time: a job without ``fleet`` simulates in the daemon's own
process, and the simulation core's pooled runtimes
(:func:`repro.core.compile.runtime_for`) are only safe for sequential
use — two such jobs at once computed, and cached, wrong verdicts.  Under
the GIL they never ran in parallel anyway.

Jobs are restartable: every finished unit is in the store under a key
its campaign's configuration determines, so killing the daemon and
resubmitting the same configuration — by hand, or with
``repro serve submit --from-report`` — serves everything already
finished from the store and runs only the rest.  A ``gc`` between the
interrupt and the resubmit makes the evicted units run again.

Live progress comes from the same
:class:`~repro.obs.campaign.CampaignTelemetry` that drives campaign
progress lines and report telemetry blocks — the job's ``progress``
field *is* ``telemetry.status()``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import CampaignInterrupted, ReproError
from repro.fleet.leases import DEFAULT_MAX_UNITS, DEFAULT_TTL_S, LeaseBoard
from repro.obs.campaign import CampaignTelemetry
from repro.obs.metrics import MetricsRegistry, render_prometheus
from repro.obs.series import SeriesStore, aggregate
from repro.serve.kinds import campaign_kind, run_kind
from repro.serve.store import ResultStore

#: terminal job states
FINISHED_STATES = ("done", "failed", "cancelled", "interrupted")


class UnknownJob(ReproError):
    """No job with that id in this service root."""


@dataclass
class Job:
    """One submitted campaign and its lifecycle state."""

    id: str
    kind: str                      # a registered campaign kind
    config: Dict[str, object]
    fleet: bool = False            # execute via leased remote workers
    state: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    campaign: str = ""             # campaign identity digest
    cancel: threading.Event = field(default_factory=threading.Event)
    telemetry: Optional[CampaignTelemetry] = None
    thread: Optional[threading.Thread] = field(default=None, repr=False)
    cfg: object = field(default=None, repr=False)  # built campaign config

    def to_json(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "kind": self.kind,
            "config": dict(self.config),
            "fleet": self.fleet,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "campaign": self.campaign,
            "progress": (
                self.telemetry.status() if self.telemetry is not None else {}
            ),
        }


class JobManager:
    """Owns the service root: jobs, the shared store, the series."""

    def __init__(
        self,
        root: str,
        store_dir: Optional[str] = None,
        fleet_ttl_s: Optional[float] = None,
        fleet_max_units: Optional[int] = None,
    ) -> None:
        self.root = os.path.abspath(root)
        self.jobs_dir = os.path.join(self.root, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self.store = ResultStore(store_dir or os.path.join(self.root, "store"))
        #: shard leases for jobs submitted with ``fleet=True``
        self.board = LeaseBoard(
            ttl_s=fleet_ttl_s if fleet_ttl_s is not None else DEFAULT_TTL_S,
            max_units=(
                fleet_max_units if fleet_max_units is not None
                else DEFAULT_MAX_UNITS
            ),
        )
        #: durable fleet telemetry: every finished campaign appends a
        #: content-addressed point here (replays dedup)
        self.series = SeriesStore(os.path.join(self.root, "series.jsonl"))
        #: cumulative registry folded from every finished job's
        #: telemetry — the long-lived half of ``GET /metrics``
        self.registry = MetricsRegistry()
        self.started_at = time.time()
        #: held by the running job: jobs run one at a time (module doc)
        self._running = threading.Lock()
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._recover()

    # -- persistence ------------------------------------------------------

    def _job_dir(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, job_id)

    def _persist(self, job: Job) -> None:
        path = os.path.join(self._job_dir(job.id), "job.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(job.to_json(), fh, indent=2, sort_keys=True)
        os.replace(tmp, path)

    def _persist_report(self, job: Job, report: Dict[str, object]) -> None:
        path = os.path.join(self._job_dir(job.id), "report.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        os.replace(tmp, path)

    def _log_event(
        self, job: Job, etype: str, payload: Optional[Dict[str, object]] = None
    ) -> None:
        """Append one typed record to the job's event log (JSONL).

        Best-effort by design: the event log reconstructs a job's
        lifecycle post-mortem, it must never be the reason a job dies.
        Single ``O_APPEND`` write per record — same atomicity story as
        the series store.
        """
        record = {
            "ts": round(time.time(), 3),
            "type": etype,
            "payload": dict(payload or {}),
        }
        path = os.path.join(self._job_dir(job.id), "events.jsonl")
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
            fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
            try:
                os.write(fd, line)
            finally:
                os.close(fd)
        except OSError:
            pass

    def _recover(self) -> None:
        """Reload persisted jobs; a dead daemon's running jobs become
        ``interrupted`` (a resubmit resumes from the store)."""
        for job_id in sorted(os.listdir(self.jobs_dir)):
            path = os.path.join(self._job_dir(job_id), "job.json")
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
            except (OSError, ValueError):
                continue
            job = Job(
                id=doc["id"],
                kind=doc["kind"],
                config=doc.get("config", {}),
                fleet=bool(doc.get("fleet", False)),
                state=doc.get("state", "interrupted"),
                submitted_at=doc.get("submitted_at", 0.0),
                started_at=doc.get("started_at"),
                finished_at=doc.get("finished_at"),
                error=doc.get("error"),
                campaign=doc.get("campaign", ""),
            )
            if job.state not in FINISHED_STATES:
                job.state = "interrupted"
                job.error = job.error or "daemon died while job was active"
                self._persist(job)
            self._jobs[job.id] = job

    # -- submission -------------------------------------------------------

    def submit(
        self, kind: str, config: Dict[str, object], fleet: bool = False
    ) -> Dict[str, object]:
        """Queue one campaign job; returns its record immediately."""
        campaign_kind(kind)  # an unknown kind is a bad request, not a job
        job = Job(
            id=uuid.uuid4().hex[:12],
            kind=kind,
            config=dict(config),
            fleet=bool(fleet),
            submitted_at=time.time(),
        )
        with self._lock:
            self._jobs[job.id] = job
        # decode the config (and digest it) synchronously so the submit
        # reply already carries the campaign identity; a config the
        # kind rejects becomes a failed job right away
        try:
            job.cfg = self._build_config(job)
        except Exception as exc:  # noqa: BLE001 - job boundary
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            job.finished_at = time.time()
            self._log_event(job, "submit", {"kind": kind})
            self._log_event(job, "reject", {"error": job.error})
            self._persist(job)
            return job.to_json()
        self._log_event(
            job, "submit", {"kind": kind, "campaign": job.campaign}
        )
        self._persist(job)
        job.thread = threading.Thread(
            target=self._run_job, args=(job,), daemon=True,
            name=f"repro-serve-{job.id}",
        )
        job.thread.start()
        return job.to_json()

    def submit_from_report(
        self,
        report: Dict[str, object],
        overrides: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Re-submit the campaign a report embeds (replayability).

        Any campaign's JSON report carries its full configuration in
        ``config`` (seed, runtimes, workers, fastpath mode,
        semantics/lint version); this turns that block back into a job,
        verbatim, modulo explicit ``overrides``.
        """
        config = report.get("config")
        if not isinstance(config, dict) or "kind" not in config:
            raise ReproError(
                "report has no embedded config block — it predates "
                "replayable reports; re-run the campaign once to refresh it"
            )
        kind = str(config["kind"])
        merged = dict(config)
        merged.update(overrides or {})
        return self.submit(kind, merged)

    # -- execution --------------------------------------------------------

    def _build_config(self, job: Job):
        kind = campaign_kind(job.kind)
        cfg = kind.decode_config(job.config)
        # the job record and the fleet's wire config keep the config
        # fields only, not the provenance a report's config block adds
        fields = {f.name for f in dataclasses.fields(cfg)}
        job.config = {k: v for k, v in job.config.items() if k in fields}
        job.campaign = kind.digest(cfg)
        # the service root's store is the job's one durable record: it
        # supersedes a submitted config's own store path, and with it
        # the scheduler ignores any checkpoint path the config names
        return dataclasses.replace(
            cfg, store_dir=self.store.root, progress=False
        )

    def _run_job(self, job: Job) -> None:
        with self._running:
            if job.cancel.is_set():
                job.state = "cancelled"
                job.finished_at = time.time()
                self._log_event(job, "finish", {"state": job.state})
                self._persist(job)
                return
            kind = campaign_kind(job.kind)
            job.state = "running"
            job.started_at = time.time()
            job.telemetry = CampaignTelemetry(
                f"{job.kind} job {job.id}", 0, progress=False,
                series_label=kind.label(job.cfg),
            )
            self._log_event(
                job, "lease", {"campaign": job.campaign, "kind": job.kind}
            )
            self._persist(job)

            def events(etype: str, payload: Dict[str, object]) -> None:
                self._log_event(job, etype, payload)

            fleet_handle = (
                self.board.handle(job.id, job.kind, job.config)
                if job.fleet else None
            )
            try:
                report = run_kind(
                    kind, job.cfg, cancel=job.cancel,
                    telemetry=job.telemetry, series=self.series,
                    events=events, fleet=fleet_handle, store=self.store,
                )
                self._persist_report(job, report.to_json())
                job.state = "done"
            except CampaignInterrupted as exc:
                if exc.report is not None:
                    self._persist_report(job, exc.report.to_json())
                job.state = (
                    "cancelled" if job.cancel.is_set() else "interrupted"
                )
                job.error = str(exc)
            except Exception as exc:  # noqa: BLE001 - job boundary
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
            finally:
                if fleet_handle is not None:
                    # normally a no-op (the scheduler closed it); here
                    # so a job that dies early never leaks board state
                    fleet_handle.close()
            job.finished_at = time.time()
            if job.telemetry is not None:
                with self._lock:
                    self.registry.merge(job.telemetry.registry)
            self._log_event(
                job, "finish", {"state": job.state, "error": job.error}
            )
            self._persist(job)

    # -- queries ----------------------------------------------------------

    def _get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(f"unknown job {job_id!r}")
        return job

    def status(self, job_id: str) -> Dict[str, object]:
        return self._get(job_id).to_json()

    def list_jobs(self) -> List[Dict[str, object]]:
        with self._lock:
            jobs = sorted(
                self._jobs.values(), key=lambda j: j.submitted_at
            )
        return [j.to_json() for j in jobs]

    def results(self, job_id: str) -> Dict[str, object]:
        """The job's report (final, or partial for interrupted jobs)."""
        job = self._get(job_id)
        path = os.path.join(self._job_dir(job.id), "report.json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            raise ReproError(
                f"job {job_id} has no report yet (state: {job.state})"
            )

    def cancel(self, job_id: str) -> Dict[str, object]:
        """Ask a job to stop; it drains into the store and reports."""
        job = self._get(job_id)
        job.cancel.set()
        self._log_event(job, "cancel_requested", {"state": job.state})
        return job.to_json()

    def job_events(self, job_id: str) -> List[Dict[str, object]]:
        """The job's typed lifecycle event log, oldest first."""
        job = self._get(job_id)
        path = os.path.join(self._job_dir(job.id), "events.jsonl")
        events: List[Dict[str, object]] = []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except (FileNotFoundError, OSError):
            return events
        for line in lines:
            try:
                doc = json.loads(line)
            except ValueError:
                continue  # torn tail
            if isinstance(doc, dict):
                events.append(doc)
        return events

    # -- observability ----------------------------------------------------

    def metrics_text(self) -> str:
        """``GET /metrics``: Prometheus text exposition of the service.

        Three layers: live service gauges (job states, per-job
        progress), the store's live counters, and the cumulative
        registry folded from every finished job's telemetry (counters,
        gauges, and histograms with cumulative buckets).
        """
        with self._lock:
            jobs = list(self._jobs.values())
        lines: List[str] = []
        lines.append("# TYPE repro_uptime_seconds gauge")
        lines.append(
            f"repro_uptime_seconds {round(time.time() - self.started_at, 3)}"
        )
        states: Dict[str, int] = {}
        for job in jobs:
            states[job.state] = states.get(job.state, 0) + 1
        lines.append("# TYPE repro_jobs gauge")
        for state in sorted(states):
            lines.append(f'repro_jobs{{state="{state}"}} {states[state]}')
        progressing = [j for j in jobs if j.telemetry is not None]
        if progressing:
            lines.append("# TYPE repro_job_progress_done gauge")
            lines.append("# TYPE repro_job_progress_total gauge")
            for job in progressing:
                labels = f'job="{job.id}",kind="{job.kind}"'
                status = job.telemetry.status()
                lines.append(
                    f"repro_job_progress_done{{{labels}}} {status['done']}"
                )
                lines.append(
                    f"repro_job_progress_total{{{labels}}} {status['total']}"
                )
        for name in ("hits", "misses", "writes", "dedup", "corrupt",
                     "evicted"):
            metric = f"repro_store_{name}"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {getattr(self.store, name)}")
        fleet = self.board.stats()
        for name, kind in (
            ("workers_live", "gauge"),
            ("workers_registered", "gauge"),
            ("leases_active", "gauge"),
            ("leased_units", "gauge"),
            ("queue_depth", "gauge"),
            ("granted", "counter"),
            ("renewed", "counter"),
            ("expired", "counter"),
            ("requeued_units", "counter"),
            ("completed_units", "counter"),
            ("duplicate_units", "counter"),
            ("rejected", "counter"),
        ):
            metric = f"repro_fleet_{name}"
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(f"{metric} {fleet[name]}")
        lines.append("# TYPE repro_series_points_appended counter")
        lines.append(
            f"repro_series_points_appended {self.series.appended}"
        )
        lines.append("# TYPE repro_series_points_deduped counter")
        lines.append(
            f"repro_series_points_deduped {self.series.deduped}"
        )
        with self._lock:
            folded = render_prometheus(self.registry)
        return "\n".join(lines) + "\n" + folded

    def analytics(self) -> Dict[str, object]:
        """``GET /v1/analytics``: rollups over the series store."""
        doc = aggregate(self.series.load())
        doc["series_path"] = self.series.path
        doc["root"] = self.root
        return doc

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_age_s: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> Dict[str, object]:
        """Evict store entries (an interrupted job's evicted units
        run again when it is resubmitted)."""
        return self.store.gc(
            max_entries=max_entries, max_age_s=max_age_s, max_bytes=max_bytes,
        )

    def wait(self, job_id: str, timeout_s: float = 60.0) -> Dict[str, object]:
        """Block until the job reaches a terminal state (tests, CLI)."""
        deadline = time.monotonic() + timeout_s
        job = self._get(job_id)
        while job.state not in FINISHED_STATES:
            if time.monotonic() > deadline:
                raise ReproError(
                    f"timeout waiting for job {job_id} "
                    f"(state: {job.state})"
                )
            time.sleep(0.05)
        return job.to_json()

    def begin_shutdown(self) -> None:
        """Start a graceful drain without blocking.

        The lease board stops granting (in-flight workers can still
        renew and stream results), and every live job is asked to
        cancel — fleet jobs drain their inbox into the store, requeue
        nothing new, and settle.  The HTTP surface stays up; callers
        poll :meth:`active_jobs` until it reaches zero.
        """
        self.board.drain()
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            if job.state in ("queued", "running"):
                job.cancel.set()

    def active_jobs(self) -> int:
        """How many jobs have not yet reached a terminal state."""
        with self._lock:
            return sum(
                1 for job in self._jobs.values()
                if job.state not in FINISHED_STATES
            )

    def shutdown(self, drain_s: float = 10.0) -> None:
        """Stop accepting work and drain running jobs gracefully."""
        self.begin_shutdown()
        with self._lock:
            jobs = list(self._jobs.values())
        deadline = time.monotonic() + drain_s
        for job in jobs:
            if job.thread is not None and job.thread.is_alive():
                job.thread.join(max(0.0, deadline - time.monotonic()))
        self.store.close()
