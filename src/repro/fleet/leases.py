"""Daemon-side lease manager: shards of campaign work under heartbeats.

A fleet-executed job parks its pending work units on the
:class:`LeaseBoard`.  Remote workers pull *shard leases* — up to
``max_units`` consecutive units plus the job's wire config — and must
keep the lease alive: renewing it explicitly, or implicitly by
streaming completed unit results back.  A lease that outlives its TTL
without a heartbeat is **expired**: its uncompleted units go back to
the *front* of the job's pending queue (requeued work outranks virgin
work — it has already waited once), and any late completion against
the dead lease is rejected wholesale, so a unit can never be counted
twice however rudely its first worker died.

Progress accounting is exactly-once by construction:

* a unit leaves ``pending`` only inside a lease;
* it re-enters ``pending`` only when its lease expires or is released
  with the unit uncompleted;
* it reaches the job's result inbox at most once per lease (repeat
  submissions of one index are idempotent — the wire may retry), and
  the scheduler's absorb loop drops cross-lease duplicates.

Backpressure is per job and bounded in both directions: the board
stops granting when too many leases are in flight, and stops accepting
results when the job's inbox (scheduler not yet absorbing) is full —
both surface as :class:`Backpressure`, which the HTTP layer turns into
``429`` with a ``Retry-After`` header.

Every transition lands as a typed event in the owning job's event log:
``lease``, ``renew``, ``expire``, ``requeue`` (plus the scheduler's
own ``shard``/``done`` family).
"""

from __future__ import annotations

import queue
import threading
import time
import uuid
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ReproError

#: default lease TTL; renewals and result submissions both reset it
DEFAULT_TTL_S = 30.0
#: default maximum units per shard lease
DEFAULT_MAX_UNITS = 8


class UnknownLease(ReproError):
    """The lease expired, was released, or never existed."""


class Backpressure(ReproError):
    """The board is overloaded; retry after ``retry_after_s``."""

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class Lease:
    """One granted shard: units out with a worker, under a deadline."""

    __slots__ = (
        "id", "job", "worker", "units", "keys", "granted_at", "deadline",
        "renewals", "completed",
    )

    def __init__(
        self,
        lease_id: str,
        job: str,
        worker: str,
        units: List[Tuple[int, object]],
        keys: Dict[int, str],
        ttl_s: float,
    ) -> None:
        self.id = lease_id
        self.job = job
        self.worker = worker
        #: (index, payload) still owed by the worker
        self.units: Dict[int, object] = dict(units)
        self.keys = keys
        self.granted_at = time.monotonic()
        self.deadline = self.granted_at + ttl_s
        self.renewals = 0
        #: indices already streamed back under this lease
        self.completed: set = set()

    def to_wire(
        self, kind: str, config: Dict[str, object], ttl_s: float
    ) -> Dict[str, object]:
        """The JSON document a worker receives for this shard."""
        return {
            "lease": self.id,
            "job": self.job,
            "kind": kind,
            "config": dict(config),
            "ttl_s": ttl_s,
            "units": [
                {"index": index, "payload": payload,
                 "key": self.keys.get(index, "")}
                for index, payload in sorted(self.units.items())
            ],
        }


class _FleetJob:
    """Board-side state of one fleet-executed campaign."""

    def __init__(
        self,
        job_id: str,
        kind: str,
        config: Dict[str, object],
        inbox_bound: int,
    ) -> None:
        self.id = job_id
        self.kind = kind
        self.config = config
        #: work not currently out on a lease; requeues go to the front
        self.pending: Deque[Tuple[int, object]] = deque()
        self.keys: Dict[int, str] = {}
        #: completed (index, encoded) results awaiting scheduler absorb
        self.inbox: "queue.Queue[Tuple[int, object]]" = queue.Queue(
            maxsize=inbox_bound
        )
        self.events: Optional[Callable[[str, Dict], None]] = None
        self.counters: Dict[str, int] = {}

    def note(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def emit(self, etype: str, **payload) -> None:
        if self.events is None:
            return
        try:
            self.events(etype, payload)
        except Exception:  # noqa: BLE001 - the log must never kill a job
            pass


class LeaseBoard:
    """The daemon's fleet surface: jobs in, leases out, results back."""

    def __init__(
        self,
        ttl_s: float = DEFAULT_TTL_S,
        max_units: int = DEFAULT_MAX_UNITS,
        max_active_leases: int = 64,
        inbox_bound: int = 1024,
        worker_live_window_s: Optional[float] = None,
    ) -> None:
        self.ttl_s = float(ttl_s)
        self.max_units = max(1, int(max_units))
        self.max_active_leases = max(1, int(max_active_leases))
        self.inbox_bound = max(1, int(inbox_bound))
        #: a worker counts as live if heard from within this window
        self.worker_live_window_s = (
            worker_live_window_s
            if worker_live_window_s is not None else self.ttl_s * 3
        )
        self._lock = threading.Lock()
        self._jobs: Dict[str, _FleetJob] = {}
        self._leases: Dict[str, Lease] = {}
        #: worker id -> {"registered_at", "last_seen", "meta", ...}
        self._workers: Dict[str, Dict[str, object]] = {}
        self.draining = False
        # board-lifetime counters (the /metrics fleet family)
        self.granted = 0
        self.renewed = 0
        self.expired = 0
        self.requeued_units = 0
        self.completed_units = 0
        self.duplicate_units = 0
        self.rejected = 0

    # -- workers ----------------------------------------------------------

    def register_worker(
        self, meta: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        worker_id = uuid.uuid4().hex[:12]
        now = time.monotonic()
        with self._lock:
            self._workers[worker_id] = {
                "meta": dict(meta or {}),
                "registered_at": now,
                "last_seen": now,
                "leases": 0,
                "units_completed": 0,
            }
        return {
            "worker": worker_id,
            "ttl_s": self.ttl_s,
            "max_units": self.max_units,
        }

    def _touch_worker(self, worker_id: str) -> None:
        info = self._workers.get(worker_id)
        if info is not None:
            info["last_seen"] = time.monotonic()

    # -- jobs -------------------------------------------------------------

    def handle(
        self, job_id: str, kind: str, config: Dict[str, object]
    ) -> "FleetHandle":
        """A scheduler-facing handle for one fleet-executed job."""
        return FleetHandle(self, job_id, kind, config)

    def _open_job(
        self,
        job_id: str,
        kind: str,
        config: Dict[str, object],
        units: List[Tuple[int, object]],
        keys: Dict[int, str],
        events: Optional[Callable[[str, Dict], None]],
    ) -> _FleetJob:
        job = _FleetJob(job_id, kind, config, self.inbox_bound)
        job.pending.extend(units)
        job.keys = dict(keys)
        job.events = events
        with self._lock:
            self._jobs[job_id] = job
        return job

    def _close_job(self, job_id: str) -> Dict[str, int]:
        with self._lock:
            job = self._jobs.pop(job_id, None)
            dead = [
                lease_id for lease_id, lease in self._leases.items()
                if lease.job == job_id
            ]
            for lease_id in dead:
                del self._leases[lease_id]
        return dict(job.counters) if job is not None else {}

    # -- expiry -----------------------------------------------------------

    def sweep(self) -> int:
        """Expire overdue leases; returns how many were reaped."""
        now = time.monotonic()
        reaped = 0
        with self._lock:
            overdue = [
                lease for lease in self._leases.values()
                if lease.deadline < now
            ]
            for lease in overdue:
                del self._leases[lease.id]
                reaped += 1
                self.expired += 1
                job = self._jobs.get(lease.job)
                lost = sorted(lease.units.items())
                if job is not None:
                    # requeued work outranks virgin work: to the front
                    job.pending.extendleft(reversed(lost))
                    job.note("lease.expired")
                    job.note("lease.requeued_units", len(lost))
                    self.requeued_units += len(lost)
                    job.emit(
                        "expire",
                        lease=lease.id,
                        worker=lease.worker,
                        units=len(lost),
                        held_s=round(now - lease.granted_at, 3),
                    )
                    if lost:
                        job.emit(
                            "requeue",
                            lease=lease.id,
                            units=len(lost),
                            indices=[i for i, _ in lost[:8]],
                        )
        return reaped

    # -- the worker protocol ----------------------------------------------

    def lease(
        self, worker_id: str, max_units: Optional[int] = None
    ) -> Optional[Dict[str, object]]:
        """Grant one shard lease, or None when there is no work.

        Raises :class:`Backpressure` when the board has too many
        leases in flight (the 429 path); returns None both when idle
        and when draining — the worker just polls again later.
        """
        self.sweep()
        size = min(self.max_units, max_units or self.max_units)
        with self._lock:
            self._touch_worker(worker_id)
            if self.draining:
                return None
            if len(self._leases) >= self.max_active_leases:
                self.rejected += 1
                raise Backpressure(
                    f"{len(self._leases)} leases already in flight",
                    retry_after_s=max(0.5, self.ttl_s / 4),
                )
            for job in self._jobs.values():
                if not job.pending:
                    continue
                units = [
                    job.pending.popleft()
                    for _ in range(min(size, len(job.pending)))
                ]
                lease = Lease(
                    uuid.uuid4().hex[:12], job.id, worker_id,
                    units, job.keys, self.ttl_s,
                )
                self._leases[lease.id] = lease
                self.granted += 1
                job.note("lease.granted")
                info = self._workers.get(worker_id)
                if info is not None:
                    info["leases"] = int(info.get("leases", 0)) + 1
                job.emit(
                    "lease",
                    lease=lease.id,
                    worker=worker_id,
                    units=len(units),
                    pending=len(job.pending),
                )
                return lease.to_wire(job.kind, job.config, self.ttl_s)
        return None

    def renew(self, lease_id: str) -> Dict[str, object]:
        """Reset the lease deadline (the heartbeat)."""
        self.sweep()
        with self._lock:
            lease = self._leases.get(lease_id)
            if lease is None:
                raise UnknownLease(
                    f"lease {lease_id!r} is expired or unknown; "
                    "its units were requeued"
                )
            lease.deadline = time.monotonic() + self.ttl_s
            lease.renewals += 1
            self.renewed += 1
            self._touch_worker(lease.worker)
            job = self._jobs.get(lease.job)
            if job is not None:
                job.note("lease.renewed")
                job.emit(
                    "renew",
                    lease=lease_id,
                    worker=lease.worker,
                    renewals=lease.renewals,
                )
            return {
                "lease": lease_id,
                "ttl_s": self.ttl_s,
                "remaining": len(lease.units),
            }

    def complete(
        self,
        lease_id: str,
        results: List[Dict[str, object]],
        done: bool = True,
    ) -> Dict[str, object]:
        """Stream unit results back; ``done`` releases the lease.

        Idempotent per (lease, index): the wire may retry a submission
        after a timeout, and the repeat is counted as a duplicate, not
        absorbed twice.  Completing against an expired lease raises
        :class:`UnknownLease` — those units were requeued and will be
        (or already were) re-executed elsewhere; dropping the late
        results wholesale is what makes double-counting impossible.
        """
        self.sweep()
        with self._lock:
            lease = self._leases.get(lease_id)
            if lease is None:
                raise UnknownLease(
                    f"lease {lease_id!r} is expired or unknown; "
                    "results discarded (units were requeued)"
                )
            job = self._jobs.get(lease.job)
            if job is None:  # job finished/cancelled under the lease
                del self._leases[lease_id]
                raise UnknownLease(f"job for lease {lease_id!r} is gone")
            fresh = [
                r for r in results
                if isinstance(r.get("index"), int)
                and r["index"] in lease.units
                and r["index"] not in lease.completed
            ]
            duplicates = len(results) - len(fresh)
            # bounded inbox: reject the whole batch when it cannot fit,
            # so a retry re-submits exactly the same set
            free = job.inbox.maxsize - job.inbox.qsize()
            if len(fresh) > free:
                self.rejected += 1
                raise Backpressure(
                    f"job {job.id} inbox full "
                    f"({free} free, {len(fresh)} submitted)",
                    retry_after_s=0.5,
                )
            for r in fresh:
                index = int(r["index"])
                job.inbox.put_nowait((index, r.get("result")))
                del lease.units[index]
                lease.completed.add(index)
            self.completed_units += len(fresh)
            self.duplicate_units += duplicates
            job.note("lease.completed_units", len(fresh))
            if duplicates:
                job.note("lease.duplicate_units", duplicates)
            self._touch_worker(lease.worker)
            info = self._workers.get(lease.worker)
            if info is not None:
                info["units_completed"] = (
                    int(info.get("units_completed", 0)) + len(fresh)
                )
            if done:
                # release; anything not completed goes back up front
                del self._leases[lease_id]
                abandoned = sorted(lease.units.items())
                if abandoned:
                    job.pending.extendleft(reversed(abandoned))
                    job.note("lease.requeued_units", len(abandoned))
                    self.requeued_units += len(abandoned)
                    job.emit(
                        "requeue",
                        lease=lease_id,
                        units=len(abandoned),
                        indices=[i for i, _ in abandoned[:8]],
                    )
            else:
                # streaming results is a heartbeat
                lease.deadline = time.monotonic() + self.ttl_s
            return {
                "lease": lease_id,
                "absorbed": len(fresh),
                "duplicates": duplicates,
                "released": bool(done),
            }

    # -- drain / stats ----------------------------------------------------

    def drain(self) -> None:
        """Stop granting leases (daemon shutdown); renewals still work
        so in-flight shards can finish streaming their results."""
        with self._lock:
            self.draining = True

    def stats(self) -> Dict[str, object]:
        now = time.monotonic()
        with self._lock:
            live = sum(
                1 for info in self._workers.values()
                if now - float(info["last_seen"]) <= self.worker_live_window_s
            )
            queue_depth = sum(
                len(job.pending) for job in self._jobs.values()
            )
            leased_units = sum(
                len(lease.units) for lease in self._leases.values()
            )
            return {
                "draining": self.draining,
                "workers_registered": len(self._workers),
                "workers_live": live,
                "jobs_open": len(self._jobs),
                "queue_depth": queue_depth,
                "leases_active": len(self._leases),
                "leased_units": leased_units,
                "granted": self.granted,
                "renewed": self.renewed,
                "expired": self.expired,
                "requeued_units": self.requeued_units,
                "completed_units": self.completed_units,
                "duplicate_units": self.duplicate_units,
                "rejected": self.rejected,
                "ttl_s": self.ttl_s,
            }

    def workers(self) -> Dict[str, Dict[str, object]]:
        now = time.monotonic()
        with self._lock:
            return {
                worker_id: {
                    "meta": dict(info["meta"]),  # type: ignore[arg-type]
                    "age_s": round(now - float(info["registered_at"]), 3),
                    "idle_s": round(now - float(info["last_seen"]), 3),
                    "leases": info["leases"],
                    "units_completed": info["units_completed"],
                }
                for worker_id, info in self._workers.items()
            }


class FleetHandle:
    """One fleet job's seam between the scheduler and the board.

    The scheduler opens it with the pending unit list, then loops:
    ``poll()`` for streamed results (absorbing each), ``sweep()`` to
    reap overdue leases, until every unit is absorbed or the campaign
    is interrupted.  ``close()`` detaches the job from the board and
    returns the per-job lease counters for telemetry folding.
    """

    def __init__(
        self,
        board: LeaseBoard,
        job_id: str,
        kind: str,
        config: Dict[str, object],
    ) -> None:
        self.board = board
        self.job_id = job_id
        self.kind = kind
        self.config = dict(config)
        self._job: Optional[_FleetJob] = None

    def open(
        self,
        units: List[Tuple[int, object]],
        keys: Dict[int, str],
        events: Optional[Callable[[str, Dict], None]] = None,
    ) -> None:
        self._job = self.board._open_job(
            self.job_id, self.kind, self.config, units, keys, events
        )

    def poll(self, timeout_s: float = 0.05) -> List[Tuple[int, object]]:
        """Streamed (index, encoded) results; blocks up to timeout."""
        assert self._job is not None, "handle not opened"
        out: List[Tuple[int, object]] = []
        try:
            out.append(self._job.inbox.get(timeout=timeout_s))
            while True:
                out.append(self._job.inbox.get_nowait())
        except queue.Empty:
            pass
        return out

    def sweep(self) -> int:
        return self.board.sweep()

    def queue_depth(self) -> int:
        assert self._job is not None, "handle not opened"
        return len(self._job.pending)

    def close(self) -> Dict[str, int]:
        if self._job is None:
            return {}
        counters = self.board._close_job(self.job_id)
        self._job = None
        return counters
