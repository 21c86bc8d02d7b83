"""Sharded batch scheduling with caching, checkpointing, and resume.

The scheduler owns the fan-out half of every campaign.  A campaign
hands it an ordered list of :class:`WorkUnit` (index + picklable
payload + optional store key) and a worker task; the scheduler then

1. **short-circuits** units whose result is already in the
   content-addressed store — a cache hit costs one database read, no
   simulation;
2. without a store, **restores** units already finished by a previous,
   interrupted run of the *same* campaign from the checkpoint journal
   (identity-checked via the campaign digest in the header);
3. **shards** the remaining units across a ``multiprocessing`` pool
   (two shards per worker in flight, one running and one queued, results
   streamed back as shards finish), or runs them inline for ``workers == 1``;
4. **persists** every fresh result once — a store write, or without a
   store one appended, flushed journal line — *before* counting it
   done, so progress is durable at unit granularity;
5. on SIGINT/SIGTERM (``KeyboardInterrupt``) or a tripped cancel
   event, stops submitting, **drains** the in-flight shards (workers
   ignore SIGINT — the standard graceful-pool recipe), and raises
   :class:`~repro.errors.CampaignInterrupted` carrying everything that
   did finish.  A second interrupt skips the drain and terminates the
   pool.

A campaign keeps exactly one durable record of each finished unit: its
store when it has one, else its journal.  A journal path given together
with a store is not used, and an interrupted run with a store resumes
from store hits.  Units without a key bypass the store, so they re-run
on resume; :func:`~repro.serve.kinds.run_kind` keys every unit when it
opens a store.

Results cross the process boundary and the disk in one *encoded*
(JSON-safe) form: workers encode before returning, the store and the
journal persist the encoded document verbatim, and the parent decodes
exactly once — so a cached, a checkpointed, and a freshly-simulated
result are indistinguishable by construction.
Determinism discipline matches the campaign runner's: results are
re-slotted by index and a lost slot is a hard error.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CampaignInterrupted, ReproError
from repro.obs import series as obs_series
from repro.serve.store import ResultStore

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable unit of campaign work."""

    index: int
    payload: object
    #: content-addressed store key; "" bypasses the store for this unit
    key: str = ""


@dataclass
class Checkpoint:
    """Append-only JSONL journal of finished units for one campaign.

    First line is a header pinning the campaign digest and unit count;
    each further line is ``{"index": i, "key": k, "result": encoded}``.
    A header mismatch (config changed under the same path) discards the
    stale file; a torn final line (crash mid-append) is skipped — that
    unit simply re-runs.
    """

    path: str
    campaign: str
    total: int
    _fh: Optional[object] = field(default=None, repr=False)

    def load(self) -> Dict[int, object]:
        """Encoded results restored from a matching prior run."""
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except (FileNotFoundError, OSError):
            return {}
        header: Optional[dict] = None
        if lines:
            try:
                header = json.loads(lines[0])
            except ValueError:
                header = None
        if (
            not isinstance(header, dict)
            or header.get("version") != CHECKPOINT_VERSION
            or header.get("campaign") != self.campaign
            or header.get("total") != self.total
        ):
            try:
                os.remove(self.path)
            except OSError:
                pass
            return {}
        restored: Dict[int, object] = {}
        for line in lines[1:]:
            try:
                doc = json.loads(line)
            except ValueError:
                continue  # torn tail: re-run that unit
            index = doc.get("index")
            if isinstance(index, int) and "result" in doc:
                restored[index] = doc["result"]
        return restored

    def _open(self) -> object:
        if self._fh is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            fresh = (
                not os.path.exists(self.path)
                or os.path.getsize(self.path) == 0
            )
            self._fh = open(self.path, "a", encoding="utf-8")
            if fresh:
                self._fh.write(json.dumps({
                    "version": CHECKPOINT_VERSION,
                    "campaign": self.campaign,
                    "total": self.total,
                }) + "\n")
                self._fh.flush()
        return self._fh

    def append(self, index: int, key: str, encoded: object) -> None:
        fh = self._open()
        fh.write(json.dumps(
            {"index": index, "key": key, "result": encoded}
        ) + "\n")
        fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def delete(self) -> None:
        """The campaign completed: the journal has served its purpose."""
        self.close()
        try:
            os.remove(self.path)
        except OSError:
            pass


# -- worker-side plumbing --------------------------------------------------

_TASK: Optional[Callable] = None
_ENCODE: Optional[Callable] = None


def _spread_worker() -> None:
    """Start this worker on a CPU of its own, then free it again.

    Forked workers start beside the parent, and on a 2-vCPU VM the
    kernel was seen keeping all of them on one vCPU for a whole
    campaign while the other sat idle, doubling its wall time.  One
    placement spreads them; the full CPU mask is restored at once, so
    the kernel stays free to move them afterwards.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[os.getpid() % len(cpus)]})
            os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):
        pass  # no affinity control on this platform: the kernel decides


def _pool_init(task, encode, user_init, user_args) -> None:
    # workers must survive the terminal's Ctrl-C so the parent can
    # drain them; the parent alone decides when the campaign stops
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # ... but die of Pool.terminate()'s SIGTERM: the CLI's inherited
    # Python handler misses one landing just before the worker blocks
    # on the task queue lock, and the pool's join then waits forever
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _spread_worker()
    global _TASK, _ENCODE
    _TASK, _ENCODE = task, encode
    if user_init is not None:
        user_init(*user_args)


def _run_shard(items: List[Tuple[int, object]]) -> List[Tuple[int, object]]:
    """Execute one shard of (index, payload) units inside a worker."""
    assert _TASK is not None, "scheduler worker not initialized"
    out: List[Tuple[int, object]] = []
    for index, payload in items:
        result = _TASK(payload)
        out.append((index, _ENCODE(result) if _ENCODE else result))
    return out


# -- the scheduler ---------------------------------------------------------


class BatchScheduler:
    """Runs one campaign's work units through store or journal + pool."""

    def __init__(
        self,
        workers: int = 1,
        store: Optional[ResultStore] = None,
        checkpoint_path: Optional[str] = None,
        campaign: str = "",
        telemetry=None,
        cancel: Optional[threading.Event] = None,
        shard_size: Optional[int] = None,
        poll_s: float = 0.02,
        series=None,
        events: Optional[Callable[[str, Dict], None]] = None,
        fleet=None,
    ) -> None:
        self.workers = max(1, workers)
        self.store = store
        #: the journal path; None when a store is given, because the
        #: store is then the one durable record of each unit (module doc)
        self.checkpoint_path = checkpoint_path if store is None else None
        self.campaign = campaign
        self.telemetry = telemetry
        self.cancel = cancel
        self.shard_size = shard_size
        self.poll_s = poll_s
        #: explicit series store; None falls back to the process-wide
        #: one (repro.obs.series.active())
        self.series = series
        #: ``events(type, payload)`` hook for per-job structured logs
        self.events = events
        #: :class:`repro.fleet.leases.FleetHandle` — when set, pending
        #: units are executed by remote workers pulling shard leases
        #: instead of a local pool; ``task``/``initializer`` then run
        #: in the workers' processes, rebuilt from the job's config
        self.fleet = fleet
        #: filled after every run(): how each unit was satisfied
        self.last_run_stats: Dict[str, int] = {}

    @property
    def record(self) -> str:
        """The durable record an interrupted run resumes from, or ""."""
        if self.store is not None:
            return f"store {self.store.root}"
        if self.checkpoint_path:
            return f"checkpoint {self.checkpoint_path}"
        return ""

    # -- bookkeeping ------------------------------------------------------

    def _tick(self, result: object, counters: Optional[Callable]) -> None:
        if self.telemetry is None:
            return
        counts = counters(result) if counters is not None else None
        self.telemetry.tick(counts)

    def _note(self, name: str, n: int = 1) -> None:
        self.last_run_stats[name] = self.last_run_stats.get(name, 0) + n
        if self.telemetry is not None:
            self.telemetry.registry.inc("serve." + name, n)

    def _event(self, etype: str, **payload) -> None:
        if self.events is None:
            return
        try:
            self.events(etype, payload)
        except Exception:  # noqa: BLE001 - the log must never kill the run
            pass

    # -- the run ----------------------------------------------------------

    def run(
        self,
        units: Sequence[WorkUnit],
        task: Callable,
        initializer: Optional[Callable] = None,
        initargs: Tuple = (),
        encode: Optional[Callable] = None,
        decode: Optional[Callable] = None,
        counters: Optional[Callable] = None,
    ) -> List[object]:
        """Execute every unit; results in ``units`` order.

        ``task(payload) -> result`` runs in the workers (it, ``encode``
        and ``initializer`` must be module-level picklables for
        ``workers > 1``); ``encode(result)`` makes it JSON-safe,
        ``decode(encoded)`` inverts that in the parent, ``counters``
        maps a decoded result to its telemetry counter dict.
        """
        total = len(units)
        if self.telemetry is not None:
            self.telemetry.total = total
        self.last_run_stats = {}
        corrupt_before = self.store.corrupt if self.store is not None else 0
        decode_ = decode if decode is not None else (lambda enc: enc)
        results: Dict[int, object] = {}
        keys = {u.index: u.key for u in units}

        ckpt: Optional[Checkpoint] = None
        if self.checkpoint_path:
            ckpt = Checkpoint(self.checkpoint_path, self.campaign, total)
            for index, encoded in sorted(ckpt.load().items()):
                if index in keys:
                    results[index] = decode_(encoded)
                    self._note("checkpoint_restored")
                    self._tick(results[index], counters)

        if self.store is not None:
            for unit in units:
                if not unit.key:
                    continue
                encoded = self.store.get(unit.key)
                if encoded is None:
                    continue
                results[unit.index] = decode_(encoded)
                self._note("store_hits")
                self._tick(results[unit.index], counters)
            if self.last_run_stats.get("store_hits"):
                self._event(
                    "store_hits",
                    units=self.last_run_stats["store_hits"],
                    total=total,
                )

        pending = [
            (u.index, u.payload) for u in units if u.index not in results
        ]

        def absorb(index: int, encoded: object) -> None:
            if index in results:
                return  # absorbed already, before an interrupt cut in
            key = keys.get(index, "")
            if self.store is not None and key:
                self.store.put(key, encoded, meta={"campaign": self.campaign})
            if ckpt is not None:
                ckpt.append(index, key, encoded)
            results[index] = decode_(encoded)
            self._note("executed")
            self._tick(results[index], counters)

        interrupted = None
        try:
            if pending:
                if self.fleet is not None:
                    interrupted = self._run_fleet(pending, keys, absorb)
                elif self.workers == 1:
                    interrupted = self._run_inline(
                        pending, task, initializer, initargs, encode, absorb
                    )
                else:
                    interrupted = self._run_pool(
                        pending, task, initializer, initargs, encode, absorb
                    )
        finally:
            if ckpt is not None:
                ckpt.close()
            # the store's own counters are read live (/metrics,
            # /v1/store/stats); only the entries this run quarantined
            # are logged here, for the job's event log
            if self.store is not None:
                healed = self.store.corrupt - corrupt_before
                if healed:
                    self._event("heal", corrupt=healed)

        if interrupted is not None:
            self._event(
                "interrupt",
                reason=interrupted,
                done=len(results),
                total=total,
            )
            exc = CampaignInterrupted(
                f"campaign interrupted ({interrupted}): "
                f"{len(results)}/{total} units finished"
                + (f"; resumable via {self.record}" if self.record else ""),
                done=len(results),
                total=total,
            )
            exc.results = dict(results)
            raise exc

        missing = [u.index for u in units if u.index not in results]
        if missing:
            raise ReproError(
                f"scheduler lost {len(missing)} of {total} unit results "
                f"(indices {missing[:5]}...); refusing to report on "
                f"partial results"
            )
        if ckpt is not None:
            ckpt.delete()
        self._event(
            "done",
            total=total,
            executed=self.last_run_stats.get("executed", 0),
            store_hits=self.last_run_stats.get("store_hits", 0),
        )
        # the one durable-telemetry seam: every *finished* campaign
        # (check, fuzz, sweep — anything with a campaign identity)
        # lands one content-addressed point in the series store
        if self.campaign:
            obs_series.record_campaign_point(
                campaign=self.campaign,
                label=(
                    # series_label is the job-id-free identity label:
                    # resubmits of one campaign must dedup to one point
                    getattr(self.telemetry, "series_label", None)
                    or self.telemetry.label
                    if self.telemetry is not None else ""
                ),
                units=total,
                telemetry=self.telemetry,
                stats=self.last_run_stats,
                series=self.series,
            )
        return [results[u.index] for u in units]

    # -- execution backends ----------------------------------------------

    def _cancelled(self) -> bool:
        return self.cancel is not None and self.cancel.is_set()

    def _run_inline(
        self, pending, task, initializer, initargs, encode, absorb
    ) -> Optional[str]:
        if initializer is not None:
            initializer(*initargs)
        self._event("shard", shard=0, units=len(pending), of=1)
        for index, payload in pending:
            if self._cancelled():
                return "cancelled"
            try:
                result = task(payload)
            except KeyboardInterrupt:
                return "signal"
            encoded = encode(result) if encode else result
            try:
                absorb(index, encoded)
            except KeyboardInterrupt:
                # The signal landed mid-absorb.  The result is already
                # computed and a store put is atomic and idempotent (a
                # torn journal line is skipped on load), so finish
                # persisting it rather than dropping a unit of work; a
                # unit already counted is not counted again.
                absorb(index, encoded)
                return "signal"
        return None

    def _run_fleet(self, pending, keys, absorb) -> Optional[str]:
        """Serve pending units to remote workers via the lease board.

        The handle streams back (index, encoded-result) pairs as
        workers complete them; this thread stays the only absorber, so
        store/journal/results bookkeeping needs no extra locking.
        Expired leases are reaped here too (``sweep``), which is what
        requeues a dead worker's shard.  Cross-lease duplicates (a
        shard re-executed after its first worker was presumed dead,
        both completing) are dropped at absorb time — exactly-once in
        the results, however many times a unit ran.
        """
        handle = self.fleet
        # the board hands emit() a payload dict; _event takes kwargs
        handle.open(
            list(pending), keys,
            events=lambda etype, payload: self._event(etype, **payload),
        )
        remaining = {index for index, _ in pending}
        interrupted: Optional[str] = None
        try:
            while remaining and interrupted is None:
                try:
                    for index, encoded in handle.poll(timeout_s=self.poll_s):
                        if index not in remaining:
                            self._note("lease.duplicate_results")
                            continue
                        absorb(index, encoded)
                        remaining.discard(index)
                    handle.sweep()
                    if self._cancelled():
                        interrupted = "cancelled"
                except KeyboardInterrupt:
                    interrupted = "signal"
        finally:
            for name, n in handle.close().items():
                self._note(name, n)
        return interrupted

    def _run_pool(
        self, pending, task, initializer, initargs, encode, absorb
    ) -> Optional[str]:
        shard_size = self.shard_size or max(
            1, min(16, len(pending) // (self.workers * 4) or 1)
        )
        shards = [
            pending[i:i + shard_size]
            for i in range(0, len(pending), shard_size)
        ]
        interrupted: Optional[str] = None
        with multiprocessing.Pool(
            processes=self.workers,
            initializer=_pool_init,
            initargs=(task, encode, initializer, initargs),
        ) as pool:
            inflight: Dict[int, object] = {}
            next_shard = 0
            while inflight or (next_shard < len(shards) and not interrupted):
                try:
                    while (
                        not interrupted
                        and next_shard < len(shards)
                        and len(inflight) < 2 * self.workers
                    ):
                        inflight[next_shard] = pool.apply_async(
                            _run_shard, (shards[next_shard],)
                        )
                        self._event(
                            "shard",
                            shard=next_shard,
                            units=len(shards[next_shard]),
                            of=len(shards),
                        )
                        next_shard += 1
                    done = [
                        n for n, ar in inflight.items() if ar.ready()
                    ]
                    for n in done:
                        # popped only once absorbed whole: after an
                        # interrupt mid-shard, the drain absorbs the rest
                        for index, encoded in inflight[n].get():
                            absorb(index, encoded)
                        del inflight[n]
                    if interrupted is None and self._cancelled():
                        interrupted = "cancelled"
                    if not done:
                        time.sleep(self.poll_s)
                except KeyboardInterrupt:
                    if interrupted is not None:
                        # second interrupt: give up on draining
                        pool.terminate()
                        break
                    interrupted = "signal"
        return interrupted
