"""The fleet worker: pull shard leases, run units, stream results.

One worker process drives this loop against a serve daemon::

    register -> loop:
        lease a shard (or back off: idle poll, 429 Retry-After,
                       daemon down -> bounded reconnect backoff)
        for each unit in the shard:
            heartbeat-renew if the lease is past its renew margin
            serve the unit from the local shared store if keyed there,
            else execute it with the campaign's own unit-runner
            stream the encoded result back (which also renews)
        release the lease

The unit-runner is the job's campaign kind's own ``run_unit`` — the
function the in-process scheduler pool runs — bound to a context the
kind's ``context`` rebuilds from the job's wire config (see
:mod:`repro.serve.kinds`), so a remotely computed result is
byte-identical to a locally computed one, and the daemon's report
cannot tell the difference.  Any registered kind runs here; nothing
in this module names one.  The chunked-task discipline (run one unit,
check the remaining lease time, renew, continue) means a worker that
dies mid-shard loses at most the units it had not yet streamed back;
the daemon requeues them on lease expiry and another worker re-derives
them from the same deterministic coordinates.

An optional local ``--store`` short-circuits execution for units whose
content-addressed key is already cached — with the SQLite backend, N
workers on one host safely share that cache read-write.
"""

from __future__ import annotations

import functools
import os
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.serve.daemon import ServeClient, ServeHTTPError

#: renew when less than this fraction of the TTL remains
RENEW_MARGIN = 0.5

# The simulation core shares per-process caches (pooled runtimes whose
# contract is sequential use) — so unit execution is a process-wide
# critical section.  One worker per process (the CLI deployment) never
# contends; multiple FleetWorker instances in one process (tests,
# embedders) serialize execution while leases, renewals, and streaming
# stay concurrent.
_EXEC_LOCK = threading.Lock()
_CTX_KEY: Optional[str] = None
_CTX_TASK: Optional[Callable[[object], object]] = None


def _task_for(
    kind: str, config: Dict[str, object], key: str
) -> Callable[[object], object]:
    """The process's current unit-runner; call with _EXEC_LOCK held.

    It maps a wire payload to the encoded (JSON-safe) unit result, as
    the scheduler's pool workers do.  The context is rebuilt when the
    shard in hand belongs to a different campaign than the last unit
    executed — two workers interleaving shards of different jobs must
    not run a unit against the other job's context.
    """
    global _CTX_KEY, _CTX_TASK
    if key != _CTX_KEY or _CTX_TASK is None:
        from repro.serve.kinds import campaign_kind

        campaign = campaign_kind(kind)
        ctx = campaign.context(campaign.decode_config(config))
        _CTX_TASK = functools.partial(campaign.run_unit, ctx)
        _CTX_KEY = key
    return _CTX_TASK


class FleetWorker:
    """One worker process's lease-pulling loop."""

    def __init__(
        self,
        client: ServeClient,
        store=None,
        max_units: Optional[int] = None,
        poll_s: float = 0.5,
        max_idle_s: Optional[float] = None,
        reconnect_max_s: float = 10.0,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.client = client
        #: optional local :class:`~repro.serve.store.ResultStore`
        self.store = store
        self.max_units = max_units
        self.poll_s = poll_s
        #: exit after this long without work (None: poll forever)
        self.max_idle_s = max_idle_s
        self.reconnect_max_s = reconnect_max_s
        self.log = log or (lambda message: None)
        self.worker_id: Optional[str] = None
        self.ttl_s = 30.0  # replaced by the daemon's value on register
        self.stop = False
        self.stats: Dict[str, int] = {
            "leases": 0, "units_executed": 0, "units_cached": 0,
            "shards_lost": 0, "renewals": 0, "reconnects": 0,
        }

    def request_stop(self) -> None:
        """Finish the in-flight unit, release the lease, exit."""
        self.stop = True

    # -- plumbing ---------------------------------------------------------

    def _register(self) -> None:
        doc = self.client.fleet_register({
            "host": socket.gethostname(), "pid": os.getpid(),
        })
        self.worker_id = str(doc["worker"])
        self.ttl_s = float(doc.get("ttl_s", 30.0))
        self.log(f"registered as {self.worker_id} (ttl {self.ttl_s}s)")

    def _submit(
        self,
        lease_id: str,
        results: List[Dict[str, object]],
        done: bool,
    ) -> bool:
        """Stream results; False when the lease is gone (abandon shard).

        429 backpressure waits and retries the identical batch (the
        board's idempotency makes that safe); connection errors retry
        with backoff until the lease must have expired anyway.
        """
        deadline = time.monotonic() + self.ttl_s
        delay = 0.2
        while True:
            try:
                self.client.fleet_complete(lease_id, results, done=done)
                return True
            except ServeHTTPError as exc:
                if exc.status in (404, 410):
                    return False
                if exc.status == 429:
                    time.sleep(exc.retry_after or 0.5)
                    continue
                raise
            except ReproError:
                if time.monotonic() > deadline:
                    return False
                self.stats["reconnects"] += 1
                time.sleep(delay)
                delay = min(self.reconnect_max_s, delay * 2)

    # -- shard execution --------------------------------------------------

    def _run_shard(self, shard: Dict[str, object]) -> None:
        from repro.serve.store import digest_of

        lease_id = str(shard["lease"])
        ttl_s = float(shard.get("ttl_s", self.ttl_s))
        deadline = time.monotonic() + ttl_s
        kind = str(shard["kind"])
        config = dict(shard["config"])
        ctx_key = kind + ":" + digest_of(config)
        units = list(shard["units"])
        self.stats["leases"] += 1
        for position, unit in enumerate(units):
            if self.stop:
                break
            # the chunked-task check: enough lease left for this unit?
            if deadline - time.monotonic() < ttl_s * RENEW_MARGIN:
                try:
                    self.client.fleet_renew(lease_id)
                    deadline = time.monotonic() + ttl_s
                    self.stats["renewals"] += 1
                except (ServeHTTPError, ReproError):
                    # lease gone (or daemon gone): abandon the shard —
                    # the board has requeued (or will requeue) the rest
                    self.stats["shards_lost"] += 1
                    return
            index = int(unit["index"])
            key = str(unit.get("key") or "")
            encoded = None
            if self.store is not None and key:
                encoded = self.store.get(key)
            if encoded is not None:
                self.stats["units_cached"] += 1
            else:
                with _EXEC_LOCK:
                    task = _task_for(kind, config, ctx_key)
                    encoded = task(unit["payload"])
                self.stats["units_executed"] += 1
                if self.store is not None and key:
                    self.store.put(key, encoded, meta={"worker": "fleet"})
            last = position == len(units) - 1 and not self.stop
            if not self._submit(
                lease_id,
                [{"index": index, "result": encoded}],
                done=last,
            ):
                self.stats["shards_lost"] += 1
                return
            deadline = time.monotonic() + ttl_s  # streaming renews
        if self.stop and units:
            # release early: uncompleted units requeue immediately
            # instead of waiting out the TTL
            self._submit(lease_id, [], done=True)

    # -- the loop ---------------------------------------------------------

    def run(self, max_leases: Optional[int] = None) -> Dict[str, int]:
        """Lease/execute/stream until stopped or idled out."""
        delay = 0.2
        while self.worker_id is None and not self.stop:
            try:
                self._register()
            except (ServeHTTPError, ReproError):
                self.stats["reconnects"] += 1
                time.sleep(delay)
                delay = min(self.reconnect_max_s, delay * 2)
        idle_since = time.monotonic()
        delay = 0.2
        while not self.stop:
            if max_leases is not None and self.stats["leases"] >= max_leases:
                break
            try:
                shard = self.client.fleet_lease(
                    self.worker_id, max_units=self.max_units
                )
            except ServeHTTPError as exc:
                if exc.status == 429:
                    time.sleep(exc.retry_after or 1.0)
                    continue
                raise
            except ReproError:
                # daemon down or restarting: bounded backoff, keep
                # polling — a resumed daemon sees us come right back
                self.stats["reconnects"] += 1
                time.sleep(delay)
                delay = min(self.reconnect_max_s, delay * 2)
                continue
            delay = 0.2
            if not shard:
                if (
                    self.max_idle_s is not None
                    and time.monotonic() - idle_since > self.max_idle_s
                ):
                    break
                time.sleep(self.poll_s)
                continue
            self.log(
                f"lease {shard['lease']} ({len(shard['units'])} units, "
                f"job {shard['job']})"
            )
            self._run_shard(shard)
            idle_since = time.monotonic()
        return dict(self.stats)
