"""``repro.fleet`` — remote worker fleets over the campaign service.

The daemon keeps owning campaign *identity* (store keys, reports);
this package moves campaign *execution* out of its process:

* :mod:`repro.fleet.leases` — the daemon-side lease manager: shards of
  work units granted to workers under heartbeat leases with a TTL;
  expired leases requeue at the front of a per-job priority queue, so
  a SIGKILLed worker's shard is simply re-executed elsewhere with zero
  lost and zero double-counted units.
* :mod:`repro.fleet.worker` — the worker loop: register, pull a shard
  lease over HTTP, execute each unit with the existing campaign
  unit-runners, stream results back (each submission renews the
  heartbeat), optionally short-circuiting through a local shared
  content-addressed store.
* :mod:`repro.fleet.cli` — ``python -m repro fleet {worker,status}``.

The resumable-lease shape deliberately mirrors the progress
discipline of the intermittent-computing runtimes this repository
checks: a worker that dies mid-shard must leave state that another
can resume without re-deriving or corrupting results.
"""

from repro.fleet.leases import (  # noqa: F401
    Backpressure,
    FleetHandle,
    Lease,
    LeaseBoard,
    UnknownLease,
)

__all__ = [
    "Backpressure", "FleetHandle", "Lease", "LeaseBoard", "UnknownLease",
    "FleetWorker",
]


def __getattr__(name: str):
    # lazy: the worker imports the HTTP client from repro.serve.daemon,
    # which imports repro.fleet.leases — an eager re-export here would
    # close that cycle
    if name == "FleetWorker":
        from repro.fleet.worker import FleetWorker

        return FleetWorker
    raise AttributeError(name)
