"""``repro.serve`` — the persistent campaign service layer.

Campaigns used to be one-shot in-memory ``multiprocessing`` runs: kill
one and everything is lost, re-run one and every byte-identical work
unit is re-simulated.  This package makes campaign work *durable* and
*addressable*:

:mod:`repro.serve.store`
    a content-addressed result store in one WAL-mode SQLite file,
    keyed by a canonical digest of (program source, runtime, failure
    plan, fastpath flag, semantics/lint version) — atomic writes,
    dedup, corruption treated as a miss, ``gc`` eviction, hit/miss
    metrics;

:mod:`repro.serve.scheduler`
    a batch scheduler that shards a campaign's work units across a
    worker pool, short-circuits store hits, keeps one durable record of
    every finished unit (its store, or without one a checkpoint
    journal), resumes an interrupted campaign from that record, and
    drains cleanly on SIGINT/SIGTERM/cancel;

:mod:`repro.serve.kinds`
    the campaign kinds (check, fuzz, env sweep), one registry, and the
    one driver and CLI runner every kind runs through;

:mod:`repro.serve.api`
    the job layer: submit campaigns of any kind as asynchronous batch
    jobs, poll live telemetry, fetch reports, cancel, resume;

:mod:`repro.serve.daemon`
    a long-lived stdlib HTTP front-end (``ThreadingHTTPServer``, JSON
    bodies) over the job layer, plus the matching :class:`ServeClient`;

:mod:`repro.serve.cli`
    ``python -m repro serve {start,submit,status,results,cancel,gc}``.
"""

from repro.serve.scheduler import BatchScheduler, WorkUnit
from repro.serve.store import (
    ResultStore,
    campaign_digest,
    canonical_json,
    digest_of,
    program_digest,
    unit_key,
)

__all__ = [
    "BatchScheduler",
    "ResultStore",
    "WorkUnit",
    "campaign_digest",
    "canonical_json",
    "digest_of",
    "program_digest",
    "unit_key",
]
