"""Durable fleet telemetry: an append-only, content-addressed series.

Campaigns and perf runs are fleeting — a report here, a
``BENCH_sim.json`` snapshot there — but trend questions ("did the
warm-hit rate fall last rev?", "when did ``timely_stale`` first show
up?", "is the VM speedup holding?") need one durable file that every
finished campaign and every perf run lands in.  That file is a
**series store**: append-only JSONL, one *point* per line, living under
the service root (or wherever ``REPRO_OBS_SERIES`` points).  It is the
repo's only perf trajectory.

Design constraints, in order:

* **Durability over elegance** — a point is one ``os.write`` to an
  ``O_APPEND`` fd under an exclusive ``flock``, so concurrent writers
  (campaign processes, daemon job threads, CI shards) never interleave
  partial lines; a torn final line from a crash is skipped on read.
* **Content-addressed dedup** — each point carries a SHA-256 digest of
  its *identity* fields (rev, campaign digest, label, run counters —
  not wall time, not cache provenance), so replaying a campaign from
  warm cache appends nothing new, and series files from different
  fleet members can be concatenated and still read as a set.
* **Zero cost when disabled** — recording is one ``active()`` check at
  campaign end; no store configured and no env var means no file I/O,
  no digesting, nothing (the obs zero-overhead contract, extended).

This module sits with the rest of :mod:`repro.obs` *below* the serve
layer in the import graph: the scheduler imports us, never the other
way around, which is why the tiny canonical-JSON digest helper is
duplicated here rather than imported from :mod:`repro.serve.store`.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import subprocess
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Union

from repro.obs.campaign import divergence_by_class
from repro.obs.metrics import Histogram, ambient

#: series file format version, stamped on every point
SERIES_SCHEMA = "repro.obs.series/1"

#: env var naming a series file to record into (CLI runs, CI shards)
SERIES_ENV = "REPRO_OBS_SERIES"

#: fields excluded from the identity digest — everything that varies
#: between two executions of the *same* work: wall time, throughput,
#: cache provenance (``store`` only in points recorded before the store
#: counters were read live), and the digest/stamp machinery itself
VOLATILE_FIELDS = frozenset((
    "digest",
    "schema",
    "recorded_at",
    "elapsed_s",
    "runs_per_s",
    "serve",
    "store",
))


def _canonical(doc: object) -> str:
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def point_digest(doc: Mapping[str, object]) -> str:
    """SHA-256 of the point's identity (volatile fields excluded).

    Counters are narrowed to the ``run.``-prefixed names: those are the
    deterministic per-run aggregates a replay reproduces bit-for-bit,
    while ``serve.*`` counters say *how* units were satisfied (cache vs
    execution) and would defeat warm-replay dedup.
    """
    ident: Dict[str, object] = {}
    for key, value in doc.items():
        if key in VOLATILE_FIELDS:
            continue
        if key == "counters" and isinstance(value, Mapping):
            value = {
                k: v for k, v in value.items() if k.startswith("run.")
            }
        ident[key] = value
    return hashlib.sha256(_canonical(ident).encode("utf-8")).hexdigest()


_GIT_REV: Optional[str] = None


def git_rev() -> str:
    """The short git rev of the working tree (cached per process)."""
    global _GIT_REV
    if _GIT_REV is None:
        rev = "unknown"
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
            if out.returncode == 0:
                rev = out.stdout.strip() or "unknown"
        except Exception:
            pass
        _GIT_REV = rev
    return _GIT_REV


class SeriesStore:
    """Append-only JSONL store of deduplicated telemetry points."""

    def __init__(self, path: str) -> None:
        self.path = os.path.abspath(path)
        self._lock = threading.Lock()
        #: points appended / skipped as duplicates by *this* process
        self.appended = 0
        self.deduped = 0
        #: digests of the lines before ``_offset``: what this instance
        #: has parsed of the file, so an append reads only what is new
        self._seen: set = set()
        self._offset = 0

    # -- reading ----------------------------------------------------------

    def load(self) -> List[Dict[str, object]]:
        """Every point, first-occurrence order, deduped by digest.

        Unparseable lines (a torn tail from a crash mid-append, or a
        concatenation seam) are skipped, never fatal; duplicate digests
        — possible when two *processes* raced an append — collapse to
        the first occurrence, so readers see a set.
        """
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except (FileNotFoundError, OSError):
            return []
        points: List[Dict[str, object]] = []
        seen: set = set()
        for line in lines:
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if not isinstance(doc, dict):
                continue
            digest = doc.get("digest")
            if not isinstance(digest, str) or digest in seen:
                continue
            seen.add(digest)
            points.append(doc)
        return points

    # -- writing ----------------------------------------------------------

    def _catch_up(self, fd: int) -> bytes:
        """Note the digests of the lines appended since the last call.

        The caller holds the ``flock``.  Only complete lines are
        consumed; the unterminated tail (a write torn by a crash) is
        returned and read again next time.  A file shorter than what
        was already read has been replaced: start over from byte 0.
        """
        size = os.fstat(fd).st_size
        if size < self._offset:
            self._seen.clear()
            self._offset = 0
        chunks = []
        pos = self._offset
        while pos < size:
            chunk = os.pread(fd, size - pos, pos)
            if not chunk:
                break
            chunks.append(chunk)
            pos += len(chunk)
        data = b"".join(chunks)
        cut = data.rfind(b"\n") + 1
        for raw in data[:cut].splitlines():
            digest = _line_digest(raw)
            if digest is not None:
                self._seen.add(digest)
        self._offset += cut
        return data[cut:]

    def record_point(
        self, doc: Mapping[str, object]
    ) -> Optional[Dict[str, object]]:
        """Append one point; returns it, or None when deduplicated.

        The write is a single ``os.write`` on an ``O_APPEND`` fd.  That
        alone does not keep concurrent recorders apart: the tail check
        below can see another process's multi-page append half done and
        put a newline in front of a good line, and two recorders of one
        point could both miss the other's copy.  So the dedup check,
        the tail check and the write run under an exclusive ``flock``
        on the file, which every recorder takes.
        """
        point = dict(doc)
        point.setdefault("schema", SERIES_SCHEMA)
        point["digest"] = point_digest(point)
        point.setdefault("recorded_at", round(time.time(), 3))
        line = (_canonical(point) + "\n").encode("utf-8")
        reg = ambient()
        with self._lock:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            fd = os.open(
                self.path, os.O_CREAT | os.O_RDWR | os.O_APPEND, 0o644
            )
            try:
                # released when the fd closes
                fcntl.flock(fd, fcntl.LOCK_EX)
                tail = self._catch_up(fd)
                # load() reads an unterminated tail as a line too
                tail_digest = _line_digest(tail) if tail else None
                if (
                    point["digest"] in self._seen
                    or point["digest"] == tail_digest
                ):
                    self.deduped += 1
                    if reg is not None:
                        reg.inc("obs.series.deduped")
                    return None
                if tail:
                    # a writer that died mid-append left a torn line
                    # with no newline; start on a fresh line so this
                    # point parses (O_APPEND still lands it at the end)
                    line = b"\n" + line
                os.write(fd, line)
                self._seen.update({tail_digest, point["digest"]} - {None})
                self._offset += len(tail) + len(line)
            finally:
                os.close(fd)
            self.appended += 1
            if reg is not None:
                reg.inc("obs.series.appended")
        return point


def _line_digest(raw: bytes) -> Optional[str]:
    """The digest a series line carries, or None for a line
    :meth:`SeriesStore.load` would skip."""
    try:
        doc = json.loads(raw)
    except ValueError:
        return None
    digest = doc.get("digest") if isinstance(doc, dict) else None
    return digest if isinstance(digest, str) else None


# -- process-wide activation ------------------------------------------------

_ACTIVE: Optional[SeriesStore] = None
_ENV_STORE: Optional[SeriesStore] = None
_TLS = threading.local()


def activate(target: Union[str, SeriesStore, None]) -> Optional[SeriesStore]:
    """Make ``target`` the process-wide series store (None turns off)."""
    global _ACTIVE
    if isinstance(target, str):
        target = SeriesStore(target)
    _ACTIVE = target
    return _ACTIVE


def active() -> Optional[SeriesStore]:
    """The store recording should land in, or None when disabled.

    An explicitly :func:`activate`-d store wins; otherwise the
    ``REPRO_OBS_SERIES`` env var names the file (checked per call so
    subprocess workers and tests see changes).
    """
    if _ACTIVE is not None:
        return _ACTIVE
    path = os.environ.get(SERIES_ENV)
    if not path:
        return None
    global _ENV_STORE
    if _ENV_STORE is None or _ENV_STORE.path != os.path.abspath(path):
        _ENV_STORE = SeriesStore(path)
    return _ENV_STORE


@contextmanager
def suppressed() -> Iterator[None]:
    """Suppress recording on this thread (re-entrant).

    The fuzz harness runs one *inner* checking campaign per generated
    program; without suppression a 100-program fuzz run would flood
    the series with hundreds of per-program points.  Only the fuzz
    run's own top-level point should land.
    """
    _TLS.depth = getattr(_TLS, "depth", 0) + 1
    try:
        yield
    finally:
        _TLS.depth -= 1


def is_suppressed() -> bool:
    return getattr(_TLS, "depth", 0) > 0


# -- the two recording seams ------------------------------------------------


def record_campaign_point(
    *,
    campaign: str,
    label: str,
    units: int,
    telemetry=None,
    stats: Optional[Mapping[str, int]] = None,
    series: Optional[SeriesStore] = None,
) -> Optional[Dict[str, object]]:
    """One finished campaign -> one series point (the scheduler seam).

    No-op unless a store is active (explicit ``series``, process-wide
    :func:`activate`, or the env var) and recording is not suppressed
    on this thread.
    """
    target = series if series is not None else active()
    if target is None or is_suppressed():
        return None
    doc: Dict[str, object] = {
        "kind": "campaign",
        "rev": git_rev(),
        "label": label,
        "campaign": campaign,
        "units": int(units),
    }
    if telemetry is not None:
        elapsed = telemetry.elapsed_s
        doc["elapsed_s"] = round(elapsed, 4)
        doc["runs_per_s"] = (
            round(units / elapsed, 2) if elapsed > 0 else 0.0
        )
        counters = {
            k: (round(v, 6) if isinstance(v, float) else v)
            for k, v in sorted(telemetry.registry.counters.items())
        }
        doc["counters"] = counters
        by_kind = {
            k[len("run.violations."):]: int(v)
            for k, v in counters.items()
            if k.startswith("run.violations.")
        }
        doc["divergence_by_class"] = divergence_by_class(by_kind, units)
    if stats:
        doc["serve"] = {k: int(v) for k, v in sorted(stats.items())}
    return target.record_point(doc)


def record_perf_point(
    doc: Mapping[str, object],
    series: Optional[SeriesStore] = None,
) -> Optional[Dict[str, object]]:
    """One ``bench perf`` suite document -> one series point."""
    target = series if series is not None else active()
    if target is None or is_suppressed():
        return None
    benchmarks: Dict[str, Dict[str, object]] = {}
    for bench in doc.get("benchmarks", ()):  # type: ignore[union-attr]
        if not isinstance(bench, Mapping) or "name" not in bench:
            continue
        cell: Dict[str, object] = {
            "wall_s": bench.get("wall_s"),
            "runs_per_s": bench.get("runs_per_s"),
        }
        if bench.get("vm_speedup") is not None:
            cell["vm_speedup"] = bench["vm_speedup"]
        benchmarks[str(bench["name"])] = cell
    point: Dict[str, object] = {
        "kind": "perf",
        "rev": str(doc.get("git_rev") or git_rev()),
        "label": "bench perf",
        "quick": bool(doc.get("quick", False)),
        "benchmarks": benchmarks,
    }
    return target.record_point(point)


# -- folding and aggregation (obs trends, /v1/analytics) --------------------


def series_revs(
    points: Sequence[Mapping[str, object]],
) -> List[Dict[str, object]]:
    """Campaign points folded per rev, first-seen order preserved.

    Each row carries points/units/elapsed/throughput, cache economics,
    per-label throughput, and the summed divergence-by-class counts —
    everything the trend table, the gate and :func:`aggregate` need.
    """
    order: List[str] = []
    rows: Dict[str, Dict[str, object]] = {}
    for p in points:
        if p.get("kind") != "campaign":
            continue
        rev = str(p.get("rev", "unknown"))
        if rev not in rows:
            order.append(rev)
            rows[rev] = {
                "rev": rev,
                "points": 0,
                "units": 0,
                "elapsed_s": 0.0,
                "store_hits": 0,
                "checkpoint_restored": 0,
                "executed": 0,
                "divergence": {},
                "labels": {},
            }
        row = rows[rev]
        n = int(p.get("units", 0) or 0)
        e = float(p.get("elapsed_s", 0.0) or 0.0)
        row["points"] = int(row["points"]) + 1
        row["units"] = int(row["units"]) + n
        row["elapsed_s"] = float(row["elapsed_s"]) + e
        serve = p.get("serve") or {}
        if isinstance(serve, Mapping):
            for key in ("store_hits", "checkpoint_restored", "executed"):
                row[key] = int(row[key]) + int(serve.get(key, 0) or 0)
        div = p.get("divergence_by_class") or {}
        if isinstance(div, Mapping):
            dest: Dict[str, int] = row["divergence"]  # type: ignore
            for cls, cell in div.items():
                count = (
                    int(cell.get("count", 0))
                    if isinstance(cell, Mapping) else int(cell or 0)
                )
                dest[cls] = dest.get(cls, 0) + count
        label = str(p.get("label", "") or "")
        if label:
            labels: Dict[str, Dict[str, float]] = row["labels"]  # type: ignore
            cell = labels.setdefault(label, {"units": 0, "elapsed_s": 0.0})
            cell["units"] += n
            cell["elapsed_s"] += e
    out: List[Dict[str, object]] = []
    for rev in order:
        row = rows[rev]
        e = float(row["elapsed_s"])
        row["elapsed_s"] = round(e, 4)
        row["runs_per_s"] = (
            round(int(row["units"]) / e, 2) if e > 0 else 0.0
        )
        satisfied = (
            int(row["store_hits"]) + int(row["checkpoint_restored"])
            + int(row["executed"])
        )
        row["hit_rate"] = (
            round(
                (int(row["store_hits"]) + int(row["checkpoint_restored"]))
                / satisfied, 4,
            )
            if satisfied else 0.0
        )
        for cell in row["labels"].values():  # type: ignore[union-attr]
            ce = float(cell["elapsed_s"])
            cell["runs_per_s"] = (
                round(cell["units"] / ce, 2) if ce > 0 else 0.0
            )
            cell["elapsed_s"] = round(ce, 4)
        out.append(row)
    return out


def aggregate(points: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    """Fleet-level rollups over a set of series points.

    Throughput, cache economics, campaign-latency quantiles (from a
    power-of-two histogram over elapsed milliseconds), and per-rev
    breakdowns including divergence-by-class — the document behind
    ``GET /v1/analytics`` and ``obs trends --json``.  The per-rev and
    cache figures come from :func:`series_revs`.
    """
    campaigns = [p for p in points if p.get("kind") == "campaign"]
    perf = [p for p in points if p.get("kind") == "perf"]

    units = 0
    elapsed = 0.0
    latency = Histogram()
    for p in campaigns:
        e = float(p.get("elapsed_s", 0.0) or 0.0)
        units += int(p.get("units", 0) or 0)
        elapsed += e
        if e > 0:
            latency.observe(e * 1000.0)
    revs = sorted(series_revs(campaigns), key=lambda row: str(row["rev"]))
    store_hits = sum(int(r["store_hits"]) for r in revs)
    executed = sum(int(r["executed"]) for r in revs)
    restored = sum(int(r["checkpoint_restored"]) for r in revs)
    satisfied = store_hits + executed + restored

    perf_by_rev: Dict[str, Dict[str, object]] = {}
    for p in perf:
        rev = str(p.get("rev", "unknown"))
        benches = p.get("benchmarks") or {}
        if isinstance(benches, Mapping):
            # latest point per rev wins (reruns overwrite)
            perf_by_rev[rev] = {k: dict(v) for k, v in benches.items()}

    return {
        "points": len(points),
        "campaigns": {
            "count": len(campaigns),
            "units": units,
            "elapsed_s": round(elapsed, 4),
            "throughput_runs_per_s": (
                round(units / elapsed, 2) if elapsed > 0 else 0.0
            ),
            "cache": {
                "store_hits": store_hits,
                "checkpoint_restored": restored,
                "executed": executed,
                "hit_rate": (
                    round((store_hits + restored) / satisfied, 4)
                    if satisfied else 0.0
                ),
            },
            "latency_ms": {
                "p50": latency.quantile(0.5),
                "p95": latency.quantile(0.95),
                "mean": round(latency.mean, 3),
                "count": latency.count,
            },
            "by_rev": {
                str(r["rev"]): {
                    key: r[key]
                    for key in ("points", "units", "elapsed_s", "runs_per_s")
                }
                for r in revs
            },
            "divergence_by_class_by_rev": {
                str(r["rev"]): dict(
                    sorted(r["divergence"].items())  # type: ignore
                )
                for r in revs
            },
        },
        "perf": {
            "count": len(perf),
            "by_rev": {k: perf_by_rev[k] for k in sorted(perf_by_rev)},
        },
    }
