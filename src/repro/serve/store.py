"""Content-addressed store for campaign work-unit results.

Keying
------

A store key is the SHA-256 of a *canonical JSON* document describing
everything a result depends on:

* the **program source** — not the app name: :func:`program_digest`
  builds the (memoized) program and hashes its pretty-printed IR, so
  editing an app or feeding a different fuzz spec changes the key while
  renaming a registered app does not;
* the **runtime** and its transform options;
* the **failure plan** — the injected schedule (check units) or the
  generator coordinates (fuzz units);
* the **fastpath flag** — both simulation paths are observationally
  identical by contract, but the store never *assumes* the contract it
  is used to verify, so VM-path (flag true) and reference-path (flag
  false) results live under distinct keys;
* the **semantics / lint versions**
  (:data:`repro.ir.semantics.SEMANTICS_VERSION`,
  :data:`repro.ir.lint.LINT_VERSION`) and the store's own
  :data:`STORE_VERSION` — bumping any of them orphans every stale
  entry instead of serving verdicts computed under old rules.

Layout and durability
---------------------

Every entry is one row of a single WAL-mode SQLite file,
``<root>/store.sqlite3``, keyed by digest.  N processes on one host
can share that file read-write: writers queue on the database lock
(``busy_timeout``) instead of corrupting each other, and a put is one
``INSERT OR IGNORE``, so same-key races are idempotent and exactly
one writer counts the write.  WAL needs shared memory between its
processes, so the root must live on a local filesystem, not a network
mount.  A commit (``synchronous=NORMAL``) survives the death of the
writing process, not an OS crash.  Anything unreadable on the way back
(a truncated or unparseable document, a digest mismatch) is
*quarantined*: the entry is deleted, counted in ``corrupt``, and
reported as a miss, so the caller simply re-simulates and the rewrite
heals the store.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro import fastpath
from repro.ir.lint import LINT_VERSION
from repro.ir.semantics import SEMANTICS_VERSION

#: layout/keying version of the store itself
STORE_VERSION = 1


def canonical_json(obj: object) -> str:
    """The unique JSON rendering digests are computed over."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def digest_of(obj: object) -> str:
    """SHA-256 hex digest of an object's canonical JSON."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def _versions() -> Dict[str, int]:
    return {
        "store_version": STORE_VERSION,
        "semantics_version": SEMANTICS_VERSION,
        "lint_version": LINT_VERSION,
    }


# -- program identity ------------------------------------------------------

# (app, frozen build_kwargs) -> source digest; tiny, cleared with the
# other fastpath caches so tests that rebuild apps stay isolated
_program_digests: Dict[Tuple, str] = {}


def program_digest(
    app: str, build_kwargs: Optional[Dict[str, object]] = None
) -> str:
    """Content digest of one registered app's *built program source*.

    Independent of the fastpath switch by construction (both paths
    build the identical IR — pinned by the store tests); the fastpath
    flag enters the unit key separately, as an explicit field.
    """
    from repro.core.compile import build_app_program, program_key
    from repro.ir.pretty import to_source

    key = program_key(app, build_kwargs)
    cached = _program_digests.get(key)
    if cached is not None:
        return cached
    source = to_source(build_app_program(app, build_kwargs))
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    _program_digests[key] = digest
    return digest


fastpath.register_cache_clearer(_program_digests.clear)


def unit_key(kind: str, **fields: object) -> str:
    """The store key of one work unit.

    ``kind`` namespaces the unit type (``"check-unit"``,
    ``"fuzz-unit"``); ``fields`` carry the unit's full failure plan and
    configuration.  The fastpath flag and all keying versions are
    folded in automatically.
    """
    doc: Dict[str, object] = {"kind": kind, "fastpath": fastpath.enabled()}
    doc.update(_versions())
    doc.update(fields)
    return digest_of(doc)


def campaign_digest(kind: str, **fields: object) -> str:
    """Identity of a whole campaign (checkpoint-header key).

    Same construction as :func:`unit_key`; kept separate so checkpoint
    identities and unit keys can never collide by kind.
    """
    return unit_key("campaign:" + kind, **fields)


# -- the store -------------------------------------------------------------


class SQLiteBackend:
    """The store's physical layout: one WAL-mode SQLite file.

    Documents are opaque text here; :class:`ResultStore` owns their
    meaning.  One connection per instance, opened on first use and
    shared by every thread under ``_lock`` (a daemon's request and job
    threads use one store); other processes open their own and
    serialize on the database lock.
    """

    name = "sqlite"

    #: how long a writer waits on a locked database before erroring
    busy_timeout_ms = 30_000

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.path = os.path.join(self.root, "store.sqlite3")
        self._lock = threading.Lock()
        self._db: Optional[sqlite3.Connection] = None

    def _conn(self) -> sqlite3.Connection:
        """The open connection; the caller holds ``_lock``."""
        if self._db is None:
            os.makedirs(self.root, exist_ok=True)
            conn = sqlite3.connect(
                self.path, timeout=30.0, check_same_thread=False
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={self.busy_timeout_ms}")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS objects ("
                " key TEXT PRIMARY KEY,"
                " saved_at REAL NOT NULL,"
                " size INTEGER NOT NULL,"
                " doc TEXT NOT NULL)"
            )
            conn.commit()
            self._db = conn
        return self._db

    def read(self, key: str) -> Optional[str]:
        """The raw document for ``key``, or None when absent."""
        with self._lock:
            try:
                row = self._conn().execute(
                    "SELECT doc FROM objects WHERE key = ?", (key,)
                ).fetchone()
            except sqlite3.Error:
                return None
        return row[0] if row is not None else None

    def write(self, key: str, document: str) -> bool:
        """Publish ``document`` under ``key``; False when one exists
        (entries are immutable, so the write is skipped)."""
        with self._lock:
            conn = self._conn()
            cur = conn.execute(
                "INSERT OR IGNORE INTO objects (key, saved_at, size, doc) "
                "VALUES (?, ?, ?, ?)",
                (key, time.time(), len(document.encode("utf-8")), document),
            )
            conn.commit()
        return cur.rowcount > 0

    def exists(self, key: str) -> bool:
        with self._lock:
            row = self._conn().execute(
                "SELECT 1 FROM objects WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    def remove(self, key: str) -> bool:
        """Delete the entry; True when something was removed."""
        with self._lock:
            conn = self._conn()
            cur = conn.execute("DELETE FROM objects WHERE key = ?", (key,))
            conn.commit()
        return cur.rowcount > 0

    def entries(self) -> List[Tuple[float, int, str]]:
        """``(saved_at, size_bytes, key)`` for every stored entry."""
        with self._lock:
            rows = self._conn().execute(
                "SELECT saved_at, size, key FROM objects"
            ).fetchall()
        return [(float(t), int(s), str(k)) for t, s, k in rows]

    def compact(self) -> int:
        """WAL checkpoint + VACUUM; returns file bytes reclaimed."""
        before = self.file_bytes()
        with self._lock:
            conn = self._conn()
            try:
                conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
                conn.execute("VACUUM")
                conn.commit()
            except sqlite3.Error:
                return 0
        return max(0, before - self.file_bytes())

    def file_bytes(self) -> int:
        """On-disk footprint: the database, its WAL and shared memory."""
        total = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                total += os.path.getsize(self.path + suffix)
            except OSError:
                pass
        return total

    def close(self) -> None:
        """Close the connection; the next call opens a new one."""
        with self._lock:
            if self._db is not None:
                self._db.close()
                self._db = None


class ResultStore:
    """A content-addressed result store rooted at one directory."""

    def __init__(self, root: str) -> None:
        self.backend = SQLiteBackend(root)
        self.root = self.backend.root
        # this handle's traffic counters: a daemon reads them live
        # (/metrics, /v1/store/stats), as its jobs share the handle
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.dedup = 0
        self.corrupt = 0
        self.evicted = 0

    # -- read/write -------------------------------------------------------

    def get(self, key: str) -> Optional[object]:
        """The stored result for ``key``, or ``None`` (a miss).

        A corrupt entry (unparseable, truncated, digest mismatch) is
        deleted and reported as a miss — the caller re-simulates and
        the rewrite heals the store.
        """
        text = self.backend.read(key)
        if text is None:
            self.misses += 1
            return None
        try:
            doc = json.loads(text)
            if not isinstance(doc, dict) or doc.get("digest") != key:
                raise ValueError("entry/digest mismatch")
        except ValueError:
            self.corrupt += 1
            self.misses += 1
            self.backend.remove(key)
            return None
        self.hits += 1
        return doc.get("result")

    def put(
        self, key: str, result: object,
        meta: Optional[Dict[str, object]] = None,
    ) -> bool:
        """Store ``result`` under ``key``; dedup if already present.

        Returns True when a new entry was written.  Writes are atomic
        and same-key races idempotent.
        """
        doc = {
            "digest": key,
            "saved_at": time.time(),
            "meta": dict(meta or {}),
            "result": result,
        }
        doc.update(_versions())
        if not self.backend.write(key, json.dumps(doc, sort_keys=True)):
            # already stored, by this process or a racing one
            self.dedup += 1
            return False
        self.writes += 1
        return True

    def __contains__(self, key: str) -> bool:
        return self.backend.exists(key)

    def close(self) -> None:
        self.backend.close()

    # -- maintenance ------------------------------------------------------

    def _entries(self) -> List[Tuple[float, int, str]]:
        """(saved_at, size, key) of every stored object."""
        return self.backend.entries()

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_age_s: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> Dict[str, int]:
        """Evict stored entries by age, count, and/or size budget.

        Always oldest first: ``max_age_s`` drops entries older than the
        horizon, ``max_entries`` keeps at most N newest, ``max_bytes``
        keeps the newest entries whose cumulative size fits the budget.
        After eviction the file is compacted (WAL checkpoint + VACUUM),
        so ``bytes_freed`` is logical entry bytes and ``bytes_compacted``
        physical file bytes actually returned to the filesystem.
        """
        entries = sorted(self._entries())
        victims: List[Tuple[float, int, str]] = []
        if max_age_s is not None:
            horizon = time.time() - max_age_s
            fresh = []
            for entry in entries:
                (victims if entry[0] < horizon else fresh).append(entry)
            entries = fresh
        if max_entries is not None and len(entries) > max_entries:
            excess = len(entries) - max_entries
            victims.extend(entries[:excess])
            entries = entries[excess:]
        if max_bytes is not None:
            total = sum(size for _, size, _ in entries)
            cut = 0
            while cut < len(entries) and total > max_bytes:
                total -= entries[cut][1]
                cut += 1
            victims.extend(entries[:cut])
            entries = entries[cut:]
        freed = 0
        removed = 0
        for _, size, key in victims:
            if self.backend.remove(key):
                removed += 1
                freed += size
        compacted = self.backend.compact() if removed else 0
        self.evicted += removed
        return {
            "scanned": len(entries) + len(victims),
            "evicted": removed,
            "kept": len(entries),
            "bytes_freed": freed,
            "bytes_compacted": compacted,
        }

    def stats(self) -> Dict[str, object]:
        """Entry count, on-disk bytes, and this process's traffic."""
        entries = self._entries()
        return {
            "root": self.root,
            "backend": self.backend.name,
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "file_bytes": self.backend.file_bytes(),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "dedup": self.dedup,
            "corrupt": self.corrupt,
            "evicted": self.evicted,
            **_versions(),
        }
