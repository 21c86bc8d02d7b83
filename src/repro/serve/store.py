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

Durability and backends
-----------------------

Physical placement is pluggable (:mod:`repro.serve.backends`): the
original one-file-per-entry FS layout, or a single WAL-mode SQLite
database for fleets of worker processes sharing one cache.  Whatever
the backend, the semantics here are identical: writes are atomic and
idempotent, and anything unreadable on the way back (truncation, bad
JSON, digest mismatch) is *quarantined* — the entry is deleted,
counted in ``corrupt``, and reported as a miss, so the caller simply
re-simulates and the rewrite heals the store.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Dict, List, Optional, Tuple

from repro import fastpath
from repro.ir.lint import LINT_VERSION
from repro.ir.semantics import SEMANTICS_VERSION
from repro.obs import metrics as obs_metrics
from repro.serve.backends import FSBackend, StoreBackend, make_backend

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


class ResultStore:
    """A content-addressed result store rooted at one directory.

    ``backend`` names the physical layout (``"fs"`` | ``"sqlite"``);
    None resolves it from what's already on disk, then the
    ``REPRO_STORE_BACKEND`` environment variable, then the FS default.
    """

    def __init__(self, root: str, backend: Optional[str] = None) -> None:
        self.backend: StoreBackend = make_backend(root, backend)
        self.root = getattr(self.backend, "root")
        if isinstance(self.backend, FSBackend):
            # legacy seam: tests and tools poke FS entries directly
            self.objects_dir = self.backend.objects_dir
        # process-local traffic counters (also folded into the ambient
        # obs registry, when one is collecting)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.dedup = 0
        self.corrupt = 0
        self.evicted = 0

    # -- internals --------------------------------------------------------

    def _inc(self, name: str, n: int = 1) -> None:
        ambient = obs_metrics.ambient()
        if ambient is not None:
            ambient.inc("serve.store." + name, n)

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
            self._inc("misses")
            return None
        try:
            doc = json.loads(text)
            if not isinstance(doc, dict) or doc.get("digest") != key:
                raise ValueError("entry/digest mismatch")
        except ValueError:
            self.corrupt += 1
            self.misses += 1
            self._inc("corrupt")
            self._inc("misses")
            self.backend.remove(key)
            return None
        self.hits += 1
        self._inc("hits")
        return doc.get("result")

    def put(
        self, key: str, result: object,
        meta: Optional[Dict[str, object]] = None,
    ) -> bool:
        """Store ``result`` under ``key``; dedup if already present.

        Returns True when a new entry was written.  Writes are atomic
        and same-key races idempotent, whatever the backend.
        """
        if self.backend.exists(key):
            self.dedup += 1
            self._inc("dedup")
            return False
        doc = {
            "digest": key,
            "saved_at": time.time(),
            "meta": dict(meta or {}),
            "result": result,
        }
        doc.update(_versions())
        if not self.backend.write(key, json.dumps(doc, sort_keys=True)):
            # lost a same-key race to another writer: that's a dedup
            self.dedup += 1
            self._inc("dedup")
            return False
        self.writes += 1
        self._inc("writes")
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
        After eviction the backend compacts itself (a no-op for FS;
        WAL checkpoint + VACUUM for SQLite), so ``bytes_freed`` is
        logical entry bytes and ``bytes_compacted`` physical file bytes
        actually returned to the filesystem.
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
        self._inc("evicted", removed)
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
