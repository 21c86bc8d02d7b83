"""The content-addressed result store: keying, durability, eviction."""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.serve.store import (
    ResultStore,
    campaign_digest,
    canonical_json,
    digest_of,
    program_digest,
    unit_key,
)
from tests.conftest import on_sim_path


class TestCanonicalDigests:
    def test_canonical_json_is_key_order_independent(self):
        a = {"b": 1, "a": [1, 2, {"y": 0, "x": 9}]}
        b = {"a": [1, 2, {"x": 9, "y": 0}], "b": 1}
        assert canonical_json(a) == canonical_json(b)
        assert digest_of(a) == digest_of(b)

    def test_unit_key_depends_on_every_field(self):
        base = unit_key("check-unit", program="p", schedule=[1, 2])
        assert base == unit_key("check-unit", schedule=[1, 2], program="p")
        assert base != unit_key("check-unit", program="p", schedule=[1, 3])
        assert base != unit_key("fuzz-unit", program="p", schedule=[1, 2])

    def test_campaign_digest_never_collides_with_unit_key(self):
        fields = dict(program="p", runs=4)
        assert campaign_digest("check", **fields) != unit_key(
            "check", **fields
        )

    def test_unit_key_folds_in_the_fastpath_flag(self):
        with on_sim_path("vm"):
            on = unit_key("check-unit", program="p")
        with on_sim_path("reference"):
            off = unit_key("check-unit", program="p")
        assert on != off


class TestProgramDigest:
    def test_stable_across_fastpath_modes(self):
        # both simulation paths build the identical IR, so the program
        # identity half of the key must not depend on the switch
        with on_sim_path("vm"):
            on = program_digest("fir")
        with on_sim_path("reference"):
            off = program_digest("fir")
        assert on == off

    def test_distinguishes_apps(self):
        assert program_digest("fir") != program_digest("uni_temp")

    def test_stable_across_processes(self):
        # content addressing only works if a fresh interpreter computes
        # the same digests this one does
        script = (
            "from repro.serve.store import program_digest, unit_key\n"
            "print(program_digest('fir'))\n"
            "print(unit_key('check-unit', program='p', schedule=[1, 2]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), *sys.path) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.split()
        assert out[0] == program_digest("fir")
        assert out[1] == unit_key("check-unit", program="p", schedule=[1, 2])


# one param: the test ids name the store's one layout
@pytest.fixture(params=["sqlite"])
def store(tmp_path):
    s = ResultStore(str(tmp_path / "store"))
    yield s
    s.close()


def _corrupt(store, key, text=None):
    """Damage the stored entry for ``key`` at the physical layer.

    ``text=None`` truncates the document to half its bytes; otherwise
    the document is replaced wholesale with ``text``.
    """
    with store.backend._lock:
        conn = store.backend._conn()
        if text is None:
            conn.execute(
                "UPDATE objects SET doc = substr(doc, 1, length(doc) / 2) "
                "WHERE key = ?", (key,)
            )
        else:
            conn.execute(
                "UPDATE objects SET doc = ? WHERE key = ?", (text, key)
            )
        conn.commit()


def _backdate(store, key, saved_at):
    """Stamp the entry's age so eviction order is well defined."""
    with store.backend._lock:
        conn = store.backend._conn()
        conn.execute(
            "UPDATE objects SET saved_at = ? WHERE key = ?", (saved_at, key)
        )
        conn.commit()


class TestRoundTrip:
    def test_put_get_fidelity(self, store):
        key = unit_key("test", n=1)
        doc = {"verdict": "ok", "counters": {"io": 3}, "sched": [1, 2, 3]}
        assert store.put(key, doc) is True
        assert key in store
        assert store.get(key) == doc
        assert store.hits == 1 and store.writes == 1

    def test_missing_key_is_a_miss(self, store):
        assert store.get(unit_key("test", n=404)) is None
        assert store.misses == 1

    def test_duplicate_put_dedups(self, store):
        key = unit_key("test", n=2)
        assert store.put(key, {"a": 1}) is True
        assert store.put(key, {"a": 1}) is False
        assert store.dedup == 1
        assert store.get(key) == {"a": 1}

    def test_second_instance_reads_first_instances_entries(self, store):
        key = unit_key("test", n=3)
        store.put(key, [1, 2, 3])
        again = ResultStore(store.root)
        assert again.get(key) == [1, 2, 3]
        again.close()


class TestCorruption:
    def test_truncated_entry_is_a_healable_miss(self, store):
        key = unit_key("test", n=10)
        store.put(key, {"big": list(range(100))})
        _corrupt(store, key)
        assert store.get(key) is None       # miss, not a crash
        assert store.corrupt == 1
        assert not store.backend.exists(key)  # quarantined
        # the caller re-simulates and the rewrite heals the store
        assert store.put(key, {"big": list(range(100))}) is True
        assert store.get(key) == {"big": list(range(100))}

    def test_digest_mismatch_is_corruption(self, store):
        key = unit_key("test", n=11)
        store.put(key, {"v": 1})
        _corrupt(store, key, json.dumps(
            {"digest": "0" * 64, "result": {"v": 666}}
        ))
        assert store.get(key) is None
        assert store.corrupt == 1
        assert not store.backend.exists(key)

    def test_non_object_entry_is_corruption(self, store):
        key = unit_key("test", n=12)
        store.put(key, {"v": 1})
        _corrupt(store, key, '"just a string"')
        assert store.get(key) is None
        assert store.corrupt == 1


class TestGc:
    def _fill(self, store, n):
        keys = [unit_key("test", n=i) for i in range(n)]
        for i, key in enumerate(keys):
            store.put(key, {"i": i})
            # stamp distinct ages so "oldest first" is well defined
            _backdate(store, key, 1000.0 + i)
        return keys

    def test_max_entries_evicts_oldest_first(self, store):
        keys = self._fill(store, 6)
        out = store.gc(max_entries=2)
        assert out["evicted"] == 4 and out["kept"] == 2
        assert out["bytes_freed"] > 0
        for key in keys[:4]:
            assert key not in store
        for key in keys[4:]:
            assert key not in (None,) and key in store

    def test_max_age_evicts_stale_entries(self, store):
        keys = self._fill(store, 3)
        fresh = unit_key("test", n=99)
        store.put(fresh, {"fresh": True})
        out = store.gc(max_age_s=3600)
        assert out["evicted"] == 3
        assert all(key not in store for key in keys)
        assert fresh in store

    def test_max_bytes_keeps_newest_entries_under_budget(self, store):
        keys = self._fill(store, 6)
        sizes = {key: size for _, size, key in store.backend.entries()}
        budget = sizes[keys[4]] + sizes[keys[5]]
        out = store.gc(max_bytes=budget)
        assert out["evicted"] == 4
        assert all(key not in store for key in keys[:4])
        assert all(key in store for key in keys[4:])

    def test_gc_reports_compaction(self, store):
        self._fill(store, 6)
        out = store.gc(max_entries=1)
        assert out["evicted"] == 5
        assert "bytes_compacted" in out

    def test_gc_without_limits_keeps_everything(self, store):
        self._fill(store, 4)
        out = store.gc()
        assert out["evicted"] == 0 and out["kept"] == 4

    def test_stats_reflect_disk_and_traffic(self, store):
        keys = self._fill(store, 3)
        store.get(keys[0])
        store.get(unit_key("test", n=404))
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] > 0
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["store_version"] == 1
        assert stats["backend"] == store.backend.name
        assert stats["file_bytes"] > 0


class TestAtomicity:
    def test_no_temp_litter_after_puts(self, store):
        for i in range(5):
            store.put(unit_key("test", n=i), {"i": i})
        litter = [
            name
            for _, _, names in os.walk(store.root)
            for name in names
            if name.startswith(".tmp-")
        ]
        assert litter == []

    def test_put_is_visible_immediately(self, store):
        key = unit_key("test", n=50)
        t0 = time.time()
        store.put(key, {"t": 0})
        assert store.get(key) == {"t": 0}
        assert time.time() - t0 < 5.0
