"""The store's physical layout: one WAL-mode SQLite file.

The store layer's semantics (dedup, quarantine-and-heal, gc) are
tested through ``ResultStore`` in ``test_store.py``.  This file tests
the placement class itself: atomic publication, idempotent same-key
races, real multi-process concurrent writers, and the file layout.
"""

import json
import multiprocessing
import os
import sys
import threading

import pytest

from repro.serve.store import ResultStore, SQLiteBackend, unit_key


# one param: the test ids name the store's one layout
@pytest.fixture(params=["sqlite"])
def backend(tmp_path):
    b = SQLiteBackend(str(tmp_path / "store"))
    yield b
    b.close()


class TestInterfaceConformance:
    def test_write_read_roundtrip(self, backend):
        assert backend.read("k" * 64) is None
        assert backend.write("k" * 64, '{"v": 1}') is True
        assert backend.read("k" * 64) == '{"v": 1}'
        assert backend.exists("k" * 64)

    def test_entries_are_immutable_second_write_skipped(self, backend):
        key = "a" * 64
        assert backend.write(key, "first") is True
        assert backend.write(key, "second") is False
        assert backend.read(key) == "first"

    def test_remove(self, backend):
        key = "b" * 64
        backend.write(key, "doc")
        assert backend.remove(key) is True
        assert backend.remove(key) is False
        assert backend.read(key) is None

    def test_entries_report_age_size_key(self, backend):
        backend.write("c" * 64, "x" * 100)
        backend.write("d" * 64, "y" * 200)
        entries = {key: (t, size) for t, size, key in backend.entries()}
        assert set(entries) == {"c" * 64, "d" * 64}
        assert entries["d" * 64][1] >= 200
        assert all(t > 0 for t, _ in entries.values())

    def test_file_bytes_positive_when_populated(self, backend):
        backend.write("e" * 64, "z" * 1000)
        assert backend.file_bytes() > 0

    def test_compact_returns_nonnegative(self, backend):
        for i in range(20):
            backend.write(f"{i:064d}", "w" * 500)
        for i in range(20):
            backend.remove(f"{i:064d}")
        assert backend.compact() >= 0


def _writer(root, worker, n, out):
    store = ResultStore(root)
    written = 0
    for i in range(n):
        key = unit_key("concurrency", n=i)
        if store.put(key, {"i": i, "payload": list(range(50))}):
            written += 1
    store.close()
    out.put((worker, written))


class TestMultiProcessConcurrency:
    @pytest.mark.parametrize("backend_name", ["sqlite"])
    def test_concurrent_writers_of_shared_keys(self, tmp_path, backend_name):
        """N processes hammering the same key set: exactly one write
        wins per key, every entry is intact afterwards."""
        root = str(tmp_path / "store")
        n_units, n_procs = 30, 4
        out = multiprocessing.Queue()
        procs = [
            multiprocessing.Process(
                target=_writer, args=(root, w, n_units, out)
            )
            for w in range(n_procs)
        ]
        for p in procs:
            p.start()
        # drain the queue before joining: a writer blocks on a full pipe
        written = [out.get(timeout=60)[1] for _ in procs]
        for p in procs:
            p.join(60)
            assert p.exitcode == 0
        # INSERT OR IGNORE makes the write accounting exactly-once
        assert sum(written) == n_units
        store = ResultStore(root)
        assert store.backend.name == backend_name
        for i in range(n_units):
            doc = store.get(unit_key("concurrency", n=i))
            assert doc == {"i": i, "payload": list(range(50))}
        assert store.stats()["entries"] == n_units
        store.close()


class TestSQLiteSpecifics:
    def test_wal_mode_is_active(self, tmp_path):
        backend = SQLiteBackend(str(tmp_path / "store"))
        with backend._lock:
            mode = backend._conn().execute("PRAGMA journal_mode").fetchone()
        assert str(mode[0]).lower() == "wal"
        backend.close()

    def test_single_file_layout(self, tmp_path):
        root = str(tmp_path / "store")
        store = ResultStore(root)
        store.put(unit_key("test", n=1), {"v": 1})
        store.close()
        names = set(os.listdir(root))
        assert "store.sqlite3" in names
        assert not any(name == "objects" for name in names)

    def test_fs_era_objects_are_left_alone(self, tmp_path):
        # a root from the one-file-per-entry layout opens as an empty
        # store: the old entry is neither read nor deleted
        root = tmp_path / "store"
        key = unit_key("test", n=1)
        old = root / "objects" / key[:2] / (key + ".json")
        old.parent.mkdir(parents=True)
        old.write_text(json.dumps({"digest": key, "result": {"v": 1}}))
        store = ResultStore(str(root))
        assert store.get(key) is None
        assert store.stats()["entries"] == 0
        assert store.put(key, {"v": 2}) is True
        assert store.get(key) == {"v": 2}
        store.close()
        assert json.loads(old.read_text())["result"] == {"v": 1}

    def test_one_connection_serves_every_thread(self, tmp_path):
        # more threads than cores, switching often, on one connection:
        # every call must hold the lock or the transactions interleave
        store = ResultStore(str(tmp_path / "store"))
        store.put(unit_key("test", n=-1), {"v": -1})
        conn = store.backend._db
        errors = []

        def hammer(worker):
            try:
                for i in range(200):
                    key = unit_key("threads", worker=worker, n=i)
                    assert store.backend.write(key, json.dumps({"i": i}))
                    assert json.loads(store.backend.read(key)) == {"i": i}
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(w,)) for w in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(store.backend.entries()) == 1 + 8 * 200
        assert store.backend._db is conn
        store.close()
        assert store.backend._db is None

    def test_a_batch_holds_the_connection_until_it_commits(self, tmp_path):
        # batching and single-put threads share one handle: a batch's
        # rows commit once, at its end, never inside another thread's
        # put, and its no-commit mode never leaks into other threads
        store = ResultStore(str(tmp_path / "store"))
        conn = store.backend._conn()
        statements = []
        conn.set_trace_callback(statements.append)
        errors = []

        def batched(worker):
            try:
                for b in range(20):
                    with store.batch():
                        for i in range(10):
                            store.put(
                                unit_key("batched", w=worker, b=b, i=i), {}
                            )
                            assert conn.in_transaction
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def single(worker):
            try:
                for i in range(200):
                    store.put(unit_key("single", w=worker, i=i), {})
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=fn, args=(w,))
                for w in range(4) for fn in (batched, single)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert store.writes == 8 * 200
        assert statements.count("COMMIT") == 4 * 20 + 4 * 200
        assert not conn.in_transaction
        store.close()

    def test_an_interrupted_batch_still_commits(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        conn = store.backend._conn()
        with pytest.raises(KeyboardInterrupt):
            with store.batch():
                store.put(unit_key("test", n=1), {"n": 1})
                raise KeyboardInterrupt
        assert not conn.in_transaction
        store.close()
        assert ResultStore(store.root).get(unit_key("test", n=1)) == {"n": 1}

    def test_compact_reclaims_bytes_after_eviction(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        for i in range(200):
            store.put(unit_key("bulk", n=i), {"blob": "x" * 2000})
        before = store.backend.file_bytes()
        out = store.gc(max_entries=5)
        assert out["evicted"] == 195
        assert store.backend.file_bytes() < before
        assert store.stats()["entries"] == 5
        store.close()

    def test_doc_is_store_layer_json(self, tmp_path):
        # the backend stores the store layer's entry document verbatim
        store = ResultStore(str(tmp_path / "store"))
        key = unit_key("test", n=9)
        store.put(key, {"v": 9})
        doc = json.loads(store.backend.read(key))
        assert doc["digest"] == key
        assert doc["result"] == {"v": 9}
        store.close()
