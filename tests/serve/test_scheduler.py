"""The batch scheduler: caching, resume from store or journal, interrupt."""

import json
import signal
import threading
import time

import pytest

from repro.errors import CampaignInterrupted
from repro.serve.scheduler import BatchScheduler, Checkpoint, WorkUnit
from repro.serve.store import ResultStore, unit_key


# module-level so the multiprocessing backend can pickle them
def square(payload):
    return {"value": payload * payload}


def decode_result(encoded):
    return {"value": encoded["value"], "decoded": True}


def sigterm_is_default(payload):
    return {"default": signal.getsignal(signal.SIGTERM) == signal.SIG_DFL}


def units_for(n, with_keys=True):
    return [
        WorkUnit(
            index=i,
            payload=i,
            key=unit_key("sched-test", i=i) if with_keys else "",
        )
        for i in range(n)
    ]


class TestBasicRuns:
    def test_inline_results_in_unit_order(self):
        out = BatchScheduler(workers=1).run(units_for(5), task=square)
        assert out == [{"value": i * i} for i in range(5)]

    def test_pool_matches_inline(self):
        inline = BatchScheduler(workers=1).run(
            units_for(9), task=square
        )
        pooled = BatchScheduler(workers=2, shard_size=2).run(
            units_for(9), task=square
        )
        assert pooled == inline

    def test_pool_workers_die_of_sigterm(self):
        """Pool.terminate() stops workers with SIGTERM, so a worker must
        not keep the Python SIGTERM handler a CLI parent installs: one
        that misses the signal blocks the pool's join for good."""
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            out = BatchScheduler(workers=2, shard_size=1).run(
                units_for(2, with_keys=False), task=sigterm_is_default
            )
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert out == [{"default": True}] * 2

    def test_decode_applied_exactly_once(self):
        out = BatchScheduler(workers=1).run(
            units_for(3), task=square, decode=decode_result
        )
        assert all(r["decoded"] is True for r in out)


class TestPoolFeed:
    def test_two_shards_per_worker_in_flight(self):
        # one shard runs and one waits in the pool's queue per worker,
        # so a worker never idles while the parent absorbs
        log = []
        sched = BatchScheduler(
            workers=2, shard_size=1,
            events=lambda etype, payload: log.append(etype),
        )
        orig_tick = sched._tick

        def tick(result, counters):
            log.append("absorb")
            orig_tick(result, counters)

        sched._tick = tick
        out = sched.run(units_for(12), task=square)
        assert out == [{"value": i * i} for i in range(12)]
        assert log[:log.index("absorb")].count("shard") == 4
        assert log.count("shard") == 12

    def test_a_finished_shard_wakes_the_parent(self):
        # the parent blocks until the pool reports a shard; poll_s only
        # bounds how late it sees a cancel, so a long one costs nothing
        start = time.monotonic()
        out = BatchScheduler(workers=2, poll_s=5.0).run(
            units_for(12), task=square
        )
        assert out == [{"value": i * i} for i in range(12)]
        assert time.monotonic() - start < 2.5

    def test_interrupt_mid_shard_absorbs_the_whole_shard(self):
        # a signal that lands while the parent absorbs a finished shard
        # must not drop that shard's other, already computed units
        sched = BatchScheduler(workers=2, shard_size=4)
        orig_tick = sched._tick

        def tick_then_interrupt(result, counters):
            orig_tick(result, counters)
            if sched.last_run_stats.get("executed") == 1:
                raise KeyboardInterrupt

        sched._tick = tick_then_interrupt
        with pytest.raises(CampaignInterrupted) as err:
            sched.run(units_for(40), task=square)
        assert err.value.done % 4 == 0
        assert sched.last_run_stats["executed"] == err.value.done


class TestStoreShortCircuit:
    def test_second_run_is_all_hits(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        cold = BatchScheduler(workers=1, store=store)
        first = cold.run(units_for(6), task=square)
        assert cold.last_run_stats == {"executed": 6}
        assert store.writes == 6

        warm = BatchScheduler(workers=1, store=store)
        second = warm.run(units_for(6), task=explode)
        # explode never ran: every unit came from the store
        assert warm.last_run_stats == {"store_hits": 6}
        assert second == first

    def test_a_pooled_shard_commits_once(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        statements = []
        store.backend._conn().set_trace_callback(statements.append)
        BatchScheduler(workers=2, store=store, shard_size=4).run(
            units_for(12), task=square
        )
        assert store.writes == 12
        assert statements.count("COMMIT") == 3

    def test_keyless_units_bypass_the_store(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        sched = BatchScheduler(workers=1, store=store)
        sched.run(units_for(4, with_keys=False), task=square)
        assert store.writes == 0
        assert sched.last_run_stats == {"executed": 4}


def explode(payload):
    raise AssertionError("this unit should have been cached")


class _CancelAfter:
    """Sets a cancel event after N task executions (inline mode)."""

    def __init__(self, n):
        self.cancel = threading.Event()
        self.seen = 0
        self.n = n

    def __call__(self, payload):
        self.seen += 1
        if self.seen >= self.n:
            self.cancel.set()
        return square(payload)


class TestCheckpointResume:
    def test_interrupt_then_resume_matches_uninterrupted(self, tmp_path):
        ckpt = str(tmp_path / "campaign.jsonl")
        task = _CancelAfter(3)
        sched = BatchScheduler(
            workers=1, checkpoint_path=ckpt, campaign="deadbeef",
            cancel=task.cancel,
        )
        with pytest.raises(CampaignInterrupted) as err:
            sched.run(units_for(8), task=task)
        assert err.value.done == 3 and err.value.total == 8
        assert len(err.value.results) == 3
        assert (tmp_path / "campaign.jsonl").exists()

        resumed = BatchScheduler(
            workers=1, checkpoint_path=ckpt, campaign="deadbeef"
        )
        out = resumed.run(units_for(8), task=square)
        assert resumed.last_run_stats == {
            "checkpoint_restored": 3, "executed": 5,
        }
        assert out == BatchScheduler(workers=1).run(
            units_for(8), task=square
        )
        # journal served its purpose and is gone
        assert not (tmp_path / "campaign.jsonl").exists()

    def test_checkpoint_header_mismatch_discards_stale_journal(
        self, tmp_path
    ):
        ckpt = str(tmp_path / "campaign.jsonl")
        task = _CancelAfter(2)
        with pytest.raises(CampaignInterrupted):
            BatchScheduler(
                workers=1, checkpoint_path=ckpt, campaign="old-campaign",
                cancel=task.cancel,
            ).run(units_for(6), task=task)

        # same path, different campaign identity: nothing restored
        fresh = BatchScheduler(
            workers=1, checkpoint_path=ckpt, campaign="new-campaign"
        )
        fresh.run(units_for(6), task=square)
        assert fresh.last_run_stats == {"executed": 6}

    def test_torn_tail_line_is_skipped(self, tmp_path):
        ckpt = str(tmp_path / "campaign.jsonl")
        task = _CancelAfter(4)
        with pytest.raises(CampaignInterrupted):
            BatchScheduler(
                workers=1, checkpoint_path=ckpt, campaign="c",
                cancel=task.cancel,
            ).run(units_for(8), task=task)
        # simulate a crash mid-append: torn, unparseable final line
        with open(ckpt, "a") as fh:
            fh.write('{"index": 7, "resu')

        resumed = BatchScheduler(workers=1, checkpoint_path=ckpt, campaign="c")
        out = resumed.run(units_for(8), task=square)
        assert out[7] == {"value": 49}          # torn unit re-ran
        assert resumed.last_run_stats["checkpoint_restored"] == 4

    def test_a_store_is_the_only_record(self, tmp_path):
        # with a store, a journal path is not used: each finished unit
        # is recorded once, in the store, and the resume reads it there
        store = ResultStore(str(tmp_path / "store"))
        ckpt = tmp_path / "c.jsonl"
        task = _CancelAfter(3)
        sched = BatchScheduler(
            workers=1, store=store, checkpoint_path=str(ckpt),
            campaign="c", cancel=task.cancel,
        )
        with pytest.raises(CampaignInterrupted) as err:
            sched.run(units_for(8), task=task)
        assert err.value.done == 3
        assert f"resumable via store {store.root}" in str(err.value)
        assert not ckpt.exists()

        resumed = BatchScheduler(
            workers=1, store=store, checkpoint_path=str(ckpt), campaign="c",
        )
        out = resumed.run(units_for(8), task=square)
        assert resumed.last_run_stats == {"store_hits": 3, "executed": 5}
        assert out == [{"value": i * i} for i in range(8)]
        assert not ckpt.exists()

    def test_interrupt_inside_absorb_records_the_unit_once(self, tmp_path):
        # a signal that lands while a finished unit is being counted
        # (the CLI's progress print) must not persist or count it twice
        ckpt = tmp_path / "c.jsonl"
        sched = BatchScheduler(
            workers=1, checkpoint_path=str(ckpt), campaign="c"
        )
        orig_tick = sched._tick

        def tick_then_interrupt(result, counters):
            orig_tick(result, counters)
            if sched.last_run_stats.get("executed") == 2:
                raise KeyboardInterrupt

        sched._tick = tick_then_interrupt
        with pytest.raises(CampaignInterrupted) as err:
            sched.run(units_for(5), task=square)
        assert err.value.done == 2
        assert sched.last_run_stats == {"executed": 2}
        assert len(ckpt.read_text().splitlines()) == 1 + 2


class TestCheckpointFile:
    def test_header_and_entry_shape(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        ckpt = Checkpoint(path, campaign="abc", total=3)
        ckpt.append(0, "key0", {"v": 0})
        ckpt.append(2, "key2", {"v": 2})
        ckpt.close()
        lines = [json.loads(l) for l in open(path).read().splitlines()]
        assert lines[0] == {"version": 1, "campaign": "abc", "total": 3}
        assert lines[1] == {"index": 0, "key": "key0", "result": {"v": 0}}
        assert Checkpoint(path, "abc", 3).load() == {0: {"v": 0}, 2: {"v": 2}}

    def test_total_mismatch_discards(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        ckpt = Checkpoint(path, campaign="abc", total=3)
        ckpt.append(0, "k", {"v": 0})
        ckpt.close()
        assert Checkpoint(path, "abc", total=4).load() == {}


class TestCancelEvent:
    def test_preset_cancel_runs_nothing(self, tmp_path):
        cancel = threading.Event()
        cancel.set()
        sched = BatchScheduler(workers=1, cancel=cancel)
        with pytest.raises(CampaignInterrupted) as err:
            sched.run(units_for(4), task=explode)
        assert err.value.done == 0 and err.value.total == 4

    def test_pool_mode_drains_on_cancel(self, tmp_path):
        # cancel mid-campaign with a process pool: already-dispatched
        # shards finish (drain), nothing new is submitted, and the
        # partial results come back attached to the exception
        cancel = threading.Event()
        store = ResultStore(str(tmp_path / "store"))
        sched = BatchScheduler(
            workers=2, store=store, shard_size=1, cancel=cancel,
            campaign="c",
        )

        class _TripAfterFirst:
            def __init__(self):
                self.absorbed = 0

        trip = _TripAfterFirst()
        orig_tick = sched._tick

        def tick_and_cancel(result, counters):
            trip.absorbed += 1
            if trip.absorbed >= 2:
                cancel.set()
            orig_tick(result, counters)

        sched._tick = tick_and_cancel
        with pytest.raises(CampaignInterrupted) as err:
            sched.run(units_for(40), task=square)
        assert 2 <= err.value.done < 40
        assert len(err.value.results) == err.value.done
        # every drained result is durable, in the store
        assert store.writes == err.value.done
        assert all(
            store.get(unit_key("sched-test", i=i)) == {"value": i * i}
            for i in err.value.results
        )
