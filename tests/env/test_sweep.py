"""The environment sweep as a serve campaign: cache, resume, replay.

A sweep's promise is operational: (environment, app, runtime) units
are content-addressed so a finished sweep re-runs entirely from warm
cache hits, an interrupted sweep resumes from its store (or, without
one, from its checkpoint journal),
and every unit self-verifies the record→replay contract.  These tests
run real sweeps — including the full 100-environment grid — against a
throwaway store and assert those properties on the serve statistics.
"""

import pytest

from repro.env.sweep import (
    SweepConfig,
    SweepReport,
    run_sweep,
    sweep_envs,
    sweep_unit_key,
)
from repro.errors import CampaignInterrupted


def _cfg(tmp_path, **kw):
    kw.setdefault("apps", ("uni_temp",))
    kw.setdefault("runtimes", ("easeio",))
    kw.setdefault("store_dir", str(tmp_path / "store"))
    return SweepConfig(**kw)


def test_hundred_environment_sweep_recaches_completely(tmp_path):
    """100 generated environments: cold executes all, warm hits all."""
    cfg = _cfg(tmp_path, count=100, seed=7)
    cold = run_sweep(cfg)
    assert cold.serve == {"executed": 100}
    totals = cold.totals()
    assert totals["units"] == 100 and totals["envs"] == 100
    # every unit verified its own record->replay bit-identity
    assert totals["replay_mismatches"] == 0
    assert totals["replay_verified"] == 100 - totals["nonterminated"] or (
        totals["replay_verified"] == 100
    )
    assert cold.ok

    warm = run_sweep(cfg)
    assert warm.serve == {"store_hits": 100}  # nothing ran twice
    assert warm.rows == cold.rows  # cache round-trip is lossless


def test_sweep_without_store_is_deterministic(tmp_path):
    cfg = SweepConfig(count=5, seed=3, apps=("uni_temp",))
    a, b = run_sweep(cfg), run_sweep(cfg)
    assert a.rows == b.rows
    assert [r["failures_digest"] for r in a.rows] == [
        r["failures_digest"] for r in b.rows
    ]


def test_nonterminating_unit_replays_bit_identical():
    """Replay horizon must cover the final dark walk of a starved run.

    This environment starves fir/easeio into NonTermination; the last
    recharge integration consults the source ~40 ms past the final
    recorded failure, so a horizon derived from failure times alone
    makes the trace twin complete instead of starving.
    """
    spec = (
        "markov:on_mw=5.22,mean_on_ms=15.37,mean_off_ms=39.94,"
        "tail=2.07,seed=1744260178,cap_uf=2.2"
    )
    cfg = SweepConfig(envs=(spec,), apps=("fir",), runtimes=("easeio",))
    report = run_sweep(cfg)
    (row,) = report.rows
    assert row["error"] and "NonTermination" in row["error"]
    assert row["replay_ok"] is True


def test_unit_keys_are_content_addressed():
    """Keys follow the physical environment, not the sweep that ran it."""
    spec = "markov:seed=9,cap_uf=2.2"
    a = SweepConfig(envs=(spec,), seed=1, count=10)
    b = SweepConfig(envs=(spec, "solar:seed=4"), seed=99, count=3)
    payload = (spec, "uni_temp", "easeio")
    # same physical environment, different sweeps: shared cache entry
    assert sweep_unit_key(a, payload) == sweep_unit_key(b, payload)
    # any semantic knob separates the key space
    assert sweep_unit_key(a, payload) != sweep_unit_key(
        a, ("markov:seed=10,cap_uf=2.2", "uni_temp", "easeio")
    )
    assert sweep_unit_key(a, payload) != sweep_unit_key(
        a, (spec, "fir", "easeio")
    )
    assert sweep_unit_key(a, payload) != sweep_unit_key(
        a, (spec, "uni_temp", "alpaca")
    )
    c = SweepConfig(envs=(spec,), verify_replay=False)
    assert sweep_unit_key(a, payload) != sweep_unit_key(c, payload)


def test_generated_environments_are_seed_stable():
    one = sweep_envs(SweepConfig(count=8, seed=5))
    two = sweep_envs(SweepConfig(count=8, seed=5))
    other = sweep_envs(SweepConfig(count=8, seed=6))
    assert one == two
    assert one != other
    assert len(set(one)) == 8  # distinct environments, not repeats


class _TripAfter:
    """A cancel token that fires after ``n`` scheduler polls."""

    def __init__(self, n):
        self.n = n

    def is_set(self):
        self.n -= 1
        return self.n < 0


def test_interrupted_sweep_resumes_from_checkpoint(tmp_path):
    # no store: the journal is the sweep's one record of finished units
    cfg = _cfg(
        tmp_path, count=10, seed=11, store_dir=None,
        checkpoint=str(tmp_path / "sweep.ckpt"),
    )
    with pytest.raises(CampaignInterrupted) as exc_info:
        run_sweep(cfg, cancel=_TripAfter(4))
    exc = exc_info.value
    assert exc.done == 4 and exc.total == 10
    assert exc.report is not None and len(exc.report.rows) == 4
    assert exc.report.partial and not exc.report.ok
    assert "PARTIAL (interrupted after 4 units)" in exc.report.render_text()

    resumed = run_sweep(cfg)
    assert resumed.serve["checkpoint_restored"] == 4
    assert resumed.serve["executed"] == 6
    assert len(resumed.rows) == 10 and resumed.ok
    assert resumed.partial is False
    # the resumed half and the restored half agree with a fresh run
    fresh = run_sweep(SweepConfig(count=10, seed=11, apps=("uni_temp",)))
    assert resumed.rows == fresh.rows


def test_sharded_sweep_matches_inline(tmp_path):
    inline = run_sweep(SweepConfig(count=6, seed=2, apps=("uni_temp",)))
    sharded = run_sweep(
        SweepConfig(count=6, seed=2, apps=("uni_temp",), workers=2)
    )
    assert sharded.rows == inline.rows


def test_report_without_partial_loads_as_complete():
    doc = run_sweep(SweepConfig(count=2, seed=2, apps=("uni_temp",))).to_json()
    assert doc["partial"] is False
    del doc["partial"]  # the form written before the flag existed
    report = SweepReport.from_json(doc)
    assert report.partial is False and report.ok
