"""Trend rendering, the regression gate, and the obs CLI surface."""

import json

import pytest

from repro.obs import cli as obs_cli
from repro.obs import series as obs_series
from repro.obs.series import SeriesStore, series_revs
from repro.obs.trends import (
    gate_problems,
    render_perf_trend,
    render_series_trend,
    sparkline,
)


@pytest.fixture(autouse=True)
def _no_ambient_series(monkeypatch):
    monkeypatch.delenv(obs_series.SERIES_ENV, raising=False)
    monkeypatch.setattr(obs_series, "_ACTIVE", None)
    monkeypatch.setattr(obs_series, "_ENV_STORE", None)


def _campaign_point(rev, label, units, elapsed, hits=0, executed=None,
                    divergence=None):
    executed = units - hits if executed is None else executed
    serve = {}
    if hits:
        serve["store_hits"] = hits
    if executed:
        serve["executed"] = executed
    return {
        "kind": "campaign", "rev": rev, "label": label,
        "campaign": f"c-{rev}-{label}", "units": units,
        "elapsed_s": elapsed, "serve": serve,
        "divergence_by_class": {
            cls: {"count": n} for cls, n in (divergence or {}).items()
        },
    }


def _perf_point(rev, quick=False, **vm_speedups):
    """A ``bench perf`` series point with these per-benchmark speedups."""
    return {
        "kind": "perf", "rev": rev, "label": "bench perf", "quick": quick,
        "benchmarks": {
            name: {"wall_s": 1.0, "vm_speedup": vm}
            for name, vm in vm_speedups.items()
        },
    }


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat(self):
        assert sparkline([3, 3, 3]) == "▁▁▁"

    def test_monotone_uses_full_range(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line[0] == "▁" and line[-1] == "█"
        assert len(line) == 8


class TestSeriesRevs:
    def test_folds_per_rev_in_first_seen_order(self):
        revs = series_revs([
            _campaign_point("r1", "check a", 10, 2.0),
            _campaign_point("r2", "check a", 10, 1.0, hits=8, executed=2),
            _campaign_point("r2", "check b", 4, 0.5),
        ])
        assert [r["rev"] for r in revs] == ["r1", "r2"]
        assert revs[0]["runs_per_s"] == 5.0
        assert revs[1]["units"] == 14
        assert revs[1]["hit_rate"] == round(8 / 14, 4)
        assert revs[1]["labels"]["check a"]["runs_per_s"] == 10.0

    def test_render_has_all_revs(self):
        revs = series_revs([
            _campaign_point("r1", "a", 5, 1.0),
            _campaign_point("r2", "a", 5, 1.0,
                            divergence={"repeated_io": 2}),
        ])
        text = render_series_trend(revs)
        assert "r1" in text and "r2" in text
        assert "repeated_io=2" in text


class TestGate:
    def test_no_data_fails(self):
        problems = gate_problems([])
        assert problems and "nothing to gate" in problems[0]

    def test_single_rev_is_green(self):
        points = [_campaign_point("r1", "a", 10, 1.0)]
        assert gate_problems(points) == []

    def test_steady_trend_is_green(self):
        points = [
            _campaign_point("r1", "a", 10, 1.0),
            _campaign_point("r2", "a", 10, 1.05),
        ]
        assert gate_problems(points) == []

    def test_throughput_drop_fails(self):
        points = [
            _campaign_point("r1", "a", 100, 1.0),   # 100 runs/s
            _campaign_point("r2", "a", 100, 2.0),   # 50 runs/s: -50%
        ]
        problems = gate_problems(points)
        assert len(problems) == 1
        assert "throughput regression" in problems[0]

    def test_new_divergence_class_fails(self):
        points = [
            _campaign_point("r1", "a", 10, 1.0,
                            divergence={"repeated_io": 1}),
            _campaign_point("r2", "a", 10, 1.0,
                            divergence={"repeated_io": 1,
                                        "stale_timely": 2}),
        ]
        problems = gate_problems(points)
        assert len(problems) == 1
        assert "stale_timely" in problems[0]
        assert "new divergence class" in problems[0]

    def test_known_divergence_class_is_green(self):
        points = [
            _campaign_point("r1", "a", 10, 1.0,
                            divergence={"repeated_io": 3}),
            _campaign_point("r2", "a", 10, 1.0,
                            divergence={"repeated_io": 5}),
        ]
        assert gate_problems(points) == []

    def test_hit_rate_floor(self):
        points = [_campaign_point("r1", "a", 10, 1.0, hits=2, executed=8)]
        assert gate_problems(points, min_hit_rate=0.1) == []
        problems = gate_problems(points, min_hit_rate=0.5)
        assert problems and "warm-hit rate" in problems[0]

    def test_perf_speedup_drop_fails(self):
        points = [_perf_point("r1", b=8.0), _perf_point("r2", b=4.0)]
        problems = gate_problems(points)
        assert len(problems) == 1
        assert "vm" in problems[0] and "perf regression" in problems[0]

    def test_perf_single_entry_is_green(self):
        assert gate_problems([_perf_point("r1", b=8.0)]) == []

    def test_quick_and_full_entries_do_not_mix(self):
        # a quick baseline does not gate a full run
        points = [
            _perf_point("r1", quick=True, b=10.0),
            _perf_point("r2", b=3.0),
        ]
        assert gate_problems(points) == []

    def test_perf_and_campaign_rules_apply_together(self):
        points = [
            _campaign_point("r1", "a", 100, 1.0),
            _perf_point("r1", b=8.0),
            _campaign_point("r2", "a", 100, 3.0,
                            divergence={"torn_dma": 2}),
            _perf_point("r2", b=2.0),
        ]
        problems = gate_problems(points)
        assert len(problems) == 3
        assert "throughput regression" in problems[0]
        assert "new divergence class" in problems[1]
        assert "perf regression" in problems[2]


def _series(tmp_path, *points):
    series = SeriesStore(str(tmp_path / "s.jsonl"))
    for point in points:
        series.record_point(point)
    return series.path


class TestTrendsCLI:
    def test_gate_nonzero_on_synthetic_regression(self, tmp_path):
        path = _series(
            tmp_path,
            _campaign_point("r1", "a", 100, 1.0),
            _campaign_point("r2", "a", 100, 3.0,
                            divergence={"torn_dma": 1}),
        )
        rc = obs_cli.main(["trends", "--series", path, "--gate"])
        assert rc == 2

    def test_json_output_carries_gate_verdict(self, tmp_path, capsys):
        path = _series(
            tmp_path,
            _campaign_point("r1", "a", 10, 1.0),
            _perf_point("r2", b=6.0),
            _perf_point("r1", b=7.0),
        )
        rc = obs_cli.main(["trends", "--series", path, "--gate", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["gate"]["ok"] is True
        assert doc["series"]["revs"][0]["rev"] == "r1"
        # perf points in recording order, not sorted by rev
        assert [p["rev"] for p in doc["series"]["perf"]] == ["r2", "r1"]
        assert doc["analytics"]["campaigns"]["count"] == 1
        assert "bench" not in doc

    def test_no_data_gate_exits_nonzero(self, tmp_path):
        rc = obs_cli.main([
            "trends", "--series", str(tmp_path / "none.jsonl"), "--gate",
        ])
        assert rc == 2

    def test_render_perf_trend_handles_missing(self):
        assert "no perf points" in render_perf_trend([])

    def test_perf_only_series_gates_green_and_lists_its_point(
        self, tmp_path, capsys
    ):
        path = _series(tmp_path, _perf_point("abc1234", b=8.0))
        rc = obs_cli.main(["trends", "--series", path, "--gate"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "abc1234" in out and "vm 8.0x" in out
        assert "gate: trend holds" in out

    def test_vm_speedup_collapse_exits_nonzero(self, tmp_path, capsys):
        path = _series(
            tmp_path,
            _perf_point("base", b=8.0),
            _perf_point("head", b=2.0),
        )
        rc = obs_cli.main(["trends", "--series", path, "--gate"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "perf regression" in captured.err
        assert "8.0x -> 2.0x" in captured.out  # the sparkline row

    def test_reads_no_bench_file_from_the_working_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        path = _series(tmp_path, _perf_point("r1", b=8.0))
        empty = tmp_path / "empty"
        empty.mkdir()
        monkeypatch.chdir(empty)
        rc_empty = obs_cli.main(["trends", "--series", path, "--gate"])
        out_empty = capsys.readouterr()

        regressed = tmp_path / "regressed"
        regressed.mkdir()
        (regressed / "BENCH_sim.json").write_text(json.dumps({
            "history": [
                {"rev": "a", "quick": False,
                 "speedups": {"b": {"vm": 8.0}}},
                {"rev": "b", "quick": False,
                 "speedups": {"b": {"vm": 1.0}}},
            ],
        }))
        monkeypatch.chdir(regressed)
        rc_bench = obs_cli.main(["trends", "--series", path, "--gate"])
        assert (rc_bench, capsys.readouterr()) == (rc_empty, out_empty)
        assert rc_empty == 0


class TestSummaryReport:
    def test_summary_renders_report_timeline(self, tmp_path, capsys):
        report = {
            "config": {"kind": "check"},
            "telemetry": {
                "runs": 8, "elapsed_s": 0.4, "runs_per_s": 20.0,
                "rate_timeline": [
                    {"t_s": 0.2, "done": 4, "runs_per_s": 20.0},
                    {"t_s": 0.4, "done": 8, "runs_per_s": 20.0},
                ],
                "divergence_by_class": {
                    "repeated_io": {"count": 2, "rate_per_run": 0.25},
                },
                "counters": {"serve.executed": 8},
            },
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        rc = obs_cli.main(["summary", "--report", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rate timeline (2 samples)" in out
        assert "repeated_io" in out
        assert "serve.executed" in out

    def test_summary_report_json(self, tmp_path, capsys):
        report = {"telemetry": {"runs": 1, "rate_timeline": []}}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        rc = obs_cli.main(["summary", "--report", str(path), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["runs"] == 1

    def test_summary_without_app_or_report_errors(self, capsys):
        rc = obs_cli.main(["summary"])
        assert rc == 2

    def test_summary_missing_report_errors(self, tmp_path):
        rc = obs_cli.main(
            ["summary", "--report", str(tmp_path / "nope.json")]
        )
        assert rc == 1
