"""Tests for the command-line interface (python -m repro)."""

import pytest

from repro.__main__ import main


class TestRunCommand:
    def test_run_prints_metrics(self, capsys):
        rc = main(["run", "uni_temp", "--runtime", "easeio",
                   "--continuous"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "app=uni_temp runtime=easeio completed=True" in out
        assert "energy" in out

    def test_run_with_failures_and_timeline(self, capsys):
        rc = main(["run", "fir", "--seed", "3", "--timeline"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "failures" in out
        assert "marks: ! failure" in out

    def test_run_with_events_and_state(self, capsys):
        rc = main(["run", "uni_dma", "--continuous", "--events", "--state"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "final NV state" in out
        assert "checksum" in out
        assert "commit" in out

    def test_unknown_app_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "doom"])


class TestInputErrors:
    """A bad input exits 2 with one line, never a traceback or exit 1
    (exit 1 means a report that is not ok)."""

    @pytest.mark.parametrize("argv, prefix, needle", [
        (["check", "uni_temp", "--env", "bogus:x=1"], "repro", "'bogus'"),
        (["fuzz", "--runs", "1", "--runtimes", "easeio,bogus"],
         "repro", "unknown runtime 'bogus'"),
        (["env", "sweep", "--count", "1", "--apps", "nope"],
         "env", "unknown app 'nope'"),
    ])
    def test_exit_2_with_one_line(self, capsys, argv, prefix, needle):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{prefix}: error: ")
        assert needle in lines[0]


class TestLintCommand:
    def test_clean_app(self, capsys):
        rc = main(["lint", "uni_temp"])
        assert rc == 0
        assert "no findings" in capsys.readouterr().out


class TestAnnotateCommand:
    def test_fir_suggestion(self, capsys):
        rc = main(["annotate", "fir"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Exclude" in out

    def test_weather_output(self, capsys):
        rc = main(["annotate", "weather"])
        assert rc == 0


class TestTransformCommand:
    def test_before_after_listing(self, capsys):
        rc = main(["transform", "uni_temp"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "BEFORE the EaseIO transformation" in out
        assert "AFTER the EaseIO transformation" in out
        assert "lock_temp_t_sense_1" in out


class TestBenchCommand:
    def test_bench_delegates(self, capsys):
        rc = main(["bench", "table1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Main features" in out
