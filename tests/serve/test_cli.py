"""The ``repro serve`` client subcommands against an in-process daemon."""

import json
import threading

import pytest

from repro.serve.cli import _flag_config, build_parser
from repro.serve.cli import main as serve_main
from repro.serve.daemon import make_server
from repro.serve.kinds import campaign_kind, kinds


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    server = make_server(str(tmp_path_factory.mktemp("serve-cli")), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    server.manager.shutdown(drain_s=30)


def cli(daemon, *argv):
    return serve_main([*argv, "--url", daemon.url])


class TestSubmitFlow:
    def test_submit_wait_prints_rendered_report(self, daemon, capsys):
        rc = cli(
            daemon, "submit", "check", "--app", "uni_dma",
            "--runtime", "easeio", "--mode", "exhaustive", "--limit", "4",
            "--workers", "1", "--no-shrink", "--wait",
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "submitted check job" in out
        assert "PASS" in out and "uni_dma" in out

    def test_status_lists_jobs(self, daemon, capsys):
        rc = cli(daemon, "status")
        out = capsys.readouterr().out
        assert rc == 0
        assert "check" in out and "done" in out

    def test_results_json_and_from_report_round_trip(
        self, daemon, capsys, tmp_path
    ):
        job_id = daemon.manager.list_jobs()[0]["id"]
        rc = cli(daemon, "results", job_id, "--json")
        out = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out)
        assert report["config"]["kind"] == "check"

        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        rc = cli(daemon, "submit", "--from-report", str(path), "--wait")
        out = capsys.readouterr().out
        assert rc == 0
        assert "submitted check job" in out

    def test_single_job_status_is_json(self, daemon, capsys):
        job_id = daemon.manager.list_jobs()[0]["id"]
        rc = cli(daemon, "status", job_id)
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["id"] == job_id and doc["state"] == "done"

    def test_cancel_unknown_job_is_an_error(self, daemon, capsys):
        rc = cli(daemon, "cancel", "nope")
        err = capsys.readouterr().err
        assert rc == 2
        assert "serve: error" in err

    def test_gc_prints_summary(self, daemon, capsys):
        rc = cli(daemon, "gc")
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert "evicted" in doc and "kept" in doc

    def test_submit_without_kind_or_report_is_an_error(
        self, daemon, capsys
    ):
        rc = cli(daemon, "submit")
        err = capsys.readouterr().err
        assert rc == 2
        assert "kind or --from-report" in err

    def test_check_without_app_is_rejected(self, daemon, capsys):
        rc = cli(daemon, "submit", "check")
        err = capsys.readouterr().err
        assert rc == 2
        assert "rejected" in err and "'app'" in err

    def test_unreachable_daemon_is_a_clean_error(self, capsys):
        rc = serve_main(["status", "--url", "http://127.0.0.1:9",
                         "--timeout", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "cannot reach serve daemon" in err


@pytest.mark.parametrize("kind", sorted(kinds()))
def test_unset_submit_flags_keep_the_kinds_defaults(kind):
    """A job built from flags is the campaign the same CLI run is: it
    has the digest of the kind's default config, so both share store
    entries."""
    spec = campaign_kind(kind)
    required = {"app": "fir"} if kind == "check" else {}
    argv = ["submit", kind] + (["--app", "fir"] if required else [])
    config = _flag_config(build_parser().parse_args(argv), kind)
    assert config == required
    assert spec.digest(spec.decode_config(config)) == spec.digest(
        spec.config(**required)
    )
