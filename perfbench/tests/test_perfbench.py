"""Self-tests of the benchmark: ``python3 -m pytest perfbench/tests -q``."""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading

import pytest

from perfbench import checks, metrics, run, workloads
from perfbench.run import clean_env

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: scratch space inside the checkout, which the benchmark already ignores
SCRATCH = os.path.join(REPO, ".perfbench")


def _benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600, env=clean_env(),
    )


def test_metric_names_units_directions_match_benchmark_json():
    doc = _benchmark_json()
    assert {
        m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]
    } == metrics.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]
    } == {name: spec[:2] for name, spec in metrics.PER_LAYER.items()}
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.mark.parametrize("n, p", [(20, 50), (21, 52), (40, 75), (100, 90), (101, 90), (1000, 99)])
def test_tail_is_highest_percentile_with_ten_beyond(n, p):
    samples = [float(i) for i in range(n, 0, -1)]
    got_p, value = metrics.tail_percentile(samples)
    assert got_p == p
    assert sum(1 for s in samples if s > value) >= 10
    # one percentile higher would leave fewer than ten beyond it
    rank = -(-(p + 1) * n // 100)
    assert n - rank < 10


def test_tail_of_too_few_samples_is_the_maximum():
    assert metrics.tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0)


def test_hd_median_is_the_harrell_davis_estimate():
    assert metrics.hd_median([]) == 0.0
    assert metrics.hd_median([2.5]) == 2.5
    # symmetric samples: the centre, whatever their order
    assert metrics.hd_median([5.0, 1.0, 3.0]) == pytest.approx(3.0)
    assert metrics.hd_median([4.0, 1.0, 2.0, 3.0]) == pytest.approx(2.5)
    # the Beta(3, 3) masses of (0, .2], (.2, .4], ..., (.8, 1] for n = 5
    weights = [0.05792, 0.25952, 0.36512, 0.25952, 0.05792]
    samples = [1.0, 2.0, 4.0, 8.0, 16.0]
    assert metrics.hd_median(samples) == pytest.approx(
        sum(w * x for w, x in zip(weights, samples)), rel=1e-4
    )


def test_job_p50_is_robust_to_one_slow_round():
    def rnd(jobs):
        return {"phases": [{"name": "cold", "jobs": jobs}]}

    base = [0.1 * (i + 1) for i in range(9)]
    rounds = [rnd(base), rnd(base), rnd([3 * j for j in base])]
    assert run.job_p50(rounds, "cold") == pytest.approx(
        metrics.hd_median(base)
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_completes(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert set(result["metrics"]) == set(names)


def _round(outputs, repro_vars=()):
    return {"outputs": outputs, "violations": [], "errors": [],
            "env": {"repro_vars": list(repro_vars)}}


def test_tampered_fingerprint_fails_the_output_check():
    fingerprints = checks.load_fingerprints()
    assert fingerprints is not None
    sizes = workloads.sizes_doc(workloads.FULL)
    seed = fingerprints["seed"]
    for workload in workloads.WORKLOADS:
        outputs = fingerprints["outputs"][workload]
        assert checks.check_rounds(
            workload, seed, [_round(outputs)], fingerprints, sizes
        ) == []
    tampered = copy.deepcopy(fingerprints)
    cell = tampered["outputs"]["check"]["cells"]["fir/alpaca"]
    cell["n_runs"] += 1
    problems = checks.check_rounds(
        "check", seed, [_round(fingerprints["outputs"]["check"])],
        tampered, sizes,
    )
    assert any("cells.fir/alpaca.n_runs" in p for p in problems)
    tampered = copy.deepcopy(fingerprints)
    tampered["sim_events"]["serve"] += 1
    traced = _round(fingerprints["outputs"]["serve"])
    traced["layers"] = {"kernel.sim_events": fingerprints["sim_events"]["serve"]}
    assert checks.check_rounds("serve", seed, [traced], tampered, sizes)
    resized = dict(sizes, check_warm_passes=sizes["check_warm_passes"] + 1)
    assert checks.check_rounds(
        "check", seed, [_round(fingerprints["outputs"]["check"])],
        fingerprints, resized,
    )


def test_failed_job_is_counted_in_error_rate():
    from repro.serve.daemon import ServeClient, make_server

    os.makedirs(SCRATCH, exist_ok=True)
    root = tempfile.mkdtemp(dir=SCRATCH)
    server = make_server(os.path.join(root, "service"), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        rnd = workloads.Round("serve", 1, workloads.SMOKE, root, 0.0, False)
        bad = {"app": "no_such_app", "runtime": "easeio", "mode": "exhaustive"}
        report = rnd.timed_call(
            "cold", lambda: workloads.served_report(ServeClient(server.url), bad),
            lambda r: int(r["n_runs"]),
        )
    finally:
        server.shutdown()
        server.server_close()
        server.manager.shutdown()
        thread.join(timeout=10)
        shutil.rmtree(root, ignore_errors=True)
    assert report is None
    assert (rnd.attempted, rnd.failed) == (1, 1)
    assert "ended failed" in rnd.errors[0]


def test_benchmark_alone_exits_nonzero_without_a_result():
    os.makedirs(SCRATCH, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as bare:
        shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(REPO, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("--workload", "check", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_round_that_saw_a_repro_variable_fails_the_output_check():
    clean, dirty = _round({"digest": "x"}), _round({"digest": "x"}, ["REPRO_SIM_VM"])
    assert checks.check_rounds("check", 2, [clean], None, None) == []
    problems = checks.check_rounds("check", 2, [dirty], None, None)
    assert any("REPRO_SIM_VM" in p for p in problems)
