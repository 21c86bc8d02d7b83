"""The benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``.

Runs rounds of one workload (see :mod:`perfbench.workloads`), each in a
fresh process on the default execution path, checks their outputs
(:mod:`perfbench.checks`), and prints every metric by name with its
unit.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over
the rounds; a round's job p50 is the Harrell-Davis median of its jobs,
and the tails pool the jobs of every round.  With ``--trace 1``
one untraced round is followed by one traced round, and the metrics
are the per-layer ones from the traced round; ``trace.overhead_pct``
compares the two.  ``attempted``/``failed`` count units and jobs, so
``failed / attempted`` is the error rate.  The exit status is 1 when
any output check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO not in sys.path:
    sys.path.insert(0, REPO)

from perfbench import checks, metrics  # noqa: E402
from perfbench.workloads import settle  # noqa: E402

#: expected wall time of one full round on a 2-core host; the number of
#: rounds is fixed by --seconds alone, so every run of a workload pools
#: the same number of jobs and its tail is always the same percentile
NOMINAL_ROUND_S = {"check": 12.5, "serve": 15.0}
#: every run ends well within 180 s
RUN_BUDGET_S = 170.0


def clean_env() -> Dict[str, str]:
    """This environment without REPRO_* variables, with the sources on
    the path: no ambient variable can select another execution path,
    store backend or telemetry sink."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    paths = [os.path.join(REPO, "src"), REPO]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def source_identity() -> Dict[str, object]:
    """The git rev when there is one, and a digest of the sources."""
    rev = None
    if os.path.isdir(os.path.join(REPO, ".git")):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(REPO, "src", "repro")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"git_rev": rev, "src_digest": digest.hexdigest()[:16]}


def run_round(workload: str, seed: int, traced: bool, smoke: bool,
              env: Dict[str, str], deadline: float, index: int) -> dict:
    """One round in a fresh process, traced or not."""
    out = os.path.join(REPO, ".perfbench", f"round-{os.getpid()}-{index}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    cmd = [sys.executable, "-m", "perfbench.one_round",
           "--workload", workload, "--seed", str(seed), "--out", out]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    settle()  # the last round's deleted files, out of this one's timing
    t0 = time.time()
    # a process group of its own, so an overrunning round goes down with
    # its pool and fleet worker processes
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=REPO, env=env,
                            stdout=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{workload} round {index} overran the run budget")
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} round {index} exited with {proc.returncode}"
        )
    try:
        with open(out) as fh:
            return json.load(fh)
    finally:
        os.remove(out)


def phase_rate(rounds: List[dict], name: str) -> float:
    """Median over the rounds of the ``name`` phase's units / wall time."""
    return metrics.median([
        p["units"] / p["wall_s"]
        for r in rounds for p in r["phases"]
        if p["name"] == name and p["wall_s"] > 0
    ])


def phase_jobs(rounds: List[dict], name: str) -> List[float]:
    """Job latencies of the ``name`` phase, pooled over the rounds."""
    return [j for r in rounds for p in r["phases"] if p["name"] == name
            for j in p["jobs"]]


def job_p50(rounds: List[dict], name: str) -> float:
    """Median over the rounds of each round's Harrell-Davis job median:
    a round that ran while the host was slow moves it little."""
    return metrics.median([
        metrics.hd_median(phase_jobs([r], name)) for r in rounds
        if phase_jobs([r], name)
    ])


def end_to_end(rounds: List[dict]) -> Dict[str, float]:
    def units(r: dict) -> int:
        return sum(p["units"] for p in r["phases"])

    cold, warm = phase_jobs(rounds, "cold"), phase_jobs(rounds, "warm")
    return {
        "units_per_s": phase_rate(rounds, "cold"),
        "warm_units_per_s": phase_rate(rounds, "warm"),
        "cold_job_p50_s": job_p50(rounds, "cold"),
        "cold_job_tail_s": metrics.tail_percentile(cold)[1],
        "warm_job_p50_s": job_p50(rounds, "warm"),
        "warm_job_tail_s": metrics.tail_percentile(warm)[1],
        "cpu_ms_per_unit": metrics.median(
            [r["cpu_s"] * 1000.0 / max(1, units(r)) for r in rounds]
        ),
        "peak_rss_mb": metrics.median([r["peak_rss_mb"] for r in rounds]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=list(NOMINAL_ROUND_S))
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one shrunken round (self-tests)")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(REPO, "src", "repro", "__init__.py")):
        print("perfbench: the program's sources (src/repro) are missing",
              file=sys.stderr)
        return 2
    env = clean_env()
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    # the build: byte-compile once, so no round pays it inside setup_s
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                    "perfbench"], cwd=REPO, env=env, check=True,
                   stdout=subprocess.DEVNULL)

    from perfbench.workloads import FULL, sizes_doc

    sizes = None if args.smoke else sizes_doc(FULL)
    deadline = started + RUN_BUDGET_S
    if args.trace:
        plan = [False, True]
    elif args.smoke:
        plan = [False]
    else:
        n = math.floor(args.seconds / NOMINAL_ROUND_S[args.workload] + 0.5)
        plan = [False] * max(1, n)
    rounds: List[dict] = []
    problems: List[str] = []
    try:
        for i, traced in enumerate(plan):
            rounds.append(run_round(args.workload, args.seed, traced,
                                    args.smoke, env, deadline, i))
    except RuntimeError as exc:
        problems.append(str(exc))
    if not rounds:
        print(f"perfbench: {problems[0]}", file=sys.stderr)
        return 1
    problems += checks.check_rounds(
        args.workload, args.seed, rounds, checks.load_fingerprints(), sizes
    )
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)

    if args.trace:
        traced = rounds[-1]
        values = dict(traced["layers"])
        plain = sum(p["wall_s"] for p in rounds[0]["phases"])
        values["trace.overhead_pct"] = (
            (values["trace.wall.s"] - plain) / plain * 100.0
        )
        rows = {n: metrics.per_layer_row(n, values[n]) for n in metrics.PER_LAYER}
    else:
        values = end_to_end(rounds)
        values["setup_s"] = metrics.median([r["setup_s"] for r in rounds])
        rows = {n: metrics.end_to_end_row(n, values[n])
                for n in metrics.END_TO_END}

    identity = source_identity()
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{len(rounds)} round(s), trace {args.trace}")
    print("# env " + json.dumps({**rounds[0]["env"], **identity},
                                sort_keys=True))
    for i, r in enumerate(rounds):
        print(f"# round {i}: setup {r['setup_s']:.3f} s, cold "
              f"{phase_rate([r], 'cold'):.4g}/s, warm "
              f"{phase_rate([r], 'warm'):.4g}/s, cpu {r['cpu_s']:.2f} s")
    if not args.trace:
        for phase in ("cold", "warm"):
            jobs = phase_jobs(rounds, phase)
            p, _ = metrics.tail_percentile(jobs)
            print(f"# {phase} jobs: {len(jobs)}, tail = p{p}")
    for name, row in rows.items():
        print(f"{name:28s} {row['value']:14.6g} {row['unit']}")
    print(f"{'error_rate':28s} {failed / max(1, attempted):14.6g} ratio")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    try:
        os.rmdir(os.path.join(REPO, ".perfbench"))
    except OSError:
        pass  # not empty: another run is using it
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": rows,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
