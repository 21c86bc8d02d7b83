"""The two workloads, each run as rounds in fresh processes.

A round sets up (imports, a fresh temp root, for ``serve`` the daemon
and its fleet worker), then times a cold phase against an empty store
and a warm phase that replays the same work against that store.  A
*job* is the smallest request whose completion the caller observes:
a cell campaign (``check``) or a served campaign (``serve``).  A
*unit* is one scheduler ``WorkUnit``.

Every round also returns the outputs the checks in
:mod:`perfbench.checks` compare: per-cell verdict counts and a digest
of every report with timing and paths removed.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

APPS = ("fir", "uni_dma", "uni_lea", "uni_temp", "weather")
RUNTIMES = ("alpaca", "ink", "samoyed", "easeio")
WORKLOADS = ("check", "serve")
#: apps whose ``check`` cells also run under the energy environment
#: ``CHECK_ENV``, whose source seed is the workload seed
ENV_APPS = ("uni_temp",)
CHECK_ENV = "markov:seed={seed},cap_uf=2.2"
#: apps whose ``check`` cells also run in random mode, where a failing
#: schedule holds several resets and is shrunk (an exhaustive schedule
#: holds one, which is minimal already)
RANDOM_APPS = ("fir",)


@dataclass(frozen=True)
class Sizes:
    """How much work one round does (fixed, so rounds are comparable)."""

    apps: Tuple[str, ...] = APPS
    runtimes: Tuple[str, ...] = RUNTIMES
    #: schedules of a random-mode ``check`` cell
    random_runs: int = 40
    #: exhaustive boundary cap of ``check`` cells (None: every boundary)
    check_limit: Optional[int] = None
    #: warm replays of each ``check`` cell per round
    check_warm_passes: int = 2
    #: boundary cap that thins the ``serve`` job set
    serve_limit: int = 4


FULL = Sizes()
#: a shrunken round of every workload, for the self-tests
SMOKE = Sizes(
    apps=("fir", "uni_temp"),
    runtimes=("alpaca", "easeio"),
    check_limit=4,
    check_warm_passes=1,
    serve_limit=3,
    random_runs=5,
)


def settle() -> None:
    """Write back dirty pages between timed phases.

    A cold phase writes thousands of small store files; without this
    their write-back lands inside whichever phase runs next, a few
    seconds later, and that phase's timing depends on the host's disk.
    """
    os.sync()


def canonical_digest(doc: object) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def normalized(report: Dict[str, object]) -> Dict[str, object]:
    """A report without timing, cache economics or paths.

    What remains is every simulated statistic and verdict: equal for a
    cold, a warm and a served run of the same campaign.
    """
    out = {
        k: v for k, v in report.items()
        if k not in ("elapsed_s", "serve", "telemetry")
    }
    tele = report.get("telemetry")
    if isinstance(tele, dict):
        out["telemetry"] = {
            "runs": tele.get("runs"),
            "shrink_evals": tele.get("shrink_evals"),
            "divergence_by_class": tele.get("divergence_by_class"),
            "counters": {
                k: v for k, v in tele.get("counters", {}).items()
                if k.startswith("run.")
            },
        }
    return out


class Round:
    """Timing, job and error bookkeeping of one round.

    Every timed call is one job of a phase (``cold`` or ``warm``); a
    phase's wall time is the summed duration of its jobs.
    """

    def __init__(self, workload: str, seed: int, sizes: Sizes,
                 root: str, t0: float, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.root = root
        self.t0 = t0
        self.traced = traced
        self.setup_s: Optional[float] = None
        #: phase name -> {"wall_s", "units", "jobs"}
        self.phases: Dict[str, Dict[str, object]] = {}
        #: (start, end) of every timed call
        self.timed: List[Tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.violations: List[str] = []
        self.outputs: Dict[str, object] = {}
        self.extra: Dict[str, float] = {}

    def timed_call(self, name: str, call: Callable[[], object],
                   units_of: Callable[[object], int]):
        """Time one call (one job) of phase ``name``; a call that
        raises is counted as failed, not fatal."""
        if self.setup_s is None:
            # process start (stamped by the parent before it spawned
            # this round) to the first timed call
            self.setup_s = time.time() - self.t0
        phase = self.phases.setdefault(
            name, {"wall_s": 0.0, "units": 0, "jobs": []}
        )
        self.attempted += 1
        start = perf_counter()
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 - counted as an error
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            result = None
        end = perf_counter()
        self.timed.append((start, end))
        phase["wall_s"] += end - start
        if result is not None:
            n = units_of(result)
            phase["units"] += n
            self.attempted += n
            phase["jobs"].append(end - start)
        return result

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.violations.append(what)


def _store_hit_all(report: Dict[str, object], n_units: int) -> bool:
    counters = report.get("telemetry", {}).get("counters", {})
    return (
        counters.get("serve.store_hits", 0) == n_units
        and not counters.get("serve.executed", 0)
    )


def _cell_summary(report: Dict[str, object]) -> Dict[str, object]:
    return {
        "n_runs": report["n_runs"],
        "by_kind": dict(report["by_kind"]),
        "ok": bool(report["ok"]),
    }


def _cell_passes(rnd: Round, cells: List[str],
                 run_cell: Callable[[str], Dict[str, object]],
                 warm_passes: int, interleaved: bool) -> int:
    """Every cell cold, and ``warm_passes`` replays of it from the store.

    ``interleaved`` replays each cell right after its cold run, so that
    warm jobs, which take milliseconds, sample the host over the whole
    round as the cold ones do (its speed wanders over seconds).
    Otherwise the replays follow the whole cold pass, which keeps the
    gap between one served cold job and the next, and with it the fleet
    worker's idle-poll phase, the same for every cold job.
    Returns the number of cold units.
    """
    if interleaved:
        plan = [(key, phase) for key in cells
                for phase in ["cold"] + ["warm"] * warm_passes]
    else:
        plan = [(key, "cold") for key in cells] + [
            (key, "warm") for _ in range(warm_passes) for key in cells
        ]

    def units(report: Dict[str, object]) -> int:
        return int(report["n_runs"])

    cold: Dict[str, Dict[str, object]] = {}
    for key, phase in plan:
        if phase == "warm" and key not in cold:
            continue  # its cold job failed, and was counted
        report = rnd.timed_call(phase, lambda: run_cell(key), units)
        if phase == "cold":
            if report is not None:
                cold[key] = report
                if key.split("/")[1] == "easeio":
                    rnd.require(report["ok"], f"easeio not ok on {key}")
            continue
        rnd.require(
            report is not None
            and normalized(report) == normalized(cold[key]),
            f"warm replay report differs from cold on {key}",
        )
        rnd.require(
            report is not None and _store_hit_all(report, units(cold[key])),
            f"warm replay not all store hits on {key}",
        )
    rnd.outputs["cells"] = {k: _cell_summary(r) for k, r in cold.items()}
    rnd.outputs["digest"] = canonical_digest(
        {k: normalized(r) for k, r in sorted(cold.items())}
    )
    return sum(units(r) for r in cold.values())


def _cells(sizes: Sizes) -> List[str]:
    return [f"{a}/{r}" for a in sizes.apps for r in sizes.runtimes]


# -- check -----------------------------------------------------------------


def run_check(rnd: Round) -> None:
    """Every cell exhaustively on the ideal supply, the ``ENV_APPS``
    cells again under ``CHECK_ENV`` (keys ending in ``/env``) and the
    ``RANDOM_APPS`` cells in random mode (keys ending in ``/random``)."""
    from repro.check.campaign import CampaignConfig, run_campaign

    sizes = rnd.sizes
    store = os.path.join(rnd.root, "store")
    ckpts = os.path.join(rnd.root, "checkpoints")
    variants = {
        "": {"limit": sizes.check_limit},
        "env": {"limit": sizes.check_limit,
                "env": CHECK_ENV.format(seed=rnd.seed)},
        "random": {"mode": "random", "runs": sizes.random_runs,
                   "seed": rnd.seed},
    }

    def run_cell(key: str) -> Dict[str, object]:
        app, runtime, *variant = key.split("/")
        return run_campaign(CampaignConfig(
            app=app, runtime=runtime, workers=2, env_seed=rnd.seed,
            store_dir=store,
            checkpoint=os.path.join(ckpts, key.replace("/", "-") + ".jsonl"),
            **variants[variant[0] if variant else ""],
        )).to_json()

    cells = _cells(sizes) + [
        f"{a}/{r}/{variant}"
        for variant, apps in (("env", ENV_APPS), ("random", RANDOM_APPS))
        for a in apps for r in sizes.runtimes
    ]
    _cell_passes(rnd, cells, run_cell, sizes.check_warm_passes,
                 interleaved=True)


# -- serve -----------------------------------------------------------------


class _Fleet:
    """The in-process daemon plus one fleet worker process."""

    def __init__(self, rnd: Round) -> None:
        from repro.serve.daemon import ServeClient, make_server

        self.server = make_server(os.path.join(rnd.root, "service"), port=0)
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.2},
            daemon=True,
        )
        self.thread.start()
        self.client = ServeClient(self.server.url)
        self.trace_path = os.path.join(rnd.root, "fleet-trace.json")
        self.log_path = os.path.join(rnd.root, "fleet-worker.log")
        self.log = open(self.log_path, "w")
        self.worker = subprocess.Popen(
            [sys.executable, "-m", "perfbench.fleet_entry",
             self.trace_path if rnd.traced else "-",
             "worker", "--daemon", self.server.url, "--quiet"],
            cwd=REPO, stdout=self.log, stderr=subprocess.STDOUT,
        )

    def wait_registered(self) -> None:
        board = self.server.manager.board
        deadline = time.monotonic() + 120
        while board.stats()["workers_registered"] < 1:
            if self.worker.poll() is not None or time.monotonic() > deadline:
                self.log.flush()
                with open(self.log_path) as fh:
                    raise RuntimeError(
                        f"fleet worker did not register: {fh.read()[-2000:]}"
                    )
            time.sleep(0.01)

    def close(self) -> Optional[dict]:
        """Stop the worker (it finishes its unit and exits) and daemon."""
        trace = None
        try:
            if self.worker.poll() is None:
                self.worker.send_signal(signal.SIGTERM)
            try:
                self.worker.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.worker.kill()
                self.worker.wait()
            if os.path.exists(self.trace_path):
                with open(self.trace_path) as fh:
                    trace = json.load(fh)
        finally:
            self.log.close()
            self.server.shutdown()
            self.server.server_close()
            self.server.manager.shutdown(drain_s=10.0)
            self.thread.join(timeout=10)
        return trace


def served_report(client, config: Dict[str, object]) -> Dict[str, object]:
    """Submit one fleet job, wait for it, fetch its report.

    A job that does not end ``done`` raises, as does an HTTP error that
    survives the client's retries: both count as failed jobs.
    """
    doc = client.submit("check", config, fleet=True)
    status = client.wait(doc["id"])
    if status["state"] != "done":
        raise RuntimeError(
            f"job {doc['id']} ended {status['state']}: {status.get('error')}"
        )
    return client.results(doc["id"])


def run_serve(rnd: Round) -> Optional[dict]:
    """The serve workload; returns the fleet worker's trace records."""
    fleet = _Fleet(rnd)
    try:
        fleet.wait_registered()

        def run_cell(key: str) -> Dict[str, object]:
            app, runtime = key.split("/")
            return served_report(fleet.client, {
                "app": app, "runtime": runtime, "mode": "exhaustive",
                "limit": rnd.sizes.serve_limit, "env_seed": rnd.seed,
            })

        cold_units = _cell_passes(rnd, _cells(rnd.sizes), run_cell,
                                  warm_passes=1, interleaved=False)
        board = fleet.server.manager.board.stats()
        # every cold unit completed exactly once, and no warm one at all
        rnd.require(
            board["completed_units"] == cold_units
            and board["requeued_units"] == 0
            and board["duplicate_units"] == 0,
            f"fleet completed {board['completed_units']} units for "
            f"{cold_units} cold ones (requeued {board['requeued_units']})",
        )
        rnd.extra["fleet.requeued_units"] = board["requeued_units"]
    finally:
        trace = fleet.close()
    return trace


#: workload -> round runner (``serve`` returns its fleet worker's trace)
RUNNERS = {"check": run_check, "serve": run_serve}


def sizes_doc(sizes: Sizes) -> Dict[str, object]:
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in asdict(sizes).items()}
