"""Environment sweep: many energy environments as one serve campaign.

A sweep runs every (environment, app, runtime) combination as one
work unit of the ``env-sweep`` campaign kind, on the one campaign
driver (:func:`repro.serve.kinds.run_kind`) — content-addressed
(:func:`sweep_unit_key`, so re-running the same sweep is 100% warm
cache hits), shardable across worker processes or a fleet, servable
as a daemon job, and resumable from its store, or without one from a
checkpoint journal keyed by the sweep's campaign identity.

Each unit executes the app once under its environment and summarizes
the emergent failure behaviour (failure count and a digest of the
exact failure instants, dark time, harvested/consumed energy,
died-dark).  With ``verify_replay`` on, the unit also round-trips the
environment through an in-memory recorded trace
(:class:`~repro.env.sources.TraceSource` over
``source.segments(...)``) and re-runs: the replay must reproduce the
original failure instants **bit-identically**, which pins the
record/replay contract on every sweep, not just in the test suite.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.core.run import run_app
from repro.env.environment import EnergyEnvironment
from repro.env.sources import TraceSource
from repro.env.spec import describe_env, parse_env, random_env_spec
from repro.errors import NonTermination
from repro.hw.energy import Capacitor
from repro.obs.campaign import CampaignTelemetry
from repro.serve.kinds import CampaignKind, run_kind
from repro.serve.store import campaign_digest, program_digest, unit_key

#: default app/runtime axes of a sweep
DEFAULT_APPS = ("uni_temp", "fir")
DEFAULT_RUNTIMES = ("easeio",)


@dataclass
class SweepConfig:
    """All knobs of one environment sweep."""

    #: explicit environment specs; empty means *generate* ``count``
    #: random environments from ``seed``
    envs: Tuple[str, ...] = ()
    count: int = 20
    seed: int = 0
    apps: Tuple[str, ...] = DEFAULT_APPS
    runtimes: Tuple[str, ...] = DEFAULT_RUNTIMES
    env_seed: int = 1
    workers: int = 1
    nontermination_limit: int = 2000
    #: re-run each unit from an in-memory recorded trace and require
    #: bit-identical failure instants
    verify_replay: bool = True
    progress: bool = False
    #: content-addressed result store directory (None: no store); an
    #: interrupted sweep re-run with it resumes from its cache hits
    store_dir: Optional[str] = None
    #: checkpoint journal path (None: no journal), used only without a
    #: store: a journal given together with a store is not used
    checkpoint: Optional[str] = None


def sweep_envs(cfg: SweepConfig) -> List[str]:
    """The sweep's resolved environment spec list."""
    if cfg.envs:
        return list(cfg.envs)
    return [
        random_env_spec(cfg.seed * 1_000_003 + i) for i in range(cfg.count)
    ]


def sweep_units(cfg: SweepConfig) -> List[Tuple[str, str, str]]:
    """Unit payloads, ``(env_spec, app, runtime)``, in sweep order."""
    return [
        (spec, app, runtime)
        for spec in sweep_envs(cfg)
        for app in cfg.apps
        for runtime in cfg.runtimes
    ]


def sweep_unit_key(cfg: SweepConfig, payload: Tuple[str, str, str]) -> str:
    """Store key of one (environment, app, runtime) unit.

    Keys on the environment's *content descriptor* — two sweeps naming
    the same physical environment share cache entries, and two
    different environments can never collide.  The execution path
    (``vm`` or ``reference``) enters only through the flag that
    :func:`~repro.serve.store.unit_key` folds into every key, so the
    two paths keep separate entries even though their verdicts are
    identical by contract (the equivalence matrices pin that).
    """
    spec, app, runtime = payload
    return unit_key(
        "env-unit",
        program=program_digest(app, {}),
        runtime=runtime,
        env=describe_env(spec),
        env_seed=cfg.env_seed,
        nontermination_limit=cfg.nontermination_limit,
        verify_replay=cfg.verify_replay,
    )


def sweep_campaign_digest(cfg: SweepConfig) -> str:
    """Checkpoint identity of one sweep (content-based, like its keys)."""
    return campaign_digest(
        "env-sweep",
        envs=[describe_env(spec) for spec in sweep_envs(cfg)],
        apps=list(cfg.apps),
        runtimes=list(cfg.runtimes),
        env_seed=cfg.env_seed,
        nontermination_limit=cfg.nontermination_limit,
        verify_replay=cfg.verify_replay,
    )


def _failures_digest(failure_times: List[float]) -> str:
    """Content digest of the exact failure instants (bit-identity)."""
    payload = json.dumps([float(t).hex() for t in failure_times])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def run_under(
    env: EnergyEnvironment, app: str, runtime: str, env_seed: int,
    limit: int,
) -> Tuple[Optional[object], Optional[str]]:
    """One run under ``env``; NonTermination becomes a reported error.

    ``env record``, ``env replay`` and every sweep unit run through it.
    """
    try:
        result = run_app(
            app, runtime, failure_model=env, seed=env_seed,
            nontermination_limit=limit,
        )
        return result, None
    except NonTermination as exc:
        return None, f"NonTermination: {exc}"


def _replay_env(env: EnergyEnvironment, horizon_us: float) -> EnergyEnvironment:
    """In-memory record→replay: the trace-source twin of ``env``."""
    cap = env.capacitor
    return EnergyEnvironment(
        TraceSource(env.source.segments(horizon_us)),
        capacitor=Capacitor(
            capacitance_f=cap.capacitance_f,
            v_max=cap.v_max,
            v_on=cap.v_on,
            v_off=cap.v_off,
            voltage=env._start_v,
        ),
        max_dark_us=env.max_dark_us,
    )


def units(
    cfg: SweepConfig, ctx: SweepConfig
) -> Tuple[List[Tuple[str, str, str]], List[str]]:
    """The sweep's unit payloads (no report notes)."""
    return sweep_units(cfg), []


def run_unit(cfg: SweepConfig, payload) -> Dict[str, object]:
    """Run + summarize one unit (executes inside a worker)."""
    spec, app, runtime = payload
    env = parse_env(spec)
    result, error = run_under(
        env, app, runtime, cfg.env_seed, cfg.nontermination_limit
    )
    failures = list(env.failure_times)
    summary: Dict[str, object] = {
        "env": spec,
        "app": app,
        "runtime": runtime,
        "completed": bool(result is not None and result.metrics.completed),
        "died_dark": bool(result is not None and result.died_dark),
        "error": error,
        "power_failures": len(failures),
        "failures_digest": _failures_digest(failures),
        "brownouts": env.brownouts,
        "recharges": env.recharges,
        "dark_ms": env.dark_time_us / 1000.0,
        "harvested_uj": env.harvested_uj,
        "consumed_uj": env.consumed_uj,
        "active_ms": (
            result.metrics.active_time_us / 1000.0 if result else 0.0
        ),
        "replay_ok": None,
    }
    if cfg.verify_replay:
        # horizon past everything the run consulted: the trace source
        # holds its last power level forever beyond it, so it must
        # cover even the final dark-period integration of a
        # nonterminating run (which walks well past the last failure)
        twin = _replay_env(env, env.trace_horizon_us())
        replay, replay_error = run_under(
            twin, app, runtime, cfg.env_seed, cfg.nontermination_limit
        )
        summary["replay_ok"] = bool(
            list(twin.failure_times) == failures
            and replay_error == error
            and (replay is None) == (result is None)
            and (
                result is None
                or replay.metrics.completed == result.metrics.completed
            )
        )
    return summary


def _unit_counters(summary: Dict[str, object]) -> Dict[str, int]:
    counts = {
        "sweep.units": 1,
        "sweep.failures": int(summary["power_failures"]),
    }
    if summary["completed"]:
        counts["sweep.completed"] = 1
    if summary["died_dark"]:
        counts["sweep.died_dark"] = 1
    if summary["error"]:
        counts["sweep.nonterminated"] = 1
    if summary["replay_ok"] is False:
        counts["sweep.replay_mismatches"] = 1
    return counts


@dataclass
class SweepReport:
    """Folded results of one environment sweep."""

    config: Dict[str, object]
    rows: List[Dict[str, object]]
    elapsed_s: float = 0.0
    serve: Dict[str, int] = field(default_factory=dict)
    #: interrupted before every unit ran (resumable from its store or
    #: checkpoint)
    partial: bool = False

    @property
    def ok(self) -> bool:
        return not self.partial and not any(
            r["replay_ok"] is False for r in self.rows
        )

    def totals(self) -> Dict[str, int]:
        rows = self.rows
        return {
            "units": len(rows),
            "envs": len({r["env"] for r in rows}),
            "completed": sum(1 for r in rows if r["completed"]),
            "died_dark": sum(1 for r in rows if r["died_dark"]),
            "nonterminated": sum(1 for r in rows if r["error"]),
            "power_failures": sum(r["power_failures"] for r in rows),
            "replay_verified": sum(1 for r in rows if r["replay_ok"]),
            "replay_mismatches": sum(
                1 for r in rows if r["replay_ok"] is False
            ),
        }

    def to_json(self) -> Dict[str, object]:
        return {
            "kind": "env-sweep",
            "ok": self.ok,
            "config": dict(self.config),
            "totals": self.totals(),
            "rows": [dict(r) for r in self.rows],
            "serve": dict(self.serve),
            "elapsed_s": self.elapsed_s,
            "partial": self.partial,
        }

    @classmethod
    def from_json(cls, doc: Dict[str, object]) -> "SweepReport":
        """Rebuild a report from its :meth:`to_json` form (lossless).

        Reports written before ``partial`` existed load as complete.
        """
        doc = {"partial": False, **doc}
        return cls(**{f.name: doc[f.name] for f in fields(cls)})

    def render_text(self) -> str:
        t = self.totals()
        lines = [
            f"env sweep: {t['envs']} environments x "
            f"{t['units'] // max(1, t['envs'])} configs = {t['units']} units",
            f"  completed    : {t['completed']}",
            f"  died dark    : {t['died_dark']}",
            f"  nonterminated: {t['nonterminated']}",
            f"  emergent power failures: {t['power_failures']}",
        ]
        if any(r["replay_ok"] is not None for r in self.rows):
            lines.append(
                f"  trace replay : {t['replay_verified']} bit-identical, "
                f"{t['replay_mismatches']} mismatched"
            )
        if self.serve:
            served = ", ".join(
                f"{k}={v}" for k, v in sorted(self.serve.items())
            )
            lines.append(f"  serve        : {served}")
        lines.append(f"  elapsed      : {self.elapsed_s:.2f}s")
        if self.partial:
            lines.append(f"  PARTIAL (interrupted after {t['units']} units)")
        if t["replay_mismatches"]:
            lines.append("  REPLAY MISMATCH — record/replay contract broken")
        return "\n".join(lines)


def describe_config(cfg: SweepConfig) -> Dict[str, object]:
    return {
        "kind": "env-sweep",
        "envs": sweep_envs(cfg),
        "apps": list(cfg.apps),
        "runtimes": list(cfg.runtimes),
        "env_seed": cfg.env_seed,
        "seed": cfg.seed,
        "workers": cfg.workers,
        "nontermination_limit": cfg.nontermination_limit,
        "verify_replay": cfg.verify_replay,
    }


def fold(
    cfg: SweepConfig,
    ctx: SweepConfig,
    rows: List[Dict[str, object]],
    telemetry: CampaignTelemetry,
    notes: List[str],
    stats: Dict[str, int],
    partial: bool,
) -> SweepReport:
    """The sweep report: its rows and how the scheduler satisfied them."""
    return SweepReport(
        config=describe_config(cfg),
        rows=rows,
        elapsed_s=telemetry.elapsed_s,
        serve=dict(stats),
        partial=partial,
    )


SWEEP = CampaignKind(
    name="env-sweep",
    config=SweepConfig,
    report=SweepReport,
    digest=sweep_campaign_digest,
    unit_key=sweep_unit_key,
    context=lambda cfg: cfg,
    units=units,
    run_unit=run_unit,
    counters=_unit_counters,
    fold=fold,
    describe_config=describe_config,
    label=lambda cfg: "env sweep",
)


def run_sweep(
    cfg: SweepConfig,
    cancel: Optional[threading.Event] = None,
    telemetry: Optional[CampaignTelemetry] = None,
    series=None,
    events=None,
) -> SweepReport:
    """Execute one full environment sweep and fold up the report.

    Interruption (SIGINT / ``cancel``) raises
    :class:`~repro.errors.CampaignInterrupted` after in-flight units
    drain; re-running the same config resumes where it died, from
    ``store_dir`` when set (a finished sweep then re-runs entirely
    from warm cache hits), else from ``checkpoint``.
    """
    return run_kind(
        SWEEP, cfg, cancel=cancel, telemetry=telemetry, series=series,
        events=events,
    )
