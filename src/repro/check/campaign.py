"""The ``check`` campaign kind: fan the injected runs out, fold verdicts in.

The fan-out runs on the one campaign driver
(:func:`repro.serve.kinds.run_kind`): :func:`context` builds what
every schedule is judged against (config + oracle + site table),
:func:`units` lists the schedules, and :func:`run_unit` builds, executes
and diffs one run against that context — handed to it as an argument,
so a pool worker, a fleet worker and an inline run all compute the
same verdict with no shared state.  The only traffic is the schedule
in and the (small, JSON-encoded) verdict out.  ``workers=1`` runs
inline, which keeps single-process debugging (pdb, coverage) trivial
and is what the test suite uses.  With ``store_dir`` set, per-schedule
verdicts are content-addressed (:func:`check_unit_key`), cache hits
short-circuit simulation, and an interrupted campaign re-run under the
same config resumes exactly where it died; without a store,
``checkpoint`` names a journal that does the resuming.

After the fan-out, the first failing schedule of each violation kind
is delta-debugged (:mod:`repro.check.shrink`) to a minimal reproducer
— for exhaustive mode that is the single injected reset itself; for
random multi-failure schedules it prunes the noise resets.
"""

from __future__ import annotations

import multiprocessing
import threading
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro import fastpath
from repro.check import inject
from repro.env.spec import describe_env
from repro.core.compile import compile_app, _options_key
from repro.check.diff import DEFAULT_ATOMICITY_WINDOW_US, diff_run
from repro.check.model import RunVerdict, Schedule, Violation
from repro.check.oracle import Oracle, build_oracle
from repro.check.report import CampaignReport, summarize
from repro.check.shrink import ddmin
from repro.ir.lint import LINT_VERSION
from repro.ir.semantics import SEMANTICS_VERSION
from repro.obs.campaign import CampaignTelemetry
from repro.serve.kinds import CampaignKind, run_kind
from repro.serve.store import campaign_digest, program_digest, unit_key


@dataclass
class CampaignConfig:
    """All knobs of one checking campaign."""

    app: str
    runtime: str = "easeio"
    mode: str = "exhaustive"            # "exhaustive" | "random"
    workers: int = 1
    env_seed: int = 1
    seed: int = 0                       # random-mode schedule seed
    runs: int = 100                     # random mode: number of schedules
    failures_per_run: int = 3           # random mode: resets per schedule
    limit: Optional[int] = None         # exhaustive mode: boundary cap
    #: energy-environment spec (``repro.env.parse_env`` grammar) the
    #: injected runs execute under; None keeps the ideal supply.  The
    #: oracle stays continuous-power either way — the environment is
    #: part of the *adversary*, not of the program's semantics.
    env: Optional[str] = None
    trace_events: bool = True
    atomicity_window_us: float = DEFAULT_ATOMICITY_WINDOW_US
    nontermination_limit: int = 2000
    shrink: bool = True
    build_kwargs: Dict[str, object] = field(default_factory=dict)
    transform_options: Optional[object] = None
    #: stream per-schedule progress lines to stderr (CLI campaigns)
    progress: bool = False
    #: content-addressed result store directory (None: no store) —
    #: per-schedule verdicts are cached and re-served on byte-identical
    #: (program, runtime, plan, fastpath, semantics-version) keys
    store_dir: Optional[str] = None
    #: checkpoint journal path (None: no journal) — without a store, an
    #: interrupted campaign re-run with the same config resumes from it;
    #: a journal given together with a store is not used (the store is
    #: then the one durable record of each schedule)
    checkpoint: Optional[str] = None


#: what every schedule of one campaign runs against: (config, oracle)
Context = Tuple[CampaignConfig, Oracle]


def _check_schedule(ctx: Context, schedule: Schedule) -> RunVerdict:
    """Run + judge one schedule against the campaign context."""
    cfg, oracle = ctx
    result, error = inject.run_schedule(
        cfg.app,
        cfg.runtime,
        schedule,
        env_seed=cfg.env_seed,
        build_kwargs=cfg.build_kwargs,
        transform_options=cfg.transform_options,
        trace_events=cfg.trace_events,
        nontermination_limit=cfg.nontermination_limit,
        env=cfg.env,
    )
    if result is None:
        return RunVerdict(
            schedule=schedule,
            completed=False,
            power_failures=len(schedule),
            violations=(Violation(
                kind="nontermination",
                site=None,
                task=None,
                time_us=None,
                schedule=schedule,
                detail={"error": error},
            ),),
            check_level="events" if cfg.trace_events else "counters",
            error=error,
        )
    return diff_run(
        result, oracle, schedule,
        atomicity_window_us=cfg.atomicity_window_us,
    )


def run_unit(ctx: Context, schedule) -> Dict[str, object]:
    """One schedule's verdict in its JSON-safe wire/store form."""
    return _check_schedule(ctx, tuple(schedule)).to_json()


def _verdict_counters(verdict: RunVerdict) -> Dict[str, int]:
    """Telemetry counters for one verdict: trace counts + violations.

    The ``violations.<kind>`` entries land in the telemetry registry
    as ``run.violations.<kind>`` — that is what the obs series store
    reads to compute divergence-by-class per rev, so it must come from
    the verdicts themselves (identical for a fresh, a checkpointed,
    and a cache-served verdict).
    """
    counters = dict(verdict.counters)
    for violation in verdict.violations:
        key = "violations." + violation.kind
        counters[key] = counters.get(key, 0) + 1
    return counters


def resolve_workers(workers: Optional[int]) -> int:
    """``None``/0 -> all cores; explicit values pass through."""
    if not workers:
        return max(1, multiprocessing.cpu_count())
    return max(1, workers)


def describe_config(cfg: CampaignConfig) -> Dict[str, object]:
    """The campaign's full replayable configuration (report block).

    Embedded in every report so any report can be re-submitted
    verbatim (``repro serve submit --from-report``); also records the
    ambient fastpath mode and the semantics/lint versions the verdicts
    were computed under.
    """
    return {
        "kind": "check",
        "app": cfg.app,
        "runtime": cfg.runtime,
        "mode": cfg.mode,
        "workers": cfg.workers,
        "env_seed": cfg.env_seed,
        "seed": cfg.seed,
        "runs": cfg.runs,
        "failures_per_run": cfg.failures_per_run,
        "limit": cfg.limit,
        "env": cfg.env,
        "env_descriptor": describe_env(cfg.env),
        "trace_events": cfg.trace_events,
        "atomicity_window_us": cfg.atomicity_window_us,
        "nontermination_limit": cfg.nontermination_limit,
        "shrink": cfg.shrink,
        "build_kwargs": dict(cfg.build_kwargs),
        "transform_options": (
            [list(pair) for pair in _options_key(cfg.transform_options)]
            if cfg.transform_options is not None else None
        ),
        "fastpath": fastpath.enabled(),
        "semantics_version": SEMANTICS_VERSION,
        "lint_version": LINT_VERSION,
    }


def _campaign_identity(cfg: CampaignConfig) -> Dict[str, object]:
    """Everything the campaign's *work-unit set* depends on.

    ``workers``, ``shrink`` and ``progress`` are deliberately absent: a
    checkpoint written with 8 workers must resume under 1, and the
    shrink pass runs after (and independently of) the fan-out.
    """
    return {
        "program": program_digest(cfg.app, cfg.build_kwargs),
        "runtime": cfg.runtime,
        "mode": cfg.mode,
        "env_seed": cfg.env_seed,
        "seed": cfg.seed,
        "runs": cfg.runs,
        "failures_per_run": cfg.failures_per_run,
        "limit": cfg.limit,
        # content descriptor, not the raw spec string: two spellings of
        # the same environment (or a moved trace file) key identically,
        # while an *edited* trace file changes the identity
        "env": describe_env(cfg.env),
        "trace_events": cfg.trace_events,
        "atomicity_window_us": cfg.atomicity_window_us,
        "nontermination_limit": cfg.nontermination_limit,
        "options": list(_options_key(cfg.transform_options)),
    }


def check_campaign_digest(cfg: CampaignConfig) -> str:
    """Checkpoint identity of one checking campaign."""
    return campaign_digest("check", **_campaign_identity(cfg))


def check_unit_key(cfg: CampaignConfig, schedule: Schedule) -> str:
    """Store key of one injected run (the campaign's unit of work)."""
    return unit_key(
        "check-unit",
        program=program_digest(cfg.app, cfg.build_kwargs),
        runtime=cfg.runtime,
        schedule=list(schedule),
        env_seed=cfg.env_seed,
        env=describe_env(cfg.env),
        trace_events=cfg.trace_events,
        atomicity_window_us=cfg.atomicity_window_us,
        nontermination_limit=cfg.nontermination_limit,
        options=list(_options_key(cfg.transform_options)),
    )


def build_schedules(cfg: CampaignConfig, oracle: Oracle) -> List[Schedule]:
    """The campaign's schedule list for the configured mode."""
    if cfg.mode == "exhaustive":
        boundaries = inject.probe_boundaries(
            cfg.app,
            cfg.runtime,
            env_seed=cfg.env_seed,
            build_kwargs=cfg.build_kwargs,
            transform_options=cfg.transform_options,
        )
        return inject.exhaustive_schedules(boundaries, limit=cfg.limit)
    if cfg.mode == "random":
        return inject.random_schedules(
            oracle.duration_us, cfg.runs, cfg.failures_per_run, seed=cfg.seed
        )
    raise ValueError(f"unknown campaign mode {cfg.mode!r}")


def _shrink_reproducers(
    ctx: Context,
    verdicts: List[RunVerdict],
    telemetry: Optional[CampaignTelemetry] = None,
) -> Dict[str, Schedule]:
    """Minimal failing schedule per violation kind (first occurrence)."""
    minimal: Dict[str, Schedule] = {}
    for verdict in verdicts:
        for violation in verdict.violations:
            if violation.kind in minimal or not violation.schedule:
                continue
            kind = violation.kind
            if len(violation.schedule) == 1:
                minimal[kind] = violation.schedule
                continue

            def reproduces(candidate: Schedule, _kind: str = kind) -> bool:
                if telemetry is not None:
                    telemetry.note_shrink_eval()
                v = _check_schedule(ctx, candidate)
                return any(x.kind == _kind for x in v.violations)

            minimal[kind] = ddmin(violation.schedule, reproduces)
    return minimal


def context(cfg: CampaignConfig) -> Context:
    """The config and the continuous-power oracle every run is judged by."""
    # compile the cell up front: the oracle, the probe and every forked
    # pool worker then reuse this one artifact
    compile_app(
        cfg.app,
        cfg.runtime,
        build_kwargs=cfg.build_kwargs,
        transform_options=cfg.transform_options,
    )
    return cfg, build_oracle(
        cfg.app,
        cfg.runtime,
        env_seed=cfg.env_seed,
        build_kwargs=cfg.build_kwargs,
        transform_options=cfg.transform_options,
    )


def units(
    cfg: CampaignConfig, ctx: Context
) -> Tuple[List[Schedule], List[str]]:
    """The campaign's schedules and its report notes."""
    oracle = ctx[1]
    schedules = build_schedules(cfg, oracle)
    notes: List[str] = list(oracle.notes)
    if cfg.mode == "exhaustive" and cfg.limit:
        notes.append(
            f"exhaustive boundaries thinned to {len(schedules)} "
            f"(--limit {cfg.limit}); coverage is sampled, not complete"
        )
    if not cfg.trace_events:
        notes.append(
            "counters-only mode (--no-events): per-event and missing-effect "
            "checks are disabled; NV-state checks and the conservative "
            "counter-level Single-reexecution screen still apply"
        )
    if cfg.env is not None:
        notes.append(
            f"energy environment {cfg.env!r}: injected resets compose with "
            "emergent brown-outs; the oracle remains continuous-power"
        )
    return schedules, notes


def fold(
    cfg: CampaignConfig,
    ctx: Context,
    verdicts: List[RunVerdict],
    telemetry: CampaignTelemetry,
    notes: List[str],
    stats: Dict[str, int],
    partial: bool,
) -> CampaignReport:
    """Shrink the failing schedules (not after an interrupt), summarize."""
    oracle = ctx[1]
    minimal = (
        _shrink_reproducers(ctx, verdicts, telemetry)
        if cfg.shrink and not partial else {}
    )
    if minimal:
        verdicts = [_attach_minimal(v, minimal) for v in verdicts]
    return summarize(
        app=cfg.app,
        runtime=cfg.runtime,
        mode=cfg.mode,
        workers=cfg.workers,
        verdicts=verdicts,
        minimal=minimal,
        oracle_summary={
            "duration_ms": oracle.duration_us / 1000.0,
            "io_execs": oracle.n_io,
            "dma_execs": oracle.n_dma,
            "effects": len(oracle.effects),
            "deterministic": oracle.deterministic,
            "conditional_io": oracle.conditional_io,
            "env_seed": oracle.env_seed,
            "result_vars": list(oracle.result_vars),
        },
        elapsed_s=telemetry.elapsed_s,
        notes=notes,
        telemetry=telemetry,
        config=describe_config(cfg),
        partial=partial,
    )


def _attach_minimal(
    verdict: RunVerdict, minimal: Dict[str, Schedule]
) -> RunVerdict:
    if not verdict.violations:
        return verdict
    patched = tuple(
        replace(v, minimal_schedule=minimal.get(v.kind))
        if v.minimal_schedule is None and v.kind in minimal
        else v
        for v in verdict.violations
    )
    return replace(verdict, violations=patched)


CHECK = CampaignKind(
    name="check",
    config=CampaignConfig,
    report=CampaignReport,
    digest=check_campaign_digest,
    unit_key=check_unit_key,
    context=context,
    units=units,
    run_unit=run_unit,
    counters=_verdict_counters,
    fold=fold,
    describe_config=describe_config,
    label=lambda cfg: f"check {cfg.app}/{cfg.runtime}",
    noun="schedules",
    every=25,
    decode=RunVerdict.from_json,
)


def run_campaign(
    cfg: CampaignConfig,
    cancel: Optional[threading.Event] = None,
    telemetry: Optional[CampaignTelemetry] = None,
    series=None,
    events=None,
    fleet=None,
) -> CampaignReport:
    """Execute one full checking campaign and fold up the report.

    Runs on :func:`repro.serve.kinds.run_kind`, which documents
    ``cancel``, ``telemetry`` and interruption.
    """
    return run_kind(
        CHECK, cfg, cancel=cancel, telemetry=telemetry, series=series,
        events=events, fleet=fleet,
    )
