"""The fuzzing campaign driver.

One fuzz run is a loop over program indices: generate a validated spec
(deterministic in ``(seed, index)``), check it differentially on every
configured runtime with boundary-probe fault injection, and classify
the divergences.  The paper's claim (section 5.4) is directional:
baseline runtimes *should* diverge on programs that exercise the
Figure-2 hazards, while EaseIO must stay clean — so baseline
divergences are findings to catalog and EaseIO divergences are
failures of the reproduction itself (the run's ``ok`` flag and the
CLI exit status track only the latter).

For the first divergence of each ``(runtime, violation-kind)`` pair
the harness minimizes the *program* with the generator-aware shrinker
(:mod:`repro.fuzz.shrink`), re-checks the shrunk spec (including that
EaseIO still accepts it), extracts the minimal failure schedule via
the campaign's own ddmin pass, and — when a corpus directory is
configured — persists the whole reproducer as a JSON corpus entry
that ``tests/fuzz/test_corpus.py`` replays as an ordinary pytest case.

Parallel fuzzing (``workers > 1``) runs on the one campaign driver
(:func:`repro.serve.kinds.run_kind`) like every campaign kind:
per-index results stream back unordered but are re-slotted by index
(missing slots are a hard error, never a silent drop), and the
shrink/corpus phase walks them in index order in the parent — so a
fixed seed yields the same report and the same corpus regardless of
worker count.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro import fastpath
from repro.check import CampaignConfig, run_campaign
from repro.check.model import VIOLATION_KINDS
from repro.core.compile import evict
from repro.env.spec import describe_env, random_env_spec
from repro.fuzz.gen import generate_valid_spec
from repro.fuzz.shrink import shrink_spec
from repro.fuzz.spec import count_statements, spec_to_json
from repro.ir.lint import LINT_VERSION
from repro.ir.semantics import SEMANTICS_VERSION
# canonical home moved to repro.obs.campaign; re-exported here because
# tests and corpus tooling import it from the harness
from repro.obs import series as obs_series
from repro.obs.campaign import BUG_CLASSES, CampaignTelemetry
from repro.serve.kinds import CampaignKind, run_kind
from repro.serve.store import campaign_digest, unit_key

DEFAULT_RUNTIMES: Tuple[str, ...] = ("easeio", "alpaca", "ink", "samoyed")

CORPUS_VERSION = 1


@dataclass
class FuzzConfig:
    """All knobs of one fuzzing run."""

    runs: int = 100
    seed: int = 0
    workers: int = 1
    corpus_dir: Optional[str] = None
    runtimes: Tuple[str, ...] = DEFAULT_RUNTIMES
    #: exhaustive-boundary cap per campaign (keeps per-program cost flat)
    limit: int = 24
    env_seed: int = 1
    #: energy-environment axis: each program index is checked under
    #: ``envs[index % len(envs)]`` (spec strings per
    #: ``repro.env.parse_env``; the sentinel ``"random"`` draws a fresh
    #: seeded spec per index, so the fuzzer mutates environment
    #: parameters alongside programs).  Empty: ideal supply.
    envs: Tuple[str, ...] = ()
    shrink: bool = True
    #: boundary cap inside the shrinker's reproduction predicate
    shrink_limit: int = 16
    max_shrink_evals: int = 200
    progress: bool = False
    #: content-addressed result store directory (None: no store) —
    #: per-program differential summaries are cached by (seed, index,
    #: runtimes, limit, fastpath, semantics/lint version)
    store_dir: Optional[str] = None
    #: checkpoint journal path (None: no journal) — without a store, an
    #: interrupted fuzz run re-run with the same config resumes from it;
    #: a journal given together with a store is not used (the store is
    #: then the one durable record of each program)
    checkpoint: Optional[str] = None


@dataclass
class FuzzReport:
    """Everything one fuzzing run produced."""

    runs: int
    seed: int
    runtimes: Tuple[str, ...]
    limit: int
    programs: List[Dict]                 # per-index summaries
    by_runtime: Dict[str, Dict[str, int]]  # runtime -> kind -> count
    easeio_divergences: List[Dict]       # reproduction failures
    reproducers: List[Dict]              # shrunk baseline divergences
    bug_classes_found: Dict[str, str]    # bug class -> "rt:kind" or ""
    elapsed_s: float
    notes: List[str] = field(default_factory=list)
    #: obs campaign telemetry block (runs/s over time, shrink evals,
    #: divergence rates by bug class)
    telemetry: Dict[str, object] = field(default_factory=dict)
    #: the full replayable fuzz configuration — any report can be
    #: re-submitted verbatim via ``repro serve submit --from-report``
    config: Dict[str, object] = field(default_factory=dict)
    #: True when the run was interrupted: programs cover only the
    #: indices checked before the interrupt (resumable from the store
    #: or checkpoint)
    partial: bool = False

    @property
    def ok(self) -> bool:
        """No divergence attributed to the EaseIO runtime."""
        return not self.easeio_divergences and not self.partial

    def to_json(self) -> Dict[str, object]:
        return {
            "runs": self.runs,
            "seed": self.seed,
            "runtimes": list(self.runtimes),
            "limit": self.limit,
            "ok": self.ok,
            "config": dict(self.config),
            "partial": self.partial,
            "n_divergent_programs": sum(
                1 for p in self.programs if p["divergent_runtimes"]
            ),
            "by_runtime": {
                rt: dict(kinds) for rt, kinds in self.by_runtime.items()
            },
            "easeio_divergences": list(self.easeio_divergences),
            "reproducers": list(self.reproducers),
            "bug_classes_found": dict(self.bug_classes_found),
            "programs": list(self.programs),
            "elapsed_s": self.elapsed_s,
            "telemetry": dict(self.telemetry),
            "notes": list(self.notes),
        }

    @classmethod
    def from_json(cls, doc: Dict[str, object]) -> "FuzzReport":
        """Rebuild a report from its :meth:`to_json` form (lossless)."""
        doc = dict(doc, runtimes=tuple(doc["runtimes"]))
        return cls(**{f.name: doc[f.name] for f in fields(cls)})

    def render_text(self) -> str:
        lines = [
            f"fuzz: {self.runs} programs, seed {self.seed}, "
            f"runtimes {'/'.join(self.runtimes)}, "
            f"{self.elapsed_s:.1f} s"
        ]
        for rt in self.runtimes:
            kinds = self.by_runtime.get(rt, {})
            total = sum(kinds.values())
            detail = ", ".join(
                f"{k} x{v}" for k, v in sorted(kinds.items())
            ) or "clean"
            lines.append(f"  {rt:8s}: {total:5d} violations ({detail})")
        for cls in sorted(set(BUG_CLASSES.values())):
            where = self.bug_classes_found.get(cls, "")
            mark = f"found ({where})" if where else "not observed"
            lines.append(f"  class {cls:13s}: {mark}")
        if self.reproducers:
            lines.append(f"  reproducers: {len(self.reproducers)} shrunk")
            for r in self.reproducers:
                lines.append(
                    f"    {r['runtime']}/{r['kind']}: program #{r['index']} "
                    f"-> {r['statements']} statements"
                )
        if self.ok:
            lines.append("  verdict: PASS (easeio divergence-free)")
        elif self.partial:
            lines.append(
                f"  verdict: PARTIAL (interrupted after "
                f"{len(self.programs)}/{self.runs} programs)"
            )
        else:
            lines.append(
                f"  verdict: FAIL ({len(self.easeio_divergences)} easeio "
                f"divergence(s) — reproduction bug)"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


# -- per-program checking ------------------------------------------------


def _campaign(
    spec_json: str,
    runtime: str,
    limit: int,
    env_seed: int,
    shrink: bool = False,
    env: Optional[str] = None,
):
    # inner per-program campaigns are implementation detail, not fleet
    # work: suppress series recording so a fuzz run lands exactly one
    # durable telemetry point (its own), not hundreds
    with obs_series.suppressed():
        return run_campaign(CampaignConfig(
            app="fuzz",
            runtime=runtime,
            mode="exhaustive",
            workers=1,
            env_seed=env_seed,
            limit=limit,
            env=env,
            shrink=shrink,
            build_kwargs={"spec": spec_json},
        ))


def resolve_fuzz_env(cfg: FuzzConfig, index: int) -> Optional[str]:
    """The env spec program ``index`` is checked under (None: ideal).

    Deterministic in ``(cfg.seed, cfg.envs, index)`` — the ``"random"``
    sentinel expands to a seeded :func:`~repro.env.spec.random_env_spec`
    so resumed/cached runs see the same environment.
    """
    if not cfg.envs:
        return None
    spec = cfg.envs[index % len(cfg.envs)]
    if spec == "random":
        return random_env_spec(cfg.seed * 1_000_003 + index)
    return spec


def _evict(spec_json: str) -> None:
    """Drop a checked program's compile-cache entries.

    Generated programs and shrink candidates are checked and then never
    run again; left cached, each one pins its program, compiled
    artifacts and pooled runtimes (with their bytecode) for the life of
    the process.  Only this spec's keys go: a ``check`` job sharing the
    process keeps its warm pools.
    """
    evict("fuzz", {"spec": spec_json})


def _semantic_divergence(
    report_ok: bool, by_kind: Dict[str, int], env: Optional[str]
) -> bool:
    """Is this campaign outcome a *semantic* divergence?

    Under an energy environment a ``nontermination`` verdict says the
    environment cannot power the program — a property of the physics
    (a randomly drawn supply can starve any runtime), not of the
    runtime's re-execution semantics — so it never counts as a
    differential finding there.  Any other kind does, and under the
    ideal supply nontermination keeps its usual meaning (the generator
    lint-gates programs to fit a charge cycle, so starving is a bug).
    """
    if report_ok:
        return False
    if env is None:
        return True
    return any(kind != "nontermination" for kind in by_kind)


def check_spec(
    spec: Dict, cfg: FuzzConfig, env: Optional[str] = None
) -> Dict[str, Dict]:
    """Differential verdicts of one spec on every configured runtime."""
    spec_json = spec_to_json(spec)
    out: Dict[str, Dict] = {}
    try:
        for runtime in cfg.runtimes:
            report = _campaign(
                spec_json, runtime, cfg.limit, cfg.env_seed, env=env
            )
            out[runtime] = {
                "ok": not _semantic_divergence(report.ok, report.by_kind, env),
                "by_kind": dict(report.by_kind),
                "n_runs": report.n_runs,
            }
    finally:
        _evict(spec_json)
    return out


def describe_config(cfg: FuzzConfig) -> Dict[str, object]:
    """The run's full replayable configuration (report block)."""
    return {
        "kind": "fuzz",
        "runs": cfg.runs,
        "seed": cfg.seed,
        "workers": cfg.workers,
        "corpus_dir": cfg.corpus_dir,
        "runtimes": list(cfg.runtimes),
        "limit": cfg.limit,
        "env_seed": cfg.env_seed,
        "envs": list(cfg.envs),
        "shrink": cfg.shrink,
        "shrink_limit": cfg.shrink_limit,
        "max_shrink_evals": cfg.max_shrink_evals,
        "fastpath": fastpath.enabled(),
        "semantics_version": SEMANTICS_VERSION,
        "lint_version": LINT_VERSION,
    }


def fuzz_campaign_digest(cfg: FuzzConfig) -> str:
    """Checkpoint identity of one fuzz run (fan-out-relevant knobs)."""
    return campaign_digest(
        "fuzz",
        runs=cfg.runs,
        seed=cfg.seed,
        runtimes=list(cfg.runtimes),
        limit=cfg.limit,
        env_seed=cfg.env_seed,
        envs=[
            "random" if e == "random" else describe_env(e) for e in cfg.envs
        ],
    )


def fuzz_unit_key(cfg: FuzzConfig, index: int) -> str:
    """Store key of one fuzzed program's differential summary.

    The generated spec is a pure function of ``(seed, index)`` under a
    fixed generator/lint version, so the coordinates stand in for the
    program content; the lint/semantics versions folded in by
    :func:`~repro.serve.store.unit_key` invalidate entries whenever
    that function changes.
    """
    return unit_key(
        "fuzz-unit",
        seed=cfg.seed,
        index=index,
        runtimes=list(cfg.runtimes),
        limit=cfg.limit,
        env_seed=cfg.env_seed,
        env=describe_env(resolve_fuzz_env(cfg, index)),
    )


def units(cfg: FuzzConfig, ctx: FuzzConfig) -> Tuple[List[int], List[str]]:
    """The run's program indices (no report notes)."""
    return list(range(max(0, cfg.runs))), []


def run_unit(cfg: FuzzConfig, index) -> Dict:
    """Generate and check program ``index`` (runs inside a worker)."""
    index = int(index)
    spec = generate_valid_spec(cfg.seed, index)
    env = resolve_fuzz_env(cfg, index)
    runtimes = check_spec(spec, cfg, env=env)
    divergent = [rt for rt, r in runtimes.items() if not r["ok"]]
    summary: Dict = {
        "index": index,
        "name": spec["name"],
        "statements": count_statements(spec),
        "env": env,
        "runtimes": runtimes,
        "divergent_runtimes": divergent,
    }
    if divergent:
        # ship the genotype back only when someone will want it
        summary["spec"] = spec
    return summary


# -- shrinking + corpus --------------------------------------------------


def _kind_reproduces(
    spec: Dict,
    runtime: str,
    kind: str,
    cfg: FuzzConfig,
    telemetry: Optional[CampaignTelemetry] = None,
    env: Optional[str] = None,
) -> bool:
    if telemetry is not None:
        telemetry.note_shrink_eval()
    spec_json = spec_to_json(spec)
    try:
        report = _campaign(
            spec_json, runtime, cfg.shrink_limit, cfg.env_seed, env=env,
        )
    except Exception:
        return False
    finally:
        _evict(spec_json)
    return kind in report.by_kind


def _build_reproducer(
    summary: Dict,
    runtime: str,
    kind: str,
    cfg: FuzzConfig,
    telemetry: Optional[CampaignTelemetry] = None,
) -> Dict:
    """Shrink one divergence and package it as a corpus entry."""
    spec = summary["spec"]
    env = summary.get("env")
    if cfg.shrink:
        spec = shrink_spec(
            spec,
            lambda cand: _kind_reproduces(
                cand, runtime, kind, cfg, telemetry, env=env
            ),
            max_evals=cfg.max_shrink_evals,
        )
    # final verdicts on the minimized program: the recorded kind with
    # its ddmin-minimal schedule, and the EaseIO cross-check
    spec_json = spec_to_json(spec)
    final = _campaign(
        spec_json, runtime, cfg.limit, cfg.env_seed, shrink=True, env=env,
    )
    limit = cfg.limit
    if kind not in final.by_kind and cfg.shrink_limit != cfg.limit:
        # exhaustive thinning samples a different boundary subset at
        # every limit; fall back to the limit the shrink predicate
        # used, where reproduction is guaranteed — and record it, so
        # the corpus replay checks the spec at a limit that works
        limit = cfg.shrink_limit
        final = _campaign(
            spec_json, runtime, limit, cfg.env_seed, shrink=True, env=env,
        )
    easeio = _campaign(spec_json, "easeio", limit, cfg.env_seed, env=env)
    _evict(spec_json)
    easeio_clean = not _semantic_divergence(easeio.ok, easeio.by_kind, env)
    minimal_schedule = final.minimal.get(kind)
    return {
        "version": CORPUS_VERSION,
        "runtime": runtime,
        "kind": kind,
        "bug_class": BUG_CLASSES.get(kind, kind),
        "seed": cfg.seed,
        "index": summary["index"],
        "limit": limit,
        "env_seed": cfg.env_seed,
        "env": env,
        "statements": count_statements(spec),
        "by_kind": dict(final.by_kind),
        "minimal_schedule": (
            list(minimal_schedule) if minimal_schedule else None
        ),
        "easeio_clean": easeio_clean,
        "easeio_by_kind": dict(easeio.by_kind),
        "spec": spec,
    }


def _persist_corpus(entries: List[Dict], corpus_dir: str) -> List[str]:
    os.makedirs(corpus_dir, exist_ok=True)
    paths = []
    for entry in entries:
        # env-discovered entries get their own namespace: an emergent
        # reproducer must not clobber the ideal-supply one for the same
        # (class, runtime) pair
        suffix = "_env" if entry.get("env") else ""
        name = f"{entry['bug_class']}_{entry['runtime']}{suffix}.json"
        path = os.path.join(corpus_dir, name)
        with open(path, "w") as fh:
            json.dump(entry, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths


# -- the run -------------------------------------------------------------


def _program_counters(summary: Dict) -> Dict[str, int]:
    """Telemetry counters for one fuzzed program's check results.

    ``violations.<kind>`` aggregates across the checked runtimes; like
    the check driver's verdict counters it feeds the series store's
    divergence-by-class rollup (as ``run.violations.<kind>``).
    """
    counters: Dict[str, int] = {"programs": 1}
    for rt, r in summary["runtimes"].items():
        counters[f"checks.{rt}"] = r.get("n_runs", 0)
        for kind, n in r.get("by_kind", {}).items():
            key = f"violations.{kind}"
            counters[key] = counters.get(key, 0) + int(n)
    return counters


def fold(
    cfg: FuzzConfig,
    ctx: FuzzConfig,
    summaries: List[Dict],
    telemetry: CampaignTelemetry,
    notes: List[str],
    stats: Dict[str, int],
    partial: bool,
) -> FuzzReport:
    """Aggregate per-program summaries into the run report."""
    total = max(0, cfg.runs)

    # aggregate ---------------------------------------------------------
    by_runtime: Dict[str, Dict[str, int]] = {rt: {} for rt in cfg.runtimes}
    easeio_divergences: List[Dict] = []
    for s in summaries:
        for rt, r in s["runtimes"].items():
            for kind, n in r["by_kind"].items():
                by_runtime[rt][kind] = by_runtime[rt].get(kind, 0) + n
        if "easeio" in s["divergent_runtimes"]:
            easeio_divergences.append({
                "index": s["index"],
                "by_kind": s["runtimes"]["easeio"]["by_kind"],
                "spec": s["spec"],
            })

    # shrink the first divergence of each (runtime, kind) pair ----------
    # (skipped for partial reports: the interrupt asked us to stop)
    reproducers: List[Dict] = []
    bug_classes_found: Dict[str, str] = {
        cls: "" for cls in BUG_CLASSES.values()
    }
    seen: set = set()
    for runtime in cfg.runtimes if not partial else ():
        if runtime == "easeio":
            continue  # easeio divergences are failures, not findings
        for s in summaries:
            kinds = s["runtimes"].get(runtime, {}).get("by_kind", {})
            for kind in sorted(kinds, key=_kind_order):
                if kind == "nontermination" and s.get("env"):
                    continue  # environmental starvation, not a finding
                if (runtime, kind) in seen:
                    continue
                seen.add((runtime, kind))
                entry = _build_reproducer(s, runtime, kind, cfg, telemetry)
                reproducers.append(entry)
                cls = entry["bug_class"]
                if cls in bug_classes_found and not bug_classes_found[cls]:
                    bug_classes_found[cls] = f"{runtime}:{kind}"

    notes = list(notes)
    if cfg.corpus_dir and reproducers:
        paths = _persist_corpus(reproducers, cfg.corpus_dir)
        notes.append(f"corpus: wrote {len(paths)} entries to {cfg.corpus_dir}")
    dirty = [r for r in reproducers if not r["easeio_clean"]]
    if dirty:
        notes.append(
            f"{len(dirty)} shrunk reproducer(s) also diverge on easeio — "
            f"investigate as reproduction bugs"
        )

    # trim heavyweight per-program payloads from the report body (the
    # divergent specs live on in easeio_divergences / reproducers)
    slim = [
        {k: v for k, v in s.items() if k != "spec"} for s in summaries
    ]

    merged_by_kind: Dict[str, int] = {}
    for kinds in by_runtime.values():
        for kind, n in kinds.items():
            merged_by_kind[kind] = merged_by_kind.get(kind, 0) + n

    return FuzzReport(
        runs=total,
        seed=cfg.seed,
        runtimes=tuple(cfg.runtimes),
        limit=cfg.limit,
        programs=slim,
        by_runtime=by_runtime,
        easeio_divergences=easeio_divergences,
        reproducers=reproducers,
        bug_classes_found=bug_classes_found,
        elapsed_s=telemetry.elapsed_s,
        notes=notes,
        telemetry=telemetry.to_json(
            by_kind=merged_by_kind, n_runs=len(summaries)
        ),
        config=describe_config(cfg),
        partial=partial,
    )


def _kind_order(kind: str) -> int:
    try:
        return VIOLATION_KINDS.index(kind)
    except ValueError:
        return len(VIOLATION_KINDS)


FUZZ = CampaignKind(
    name="fuzz",
    config=FuzzConfig,
    report=FuzzReport,
    digest=fuzz_campaign_digest,
    unit_key=fuzz_unit_key,
    context=lambda cfg: cfg,
    units=units,
    run_unit=run_unit,
    counters=_program_counters,
    fold=fold,
    describe_config=describe_config,
    label=lambda cfg: "fuzz",
    noun="programs",
)


def fuzz_run(
    cfg: FuzzConfig,
    cancel: Optional[threading.Event] = None,
    telemetry: Optional[CampaignTelemetry] = None,
    series=None,
    events=None,
    fleet=None,
) -> FuzzReport:
    """Execute one full fuzzing run and fold up the report.

    Runs on :func:`repro.serve.kinds.run_kind`, like
    :func:`repro.check.campaign.run_campaign`: ``cancel``/SIGINT drain
    gracefully and raise :class:`~repro.errors.CampaignInterrupted`
    with a partial, resumable report attached; ``store_dir`` makes
    per-program summaries cacheable and the run resumable from them,
    and without a store ``checkpoint`` makes it resumable.
    """
    return run_kind(
        FUZZ, cfg, cancel=cancel, telemetry=telemetry, series=series,
        events=events, fleet=fleet,
    )
