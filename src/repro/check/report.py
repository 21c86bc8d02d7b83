"""Campaign results: aggregation, JSON, and human-readable rendering."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.check.model import RunVerdict, Schedule, Violation
from repro.obs.campaign import CampaignTelemetry

#: at most this many individual violations are carried in full reports
MAX_REPORTED_VIOLATIONS = 50


@dataclass
class CampaignReport:
    """Everything one checking campaign produced."""

    app: str
    runtime: str
    mode: str
    workers: int
    check_level: str
    n_runs: int
    n_failures_injected: int
    n_violating_runs: int
    by_kind: Dict[str, int]
    violations: List[Violation]          # capped sample, worst first
    total_violations: int
    minimal: Dict[str, Schedule]         # kind -> shrunken reproducer
    oracle_summary: Dict[str, object]
    elapsed_s: float
    notes: List[str] = field(default_factory=list)
    #: obs campaign telemetry block (runs/s over time, aggregated run
    #: counters, shrink evaluations, divergence rates by bug class)
    telemetry: Dict[str, object] = field(default_factory=dict)
    #: the full replayable campaign configuration (seed, workers,
    #: fastpath mode, semantics/lint versions...) — any report can be
    #: re-submitted verbatim via ``repro serve submit --from-report``
    config: Dict[str, object] = field(default_factory=dict)
    #: True when the campaign was interrupted: verdicts cover only the
    #: schedules checked before the interrupt, and the store or
    #: checkpoint (when configured) makes the remainder resumable
    partial: bool = False

    @property
    def ok(self) -> bool:
        return self.total_violations == 0 and not self.partial

    def to_json(self) -> Dict[str, object]:
        return {
            "app": self.app,
            "runtime": self.runtime,
            "mode": self.mode,
            "workers": self.workers,
            "check_level": self.check_level,
            "n_runs": self.n_runs,
            "n_failures_injected": self.n_failures_injected,
            "n_violating_runs": self.n_violating_runs,
            "ok": self.ok,
            "by_kind": dict(self.by_kind),
            "total_violations": self.total_violations,
            "violations": [v.to_json() for v in self.violations],
            "minimal_schedules": {
                kind: list(sched) for kind, sched in self.minimal.items()
            },
            "oracle": dict(self.oracle_summary),
            "elapsed_s": self.elapsed_s,
            "telemetry": dict(self.telemetry),
            "config": dict(self.config),
            "partial": self.partial,
            "notes": list(self.notes),
        }

    @classmethod
    def from_json(cls, doc: Dict[str, object]) -> "CampaignReport":
        """Rebuild a report from its :meth:`to_json` form (lossless)."""
        doc = dict(
            doc,
            violations=[Violation.from_json(v) for v in doc["violations"]],
            minimal={
                kind: tuple(sched)
                for kind, sched in doc["minimal_schedules"].items()
            },
            oracle_summary=doc["oracle"],
        )
        return cls(**{f.name: doc[f.name] for f in fields(cls)})

    def render_text(self) -> str:
        lines: List[str] = []
        verdict = "PASS" if self.ok else (
            "PARTIAL (interrupted)" if self.partial else "FAIL"
        )
        lines.append(
            f"check {self.app} on {self.runtime} "
            f"[{self.mode}, {self.check_level}-level]: {verdict}"
        )
        o = self.oracle_summary
        lines.append(
            f"  oracle      : {o.get('duration_ms', 0.0):.3f} ms, "
            f"{o.get('io_execs', 0)} io + {o.get('dma_execs', 0)} dma effects, "
            f"{'deterministic' if o.get('deterministic') else 'environment-dependent'}"
        )
        rate = self.n_runs / self.elapsed_s if self.elapsed_s > 0 else 0.0
        lines.append(
            f"  campaign    : {self.n_runs} runs, "
            f"{self.n_failures_injected} failures injected, "
            f"{self.elapsed_s:.2f} s ({rate:.0f} runs/s, "
            f"workers={self.workers})"
        )
        if self.ok:
            lines.append("  violations  : none")
        else:
            lines.append(
                f"  violations  : {self.total_violations} "
                f"in {self.n_violating_runs}/{self.n_runs} runs"
            )
            for kind in sorted(self.by_kind, key=self.by_kind.get, reverse=True):
                lines.append(f"    {kind:18s} x{self.by_kind[kind]}")
            shown = _examples_by_kind(self.violations)
            for kind, example in shown.items():
                lines.append(f"  example [{kind}]:")
                lines.append(f"    {example.describe()}")
                sched = self.minimal.get(kind, example.schedule)
                pretty = ", ".join(f"{t / 1000.0:.3f}ms" for t in sched)
                tag = "minimal reproducer" if kind in self.minimal else "schedule"
                lines.append(f"    {tag}: reset at [{pretty}]")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _examples_by_kind(violations: List[Violation]) -> Dict[str, Violation]:
    out: Dict[str, Violation] = {}
    for v in violations:
        out.setdefault(v.kind, v)
    return out


def summarize(
    app: str,
    runtime: str,
    mode: str,
    workers: int,
    verdicts: List[RunVerdict],
    minimal: Dict[str, Schedule],
    oracle_summary: Dict[str, object],
    elapsed_s: float,
    notes: Optional[List[str]] = None,
    telemetry: Optional[CampaignTelemetry] = None,
    config: Optional[Dict[str, object]] = None,
    partial: bool = False,
) -> CampaignReport:
    """Fold per-run verdicts into one report."""
    all_violations: List[Violation] = []
    by_kind: Dict[str, int] = {}
    n_failures = 0
    violating_runs = 0
    check_level = "events"
    for verdict in verdicts:
        n_failures += verdict.power_failures
        if verdict.check_level == "counters":
            check_level = "counters"
        if verdict.violations:
            violating_runs += 1
        for v in verdict.violations:
            by_kind[v.kind] = by_kind.get(v.kind, 0) + 1
            all_violations.append(v)

    # keep a bounded, kind-diverse sample: first of each kind, then rest
    sample: List[Violation] = list(_examples_by_kind(all_violations).values())
    for v in all_violations:
        if len(sample) >= MAX_REPORTED_VIOLATIONS:
            break
        if v not in sample:
            sample.append(v)

    report_notes = list(notes or [])
    if not verdicts and not partial:
        report_notes.append(
            "campaign executed no runs — the PASS verdict is vacuous"
        )
    if len(all_violations) > len(sample):
        report_notes.append(
            f"violation list truncated to {len(sample)} of "
            f"{len(all_violations)} (counts in by_kind are complete)"
        )

    telemetry_json: Dict[str, object] = {}
    if telemetry is not None:
        telemetry_json = telemetry.to_json(
            by_kind=by_kind, n_runs=len(verdicts)
        )

    return CampaignReport(
        app=app,
        runtime=runtime,
        mode=mode,
        workers=workers,
        check_level=check_level,
        n_runs=len(verdicts),
        n_failures_injected=n_failures,
        n_violating_runs=violating_runs,
        by_kind=by_kind,
        violations=sample,
        total_violations=len(all_violations),
        minimal=minimal,
        oracle_summary=oracle_summary,
        elapsed_s=elapsed_s,
        notes=report_notes,
        telemetry=telemetry_json,
        config=dict(config or {}),
        partial=partial,
    )
