"""Campaign kinds: one protocol, one registry, one driver.

A campaign is a bag of independent work units folded into one report.
Each kind — ``check``, ``fuzz``, ``env-sweep`` — is one
:class:`CampaignKind` in :func:`kinds`, keyed by the ``kind`` its
reports' config blocks carry.  :func:`run_kind` is the only driver and
:func:`run_cli` the only CLI runner.  The job layer, the fleet worker
and the CLIs look kinds up here and never branch on a kind's name, so
any registered kind runs standalone, served, or on a fleet.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import signal
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import CampaignInterrupted, ReproError
from repro.obs.campaign import CampaignTelemetry
from repro.serve.scheduler import BatchScheduler, WorkUnit
from repro.serve.store import ResultStore


@dataclass(frozen=True)
class CampaignKind:
    """What one kind of campaign supplies to the driver.

    ``name`` is the registry key.  ``config`` is its config dataclass
    (the driver reads ``workers``, ``progress``, ``store_dir``,
    ``checkpoint``) and ``report`` its report type
    (``ok``, ``to_json``, ``from_json``, ``render_text``).
    ``digest(cfg)`` is its campaign identity (a journal's header, a
    series point) and ``unit_key(cfg, payload)`` one unit's store
    entry.  ``context(cfg)`` builds what every unit runs against (all
    a fleet worker needs), and ``units(cfg, ctx) ->
    (payloads, notes)`` lists the unit payloads in order and the
    report's notes.  ``run_unit(ctx, payload)`` returns one unit's
    encoded (JSON-safe) result: module-level so a pool can pickle it,
    and given its context as an argument, never through a global.
    ``decode`` (None: as is) turns that back into a result, and
    ``counters(result)`` gives its telemetry counters.  ``fold(cfg,
    ctx, results, telemetry=, notes=, stats=, partial=)`` shrinks,
    persists and summarizes the results into a report, also a partial
    one.  ``describe_config(cfg)`` is the report's replayable config
    block, ``label(cfg)`` the progress and series label, ``noun`` a
    unit's name in interrupt messages and ``every`` the progress
    interval.
    """

    name: str
    config: type
    report: type
    digest: Callable[[Any], str]
    unit_key: Callable[[Any, Any], str]
    context: Callable[[Any], Any]
    units: Callable[[Any, Any], Tuple[List[Any], List[str]]]
    run_unit: Callable[[Any, Any], object]
    counters: Callable[[Any], Dict[str, int]]
    fold: Callable[..., Any]
    describe_config: Callable[[Any], Dict[str, object]]
    label: Callable[[Any], str]
    noun: str = "units"
    every: int = 10
    decode: Optional[Callable[[object], Any]] = None

    def decode_config(self, doc: Mapping[str, object]) -> Any:
        """The config a wire document (job body, report block) names.

        A key that is neither a config field nor one this kind's own
        ``describe_config`` emits is an error naming that key: a
        misspelt knob must fail the submit, not run the default.
        """
        fields = {f.name: f for f in dataclasses.fields(self.config)}
        known = {}
        for key, value in doc.items():
            f = fields.get(key)
            if f is None:
                continue
            if isinstance(value, list) and isinstance(f.default, tuple):
                value = tuple(value)
            known[key] = value
        cfg = self.config(**known)
        unknown = set(doc) - set(fields) - set(self.describe_config(cfg))
        if unknown:
            raise ReproError(
                f"unknown {self.name} config field(s): "
                + ", ".join(sorted(unknown))
            )
        return cfg


def kinds() -> Dict[str, CampaignKind]:
    """Every campaign kind, by name: the one dispatch table."""
    # imported here: each kind's module imports this one for the driver
    from repro.check.campaign import CHECK
    from repro.env.sweep import SWEEP
    from repro.fuzz.harness import FUZZ

    return {kind.name: kind for kind in (CHECK, FUZZ, SWEEP)}


def campaign_kind(name: str) -> CampaignKind:
    """The kind registered as ``name``; ``ReproError`` naming them if none."""
    registry = kinds()
    if name not in registry:
        raise ReproError(
            f"unknown campaign kind {name!r}; registered kinds: "
            + ", ".join(sorted(registry))
        )
    return registry[name]


def run_kind(
    kind: CampaignKind,
    cfg: Any,
    cancel: Optional[threading.Event] = None,
    telemetry: Optional[CampaignTelemetry] = None,
    series=None,
    events=None,
    fleet=None,
    store: Optional[ResultStore] = None,
):
    """Run one campaign of ``kind`` and fold up its report.

    ``cancel`` (job layer) and SIGINT/SIGTERM (CLI) both stop the campaign
    gracefully: in-flight work drains into the campaign's one durable
    record (its store, else its journal), and the raised
    :class:`~repro.errors.CampaignInterrupted` carries a partial,
    resumable report in ``.report``.  ``telemetry`` lets a caller watch
    live progress; ``fleet`` leases the units to remote workers instead
    of running them in this process.  ``store`` is an open store handle
    to use in place of ``cfg.store_dir`` (a daemon's, shared by its
    jobs); a store this function did not open stays open.
    """
    ctx = kind.context(cfg)
    payloads, notes = kind.units(cfg, ctx)
    if telemetry is None:
        telemetry = CampaignTelemetry(
            kind.label(cfg), len(payloads), every=kind.every,
            progress=cfg.progress,
        )
    # SQLite forbids using a connection across fork(); pool workers
    # never touch the store (this process looks keys up and persists
    # results), so a forked copy of an open connection is never used.
    owned = store is None and bool(cfg.store_dir)
    if owned:
        store = ResultStore(cfg.store_dir)
    # results come back re-slotted by unit index whatever the worker
    # timing, so a fold that picks the *first* failure is deterministic
    scheduler = BatchScheduler(
        workers=cfg.workers,
        store=store,
        checkpoint_path=cfg.checkpoint,
        campaign=kind.digest(cfg),
        telemetry=telemetry,
        cancel=cancel,
        series=series,
        events=events,
        fleet=fleet,
    )
    # with a store the scheduler keeps no journal, so every unit is
    # keyed: an interrupted run resumes from its store hits
    keyed = store is not None
    units = [
        WorkUnit(i, payload, kind.unit_key(cfg, payload) if keyed else "")
        for i, payload in enumerate(payloads)
    ]

    def fold(results: List[Any], notes: List[str], partial: bool):
        return kind.fold(
            cfg, ctx, results, telemetry=telemetry, notes=notes,
            stats=dict(scheduler.last_run_stats), partial=partial,
        )

    try:
        results = scheduler.run(
            units,
            task=functools.partial(kind.run_unit, ctx),
            decode=kind.decode,
            counters=kind.counters,
        )
    except CampaignInterrupted as exc:
        exc.report = fold(
            [exc.results[i] for i in sorted(exc.results)],
            notes + [
                f"interrupted: {exc.done}/{exc.total} {kind.noun} checked"
                + (
                    f"; resumable via {scheduler.record}"
                    if scheduler.record else ""
                )
            ],
            partial=True,
        )
        raise
    finally:
        if owned:
            store.close()
    return fold(results, notes, partial=False)


@contextmanager
def _sigterm_interrupts():
    """SIGTERM raises KeyboardInterrupt inside the block, like Ctrl-C."""

    def _raise(signum, frame):
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _raise)
    except ValueError:  # not the main thread: leave signals alone
        previous = None
    try:
        yield
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def _emit(report, as_json: bool, output: Optional[str]) -> None:
    doc = report.to_json()
    if output:
        with open(output, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    print(json.dumps(doc, indent=2) if as_json else report.render_text())


def run_cli(
    kind: CampaignKind,
    cfg: Any,
    as_json: bool = False,
    output: Optional[str] = None,
) -> int:
    """Run one campaign for a CLI command; returns its exit status.

    SIGINT and SIGTERM drain the campaign: the partial report is
    printed with a hint naming the run's ``--store`` or
    ``--checkpoint`` to resume from, and the status is 130.  Otherwise
    the report is printed and the status is 0 when it is ``ok``, else
    1.  ``output`` also writes the JSON report, partial or final, to a
    file.
    """
    try:
        with _sigterm_interrupts():
            report = run_kind(kind, cfg)
    except CampaignInterrupted as exc:
        if exc.report is not None:
            _emit(exc.report, as_json, output)
        print(
            f"{kind.name}: interrupted after {exc.done}/{exc.total} "
            f"{kind.noun}"
            + (
                f"; resume with --store {cfg.store_dir}" if cfg.store_dir
                else f"; resume with --checkpoint {cfg.checkpoint}"
                if cfg.checkpoint else ""
            ),
            file=sys.stderr,
        )
        return 130
    _emit(report, as_json, output)
    return 0 if report.ok else 1
