"""Every kind's store keys equal the per-unit construction.

A campaign keys all its units in one call, and ``check`` hashes the
fields its schedules share once.  A key that moved would orphan every
entry already stored, so each kind's keys are compared here with
:func:`repro.serve.store.unit_key` built field by field for one unit
at a time, and a store filled under those keys must serve a campaign
nothing but hits.
"""

import pytest

from repro.check.campaign import CHECK, CampaignConfig, run_campaign, run_unit
from repro.core.compile import _options_key
from repro.env.spec import describe_env
from repro.env.sweep import SWEEP
from repro.fuzz.harness import FUZZ, resolve_fuzz_env
from repro.ir.transform import TransformOptions
from repro.serve.store import ResultStore, program_digest, unit_key

APPS = ("fir", "uni_dma", "uni_lea", "uni_temp", "weather")
RUNTIMES = ("alpaca", "ink", "samoyed", "easeio")
#: exhaustive on the ideal supply, exhaustive under an environment, and
#: random multi-reset schedules
VARIANTS = {
    "exhaustive": {},
    "env": {"env": "markov:seed=1,cap_uf=2.2"},
    "random": {"mode": "random", "runs": 40, "seed": 1},
}


def check_key(cfg, schedule):
    """One schedule's key, as check built it one unit at a time."""
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


def _assert_check_keys(cfg):
    schedules = CHECK.units(cfg, CHECK.context(cfg))[0]
    assert schedules
    assert CHECK.unit_keys(cfg, schedules) == [
        check_key(cfg, s) for s in schedules
    ]


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("runtime", RUNTIMES)
def test_check_keys_equal_the_per_unit_construction(app, runtime):
    for variant in VARIANTS.values():
        _assert_check_keys(
            CampaignConfig(app=app, runtime=runtime, **variant)
        )


def test_check_keys_cover_build_kwargs_and_transform_options():
    _assert_check_keys(CampaignConfig(
        app="fir", runtime="easeio", build_kwargs={"exclude_coeffs": True},
    ))
    _assert_check_keys(CampaignConfig(
        app="uni_temp", runtime="easeio",
        transform_options=TransformOptions(regional_privatization=False),
    ))


def test_fuzz_keys_equal_the_per_unit_construction():
    cfg = FUZZ.decode_config({
        "runs": 6, "seed": 4, "runtimes": ["easeio", "alpaca"],
        "envs": ["random"],
    })
    indices = FUZZ.units(cfg, FUZZ.context(cfg))[0]
    assert FUZZ.unit_keys(cfg, indices) == [
        unit_key(
            "fuzz-unit",
            seed=cfg.seed,
            index=i,
            runtimes=list(cfg.runtimes),
            limit=cfg.limit,
            env_seed=cfg.env_seed,
            env=describe_env(resolve_fuzz_env(cfg, i)),
        )
        for i in indices
    ]


def test_sweep_keys_equal_the_per_unit_construction():
    cfg = SWEEP.decode_config({
        "count": 3, "seed": 1, "apps": ["uni_temp", "fir"],
        "runtimes": ["easeio", "ink"],
    })
    payloads = SWEEP.units(cfg, SWEEP.context(cfg))[0]
    assert SWEEP.unit_keys(cfg, payloads) == [
        unit_key(
            "env-unit",
            program=program_digest(app, {}),
            runtime=runtime,
            env=describe_env(spec),
            env_seed=cfg.env_seed,
            nontermination_limit=cfg.nontermination_limit,
            verify_replay=cfg.verify_replay,
        )
        for spec, app, runtime in payloads
    ]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_a_store_keyed_per_unit_serves_every_unit(variant, tmp_path):
    store_dir = str(tmp_path / "store")
    cfg = CampaignConfig(
        app="uni_temp", runtime="alpaca", shrink=False, **VARIANTS[variant]
    )
    ctx = CHECK.context(cfg)
    store = ResultStore(store_dir)
    schedules = CHECK.units(cfg, ctx)[0]
    for schedule in schedules:
        store.put(check_key(cfg, schedule), run_unit(ctx, schedule))
    store.close()

    cfg.store_dir = store_dir
    counters = run_campaign(cfg).telemetry["counters"]
    assert counters.get("serve.store_hits") == len(schedules)
    assert "serve.executed" not in counters

