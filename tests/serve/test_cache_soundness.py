"""The store's cache-soundness contract, pinned across the full matrix.

For every evaluation app x runtime — on the VM path and the
reference path — a campaign run three ways must be indistinguishable:

* **storeless** — plain simulation, no store configured;
* **cold store** — same campaign with an empty store (every unit is a
  miss, simulated, then written);
* **warm store** — same campaign again: every unit is a hit and no
  simulation runs.

Cached and freshly-simulated verdicts must be identical, bit for bit,
modulo wall-clock fields.  This is the contract that makes it safe for
``repro serve`` to short-circuit simulation with store reads.
"""

import pytest

from repro.apps import APPS
from repro.check import CampaignConfig, run_campaign

RUNTIMES = ("alpaca", "ink", "samoyed", "easeio")
LIMIT = 4  # boundaries per campaign: keeps the full matrix affordable

pytestmark = pytest.mark.usefixtures("sim_path")


def _config(app, runtime, store_dir=None):
    return CampaignConfig(
        app=app, runtime=runtime, mode="exhaustive", limit=LIMIT,
        workers=1, shrink=False, store_dir=store_dir,
    )


def _comparable(report):
    doc = report.to_json()
    doc.pop("elapsed_s")
    doc.pop("telemetry")
    # config legitimately differs in store_dir between the three runs
    doc["config"] = {
        k: v for k, v in doc["config"].items()
        if k not in ("store_dir", "checkpoint")
    }
    return doc


@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("runtime", RUNTIMES)
def test_cached_verdicts_identical_to_fresh(app, runtime, tmp_path):
    store_dir = str(tmp_path / "store")

    storeless = run_campaign(_config(app, runtime))
    cold = run_campaign(_config(app, runtime, store_dir=store_dir))
    warm = run_campaign(_config(app, runtime, store_dir=store_dir))

    assert _comparable(cold) == _comparable(storeless)
    assert _comparable(warm) == _comparable(storeless)

    cold_counters = cold.telemetry["counters"]
    warm_counters = warm.telemetry["counters"]
    n = storeless.n_runs
    assert cold_counters.get("serve.executed", 0) == n
    assert cold_counters.get("serve.store_hits", 0) == 0
    # the warm run never simulates: 100% (>= the 90% bar) store hits
    assert warm_counters.get("serve.store_hits", 0) == n
    assert warm_counters.get("serve.executed", 0) == 0


ENVS = (
    "markov:on_mw=8,mean_on_ms=10,mean_off_ms=30,tail=1.5,seed=11,cap_uf=2.2",
    "bursty:seed=5,cap_uf=1.0",
)


def _env_config(app, runtime, env, store_dir=None):
    return CampaignConfig(
        app=app, runtime=runtime, mode="exhaustive", limit=LIMIT,
        workers=1, shrink=False, store_dir=store_dir, env=env,
    )


@pytest.mark.parametrize("env", ENVS, ids=("markov", "bursty"))
@pytest.mark.parametrize("runtime", ("easeio", "samoyed"))
def test_env_campaigns_cache_soundly(env, runtime, tmp_path):
    """The environment axis keys the cache like any other config knob.

    Energy-coupled campaigns must satisfy the same contract — cached ==
    cold == storeless — *and* two campaigns differing only in their
    environment must never share cache entries (a hit for one would be
    a silently wrong verdict for the other).
    """
    app = "uni_temp"
    store_dir = str(tmp_path / "store")

    storeless = run_campaign(_env_config(app, runtime, env))
    cold = run_campaign(_env_config(app, runtime, env, store_dir=store_dir))
    warm = run_campaign(_env_config(app, runtime, env, store_dir=store_dir))

    assert _comparable(cold) == _comparable(storeless)
    assert _comparable(warm) == _comparable(storeless)
    n = storeless.n_runs
    assert warm.telemetry["counters"].get("serve.store_hits", 0) == n
    assert warm.telemetry["counters"].get("serve.executed", 0) == 0

    # same store, different environment: zero hits, full re-simulation
    other = next(e for e in ENVS if e != env)
    cross = run_campaign(
        _env_config(app, runtime, other, store_dir=store_dir)
    )
    assert cross.telemetry["counters"].get("serve.store_hits", 0) == 0
    assert cross.telemetry["counters"].get("serve.executed", 0) == (
        cross.n_runs
    )

    # and a store-free env campaign differs from the env-free baseline
    # only through the environment itself, never through the cache
    assert _comparable(cross) == _comparable(
        run_campaign(_env_config(app, runtime, other))
    )
