"""Shared test helpers: selecting the simulator's execution path.

Tests that must hold on both execution paths take the ``sim_path``
fixture (one test id per path); tests that compare the paths run each
side inside :func:`on_sim_path`.
"""

from contextlib import contextmanager

import pytest

from repro import fastpath

#: test ids per path: the VM path's id is ``fastpath`` because
#: ``repro.fastpath.enabled()`` is true on it, which also keeps the ids
#: that earlier revisions of the suite recorded
_IDS = {"vm": "fastpath", "reference": "reference"}


@contextmanager
def on_sim_path(name: str):
    """Run the body on execution path ``name``; restore the previous one.

    Switching clears every registered cache on the way in and out, so
    artifacts built on one path never serve the other.
    """
    was = fastpath.path()
    fastpath.set_path(name)
    try:
        yield
    finally:
        fastpath.set_path(was)


@pytest.fixture(
    scope="module",
    params=fastpath.PATHS,
    ids=[_IDS[p] for p in fastpath.PATHS],
)
def sim_path(request):
    """Run the module's tests once per execution path.

    Module-scoped, so each module runs all its tests on one path, then
    all on the other, switching (and dropping caches) only twice.
    """
    with on_sim_path(request.param):
        yield request.param
