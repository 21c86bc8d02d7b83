"""The VM compiles everything the suite and the fuzzer feed it.

:func:`repro.vm.lower` returns ``None`` for a program it cannot
compile, and the executor then silently runs the generator instead.
With the VM as the default path, a fallback would quietly hand a cell
back to the slow path (and make any VM ≡ reference comparison
vacuous), so coverage is pinned here: every evaluation app and the
first 50 generated fuzz programs lower on every runtime.
"""

from repro.core.compile import compile_app, instantiate
from repro.core.run import RUNTIMES
from repro.fuzz.gen import generate_valid_spec
from repro.fuzz.spec import spec_to_json
from repro.hw.mcu import build_machine
from tests.conftest import on_sim_path

APPS = ("uni_dma", "uni_temp", "uni_lea", "fir", "weather")


def _fallbacks(app, build_kwargs=None):
    """Runtimes whose instance of this program got no bytecode."""
    missing = []
    for runtime in RUNTIMES:
        compiled = compile_app(app, runtime, build_kwargs=build_kwargs)
        rt = instantiate(compiled, build_machine(seed=1))
        if rt._vm is None:
            missing.append(runtime)
    return missing


def test_every_app_lowers_on_every_runtime():
    with on_sim_path("vm"):
        fallbacks = {app: _fallbacks(app) for app in APPS}
    assert fallbacks == {app: [] for app in APPS}


def test_generated_programs_lower_on_every_runtime():
    with on_sim_path("vm"):
        fallbacks = {
            i: _fallbacks(
                "fuzz", {"spec": spec_to_json(generate_valid_spec(0, i))}
            )
            for i in range(50)
        }
    assert {i: m for i, m in fallbacks.items() if m} == {}
