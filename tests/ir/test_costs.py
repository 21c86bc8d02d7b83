"""Unit tests for the cost model and its static driver, the estimator."""

import pytest

from repro.apps import APPS
from repro.core.api import ProgramBuilder
from repro.core.run import RUNTIMES, build_runtime, run_app
from repro.fuzz.gen import generate_valid_spec
from repro.fuzz.spec import build_program
from repro.hw.mcu import CostModel
from repro.ir import ast as A
from repro.ir.costs import CostEstimator, power_table
from repro.kernel.executor import IntermittentExecutor
from repro.kernel.power import NoFailures
from repro.kernel.stats import APP, IO


def _program(body_fn, decls_fn=None):
    b = ProgramBuilder("p")
    if decls_fn:
        decls_fn(b)
    with b.task("t") as t:
        body_fn(t)
        t.halt()
    return b.build()


def _added_us(body_fn, decls_fn=None, cost=None):
    """Estimated duration ``body_fn``'s statements add to a task."""
    def task_us(fn):
        estimator = CostEstimator(_program(fn, decls_fn), cost)
        return estimator.task_cost("t").duration_us
    return task_us(body_fn) - task_us(lambda t: None)


def _shadowed_loop():
    """A 10-iteration loop whose variable shares a declared NV name."""
    b = ProgramBuilder("shadowed_loop")
    b.nv("i")
    b.nv("x")
    with b.task("t") as t:
        with t.loop("i", 10):
            t.assign("x", t.v("x") + t.v("i"))
        t.halt()
    return b.build()


class TestBasicCosts:
    def test_compute_scales_linearly(self):
        small = _program(lambda t: t.compute(100))
        large = _program(lambda t: t.compute(1000))
        cs = CostEstimator(small).task_cost("t")
        cl = CostEstimator(large).task_cost("t")
        assert cl.duration_us - cs.duration_us == pytest.approx(900.0)

    def test_io_duration_counted_separately(self):
        def decls(b):
            b.nv("v", dtype="float64")

        added = _added_us(
            lambda t: (t.compute(100), t.call_io("temp", out="v")), decls
        )
        assert added - _added_us(lambda t: t.compute(100), decls) == (
            pytest.approx(600.0)  # temp sensor
        )

    def test_dma_cost_formula(self):
        cost = CostModel()
        added = _added_us(
            lambda t: t.dma_copy("a", "b", 64),
            lambda b: (b.nv_array("a", 32), b.nv_array("b", 32)),
            cost,
        )
        assert added == pytest.approx(cost.dma_setup_us + 32 * cost.dma_per_word_us)

    def test_radio_payload_scales_duration(self):
        short = _program(lambda t: t.call_io("radio", args=[1]))
        long = _program(lambda t: t.call_io("radio", args=[1, 2, 3]))
        cs = CostEstimator(short).task_cost("t")
        cl = CostEstimator(long).task_cost("t")
        assert cl.duration_us > cs.duration_us

    def test_lea_cost_uses_mac_counts(self):
        cost = CostModel()
        added = _added_us(
            lambda t: t.call_io(
                "lea.fc", weights="w", inputs="x", output="y",
                n_out=4, n_in=8,
            ),
            lambda b: (
                b.lea_array("w", 32), b.lea_array("x", 8), b.lea_array("y", 4)
            ),
            cost,
        )
        assert added == pytest.approx(
            cost.lea_setup_us + 32 * cost.lea_per_mac_us
        )

    def test_nv_store_draws_fram_power(self):
        cost = CostModel()
        prog = _program(lambda t: t.assign("x", 1), lambda b: b.nv("x"))
        tc = CostEstimator(prog, cost).task_cost("t")
        store_us = cost.assign_us + cost.read_nv_us
        assert tc.duration_us == pytest.approx(store_us + cost.commit_base_us)
        assert tc.energy_uj == pytest.approx(
            (store_us + cost.commit_base_us) * cost.power_fram_mw * 1e-3
        )


class TestControlFlow:
    def test_branch_takes_worst_arm(self):
        prog = _program(
            lambda t: _branchy(t),
            lambda b: b.nv("x"),
        )
        tc = CostEstimator(prog).task_cost("t")
        # the expensive arm is 5000 cycles
        assert tc.duration_us > 5000.0

    def test_loop_multiplies(self):
        def body(t):
            with t.loop("i", 10):
                t.compute(100)

        tc = CostEstimator(_program(body)).task_cost("t")
        assert tc.duration_us >= 1000.0

    def test_block_costs_members(self):
        def body(t):
            with t.io_block("Single"):
                t.call_io("temp", out="v")

        added = _added_us(body, lambda b: b.nv("v", dtype="float64"))
        assert added == pytest.approx(600.0)

    def test_loop_variable_sharing_a_declared_name_is_free(self):
        cost = CostModel()
        tc = CostEstimator(_shadowed_loop(), cost).task_cost("t")
        # per iteration: bookkeeping, the store, the read and write of x
        per_iter = cost.loop_iter_us + cost.assign_us + 2 * cost.read_nv_us
        assert tc.duration_us == 10 * per_iter + cost.commit_base_us


def _branchy(t):
    with t.if_(t.v("x") < 0):
        t.compute(100)
    with t.else_():
        t.compute(5000)


# -- the estimator charges what the simulator charges ----------------------


def _short_dear_arm():
    """A branch whose shorter arm (a radio send, taken) draws more."""
    b = ProgramBuilder("short_dear_arm")
    b.nv("x", init=-1)
    with b.task("t") as t:
        with t.if_(t.v("x") < 0):
            t.call_io("radio", args=[1])
        with t.else_():
            t.compute(3000)
        t.halt()
    return b.build()


def _property_inputs(name):
    if name in APPS:
        return [APPS[name].build()]
    if name == "fuzz":
        return [build_program(generate_valid_spec(0, i)) for i in range(50)]
    if name == "shadowed_loop":
        return [_shadowed_loop()]
    return [_short_dear_arm()]


def _charged_per_instance(program, runtime):
    """{(seq, task): (time, energy)} of APP+IO steps in a continuous run."""
    rt = build_runtime(program, runtime, trace_events=False)
    power = power_table(rt.machine.cost, rt.machine.peripherals)
    seq = rt.env.cell("__task_seq")
    charged = {}

    def observe(now, step):
        # called before the step is charged, after the previous
        # step's effects: the cursor names the step's task instance
        if step.kind in (APP, IO):
            key = (int(seq.get()), rt.current_task_name())
            d, e = charged.get(key, (0.0, 0.0))
            charged[key] = (
                d + step.duration_us,
                e + step.duration_us * power[step.category] * 1e-3,
            )

    assert IntermittentExecutor(step_observer=observe).run(rt).completed
    return charged


@pytest.mark.parametrize(
    "name",
    [
        "fir", "uni_dma", "uni_lea", "uni_temp", "weather",
        "fuzz", "shadowed_loop", "short_dear_arm",
    ],
)
def test_estimate_is_what_a_continuous_run_charges(name):
    """Per task instance, on every runtime: the APP+IO work a continuous
    run charges is at most the estimate, and without branches it is
    exactly the estimate minus the task's commit."""
    cost = CostModel()
    commit_us = cost.commit_base_us
    commit_uj = commit_us * cost.power_fram_mw * 1e-3
    for program in _property_inputs(name):
        estimator = CostEstimator(program, cost)
        for runtime in RUNTIMES:
            charged = _charged_per_instance(program, runtime)
            assert charged
            for (_seq, task), (d, e) in charged.items():
                tc = estimator.task_cost(task)
                where = (program.name, runtime, task)
                assert d <= tc.duration_us * (1 + 1e-9), where
                assert e <= tc.energy_uj * (1 + 1e-9), where
                if any(isinstance(s, A.If) for s in program.task(task).walk()):
                    continue
                exact = pytest.approx(tc.duration_us - commit_us, rel=1e-9)
                assert d == exact, where
                exact = pytest.approx(tc.energy_uj - commit_uj, rel=1e-9)
                assert e == exact, where


#: continuous-run charges (NoFailures, seed 1): app_time_us,
#: overhead_time_us, boot_time_us, energy_uj.  Both execution paths
#: price through one cost model, so the path-equivalence matrices
#: cannot see a pricing change; this pin can.
PINNED_CHARGES = {
    ("fir", "alpaca"): (15590.0, 150.0, 700.0, 46.41160000000001),
    ("fir", "easeio"): (15590.0, 986.0, 700.0, 47.7364),
    ("fir", "ink"): (15590.0, 294.0, 700.0, 46.67080000000001),
    ("fir", "samoyed"): (15590.0, 62150.0, 700.0, 158.01160000000004),
    ("uni_dma", "alpaca"): (35913.0, 378.0, 700.0, 51.841800000000006),
    ("uni_dma", "easeio"): (35913.0, 801.0, 700.0, 52.63560000000001),
    ("uni_dma", "ink"): (35913.0, 630.0, 700.0, 52.32780000000001),
    ("uni_dma", "samoyed"): (35913.0, 1470.0, 700.0, 53.83980000000001),
    ("uni_lea", "alpaca"): (9783.0, 378.0, 700.0, 19.9116),
    ("uni_lea", "easeio"): (9783.0, 1956.0, 700.0, 22.455),
    ("uni_lea", "ink"): (9783.0, 630.0, 700.0, 20.3976),
    ("uni_lea", "samoyed"): (9783.0, 68532.0, 700.0, 142.62120000000007),
    ("uni_temp", "alpaca"): (11178.0, 90.0, 700.0, 17.089200000000005),
    ("uni_temp", "easeio"): (11178.0, 1765.0, 700.0, 19.902600000000003),
    ("uni_temp", "ink"): (11178.0, 1302.0, 700.0, 19.270800000000005),
    ("uni_temp", "samoyed"): (11178.0, 394.0, 700.0, 17.636400000000005),
    ("weather", "alpaca"): (27135.0, 342.0, 700.0, 99.81819999999993),
    ("weather", "easeio"): (27135.0, 3472.0, 700.0, 104.96319999999994),
    ("weather", "ink"): (27135.0, 2436.0, 700.0, 103.59099999999994),
    ("weather", "samoyed"): (27135.0, 142366.0, 700.0, 355.4649999999997),
}


@pytest.mark.usefixtures("sim_path")
@pytest.mark.parametrize(
    "app,runtime",
    sorted(PINNED_CHARGES),
    ids=[f"{app}-{rt}" for app, rt in sorted(PINNED_CHARGES)],
)
def test_continuous_run_charges_are_pinned(app, runtime):
    m = run_app(app, runtime, failure_model=NoFailures(), seed=1).metrics
    charged = (m.app_time_us, m.overhead_time_us, m.boot_time_us, m.energy_uj)
    assert charged == PINNED_CHARGES[(app, runtime)]
