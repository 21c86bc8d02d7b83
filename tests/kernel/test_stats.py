"""Unit tests for steps and the per-run metrics record.

The executor's per-kind step accounting is tested at the executor
(``tests/kernel/test_executor.py::TestStepAccounting``).
"""

import pytest

from repro.errors import ReproError
from repro.kernel.stats import APP, OVERHEAD, Metrics, Step


class TestStep:
    def test_valid_step(self):
        s = Step(10.0, APP, "cpu")
        assert s.duration_us == 10.0

    def test_zero_duration_allowed(self):
        Step(0.0, OVERHEAD)  # markers are free

    def test_negative_duration_rejected(self):
        with pytest.raises(ReproError):
            Step(-1.0, APP)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            Step(1.0, "misc")


def _metrics(**overrides):
    base = dict(
        runtime="easeio", app="x", completed=True,
        total_time_us=10_000.0, active_time_us=10_000.0, dark_time_us=0.0,
        app_time_us=6_000.0, overhead_time_us=1_000.0, boot_time_us=500.0,
        power_failures=1, task_commits=3,
        io_executions=5, io_reexecutions=1, io_skips=2,
        dma_executions=2, dma_reexecutions=0, dma_skips=1,
        energy_uj=42.0,
    )
    base.update(overrides)
    return Metrics(**base)


class TestMetrics:
    def test_waste_against_decomposition(self):
        m = _metrics()
        # total active 10ms = continuous 5ms + overhead 1ms + wasted 4ms
        assert m.waste_against(5_000.0) == pytest.approx(4_000.0)

    def test_waste_never_negative(self):
        m = _metrics(active_time_us=4_000.0, overhead_time_us=1_000.0)
        assert m.waste_against(5_000.0) == 0.0

    def test_as_row_is_flat(self):
        row = _metrics().as_row()
        assert row["runtime"] == "easeio"
        assert row["total_ms"] == pytest.approx(10.0)
        assert all(not isinstance(v, dict) for v in row.values())
