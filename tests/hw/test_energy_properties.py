"""Property tests: the capacitor's charge/discharge invariants.

The energy environment (``repro.env``) trusts the capacitor to behave
like a physical buffer under *any* interleaving of charge and
discharge: voltage bounded by ``[v_off, v_max]`` once operations
start, brown-out reported exactly when the floor is hit, charging
saturating instead of overshooting.  These tests drive random
operation sequences through a capacitor and check those bounds after
every step — the same invariants the environment's failure timing is
derived from.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.energy import Capacitor, power_time_to_energy_uj

# a small, env-scale buffer: µF range, ms-scale time constants
caps = st.builds(
    Capacitor,
    capacitance_f=st.sampled_from((1e-6, 2.2e-6, 4.7e-6, 1e-5)),
)

#: one step of the random walk: (kind, power_mw, duration_us)
ops = st.tuples(
    st.sampled_from(("charge", "discharge")),
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=50_000.0, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(cap=caps, walk=st.lists(ops, max_size=30))
def test_voltage_stays_inside_the_operating_envelope(cap, walk):
    for kind, power_mw, duration_us in walk:
        if kind == "charge":
            cap.charge(power_mw, duration_us)
        else:
            cap.discharge(power_time_to_energy_uj(power_mw, duration_us))
        # voltage->energy->voltage round-trips may lose one ULP, so the
        # floor holds to 1e-9 V, not exactly
        assert cap.v_off - 1e-9 <= cap.voltage <= cap.v_max + 1e-12
        assert cap.stored_uj >= 0.0


@settings(max_examples=200, deadline=None)
@given(cap=caps, energy=st.floats(min_value=0.0, max_value=500.0))
def test_discharge_reports_brownout_iff_floor_reached(cap, energy):
    survived = cap.discharge(energy)
    if survived:
        assert cap.voltage > cap.v_off
        # the drained energy really left the buffer
        assert math.isclose(
            cap.stored_uj,
            cap._energy_at(cap.v_max) - energy,
            rel_tol=1e-9, abs_tol=1e-9,
        )
    else:
        # brown-out leaves the capacitor exactly at the off-threshold
        assert cap.voltage == cap.v_off


@settings(max_examples=200, deadline=None)
@given(
    cap=caps,
    power_mw=st.floats(min_value=0.0, max_value=20.0),
    duration_us=st.floats(min_value=0.0, max_value=100_000.0),
)
def test_charge_saturates_at_v_max(cap, power_mw, duration_us):
    cap.discharge(cap.usable_uj / 2.0)
    before = cap.stored_uj
    cap.charge(power_mw, duration_us)
    gained = cap.stored_uj - before
    offered = power_time_to_energy_uj(power_mw, duration_us)
    assert cap.voltage <= cap.v_max + 1e-12
    # monotone, never creates energy
    assert -1e-9 <= gained <= offered + 1e-9
