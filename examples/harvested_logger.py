"""A batteryless environmental logger on a real harvesting budget.

The motivating deployment of the paper's introduction: a sensor node
with no battery, powered entirely by an RF transmitter across the room,
buffering harvested energy in a small capacitor.  The application
samples temperature and humidity together (an atomic ``Single`` I/O
block with a ``Timely`` member), folds them into a running summary, and
uplinks once per round.

We sweep the transmitter distance with the Figure 13 RF link as an
energy environment (``rf:`` spec, 12 uF buffer starting at the turn-on
threshold).  Close up, the harvest sustains the load and nothing ever
fails.  Further away the capacitor duty-cycles: the node browns out
mid-round, sleeps dark until recharged, and resumes from its committed
task — re-executing only the I/O whose semantics demand it.  Compare
EaseIO's wall-clock against Alpaca's as the distance grows (the
Figure 13 effect).

Run:  python examples/harvested_logger.py
"""

from repro.core import ProgramBuilder, run_program
from repro.core.run import nv_state
from repro.env import parse_env
from repro.errors import NonTermination

ROUNDS = 2


def build_logger():
    b = ProgramBuilder("field_logger")
    b.nv("round", dtype="int16")
    b.nv("temp_sum_x10", dtype="int32")
    b.nv("hum_sum_x10", dtype="int32")
    b.nv("uplinks", dtype="int16")
    b.nv("t_now", dtype="float64")
    b.nv("h_now", dtype="float64")

    with b.task("sample") as t:
        # temperature and humidity must be taken together; re-sampling
        # is needed only if the pair is older than 15 ms
        with t.io_block("Single"):
            t.call_io("temp", semantic="Timely", interval_ms=15, out="t_now")
            t.call_io("humidity", semantic="Always", out="h_now")
        t.compute(1200, "calibrate")
        t.transition("fold")

    with b.task("fold") as t:
        t.assign("temp_sum_x10", t.v("temp_sum_x10") + t.v("t_now") * 10)
        t.assign("hum_sum_x10", t.v("hum_sum_x10") + t.v("h_now") * 10)
        t.compute(900, "summary_stats")
        t.transition("uplink")

    with b.task("uplink") as t:
        # two-packet uplink: a header and the payload, each sent once.
        # Together they exceed one capacitor charge at long range, so a
        # runtime that re-transmits completed packets keeps browning
        # out, while semantic-aware skipping makes forward progress
        # packet by packet (the liveness argument of section 3.5).
        t.call_io("radio", semantic="Single", args=[t.v("round")])
        t.call_io(
            "radio", semantic="Single",
            args=[t.v("round"), t.v("t_now"), t.v("h_now")],
        )
        t.compute(2200, "link_bookkeeping")
        t.assign("uplinks", t.v("uplinks") + 1)
        t.assign("round", t.v("round") + 1)
        with t.if_(t.v("round") < ROUNDS):
            t.transition("sample")
        with t.else_():
            t.halt()

    return b.build()


def main():
    print(f"{'distance':>8s} {'harvest':>8s} "
          f"{'alpaca wall':>12s} {'easeio wall':>12s} "
          f"{'alpaca fails':>12s} {'easeio fails':>12s} {'uplinks':>8s}")
    print("-" * 80)
    for distance in (30.0, 52.0, 58.0, 64.0):
        spec = f"rf:distance_inch={distance:g},seed=3,cap_uf=12,start_v=2.8"
        cells = {}
        for runtime in ("alpaca", "easeio"):
            try:
                result = run_program(
                    build_logger(),
                    runtime=runtime,
                    failure_model=parse_env(spec),
                    seed=5,
                    nontermination_limit=300,
                )
                cells[runtime] = (
                    f"{result.metrics.total_time_us/1000:10.2f}ms",
                    f"{result.metrics.power_failures:12d}",
                    result,
                )
            except NonTermination:
                # the uplink's energy cost exceeds one charge cycle and
                # every attempt re-pays the full I/O bill: a livelock
                cells[runtime] = ("  livelock".rjust(12), "> 300".rjust(12), None)
        harvest_mw = parse_env(spec).source.mean_power_mw()
        done = cells["easeio"][2]
        uplinks = int(nv_state(done, ("uplinks",))["uplinks"]) if done else 0
        print(
            f"{distance:6.0f}in {harvest_mw:6.2f}mW "
            f"{cells['alpaca'][0]} {cells['easeio'][0]} "
            f"{cells['alpaca'][1]} {cells['easeio'][1]} "
            f"{uplinks:8d}"
        )
    print()
    print("Close to the transmitter both runtimes cruise.  With distance the")
    print("two-packet uplink outgrows one capacitor charge: a runtime that")
    print("re-transmits completed packets stalls, finishing only when fading")
    print("briefly lifts the harvest (or never), while EaseIO lands one")
    print("packet per energy cycle and completes.")


if __name__ == "__main__":
    main()
