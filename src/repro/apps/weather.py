"""DNN-based weather classification application (phase 2, section 5.4).

The paper's end-to-end workload (Figure 9), divided into 11 tasks:

1.  ``t_start``    — boot configuration;
2.  ``t_sense``    — a ``Single`` I/O block grouping a ``Timely``
    temperature read (10 ms freshness) with an ``Always`` humidity
    read: the two samples must be taken together, and once the pair
    has been captured the whole block never repeats;
3.  ``t_capture``  — image capture (``Single``: a successful capture
    need not be repeated), simulated as in the paper;
4.  ``t_fill``     — expands the captured luminance into the 12x12 input
    image (CPU writes into NV — protected by regional privatization
    under EaseIO);
5-9. DNN layers (conv -> ReLU -> conv -> FC -> argmax) on LEA + DMA,
    like TAILS; single- or double-buffered activations (Table 5);
10. ``t_send``     — transmit (temperature, humidity, class) once
    (``Single``);
11. ``t_done``     — teardown.

I/O functions: temp, humidity, camera, the LEA kernels, radio — five
classes (Table 3).
"""

from __future__ import annotations

from repro.apps import dnn
from repro.core.api import ProgramBuilder
from repro.ir import ast as A

RESULT_VARS = ("class_out", "sent_count", "scores", "luminance")


def build(
    buffers: str = "single",
    exclude_weights: bool = False,
    compute_cycles: int = 300,
    temp_interval_ms: float = 10.0,
) -> A.Program:
    """Build the weather classifier.

    ``buffers`` selects the activation discipline: ``"single"`` (one
    shared NV buffer, WAR through DMA — safe only under EaseIO) or
    ``"double"`` (alternating buffers, the conventional workaround).
    ``exclude_weights=True`` is the "EaseIO/Op" configuration: constant
    weight/kernel DMAs are annotated ``Exclude``.
    """
    if buffers not in ("single", "double"):
        raise ValueError(f"buffers must be 'single' or 'double', got {buffers!r}")
    b = ProgramBuilder("weather")
    b.nv("temp_val", dtype="float64")
    b.nv("hum_val", dtype="float64")
    b.nv("luminance", dtype="float64")
    b.nv("class_out", dtype="int16")
    b.nv("sent_count", dtype="int16")
    plan = dnn.declare_network(b, single_buffer=(buffers == "single"))

    with b.task("t_start") as t:
        t.compute(compute_cycles, "boot_config")
        t.transition("t_sense")

    with b.task("t_sense") as t:
        with t.io_block("Single"):
            t.call_io(
                "temp",
                semantic="Timely",
                interval_ms=temp_interval_ms,
                out="temp_val",
            )
            t.call_io("humidity", semantic="Always", out="hum_val")
        t.compute(3 * compute_cycles, "calibrate_readings")
        t.transition("t_capture")

    with b.task("t_capture") as t:
        t.call_io("camera", semantic="Single", out="luminance")
        # crop/normalize the captured frame: work a successful capture
        # never repeats under EaseIO, but baselines redo camera + this
        t.compute(12 * compute_cycles, "demosaic_crop")
        t.transition("t_fill")

    with b.task("t_fill") as t:
        # expand the luminance into a deterministic 12x12 test card
        with t.loop("i", dnn.IMG * dnn.IMG):
            t.assign(
                t.at("act_a", t.v("i")),
                (t.v("luminance") + t.v("i") * 3) % 97 - 48,
            )
        t.transition("t_conv1")

    dnn.conv_task(
        b, "t_conv1", "t_relu", plan,
        layer_index=0, side=dnn.IMG, ksize=dnn.K1, kernel="k1",
        exclude_weights=exclude_weights,
    )
    dnn.relu_task(
        b, "t_relu", "t_conv2", plan,
        layer_index=1, count=dnn.C1_OUT * dnn.C1_OUT,
    )
    dnn.conv_task(
        b, "t_conv2", "t_fc", plan,
        layer_index=2, side=dnn.C1_OUT, ksize=dnn.K2, kernel="k2",
        exclude_weights=exclude_weights,
    )
    dnn.fc_task(
        b, "t_fc", "t_infer", plan,
        layer_index=3, exclude_weights=exclude_weights,
    )
    dnn.infer_task(b, "t_infer", "t_send")

    with b.task("t_send") as t:
        t.call_io(
            "radio",
            semantic="Single",
            args=[t.v("temp_val"), t.v("hum_val"), t.v("class_out")],
        )
        t.compute(4 * compute_cycles, "link_log_update")
        t.assign("sent_count", t.v("sent_count") + 1)
        t.transition("t_done")

    with b.task("t_done") as t:
        t.compute(compute_cycles, "teardown")
        t.halt()

    return b.build()


# ---------------------------------------------------------------------------
# Golden model for the correctness metric
# ---------------------------------------------------------------------------

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# the network's constants, as dnn.declare_network installs them
_K1 = np.array([1, 0, -1, 2, 0, -2, 1, 0, -1], dtype=np.int16).reshape(3, 3)
_K2 = np.array([0, 1, 0, 1, -4, 1, 0, 1, 0], dtype=np.int16).reshape(3, 3)
_FC_W = np.array(
    [((i * 7 + 3) % 11) - 5 for i in range(dnn.CLASSES * dnn.FLAT)],
    dtype=np.int32,
).reshape(dnn.CLASSES, dnn.FLAT)
_OFFSETS = np.arange(dnn.IMG * dnn.IMG) * 3


def fill_image(luminance: float) -> "np.ndarray":
    """The t_fill expansion, replicated with the interpreter's casts."""
    return ((luminance + _OFFSETS) % 97 - 48).astype(np.int16)


def _conv(image: "np.ndarray", kernel: "np.ndarray") -> "np.ndarray":
    """Valid convolution: int32 accumulate, truncating int16 store."""
    windows = sliding_window_view(image, kernel.shape)
    acc = np.einsum("rcij,ij->rc", windows, kernel, dtype=np.int32)
    return acc.astype(np.int16)


def golden_inference(luminance: float) -> "dict":
    """Reference DNN output for a captured luminance.

    Replicates the five layers in numpy with the LEA's fixed-point
    behaviour (int32 accumulate, truncating int16 stores), so a
    finished run's ``scores``/``class_out`` can be checked against
    whatever scene the camera actually sampled — the paper's
    "execution correctness" metric is about memory consistency, not
    about two runs seeing identical environments.  It shares no code
    with :mod:`repro.hw.lea`, the model it checks.
    """
    x = fill_image(luminance).reshape(dnn.IMG, dnn.IMG)
    x = np.maximum(_conv(x, _K1), 0)     # conv -> relu, 10x10
    x = _conv(x, _K2)                    # 8x8
    scores = _FC_W @ x.reshape(-1).astype(np.int32)
    return {"scores": scores, "class_out": int(np.argmax(scores))}


def check_consistency(state: "dict") -> bool:
    """Whether a finished run's NV state is internally consistent.

    ``state`` is the :data:`RESULT_VARS` snapshot.  Consistent means:
    the stored scores and class are exactly what the DNN computes for
    the stored luminance, and the result was transmitted once.
    """
    golden = golden_inference(float(state["luminance"]))
    return (
        int(state["sent_count"]) == 1
        and int(state["class_out"]) == golden["class_out"]
        and np.array_equal(np.asarray(state["scores"], dtype=np.int32),
                           golden["scores"])
    )
