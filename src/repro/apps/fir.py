"""FIR filter application (phase 2, section 5.4).

The paper's correctness workload: "three DMA and one LEA operation
[...] The input and output of the application use the same buffer in
the non-volatile memory" — a deliberate write-after-read hazard through
DMA.  Inside one task:

1. DMA ``signal -> lea_in``   (NV -> volatile: ``Private`` at run time);
2. DMA ``coeffs -> lea_coef`` (NV -> volatile: ``Private``; the
   coefficients are constants, so the ``EaseIO/Op`` configuration
   annotates this copy ``Exclude``);
3. four windowed ``lea.fir`` calls in a loop (``Always``);
4. DMA ``lea_out -> signal``  (volatile -> NV: ``Single``) — this
   overwrites the *input* of step 1.

A power failure after step 4 re-executes the task.  Alpaca and InK
re-run step 1 against the already-filtered signal and double-filter it
(the Figure 12 incorrect executions).  EaseIO's ``Private`` copy of the
original signal and the ``Single`` skip of step 4 keep the result
correct under any failure placement.

Structure (5 tasks, 2 I/O functions — Table 3).
"""

from __future__ import annotations

from repro.core.api import ProgramBuilder
from repro.ir import ast as A

RESULT_VARS = ("signal", "checksum")

#: geometry shared by builder and tests
SIGNAL_LEN = 256
TAPS = 16
CHUNKS = 4
CHUNK_OUT = 60  # outputs per windowed LEA call
N_OUT = CHUNKS * CHUNK_OUT  # 240 filtered samples


def build(
    exclude_coeffs: bool = False,
    compute_cycles: int = 300,
    probe_words: int = 8,
) -> A.Program:
    """Build the FIR application.

    ``exclude_coeffs=True`` is the "EaseIO/Op" configuration: the
    constant-coefficient DMA is annotated ``Exclude`` so it skips the
    privatization process (section 4.3; only affects the EaseIO
    runtime — baselines ignore annotations).
    """
    b = ProgramBuilder("fir")
    b.nv_array(
        "signal",
        SIGNAL_LEN,
        init=[round(40 * ((i % 17) / 8.0 - 1.0)) for i in range(SIGNAL_LEN)],
    )
    b.nv_array("coeffs", TAPS, init=[((i * 3) % 9) - 4 for i in range(TAPS)])
    b.nv_array("probe", probe_words)
    b.nv("checksum", dtype="int32")
    b.lea_array("lea_in", SIGNAL_LEN)
    b.lea_array("lea_coef", TAPS)
    b.lea_array("lea_out", N_OUT)

    with b.task("t_init") as t:
        t.compute(compute_cycles, "configure")
        t.transition("t_filter")

    with b.task("t_filter") as t:
        # 1) input samples into LEA-RAM (NV -> V: Private)
        t.dma_copy("signal", "lea_in", SIGNAL_LEN * 2)
        # 2) filter coefficients (constant source: Exclude in /Op mode)
        t.dma_copy("coeffs", "lea_coef", TAPS * 2, exclude=exclude_coeffs)
        # 3) four windowed accelerator calls complete the filter
        for c in range(CHUNKS):
            t.call_io(
                "lea.fir",
                semantic="Always",
                samples="lea_in",
                samples_off=c * CHUNK_OUT,
                samples_len=CHUNK_OUT + TAPS - 1,
                coeffs="lea_coef",
                output="lea_out",
                output_off=c * CHUNK_OUT,
                output_len=CHUNK_OUT,
                n_out=CHUNK_OUT,
            )
        # 4) results overwrite the input buffer (V -> NV: Single) — WAR!
        t.dma_copy("lea_out", "signal", N_OUT * 2)
        # gain normalization after the write-back: this tail is the
        # window in which a power failure exposes the WAR hazard (the
        # write-back has landed, the task has not committed)
        t.compute(6 * compute_cycles, "normalize")
        t.transition("t_reduce")

    with b.task("t_reduce") as t:
        t.dma_copy("signal", "probe", probe_words * 2)
        t.transition("t_sum")

    with b.task("t_sum") as t:
        t.local("acc", dtype="int32")
        t.assign("acc", 0)
        with t.loop("i", probe_words):
            t.assign("acc", t.v("acc") + t.at("probe", t.v("i")))
        t.assign("checksum", t.v("acc"))
        t.transition("t_notify")

    with b.task("t_notify") as t:
        t.call_io(
            "radio",
            semantic="Single",
            args=[t.v("checksum")],
        )
        # post-send bookkeeping: ack bookkeeping + schedule update.  A
        # brown-out in this tail is where Single send semantics pay off:
        # EaseIO resumes without re-transmitting.
        t.compute(18 * compute_cycles, "link_log_update")
        t.halt()

    return b.build()


# ---------------------------------------------------------------------------
# Golden model for the correctness metric (Figure 12)
# ---------------------------------------------------------------------------

import functools

import numpy as np


def initial_signal() -> "np.ndarray":
    """The deterministic input waveform the builder installs."""
    return np.array(
        [round(40 * ((i % 17) / 8.0 - 1.0)) for i in range(SIGNAL_LEN)],
        dtype=np.int16,
    )


@functools.lru_cache(maxsize=None)
def golden_filtered_signal() -> "np.ndarray":
    """The signal buffer after exactly one filter pass.

    Samples ``[0, N_OUT)`` hold the FIR output (int32 accumulate,
    truncating int16 store, like the LEA); the tail keeps the original
    waveform.  Computed once and returned read-only for every caller.
    """
    sig = initial_signal()
    coeffs = np.array([((i * 3) % 9) - 4 for i in range(TAPS)], dtype=np.int16)
    out = sig.copy()
    # y[i] = sum_j h[j] x[i + j], int32 accumulate, truncating store:
    valid = np.array(
        [np.dot(sig[i : i + TAPS].astype(np.int64), coeffs.astype(np.int64))
         for i in range(N_OUT)],
        dtype=np.int64,
    )
    out[:N_OUT] = valid.astype(np.int16)
    out.setflags(write=False)
    return out


def check_consistency(state: "dict") -> bool:
    """Whether a finished run filtered the signal exactly once.

    The classic failure mode (baselines, Figure 12) is double
    filtering: a power failure after the write-back re-runs the input
    DMA against already-filtered data.
    """
    golden = golden_filtered_signal()
    signal = np.asarray(state["signal"], dtype=np.int16)
    if not np.array_equal(signal, golden):
        return False
    return int(state["checksum"]) == int(np.sum(golden[:8], dtype=np.int64))
