"""Tiny DNN layer builders used by the weather classifier.

The paper's classifier (section 5.4.1) has five layers — convolution,
ReLU, convolution, fully-connected, inference — each implemented TAILS-
style: DMA the layer input from non-volatile memory into LEA-RAM, run
the accelerator kernel, DMA the activation back out.

Two buffering disciplines are supported (Table 5):

``double``
    each layer reads one NV activation buffer and writes the other —
    the conventional WAR-free pattern intermittent DNN frameworks
    require programmers to use;
``single``
    every layer reads and writes the *same* NV buffer.  That creates a
    DMA write-after-read hazard inside each layer task: only EaseIO's
    ``Private`` input snapshot keeps re-executions correct, which is
    exactly the paper's argument for regional privatization + DMA
    semantics (single-buffer halves the activation memory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.api import ProgramBuilder, TaskBuilder

#: geometry of the 5-layer network (12x12 input, 4 classes)
IMG = 12
K1 = 3
C1_OUT = IMG - K1 + 1          # 10x10
K2 = 3
C2_OUT = C1_OUT - K2 + 1       # 8x8
FLAT = C2_OUT * C2_OUT         # 64
CLASSES = 4


@dataclass(frozen=True)
class BufferPlan:
    """Which NV activation buffer each layer reads/writes."""

    single: bool

    def io(self, layer_index: int) -> Tuple[str, str]:
        if self.single:
            return "act_a", "act_a"
        return (
            ("act_a", "act_b")
            if layer_index % 2 == 0
            else ("act_b", "act_a")
        )


def declare_network(b: ProgramBuilder, single_buffer: bool) -> BufferPlan:
    """Declare weights, activation buffers and LEA scratch."""
    b.nv_array("act_a", IMG * IMG)
    if not single_buffer:
        b.nv_array("act_b", IMG * IMG)
    b.nv_array("k1", K1 * K1, init=[1, 0, -1, 2, 0, -2, 1, 0, -1])
    b.nv_array("k2", K2 * K2, init=[0, 1, 0, 1, -4, 1, 0, 1, 0])
    b.nv_array(
        "fc_w",
        CLASSES * FLAT,
        init=[((i * 7 + 3) % 11) - 5 for i in range(CLASSES * FLAT)],
    )
    b.nv_array("scores", CLASSES, dtype="int32")
    b.lea_array("l_img", IMG * IMG)
    b.lea_array("l_ker", K1 * K1)
    b.lea_array("l_act", IMG * IMG)
    b.lea_array("l_w", CLASSES * FLAT)
    b.lea_array("l_res", CLASSES, dtype="int32")
    return BufferPlan(single=single_buffer)


def conv_task(
    b: ProgramBuilder,
    name: str,
    next_task: str,
    plan: BufferPlan,
    layer_index: int,
    side: int,
    ksize: int,
    kernel: str,
    exclude_weights: bool = False,
) -> None:
    """One convolution layer task: DMA in, conv2d, DMA out."""
    src, dst = plan.io(layer_index)
    out_side = side - ksize + 1
    with b.task(name) as t:
        t.dma_copy(src, "l_img", side * side * 2)
        t.dma_copy(kernel, "l_ker", ksize * ksize * 2, exclude=exclude_weights)
        t.call_io(
            "lea.conv2d",
            semantic="Always",
            image="l_img",
            kernel="l_ker",
            output="l_act",
            height=side,
            width=side,
            ksize=ksize,
        )
        t.dma_copy("l_act", dst, out_side * out_side * 2)
        # layer bookkeeping after the write-back: the window in which a
        # failure exposes the single-buffer WAR hazard
        t.compute(800, "layer_bookkeeping")
        t.transition(next_task)


def relu_task(
    b: ProgramBuilder,
    name: str,
    next_task: str,
    plan: BufferPlan,
    layer_index: int,
    count: int,
) -> None:
    """One in-place rectification layer task."""
    src, dst = plan.io(layer_index)
    with b.task(name) as t:
        t.dma_copy(src, "l_act", count * 2)
        t.call_io("lea.relu", semantic="Always", data="l_act", n=count)
        t.dma_copy("l_act", dst, count * 2)
        t.compute(600, "layer_bookkeeping")
        t.transition(next_task)


def fc_task(
    b: ProgramBuilder,
    name: str,
    next_task: str,
    plan: BufferPlan,
    layer_index: int,
    exclude_weights: bool = False,
) -> None:
    """The fully-connected layer: scores = W @ activations."""
    src, _dst = plan.io(layer_index)
    with b.task(name) as t:
        t.dma_copy("fc_w", "l_w", CLASSES * FLAT * 2, exclude=exclude_weights)
        t.dma_copy(src, "l_img", FLAT * 2)
        t.call_io(
            "lea.fc",
            semantic="Always",
            weights="l_w",
            inputs="l_img",
            output="l_res",
            n_out=CLASSES,
            n_in=FLAT,
        )
        t.dma_copy("l_res", "scores", CLASSES * 4)
        t.compute(600, "layer_bookkeeping")
        t.transition(next_task)


def infer_task(b: ProgramBuilder, name: str, next_task: str) -> None:
    """The inference layer: argmax over the class scores."""
    with b.task(name) as t:
        t.dma_copy("scores", "l_res", CLASSES * 4)
        t.call_io(
            "lea.argmax",
            semantic="Always",
            data="l_res",
            n=CLASSES,
            out="class_out",
        )
        t.transition(next_task)
