"""Perf benchmark: vectorized batched engine vs the reference wave loop.

Times both device-simulation engines on the LeNet-5 conv layers at
batch=16 — the minibatch serving scenario the vectorized engine exists
for — asserts the outputs stay bit-identical (ideal mode), and asserts
the vectorized engine is at least 5x faster.  Run with ``-s`` to see the
recorded table; future PRs extend it to track the perf trajectory.
"""

from __future__ import annotations

import numpy as np

from repro.core.accelerator import PhotonicConvolution
from conftest import best_of, emit

BATCH = 16

# LeNet-5 conv layers: (name, input (C, H, W), kernels (K, C, m, m)).
LENET_CONV_LAYERS = [
    ("conv1", (1, 32, 32), (6, 1, 5, 5)),
    ("conv2", (6, 14, 14), (16, 6, 5, 5)),
]

MIN_SPEEDUP = 5.0


def test_vectorized_speedup_on_lenet_batch16():
    rng = np.random.default_rng(0)
    vectorized = PhotonicConvolution(method="device", mode="vectorized")
    reference = PhotonicConvolution(method="device", mode="reference")

    rows = []
    for name, input_shape, kernel_shape in LENET_CONV_LAYERS:
        x = rng.normal(size=(BATCH, *input_shape))
        k = rng.normal(size=kernel_shape)
        # Warm-up pass keeps one-time NumPy/layer setup out of the timing.
        vectorized.convolve(x[:1], k)
        vec_time, vec_out = best_of(lambda: vectorized.convolve(x, k), repeats=3)
        ref_time, ref_out = best_of(lambda: reference.convolve(x, k), repeats=1)
        assert np.array_equal(vec_out, ref_out), name
        speedup = ref_time / vec_time
        rows.append((name, ref_time, vec_time, speedup))

    lines = [
        f"Batched photonic engine, LeNet-5 conv layers, batch={BATCH}",
        f"{'layer':<8}{'reference (s)':>15}{'vectorized (s)':>16}{'speedup':>10}",
    ]
    for name, ref_time, vec_time, speedup in rows:
        lines.append(
            f"{name:<8}{ref_time:>15.4f}{vec_time:>16.4f}{speedup:>9.1f}x"
        )
    total_ref = sum(row[1] for row in rows)
    total_vec = sum(row[2] for row in rows)
    lines.append(
        f"{'total':<8}{total_ref:>15.4f}{total_vec:>16.4f}"
        f"{total_ref / total_vec:>9.1f}x"
    )
    emit("\n".join(lines))

    for name, _, _, speedup in rows:
        assert speedup >= MIN_SPEEDUP, (
            f"{name}: vectorized engine only {speedup:.1f}x faster than the "
            f"reference loop (floor {MIN_SPEEDUP}x)"
        )
