"""Inter-layer pipelining over multiple PCNNA cores (extension).

The paper's introduction names the blocker for scaling CNN inference:
"data dependencies across layers challenge any attempt of inter-layer
parallelization".  PCNNA sidesteps it by reusing one physical layer
sequentially.  The alternative the paper alludes to — several PCNNA
cores, each owning a contiguous slice of layers, streaming a batch
through like a pipeline — is modeled here:

* each core's service time is the sum of its layers' DAC-bound times;
* the pipeline's steady-state throughput is set by the slowest core;
* weight loads happen once per core (the weights are *stationary* in a
  pipelined deployment, eliminating the batching crossover entirely);
* :func:`balanced_partition` finds the layer split minimizing the
  bottleneck core via dynamic programming (the classic linear
  partition problem).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.analytical import full_system_time_s
from repro.core.config import PCNNAConfig
from repro.nn.shapes import ConvLayerSpec


@dataclass(frozen=True)
class PipelinePartition:
    """An assignment of consecutive layers to cores.

    Attributes:
        slices: per-core (start, end) index ranges into the layer list
            (end exclusive), in pipeline order.
        core_times_s: per-core service time (sum of its layers).
    """

    slices: tuple[tuple[int, int], ...]
    core_times_s: tuple[float, ...]

    @property
    def num_cores(self) -> int:
        """Cores in the pipeline."""
        return len(self.slices)

    @property
    def bottleneck_s(self) -> float:
        """The slowest core's service time — the pipeline initiation
        interval (one image completes per bottleneck period)."""
        return max(self.core_times_s)

    @property
    def images_per_s(self) -> float:
        """Steady-state pipeline throughput."""
        return 1.0 / self.bottleneck_s

    @property
    def single_image_latency_s(self) -> float:
        """Latency of one image traversing every core."""
        return sum(self.core_times_s)

    @property
    def balance(self) -> float:
        """Mean core time / bottleneck time; 1.0 is perfectly balanced."""
        mean = sum(self.core_times_s) / self.num_cores
        return mean / self.bottleneck_s


def _require_count(what: str, value, low: int | None = 1) -> None:
    """Reject a count that is not an integer, or is below ``low``.

    The one integer check of every count the serving stack takes.
    ``bool`` is an ``int`` subclass and NaN compares false against
    everything, so a bare ``value < low`` lets ``True``, ``2.5`` and
    ``nan`` through — and the kernel modes then fail in different ways.
    ``low=None`` checks the type only.

    Raises:
        ValueError: naming ``what``, on a non-integer or too-small value.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{what} must be >= {low}, got {value!r}")


def _require_finite(what: str, values: np.ndarray) -> None:
    """Reject a tensor holding NaN or +-inf.

    Shared by the arrival-trace and photonic-engine front doors.
    ``min`` and ``max`` propagate NaN and expose +-inf without
    allocating a mask the size of the tensor; the mask is built only on
    the error path, to name the first bad value.

    Raises:
        ValueError: naming ``what``, if any element is non-finite.
    """
    if values.size and not (
        np.isfinite(values.min()) and np.isfinite(values.max())
    ):
        bad = values[~np.isfinite(values)]
        raise ValueError(
            f"{what} must be finite; got {bad.size} non-finite, "
            f"first {float(bad[0])!r}"
        )


def validate_num_cores(
    num_cores: int, num_layers: int, clamp: bool = False
) -> int:
    """Validate a pipeline core count against the layers it must split.

    Every entry point that partitions layers over cores funnels through
    this check, so an invalid request fails here with a clear message
    instead of deep inside the DP partitioner (a float ``num_cores``
    used to surface as a ``TypeError`` from ``range``).

    Args:
        num_cores: requested pipeline width.
        num_layers: layers available to split (must be >= 1).
        clamp: return ``min(num_cores, num_layers)`` instead of raising
            when more cores than layers are requested — convenient for
            sweeps that scan wide core counts across small networks.

    Returns:
        The validated (possibly clamped) core count.

    Raises:
        ValueError: if ``num_cores`` is not an integer, is < 1, or
            exceeds ``num_layers`` with ``clamp`` off.
    """
    _require_count("core count", num_cores)
    if num_cores > num_layers:
        if clamp:
            return num_layers
        raise ValueError(
            f"core count must be in [1, {num_layers}] (one core needs at "
            f"least one layer), got {num_cores!r}"
        )
    return int(num_cores)


def layer_times(
    specs: list[ConvLayerSpec], config: PCNNAConfig | None = None
) -> list[float]:
    """DAC-bound times for each layer (the partitioning weights)."""
    cfg = config if config is not None else PCNNAConfig()
    return [full_system_time_s(spec, cfg) for spec in specs]


def contiguous_partition(
    specs: list[ConvLayerSpec],
    boundaries: list[int],
    config: PCNNAConfig | None = None,
) -> PipelinePartition:
    """Build a partition from explicit split points.

    Args:
        specs: all layers, in network order.
        boundaries: ascending interior split indices; ``[2, 4]`` over 5
            layers yields cores [0:2], [2:4], [4:5].
        config: hardware configuration.

    Raises:
        ValueError: on unsorted, duplicate, or out-of-range boundaries.
    """
    if not specs:
        raise ValueError("need at least one layer")
    previous = 0
    for boundary in boundaries:
        if not previous < boundary < len(specs):
            raise ValueError(
                f"boundary {boundary} invalid for {len(specs)} layers after "
                f"{previous}"
            )
        previous = boundary
    times = layer_times(specs, config)
    edges = [0] + list(boundaries) + [len(specs)]
    slices = tuple(
        (start, end) for start, end in zip(edges[:-1], edges[1:])
    )
    core_times = tuple(sum(times[start:end]) for start, end in slices)
    return PipelinePartition(slices=slices, core_times_s=core_times)


def balanced_partition(
    specs: list[ConvLayerSpec],
    num_cores: int,
    config: PCNNAConfig | None = None,
) -> PipelinePartition:
    """Optimal contiguous split of layers over ``num_cores`` cores.

    Minimizes the bottleneck core time (linear-partition DP,
    O(cores * layers^2) — layers are few).

    Raises:
        ValueError: if ``specs`` is empty or ``num_cores`` is not an
            integer in [1, len(specs)].
    """
    if not specs:
        raise ValueError("need at least one layer to partition over cores")
    num_cores = validate_num_cores(num_cores, len(specs))
    times = layer_times(specs, config)
    num_layers = len(times)
    prefix = [0.0]
    for time_s in times:
        prefix.append(prefix[-1] + time_s)

    def range_sum(start: int, end: int) -> float:
        return prefix[end] - prefix[start]

    # dp[c][i]: minimal bottleneck covering the first i layers with c cores.
    infinity = float("inf")
    dp = [[infinity] * (num_layers + 1) for _ in range(num_cores + 1)]
    split = [[0] * (num_layers + 1) for _ in range(num_cores + 1)]
    dp[0][0] = 0.0
    for cores in range(1, num_cores + 1):
        for end in range(1, num_layers + 1):
            for start in range(cores - 1, end):
                candidate = max(dp[cores - 1][start], range_sum(start, end))
                if candidate < dp[cores][end]:
                    dp[cores][end] = candidate
                    split[cores][end] = start

    # Recover boundaries.
    boundaries: list[int] = []
    end = num_layers
    for cores in range(num_cores, 1, -1):
        start = split[cores][end]
        boundaries.append(start)
        end = start
    boundaries.reverse()
    return contiguous_partition(specs, boundaries, config)


def pipeline_speedup(
    specs: list[ConvLayerSpec],
    num_cores: int,
    config: PCNNAConfig | None = None,
) -> float:
    """Throughput gain of a ``num_cores`` pipeline over one core.

    One core processes images back-to-back at the network's total layer
    time; the pipeline initiates one image per bottleneck interval.
    """
    partition = balanced_partition(specs, num_cores, config)
    single_core = sum(layer_times(specs, config))
    return single_core / partition.bottleneck_s
