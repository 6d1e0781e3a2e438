"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in its
constructor (the generation part of set-up), runs one *pass* per
:meth:`run` call, and judges a pass output in :meth:`check` (every pass)
and :meth:`check_once` (once per run: the slow reference and golden
replays).  Seed 0 reproduces the canonical inputs the repository's own
tests and ``BENCH_*.json`` files use; seed ``n`` offsets every input seed
by ``n``.

Program entry points are looked up on their modules at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import importlib.util
from dataclasses import replace
from pathlib import Path
from typing import Any

import numpy as np

import repro.analysis.policy_eval as policy_eval
import repro.core.accelerator as accelerator
import repro.core.adaptive as adaptive
import repro.core.fleet as fleet
import repro.core.timing as timing
import repro.workloads as generators
from repro.core.faults import RecalibrationPolicy
from repro.core.simkernel import BatchingPolicy

from perfbench.layers import ENGINE, FLEET, GRID, LENET

SIZES = ("full", "smoke")

EXPECTED_WINS = (
    ("tia-aging/interactive-batch", "adaptive-recal", "static-recal"),
    ("tia-burnin/interactive-batch", "adaptive-recal", "static-recal"),
    ("tia-burnin/interactive-batch", "adaptive-burn", "static-recal"),
    ("crosstalk-blip/interactive-batch", "adaptive-burn", "static-recal"),
)
"""The default grid's dominance wins at seed 0, as BENCH_adaptive.json
records them."""


def digest(parts: list) -> str:
    """SHA-256 over arrays (dtype, shape, bytes) and reprs of the rest."""
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            hasher.update(f"{part.dtype}{part.shape}".encode())
            hasher.update(np.ascontiguousarray(part).tobytes())
        else:
            hasher.update(repr(part).encode())
    return hasher.hexdigest()


def stream_problems(label: str, report) -> list[str]:
    """Conservation and causality of one served stream."""
    problems = []
    offered = getattr(report, "num_offered", report.num_requests)
    shed = getattr(report, "num_shed", 0)
    if report.num_requests + shed != offered:
        problems.append(
            f"{label}: served {report.num_requests} + shed {shed} != "
            f"offered {offered}"
        )
    arrival, dispatch, done = (
        report.arrival_s, report.dispatch_s, report.completion_s
    )
    if not (
        np.all(np.isfinite(done))
        and np.all(dispatch >= arrival)
        and np.all(done > dispatch)
    ):
        problems.append(f"{label}: a latency is not finite or not causal")
    return problems


def serving_sim(reports: list, core_seconds: float) -> dict[str, float]:
    """Simulated batch, queue and utilization figures of served streams."""
    waits = np.concatenate([r.dispatch_s - r.arrival_s for r in reports])
    busy = sum(float(np.sum(r.core_busy_s)) for r in reports)
    return {
        "sim.batches": float(sum(len(r.batches) for r in reports)),
        "sim.queue_wait_p99_s": float(np.percentile(waits, 99.0)),
        "sim.core_utilization": busy / core_seconds,
    }


def load_golden_generator(root: Path):
    """The repository's golden-fixture generator, imported from its file."""
    path = root / "tests" / "golden" / "regenerate.py"
    spec = importlib.util.spec_from_file_location("golden_regenerate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_problems(fixture: Path, computed: dict[str, np.ndarray]) -> list[str]:
    """Bit-for-bit comparison of a recomputed trace with its fixture."""
    problems = []
    with np.load(fixture) as expected:
        names = sorted(set(expected.files) | set(computed))
        for name in names:
            if name not in expected.files or name not in computed:
                problems.append(f"{fixture.name}: key {name!r} missing")
                continue
            want = expected[name]
            got = np.asarray(computed[name])
            if (
                want.dtype != got.dtype
                or want.shape != got.shape
                or want.tobytes() != got.tobytes()
            ):
                problems.append(f"{fixture.name}: {name!r} differs")
    return problems


class Workload:
    """One benchmark workload; subclasses fill in every method."""

    name = ""
    unit = ""
    rate_name = ""

    def __init__(self, seed: int, size: str, root: Path) -> None:
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}, got {size!r}")
        self.seed = seed
        self.size = size
        self.root = root
        self.units = 0

    def run(self) -> Any:
        raise NotImplementedError

    def digest(self, output) -> str:
        raise NotImplementedError

    def check(self, output) -> list[str]:
        raise NotImplementedError

    def check_once(self, output) -> list[str]:
        raise NotImplementedError

    def sim_metrics(self, output) -> dict[str, float]:
        raise NotImplementedError


class FleetBurst(Workload):
    """``burst-overflow`` fleet: 3 regions, least-loaded routing, SLO-burn
    autoscaler, MMPP bursts, 2 tenants on vectorized lanes."""

    name = FLEET
    unit = "requests"
    rate_name = "requests_per_s"

    def __init__(self, seed: int, size: str, root: Path) -> None:
        super().__init__(seed, size, root)
        requests = 300_000 if size == "full" else 3_000
        self.scenario = generators.fleet_mix(
            "burst-overflow", 4e5, requests, seed=seed
        )
        self.units = sum(
            trace.size
            for region in self.scenario.arrival_s.values()
            for trace in region.values()
        )

    def serve(self, mode: str):
        s = self.scenario
        return fleet.simulate_fleet_serving(
            s.tenants,
            s.regions,
            s.arrival_s,
            rtt_s=s.rtt_s,
            routing=s.routing,
            autoscaler=s.autoscaler,
            mode=mode,
        )

    def run(self):
        return self.serve("auto")

    def digest(self, report) -> str:
        parts: list = [report.autoscale_events]
        for trace in report.traces:
            parts += [
                trace.home_region,
                trace.tenant,
                trace.server_region,
                trace.served,
                trace.latency_s,
            ]
        for region in report.regions:
            for tenant in region.report.tenants if region.report else ():
                parts += [
                    region.name,
                    tenant.tenant,
                    tenant.arrival_s,
                    tenant.dispatch_s,
                    tenant.completion_s,
                    tenant.shed_arrival_s,
                ]
        return digest(parts)

    def check(self, report) -> list[str]:
        problems = []
        if (
            report.num_offered != self.units
            or report.num_served + report.num_shed != report.num_offered
        ):
            problems.append(
                f"fleet: served {report.num_served} + shed "
                f"{report.num_shed} != offered {self.units}"
            )
        for trace in report.traces:
            latency = trace.latency_s[trace.served]
            if not (np.all(np.isfinite(latency)) and np.all(latency > 0)):
                problems.append(
                    f"fleet {trace.home_region}/{trace.tenant}: a latency "
                    f"is not finite or not causal"
                )
        for region in report.regions:
            for tenant in region.report.tenants if region.report else ():
                problems += stream_problems(
                    f"fleet {region.name}/{tenant.tenant}", tenant
                )
        return problems

    def check_once(self, report) -> list[str]:
        if self.digest(self.serve("reference")) != self.digest(report):
            return ["fleet: a stream differs from mode='reference'"]
        return []

    def sim_metrics(self, report) -> dict[str, float]:
        clusters = [r.report for r in report.regions if r.report is not None]
        streams = [t for c in clusters for t in c.tenants]
        return {
            **serving_sim(
                streams, sum(c.pool_size * c.makespan_s for c in clusters)
            ),
            "sim_p99_s": report.p99_s,
            "fleet.remote_frac": report.num_remote / report.num_offered,
            "sim.recalibrations": float(
                sum(len(c.recalibrations) for c in clusters)
            ),
            "sim.downtime_s": float(
                sum(sum(c.core_downtime_s) for c in clusters)
            ),
            "sim.shed_frac": report.num_shed / report.num_offered,
        }


class PolicyGrid(Workload):
    """The default dominance grid: 4 fault scenarios x 6 policies."""

    name = GRID
    unit = "cells"
    rate_name = "cells_per_s"

    def __init__(self, seed: int, size: str, root: Path) -> None:
        super().__init__(seed, size, root)
        requests = 400 if size == "full" else 60
        base = policy_eval.default_scenarios(num_requests=requests)
        self.scenarios = tuple(
            replace(scenario, seed=scenario.seed + seed) for scenario in base
        )
        self.policies = policy_eval.default_policy_grid(self.scenarios)
        self.units = len(self.scenarios) * len(self.policies)

    def run(self):
        return policy_eval.evaluate_dominance(
            self.scenarios, self.policies, workers=1
        )

    def digest(self, report) -> str:
        parts: list = [report.wins, sorted(report.fronts.items())]
        for cell in report.outcomes:
            parts += [
                cell.scenario,
                cell.policy,
                cell.availability,
                cell.accuracy_error,
                cell.p99_latency_s,
                cell.downtime_s,
                cell.served,
                cell.offered,
                cell.shed,
                cell.recalibrations,
            ]
            for tenant in cell.report.tenants:
                parts += [
                    tenant.arrival_s,
                    tenant.dispatch_s,
                    tenant.completion_s,
                    tenant.shed_arrival_s,
                    np.asarray(tenant.accuracy_proxy, dtype=float),
                ]
        return digest(parts)

    def check(self, report) -> list[str]:
        problems = []
        if len(report.outcomes) != self.units:
            problems.append(
                f"grid: {len(report.outcomes)} cells, expected {self.units}"
            )
        for cell in report.outcomes:
            label = f"grid {cell.scenario} x {cell.policy}"
            if cell.served + cell.shed != cell.offered:
                problems.append(
                    f"{label}: served {cell.served} + shed {cell.shed} != "
                    f"offered {cell.offered}"
                )
            for tenant in cell.report.tenants:
                problems += stream_problems(f"{label}/{tenant.tenant}", tenant)
        return problems

    def check_once(self, report) -> list[str]:
        if self.seed != 0 or self.size != "full":
            return []
        problems = []
        if not report.passes(min_scenarios=2):
            problems.append("grid: report.passes(min_scenarios=2) is False")
        if tuple(report.wins) != EXPECTED_WINS:
            problems.append(f"grid: wins {report.wins!r} != {EXPECTED_WINS!r}")
        return problems

    def sim_metrics(self, report) -> dict[str, float]:
        cells = report.outcomes
        clusters = [cell.report for cell in cells]
        streams = [t for c in clusters for t in c.tenants]
        offered = sum(cell.offered for cell in cells)
        return {
            **serving_sim(
                streams, sum(c.pool_size * c.makespan_s for c in clusters)
            ),
            "sim_p99_s": float(
                np.percentile(
                    np.concatenate([t.latencies_s for t in streams]), 99.0
                )
            ),
            "sim_accuracy_error": float(
                np.mean([cell.accuracy_error for cell in cells])
            ),
            "sim_dominance_wins": float(len(report.wins)),
            "sim.recalibrations": float(
                sum(cell.recalibrations for cell in cells)
            ),
            "sim.downtime_s": float(sum(cell.downtime_s for cell in cells)),
            "sim.shed_frac": sum(cell.shed for cell in cells) / offered,
        }


class AdaptiveLenet(Workload):
    """EWMA-recalibrated LeNet-5 serving under ``slow-drift`` on 2 cores."""

    name = LENET
    unit = "requests"
    rate_name = "requests_per_s"
    cores = 2

    def __init__(self, seed: int, size: str, root: Path) -> None:
        super().__init__(seed, size, root)
        requests = 20_000 if size == "full" else 300
        self.network = generators.serving_network("lenet5", seed=seed)
        self.arrivals = generators.poisson_arrivals(
            2e4, requests, seed=17 + seed
        )
        horizon = float(self.arrivals[-1])
        self.schedule = generators.fault_scenario(
            "slow-drift", self.cores, horizon
        )
        self.controller = adaptive.AdaptiveRecalibration(
            base=RecalibrationPolicy(error_threshold=0.05),
            smoothing=0.45,
            lead_time_s=0.08 * horizon,
        )
        self.policy = BatchingPolicy.dynamic(4, 1e-4)
        self.units = requests

    def run(self):
        return adaptive.simulate_adaptive_serving(
            self.network,
            self.arrivals,
            self.policy,
            self.schedule,
            self.cores,
            controller=self.controller,
        )

    def digest(self, report) -> str:
        return digest(
            [
                report.arrival_s,
                report.dispatch_s,
                report.completion_s,
                report.accuracy_proxy,
                report.batch_num_cores,
                report.core_downtime_s,
                report.final_core_errors,
                report.recalibrations,
                report.repartitions,
                report.decisions,
            ]
        )

    def check(self, report) -> list[str]:
        problems = stream_problems("lenet", report)
        if report.num_requests != self.units:
            problems.append(
                f"lenet: served {report.num_requests} of {self.units}"
            )
        return problems

    def check_once(self, report) -> list[str]:
        golden = load_golden_generator(self.root)
        return golden_problems(
            golden.fixture_path("adaptive", "recal"),
            golden.compute_adaptive_recal_trace(),
        )

    def sim_metrics(self, report) -> dict[str, float]:
        cores = len(report.core_busy_s)
        return {
            **serving_sim([report], cores * report.makespan_s),
            "sim_p99_s": report.p99_s,
            "sim_accuracy_error": report.mean_accuracy_proxy,
            "sim.recalibrations": float(len(report.recalibrations)),
            "sim.downtime_s": float(sum(report.core_downtime_s)),
            "sim.shed_frac": 0.0,
        }


class EngineGooglenet(Workload):
    """The photonic engine on the GoogLeNet stem, DAC/ADC-quantized."""

    name = ENGINE
    unit = "images"
    rate_name = "images_per_s"

    def __init__(self, seed: int, size: str, root: Path) -> None:
        super().__init__(seed, size, root)
        scale, batch = (0.05, 16) if size == "full" else (0.02, 2)
        self.network = generators.serving_network(
            "googlenet-stem", scale=scale, seed=seed
        )
        self.inputs = generators.serving_batch(self.network, batch, seed=seed)
        self.accelerator = accelerator.PCNNA()
        self.accelerator.engine = accelerator.PhotonicConvolution(
            self.accelerator.config, method="device", quantize=True
        )
        self.units = batch

    def run(self):
        return self.accelerator.run_network(self.network, self.inputs)

    def digest(self, outputs) -> str:
        return digest([outputs])

    def check(self, outputs) -> list[str]:
        expected = (self.units, *self.network.output_shape)
        if outputs.shape != expected or not np.all(np.isfinite(outputs)):
            return [f"engine: outputs {outputs.shape} not finite {expected}"]
        return []

    def check_once(self, outputs) -> list[str]:
        golden = load_golden_generator(self.root)
        return golden_problems(
            golden.fixture_path("googlenet-stem", "quantized"),
            golden.compute_trace("googlenet-stem", "quantized"),
        )

    def sim_metrics(self, outputs) -> dict[str, float]:
        reference = self.network.forward_batch(self.inputs)
        config = self.accelerator.config
        return {
            "output_max_abs_err": float(np.max(np.abs(outputs - reference))),
            "sim_network_s": float(
                sum(
                    timing.simulate_layer_batch(
                        spec, self.units, config
                    ).total_time_s
                    for spec in self.network.conv_specs()
                )
            ),
        }


WORKLOAD_TYPES: dict[str, type[Workload]] = {
    cls.name: cls for cls in (FleetBurst, PolicyGrid, AdaptiveLenet, EngineGooglenet)
}
