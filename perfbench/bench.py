"""Measurement loop, run record and result line for one workload.

:func:`measure` runs one workload for a time budget and returns a
:class:`RunResult`.  Untraced runs give the end-to-end metrics; traced
runs install the span wrappers and give the per-layer metrics.  Output
checks, the reference and golden replays, and the simulated metrics all
run outside the timed passes.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench import layers
from perfbench.run import BLAS_ENV
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOAD_TYPES, Workload

MIN_PASSES = 3
"""Passes measured per run at least, however long each takes."""


@dataclass
class RunResult:
    """What one run measured and whether its outputs were right.

    Attributes:
        workload: workload name.
        correct: every pass and run-level check passed (and, when
            traced, every zero/non-zero prediction held).
        attempted: measured passes attempted.
        failed: passes that raised or failed an output check.
        metrics: metric name -> ``(value, unit)``.
        record: everything else worth keeping (pass times, problems).
    """

    workload: str
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    record: dict

    def result_line(self) -> dict:
        """The benchmark's last-line JSON object."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def quartiles(values: list[float]) -> list[float]:
    """``[q1, median, q3]`` (the median alone repeated for one value)."""
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kilobytes / 1024.0


def git_commit(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(root: Path, seed: int) -> dict:
    """Host, toolchain and input provenance of a run."""
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "commit": git_commit(root),
        "seed": seed,
    }


def _scope(tracer: Tracer | None, name: str):
    """Where spans are recorded: the block when traced, nowhere otherwise."""
    return tracer.recording(name) if tracer is not None else nullcontext()


def _pass(workload: Workload, reference: str, problems: list[str], scope):
    """One timed pass; its output is judged after the clock stops.

    Returns the pass time, or ``None`` when it raised or failed a check.
    """
    gc.collect()  # the previous pass's garbage is not this pass's cost
    began = perf_counter()
    try:
        with scope:
            output = workload.run()
    except Exception:  # a failing pass is counted, not fatal
        problems.append(traceback.format_exc(limit=3))
        return None
    elapsed = perf_counter() - began
    found = workload.check(output)
    if workload.digest(output) != reference:
        found.append(f"{workload.name}: output digest differs from warm-up")
    problems.extend(found)
    return None if found else elapsed


def _run_passes(
    workload: Workload,
    reference: str,
    seconds: float,
    problems: list[str],
    minimum: int,
    tracer: Tracer | None = None,
) -> tuple[list[float], int, float]:
    """Passes until ``seconds`` of pass time and ``minimum`` passes.

    Returns good pass times, attempts, and the root-span seconds the
    tracer saw inside the passes (0 untraced).
    """
    times: list[float] = []
    attempts = 0
    spent = 0.0
    root_s = 0.0
    while attempts < minimum or spent < seconds:
        attempts += 1
        before = tracer.root_s if tracer else 0.0
        scope = _scope(tracer, f"pass {attempts}")
        elapsed = _pass(workload, reference, problems, scope)
        if elapsed is None:
            spent += seconds / minimum  # bound the loop on failures
            continue
        times.append(elapsed)
        spent += elapsed
        root_s += (tracer.root_s - before) if tracer else 0.0
    return times, attempts, root_s


def set_up(name: str, seed: int, size: str, root: Path, tracer=None):
    """Generate inputs and run the warm-up pass.

    Returns ``(workload, warm-up output, seconds)``; the seconds exclude
    imports, which the caller times.
    """
    began = perf_counter()
    with _scope(tracer, "set-up"):
        workload = WORKLOAD_TYPES[name](seed, size, root)
    warm = workload.run()
    return workload, warm, perf_counter() - began


def measure(
    name: str,
    seed: int,
    seconds: float,
    size: str,
    root: Path,
    trace: bool,
    import_s: float,
    other_setups_s: list[float],
    out_dir: Path,
) -> RunResult:
    """Run one workload and return its metrics.

    Args:
        name: workload name.
        seed: input seed.
        seconds: measured pass time budget.
        size: ``"full"`` or ``"smoke"`` (tiny inputs for tests).
        root: checkout root (golden fixtures, run records).
        trace: give per-layer metrics instead of end-to-end ones.
        import_s: seconds this process spent importing the program.
        other_setups_s: set-up seconds measured in fresh processes; the
            reported ``setup_s`` is the median with this run's own.
        out_dir: where a traced run writes its trace file.
    """
    problems: list[str] = []
    record = {"workload": name, "size": size, "trace": trace,
              **environment(root, seed)}
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(layers.targets())
    try:
        try:
            workload, warm, own_setup_s = set_up(name, seed, size, root, tracer)
        except Exception:  # no warm-up output: nothing to measure against
            problems.append(traceback.format_exc(limit=5))
            record["problems"] = problems
            return RunResult(name, False, 1, 1, {}, record)
        setup_calls = dict(tracer.calls) if tracer else {}
        setup_gen_s = tracer.self_s["workloads.gen"] if tracer else 0.0
        problems += workload.check(warm)
        reference = workload.digest(warm)
        if tracer is None:
            times, attempts, _ = _run_passes(
                workload, reference, seconds, problems, MIN_PASSES
            )
            good = len(times)
            metrics = {}
            peak = peak_rss_mb()
            setups = [import_s + own_setup_s, *other_setups_s]
            metrics["setup_s"] = (statistics.median(setups), "s")
            if times:
                metrics["units_per_s"] = (
                    workload.units / statistics.median(times), "1/s"
                )
            metrics["peak_rss_mb"] = (peak, "MB")
            record["setup_s_samples"] = setups
        else:
            half = seconds / 2.0
            plain, plain_attempts, _ = _run_passes(
                workload, reference, half, problems, 2
            )
            tracer.reset()
            times, traced_attempts, root_s = _run_passes(
                workload, reference, half, problems, 2, tracer
            )
            attempts = plain_attempts + traced_attempts
            good = len(plain) + len(times)
            record["untraced_pass_s"] = plain
            metrics = _layer_metrics(
                workload, warm, tracer, times, plain, root_s, setup_gen_s,
                setup_calls, problems,
            )
            trace_path = out_dir / f"{name}-seed{seed}.trace.json"
            tracer.write_chrome_trace(trace_path, record)
            record["trace_file"] = str(trace_path)
        problems += workload.check_once(warm)
        if tracer is None:
            record["sim"] = workload.sim_metrics(warm)
    finally:
        if tracer is not None:
            tracer.uninstall()
    failed = attempts - good
    record.update(
        {
            "unit": workload.unit,
            "units_per_pass": workload.units,
            "rate_name": workload.rate_name,
            "passes": len(times),
            "pass_s": times,
            "pass_s_quartiles": quartiles(times),
            "problems": problems,
        }
    )
    correct = not problems and failed == 0 and bool(times)
    return RunResult(name, correct, attempts, failed, metrics, record)


def _layer_metrics(
    workload: Workload,
    warm,
    tracer: Tracer,
    times: list[float],
    plain: list[float],
    root_s: float,
    setup_gen_s: float,
    setup_calls: dict[str, int],
    problems: list[str],
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, checked against predictions."""
    passes = max(len(times), 1)
    totals = layers.LayerTotals(
        self_s={k: v / passes for k, v in tracer.self_s.items()},
        calls={k: v / passes for k, v in tracer.calls.items()},
        counts={k: v / passes for k, v in tracer.counts.items()},
        setup_gen_s=setup_gen_s,
        sim=workload.sim_metrics(warm),
        coverage=root_s / sum(times) if times else 0.0,
        overhead_x=(
            statistics.median(times) / statistics.median(plain)
            if times and plain
            else 0.0
        ),
    )
    values = {m.name: float(m.value(totals)) for m in layers.PER_LAYER}
    fired = {
        key: totals.calls.get(key, 0.0) + setup_calls.get(key, 0)
        for key in layers.LAYER_CALLS
    }
    problems += layers.prediction_errors(workload.name, fired, values)
    return {m.name: (values[m.name], m.unit) for m in layers.PER_LAYER}


def write_record(out_dir: Path, result: RunResult) -> Path:
    """Save the full run record as JSON in ``out_dir``."""
    record = result.record
    path = out_dir / (
        f"{result.workload}-seed{record['seed']}"
        f"-trace{int(record['trace'])}.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {**record, **result.result_line()}
    path.write_text(json.dumps(payload, indent=2, default=repr) + "\n")
    return path


def summary(result: RunResult) -> str:
    """Human-readable lines for one run."""
    record = result.record
    lines = [f"== {result.workload} (seed {record.get('seed')}, "
             f"{'traced' if record.get('trace') else 'untraced'})"]
    lines.append(
        "  host {host} ({nproc} CPUs, {usable_cpus} usable), Python "
        "{python}, numpy {numpy}, BLAS threads {blas_threads}, commit "
        "{commit}".format(**record)
    )
    times = record.get("pass_s", [])
    if times:
        lines.append(f"  pass_s: {[round(t, 4) for t in times]}")
    if times:
        q1, median, q3 = quartiles(times)
        units = record["units_per_pass"]
        lines.append(
            f"  {record['rate_name']}: {units / median:.4g} "
            f"({units} {record['unit']}/pass; {len(times)} passes, pass s "
            f"q1/median/q3 {q1:.4f}/{median:.4f}/{q3:.4f})"
        )
    for name, (value, unit) in result.metrics.items():
        note = " (computed from array shapes)" if name in layers.COMPUTED else ""
        lines.append(f"  {name}: {value:.6g} {unit}{note}")
    for name, value in record.get("sim", {}).items():
        lines.append(f"  {name}: {value:.6g} (simulated)")
    lines.append(
        f"  failed_frac: {result.failed}/{result.attempted}"
        f" = {result.failed / max(result.attempted, 1):.3g}"
    )
    for problem in record.get("problems", []):
        lines.append(f"  PROBLEM: {problem.strip()}")
    return "\n".join(lines)


def layer_table() -> str:
    """The per-layer prediction table, one metric a line."""
    return "\n".join(
        f"  {m.name} [{m.unit}] non-zero on "
        f"{', '.join(m.exercised_by) or 'none'}"
        + (f" (input decides on {', '.join(m.input_dependent)})"
           if m.input_dependent else "")
        + f"; moves {m.moves}"
        for m in layers.PER_LAYER
    )


def stdout(text: str) -> None:
    """Print and flush (the last stdout line is the result)."""
    sys.stdout.write(text + "\n")
    sys.stdout.flush()
