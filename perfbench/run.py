"""Benchmark entry point for the serving stack and the photonic engine.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet-burst --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --seconds 15          # all four workloads, one process

``--trace 0`` reports the end-to-end metrics (``setup_s``,
``units_per_s``, ``peak_rss_mb``); ``--trace 1`` wraps the program's
layers and reports the per-layer metrics instead, writing a Perfetto
trace under ``.perfbench/``.  Human-readable lines come first; the last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check
passed.

``setup_s`` is the median over this process and two fresh processes
(``--setup-only``) of import, input generation and the warm-up pass.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_ORDER = ("policy-grid", "adaptive-lenet", "fleet-burst", "engine-googlenet")
"""Workloads in ``--workload all`` order: ascending peak memory, so the
process-wide peak after each one is close to that workload's own."""
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
OUT_DIR = ROOT / ".perfbench"
"""Run records and trace files (git-ignored)."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", choices=RUN_ORDER + ("all",), default="all"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "smoke"),
        default="full",
        help="smoke: tiny inputs, for the benchmark's own tests",
    )
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="time one set-up in this process and print it (internal)",
    )
    args = parser.parse_args(argv)
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only needs one --workload")
    return args


def import_program() -> float:
    """Import the checkout's program and the benchmark; return seconds.

    Raises:
        ImportError: when a module is missing, or another copy of the
            package shadows the checkout's.
    """
    began = perf_counter()
    source = ROOT / "src"
    sys.path[:0] = [str(source), str(ROOT)]
    import repro

    if source.resolve() not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro imported from {repro.__file__}, not {source}")
    import perfbench.bench  # noqa: F401  (numpy and the program's modules)

    return perf_counter() - began


def child_setups(args: argparse.Namespace, name: str) -> tuple[list[float], list[str]]:
    """Set-up seconds measured in fresh processes, plus any failures."""
    samples, errors = [], []
    for _ in range(SETUP_REPEATS - 1):
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--size", args.size, "--setup-only",
        ]
        try:
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S, check=False,
            )
        except subprocess.TimeoutExpired:
            errors.append(f"set-up process exceeded {CHILD_TIMEOUT_S} s")
            continue
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            errors.append(f"set-up process failed: {done.stderr[-2000:]}")
            continue
        samples.append(json.loads(lines[-1])["setup_s"])
    return samples, errors


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    program = ROOT / "src" / "repro" / "__init__.py"
    if not program.is_file():
        print(f"perfbench: no program source at {program}", file=sys.stderr)
        return 2
    for name in BLAS_ENV:
        os.environ[name] = "1"
    names = RUN_ORDER if args.workload == "all" else (args.workload,)
    children = {}
    if not args.trace and not args.setup_only:
        for name in names:
            children[name] = child_setups(args, name)
    try:
        import_s = import_program()
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    from perfbench import bench

    if args.setup_only:
        _, _, seconds = bench.set_up(args.workload, args.seed, args.size, ROOT)
        bench.stdout(json.dumps({"setup_s": import_s + seconds}))
        return 0

    results = []
    for name in names:
        samples, errors = children.get(name, ([], []))
        result = bench.measure(
            name, args.seed, args.seconds, args.size, ROOT,
            bool(args.trace), import_s, samples, OUT_DIR,
        )
        if errors:
            result.correct = False
            result.record["problems"] += errors
        bench.write_record(OUT_DIR, result)
        bench.stdout(bench.summary(result))
        results.append(result)
    if args.trace:
        bench.stdout("per-layer metrics and what each should move:")
        bench.stdout(bench.layer_table())
    if len(results) == 1:
        line = results[0].result_line()
    else:
        line = {
            "correct": all(r.correct for r in results),
            "attempted": sum(r.attempted for r in results),
            "failed": sum(r.failed for r in results),
            "metrics": {
                f"{r.workload}/{name}": value
                for r in results
                for name, value in r.result_line()["metrics"].items()
            },
        }
    bench.stdout(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
