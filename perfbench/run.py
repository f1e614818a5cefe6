"""qcoherence benchmark: the README's CLI commands in a closed loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload report-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client runs one operation at a time, each started after the previous
one completed, by calling ``qcoherence.cli.main(argv)`` in this process on
input files generated from ``--seed``.  Every output is checked.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` each operation also runs a second
time with every call the CLI makes into a library module timed as a span,
and the JSON object carries the per-layer metrics.  ``--workload all``
runs every workload both ways in fresh processes and prints one table.
The program is imported from ``src/`` next to this directory; the
benchmark sets no BLAS or OpenMP thread variable.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
WORKLOAD_NAMES = ("report-small", "search", "infdim")
SETUP_REPEATS = 5
# covers the BLAS start-up burst of about 1 s seen in fresh processes
WARMUP_SECONDS = 2.0
THREAD_VARIABLE = re.compile(r"(OPENBLAS|GOTO|OMP|MKL|BLIS|VECLIB|NUMEXPR|ACCELERATE)\w*")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-into",
        metavar="DIR",
        help="only import the program and generate the workload's inputs into DIR, "
        "then exit (set-up time is measured on fresh processes running this)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import qcoherence from the source tree before anything imports numpy,
    so a thread policy set by the program on import takes effect here."""
    sys.path.insert(0, str(SOURCE))
    import qcoherence

    if Path(qcoherence.__file__).resolve().parent != SOURCE / "qcoherence":
        sys.exit(f"error: imported qcoherence from {qcoherence.__file__}, not from {SOURCE}")
    return qcoherence


def machine_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_variables": {k: v for k, v in sorted(os.environ.items()) if THREAD_VARIABLE.fullmatch(k)},
    }


def time_setup(args, workdir: Path) -> float:
    """Median wall time of fresh processes that import the program and
    generate the workload's inputs."""
    times = []
    for k in range(SETUP_REPEATS):
        target = workdir / f"setup-{k}"
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                   "--seed", str(args.seed), "--setup-into", str(target)]
        start = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT, timeout=120)
        times.append(time.perf_counter() - start)
        shutil.rmtree(target)
    return statistics.median(times)


def _untimed(name, function, *args):
    return function(*args)


class Loop:
    """Runs cycles of operations and keeps what the metrics need."""

    def __init__(self, workloads, ops, tracer=None):
        self.workloads = workloads
        self.ops = ops
        self.tracer = tracer
        self.seconds: list[float] = []
        self.out_bytes = 0
        self.attempted = 0
        self.counts = {stats.OK: 0, stats.REJECTED: 0, stats.FAILED: 0}
        self.search: list[dict] = []
        self.overhead = [0.0, 0.0]  # traced, untraced seconds of the same ops
        self.failures: list[str] = []
        self.wall = 0.0

    def _judge(self, op, outcome, keep: bool, time_call=_untimed) -> None:
        try:
            check_ok = not outcome.raised and outcome.returncode == 0 and op.check(outcome, time_call)
        except Exception as exc:  # a malformed output is a failed operation
            check_ok = False
            outcome.stderr += f"check raised {exc!r}"
        verdict = stats.classify(
            expect_reject=op.expect_reject, returncode=outcome.returncode,
            raised=outcome.raised, stderr=outcome.stderr, check_ok=check_ok,
        )
        self.attempted += 1
        self.counts[verdict] += 1
        if verdict == stats.FAILED and len(self.failures) < 5:
            self.failures.append(f"{op.label}: exit {outcome.returncode}: {outcome.stderr.strip()[-400:]}")
        if keep and outcome.search is not None:
            self.search.append(outcome.search)

    def run_op(self, op, keep: bool) -> None:
        outcome = self.workloads.execute(op)
        self._judge(op, outcome, keep)
        if keep:
            self.seconds.append(outcome.seconds)
            self.out_bytes += outcome.out_bytes
        if self.tracer is None:
            return
        with self.tracer.operation(self.workloads.TRACE_TARGETS):
            traced = self.workloads.execute(op)
        # checked outside the operation, so calls the check makes are no spans
        self._judge(op, traced, keep=False, time_call=self.tracer.time_call)
        self.workloads.time_nested(self.tracer)
        self.tracer.finish(traced.seconds if op.argv is not None else None)
        if not keep:
            self.tracer.samples.clear()
        else:
            self.overhead[0] += traced.seconds
            self.overhead[1] += outcome.seconds

    def warm_up(self, seconds: float) -> None:
        """Untimed whole cycles until ``seconds`` have passed."""
        start = time.perf_counter()
        while True:
            for op in self.ops:
                self.run_op(op, keep=False)
            if time.perf_counter() - start >= seconds:
                return

    def measure(self, cycles: int) -> None:
        start = time.perf_counter()
        for _ in range(cycles):
            for op in self.ops:
                self.run_op(op, keep=True)
        self.wall = time.perf_counter() - start


def end_to_end(loop: Loop, setup_s: float) -> tuple[dict, str]:
    tail_ms, tail_pct, windows = stats.windowed_tail(s * 1e3 for s in loop.seconds)
    n = len(loop.seconds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / sum(loop.seconds), "ops/s"),
        "op_ms_p50": (statistics.median(loop.seconds) * 1e3, "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "ok_share": ((loop.attempted - loop.counts[stats.FAILED]) / loop.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "out_bytes_per_op": (loop.out_bytes / n, "bytes"),
    }
    note = (f"op_ms_tail is p{tail_pct:.2f}, median over {windows} window(s) of "
            f"{min(n, stats.TAIL_WINDOW)} of the {n} timed operations")
    return metrics, note


def per_layer(loop: Loop, spans) -> dict:
    samples = loop.tracer.samples
    metrics = {}
    for name in spans:
        values = samples.get(name, [])
        metrics[f"{name}.calls"] = (len(values), "count")
        metrics[f"{name}.busy_ms"] = (sum(values), "ms")
        metrics[f"{name}.ms_p50"] = (stats.quantile(values, 0.5), "ms")
        metrics[f"{name}.ms_p90"] = (stats.quantile(values, 0.9), "ms")
    search_ms = sum(samples.get("basis_opt.maximize_mu", [])) + sum(samples.get("basis_opt.maximize_visibility", []))
    evaluations = sum(s["evaluations"] for s in loop.search)
    unseeded = [s for s in loop.search if not s["seeded"]]
    # a search that never came within the tolerance counts as needing more
    # than its whole budget
    to_tol = [s["evals_to_tol"] if s["evals_to_tol"] is not None else s["evaluations"] + 1 for s in unseeded]
    metrics.update({
        "basis_opt.us_per_eval": (search_ms * 1e3 / evaluations if evaluations else 0.0, "us"),
        "basis_opt.evals_to_tol_p50": (stats.quantile(to_tol, 0.5), "count"),
        "basis_opt.restarts_per_op": (
            statistics.mean(s["evaluations"] - s["iterations"] for s in loop.search) if loop.search else 0.0,
            "count",
        ),
        "basis_opt.converged_share": (
            sum(s["converged"] for s in unseeded) / len(unseeded) if unseeded else 0.0,
            "ratio",
        ),
        "trace_overhead_share": (
            loop.overhead[0] / loop.overhead[1] - 1.0 if loop.overhead[1] else 0.0,
            "ratio",
        ),
    })
    return metrics


def run_workload(args) -> int:
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_s = time_setup(args, workdir)
        import_program()
        import tracing
        import workloads

        machine = machine_facts()
        spec = workloads.WORKLOADS[args.workload]
        ops = spec.make_ops(spec.generate(args.seed, workdir), workdir)
        loop = Loop(workloads, ops, tracing.Tracer() if args.trace else None)
        loop.warm_up(WARMUP_SECONDS)
        # a traced run does every operation twice
        cycles = round(args.seconds / (spec.cycle_seconds * (2 if args.trace else 1)))
        loop.measure(max(1, cycles, math.ceil(stats.MIN_TAIL_SAMPLES / len(ops))))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()

    if args.trace:
        metrics, note = per_layer(loop, workloads.SPANS), f"traced {len(loop.seconds)} operations"
    else:
        metrics, note = end_to_end(loop, setup_s)
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(loop.seconds) // len(ops)} cycles "
          f"of {len(ops)} operations in {loop.wall:.2f} s; {note}; "
          f"ok {loop.counts[stats.OK]}, expected rejections {loop.counts[stats.REJECTED]}, "
          f"failed {loop.counts[stats.FAILED]} of {loop.attempted} attempted (warm-up included)")
    for failure in loop.failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    failed = loop.counts[stats.FAILED]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                return done.returncode
            results[f"{name}/trace{trace}"] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "qcoherence" / "__init__.py").is_file():
        print(f"error: no program source at {SOURCE / 'qcoherence'}", file=sys.stderr)
        return 2
    if args.setup_into:
        import_program()
        import workloads

        target = Path(args.setup_into)
        target.mkdir(parents=True)
        workloads.WORKLOADS[args.workload].generate(args.seed, target)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
