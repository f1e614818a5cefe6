"""Re-measure the ROADMAP baseline table, printed next to its figures.

Usage, from the repository root:

    python3 perfbench/baseline.py

Times the single paths the ROADMAP baseline names (to_bloch at N=128,
wigner_from_cv and convert_representation at d=256, the --save-state
encode and decode, the thermal-cv CLI command, the search cost per
evaluation) as medians of a few calls after one warm-up call, and eigh at
N=32/64 in fresh processes, split into the first second after start and
the steady state from the second second on.  Takes about a minute.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import time

import run

EIGH_PROCESSES = 8
EIGH_SECONDS = 3.0
# a first-second time this many times the steady median counts as a burst
BURST_FACTOR = 5.0


def _median_ms(function, *args, repeats: int) -> float:
    function(*args)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        function(*args)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def eigh_child() -> None:
    """Time eigh at N=32 and N=64 from process start; print per-size
    first-second maximum and steady median as JSON."""
    start = time.perf_counter()
    qc = run.import_program()
    import numpy as np

    mats = {n: qc.random_state(n, "ginibre_mixed", n).entries for n in (32, 64)}
    rows = []
    while time.perf_counter() - start < EIGH_SECONDS:
        for n, m in mats.items():
            t0 = time.perf_counter()
            np.linalg.eigh(m)
            t1 = time.perf_counter()
            rows.append((t0 - start, n, (t1 - t0) * 1e3))
    print(json.dumps({
        n: {
            "first_second_max_ms": max(ms for t, k, ms in rows if k == n and t < 1.0),
            "steady_median_ms": statistics.median(ms for t, k, ms in rows if k == n and t >= 2.0),
        }
        for n in mats
    }))


def eigh_rows() -> list[tuple[str, str, str]]:
    results = []
    for _ in range(EIGH_PROCESSES):
        done = subprocess.run(
            [sys.executable, __file__, "--eigh-child"], cwd=run.ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        )
        results.append(json.loads(done.stdout))
    rows = []
    for n, roadmap in (("32", "16 ms (0.15 ms with one BLAS thread)"), ("64", "57 ms (0.78 ms with one BLAS thread)")):
        steady = statistics.median(r[n]["steady_median_ms"] for r in results)
        bursts = [r[n]["first_second_max_ms"] for r in results
                  if r[n]["first_second_max_ms"] > BURST_FACTOR * r[n]["steady_median_ms"]]
        burst = f"; first-second bursts up to {max(bursts):.1f} ms" if bursts else ""
        rows.append((
            f"`np.linalg.eigh`, N={n}, default threads",
            roadmap,
            f"steady {steady:.2f} ms; {len(bursts)} of {len(results)} fresh processes burst{burst}",
        ))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--eigh-child", action="store_true", help=argparse.SUPPRESS)
    if parser.parse_args(argv).eigh_child:
        eigh_child()
        return 0

    qc = run.import_program()
    from qcoherence import cli, jsonio

    rho = qc.random_state(128, "ginibre_mixed", 1)
    grid = qc.build_cv_grid(256, 16.0)
    thermal = qc.thermal_cv(grid, 1.0)
    text = jsonio.dumps(jsonio.cv_state_to_dict(thermal))
    work = run.BENCH_DIR / ".work" / "baseline"
    work.mkdir(parents=True, exist_ok=True)
    argv_cv = ["infdim", "--family", "thermal-cv", "--nbar", "1.0", "--grid-d", "256", "--p-max", "16",
               "--output", str(work / "out.json")]

    def cli_quiet(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0

    def search_us_per_eval(dim):
        state = qc.random_state(dim, "ginibre_mixed", 31 + dim)
        budget = 20_000
        return _median_ms(qc.maximize_mu, state, budget, 17 + dim, repeats=1) * 1e3 / budget

    try:
        cli_row = ("CLI `infdim thermal-cv --grid-d 256`", "2.25 s",
                   f"{_median_ms(cli_quiet, argv_cv, repeats=3) / 1e3:.2f} s")
    finally:
        shutil.rmtree(work)
        with contextlib.suppress(OSError):  # left in place while a run uses it
            work.parent.rmdir()
    rows = [
        ("`to_bloch`, N=128", "31–56 ms", f"{_median_ms(qc.to_bloch, rho, repeats=15):.1f} ms"),
        ("`wigner_from_cv`, d=256, 241²", "1.6–2.0 s",
         f"{_median_ms(qc.wigner_from_cv, thermal, 241, 241, repeats=3) / 1e3:.2f} s"),
        ("`convert_representation`, d=256", "0.16–0.27 s",
         f"{_median_ms(qc.convert_representation, thermal, repeats=5) / 1e3:.3f} s"),
        cli_row,
        ("`--save-state` encode, d=256", "1.5–1.7 s, 4.7 MB",
         f"{_median_ms(lambda: jsonio.dumps(jsonio.cv_state_to_dict(thermal)), repeats=3) / 1e3:.2f} s, "
         f"{len(text.encode()) / 1e6:.2f} MB"),
        ("`--save-state` decode, d=256 (parse + `infdim_state_from_dict`)", "0.8 s",
         f"{_median_ms(lambda: jsonio.infdim_state_from_dict(json.loads(text)), repeats=3) / 1e3:.2f} s"),
        ("`maximize_mu` per evaluation, N=2/4/6", "about 45 µs (5.1 / 4.4 / 4.8 s per 100k)",
         " / ".join(f"{search_us_per_eval(n):.0f}" for n in (2, 4, 6)) + " µs (20k evaluations)"),
        *eigh_rows(),
    ]
    facts = run.machine_facts()
    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    print("| path | ROADMAP baseline | measured |")
    print("| --- | --- | --- |")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
