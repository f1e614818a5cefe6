"""Arithmetic shared by the benchmark runner and its steadiness check.

Pure functions on lists of numbers, so the self-tests can pin them down
without running the program.
"""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10
MIN_TAIL_SAMPLES = TAIL_BEYOND + 1
TAIL_WINDOW = 1000

OK = "ok"
REJECTED = "rejected"
FAILED = "failed"


def tail(samples) -> tuple[float, float]:
    """Highest percentile with at least ``TAIL_BEYOND`` samples above it.

    Returns ``(value, percentile)``.  By nearest rank, percentile
    ``100 * (n - 10) / n`` is the ``(n - 10)``-th smallest sample, which
    leaves exactly ten samples above it; any higher percentile leaves fewer.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < MIN_TAIL_SAMPLES:
        raise ValueError(f"the tail needs at least {MIN_TAIL_SAMPLES} samples, got {n}")
    return ordered[n - MIN_TAIL_SAMPLES], 100.0 * (n - TAIL_BEYOND) / n


def windowed_tail(samples) -> tuple[float, float, int]:
    """:func:`tail` of each run of ``TAIL_WINDOW`` consecutive samples, and
    the median over those windows; returns ``(value, percentile, windows)``.

    Fewer samples than one window form a single window; a partial last
    window is left out.  Over thousands of samples the run-wide tail is
    the tenth-rarest stall, whose count per run varies around ten, so it
    jumps between runs; per window it stays at p99.
    """
    samples = list(samples)
    if len(samples) < TAIL_WINDOW:
        value, percentile = tail(samples)
        return value, percentile, 1
    windows = [samples[i : i + TAIL_WINDOW] for i in range(0, len(samples) - TAIL_WINDOW + 1, TAIL_WINDOW)]
    values = [tail(window)[0] for window in windows]
    return statistics.median(values), tail(windows[0])[1], len(windows)


def quantile(samples, q: float) -> float:
    """Nearest-rank quantile, ``0 < q <= 1``; 0.0 for no samples."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    # the small offset keeps float products such as 0.9 * 30 on their rank
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def iqr_share(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, with the quartiles ``statistics.quantiles(values, n=4)`` gives."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part covered by its
    direct children.

    ``spans`` is a sequence of ``(start, end, parent)`` with ``parent`` the
    index of the enclosing span or ``None``.
    """
    child_total = [0.0] * len(spans)
    for start, end, parent in spans:
        if parent is not None:
            child_total[parent] += end - start
    return [end - start - child_total[i] for i, (start, end, _) in enumerate(spans)]


def classify(*, expect_reject: bool, returncode, raised: bool, stderr: str, check_ok: bool) -> str:
    """Outcome of one operation.

    An input meant to be invalid must exit 2 with an error message and no
    traceback; that is an expected rejection.  Everything else must exit 0
    and pass its output check.  An escaped exception, any other exit code
    or a failed check is a failure.
    """
    if raised:
        return FAILED
    if expect_reject:
        clean = bool(stderr.strip()) and "Traceback" not in stderr
        return REJECTED if returncode == 2 and clean else FAILED
    return OK if returncode == 0 and check_ok else FAILED
