"""Self-tests for the benchmark's own arithmetic.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


# -- tail percentile ---------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_above():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    value, percentile = stats.tail(samples)
    assert value == 90
    assert percentile == 90.0
    assert sum(s > value for s in samples) == 10


def test_tail_at_the_minimum_sample_count():
    value, percentile = stats.tail([5.0] * 10 + [1.0])
    assert value == 1.0
    assert percentile == pytest.approx(100 / 11)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail(range(10))


def test_windowed_tail_takes_the_median_over_whole_windows():
    window = stats.TAIL_WINDOW
    # three windows whose tails (the 11th largest) are 1, 2 and 3, plus a
    # partial window of large values that is left out
    samples = []
    for level in (1.0, 3.0, 2.0):
        samples += [0.0] * (window - 11) + [level] + [100.0] * 10
    samples += [1000.0] * (window - 1)
    value, percentile, windows = stats.windowed_tail(samples)
    assert (value, windows) == (2.0, 3)
    assert percentile == pytest.approx(100.0 * (window - 10) / window)


def test_windowed_tail_below_one_window_is_the_plain_tail():
    samples = [float(k) for k in range(50)]
    assert stats.windowed_tail(samples) == (*stats.tail(samples), 1)


def test_quantile_nearest_rank():
    values = list(range(1, 31))
    assert stats.quantile(values, 0.5) == 15
    assert stats.quantile(values, 0.9) == 27
    assert stats.quantile([], 0.9) == 0.0


def test_iqr_share_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # quantiles (exclusive method): 2.75, 5.5, 8.25
    assert stats.iqr_share(values) == pytest.approx((8.25 - 2.75) / 5.5)


# -- self time -----------------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    spans = [
        (0.0, 10.0, None),  # root
        (1.0, 4.0, 0),      # child of root
        (2.0, 3.0, 1),      # grandchild
        (5.0, 6.0, 0),      # second child of root
    ]
    assert stats.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_tracer_spans_nesting_and_cli_self():
    clock = FakeClock()
    lib = types.SimpleNamespace()

    def inner():
        clock.advance(0.002)

    def outer():
        clock.advance(0.001)
        lib.inner()  # reached through the module attribute, so it is seen
        clock.advance(0.003)

    lib.inner, lib.outer = inner, outer
    tracer = tracing.Tracer(clock)
    with tracer.operation([(lib, "outer", "lib.outer"), (lib, "inner", "lib.inner")]):
        clock.advance(0.010)  # the caller's own work
        lib.outer()
    assert lib.outer is outer and lib.inner is inner  # restored

    outer_span = tracer.spans[0]
    clock.advance(1.0)  # time between the operation and the nested timing
    tracer.time_nested(outer_span, "lib.helper", clock.advance, 0.0005)
    tracer.finish(op_seconds=0.020)

    assert tracer.samples["lib.inner"] == pytest.approx([2.0])
    assert tracer.samples["lib.outer"] == pytest.approx([4.0 - 0.5])
    assert tracer.samples["lib.helper"] == pytest.approx([0.5])
    # the operation minus the one top-level span (6 ms)
    assert tracer.samples["cli.self"] == pytest.approx([14.0])


def test_tracer_names_spans_by_call_count_and_survives_exceptions():
    clock = FakeClock()
    lib = types.SimpleNamespace(build=lambda: clock.advance(0.001))

    def ladder_after_first(tracer):
        return "lib.ladder" if tracer.calls_so_far(["build"]) > 1 else "lib.build"

    def broken():
        clock.advance(0.004)
        raise ValueError("rejected")

    lib.broken = broken
    tracer = tracing.Tracer(clock)
    with tracer.operation([(lib, "build", ladder_after_first), (lib, "broken", "lib.broken")]):
        lib.build()
        lib.build()
        lib.build()
        with pytest.raises(ValueError):
            lib.broken()
    tracer.finish(op_seconds=None)
    assert len(tracer.samples["lib.build"]) == 1
    assert len(tracer.samples["lib.ladder"]) == 2
    assert tracer.samples["lib.broken"] == pytest.approx([4.0])
    assert "cli.self" not in tracer.samples


# -- failure classification ----------------------------------------------------


@pytest.mark.parametrize(
    "expect_reject, returncode, raised, stderr, check_ok, verdict",
    [
        (False, 0, False, "", True, stats.OK),
        (False, 0, False, "", False, stats.FAILED),   # wrong output
        (False, 2, False, "error: x", True, stats.FAILED),  # valid input rejected
        (False, 3, False, "internal error: x", True, stats.FAILED),
        (False, None, True, "Traceback ...", False, stats.FAILED),  # escaped exception
        (True, 2, False, "error: not Hermitian", False, stats.REJECTED),
        (True, 2, False, "Traceback (most recent call last):", False, stats.FAILED),
        (True, 2, False, "", False, stats.FAILED),  # silent rejection
        (True, 0, False, "", True, stats.FAILED),   # invalid input accepted
        (True, 3, False, "internal error: x", False, stats.FAILED),
        (True, None, True, "", False, stats.FAILED),
    ],
)
def test_classify(expect_reject, returncode, raised, stderr, check_ok, verdict):
    assert stats.classify(
        expect_reject=expect_reject, returncode=returncode, raised=raised,
        stderr=stderr, check_ok=check_ok,
    ) == verdict


# -- the declared metrics are the emitted ones -----------------------------------


def test_benchmark_json_names_match_the_runner():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    run.import_program()
    import workloads

    loop = run.Loop(workloads, ops=[], tracer=tracing.Tracer())
    loop.seconds = [0.001 * k for k in range(1, 21)]
    loop.attempted, loop.out_bytes = 20, 100
    e2e, _ = run.end_to_end(loop, setup_s=0.5)
    assert [m["name"] for m in declared["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in declared["end_to_end"]] == [unit for _, unit in e2e.values()]
    layers = run.per_layer(loop, workloads.SPANS)
    assert [m["name"] for m in declared["per_layer"]] == list(layers)
    assert [m["unit"] for m in declared["per_layer"]] == [unit for _, unit in layers.values()]
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
