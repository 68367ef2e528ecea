"""The benchmark's own arithmetic on synthetic inputs."""

import math

import pytest

from perfbench import arith
from perfbench.spans import SpanRecorder


def test_tail_percentile_keeps_ten_samples_beyond():
    assert arith.min_samples(0.99) == 1000
    assert arith.min_samples(0.95) == 200
    assert arith.min_samples(0.90) == 100
    tail = arith.percentile(range(1, 201), 0.95)
    assert tail == {"value": 190, "n": 200, "beyond": 10}
    assert arith.percentile(range(1, 1000), 0.99)["beyond"] == 9


def test_nearest_rank_median_and_bounds():
    assert arith.percentile([5, 1, 3], 0.5)["value"] == 3
    assert arith.percentile([4, 1, 3, 2], 0.5)["value"] == 2
    assert arith.percentile([7], 0.99) == {"value": 7, "n": 1, "beyond": 0}
    with pytest.raises(ValueError):
        arith.percentile([], 0.5)
    with pytest.raises(ValueError):
        arith.percentile([1], 0.0)


def test_beta_cdf():
    assert arith.beta_cdf(0.0, 2.0, 3.0) == 0.0
    assert arith.beta_cdf(1.0, 2.0, 3.0) == 1.0
    # I_x(1, 1) = x and I_x(2, 1) = x^2
    assert arith.beta_cdf(0.3, 1.0, 1.0) == pytest.approx(0.3)
    assert arith.beta_cdf(0.3, 2.0, 1.0) == pytest.approx(0.09)
    # symmetry: I_x(a, b) = 1 - I_{1-x}(b, a), on both branches
    for x in (0.1, 0.9, 0.97):
        assert arith.beta_cdf(x, 191.9, 10.1) == pytest.approx(
            1.0 - arith.beta_cdf(1.0 - x, 10.1, 191.9), abs=1e-12
        )


def test_harrell_davis_percentile():
    # the weights sum to one: a constant sample estimates its constant
    assert arith.hd_percentile([4.0] * 201, 0.95)["value"] == pytest.approx(4.0)
    # a sample symmetric about 10 has its median at 10
    assert arith.hd_percentile([7, 9, 10, 11, 13], 0.5)["value"] == pytest.approx(10)
    # a uniform grid 1..n estimates about q * n + 1/2
    tail = arith.hd_percentile(range(1, 201), 0.95)
    assert tail["value"] == pytest.approx(0.95 * 200 + 0.5, abs=0.05)
    assert (tail["n"], tail["beyond"]) == (200, 10)
    # one outlier among the top ranks moves the estimate by a share of
    # its excess, not by all of it as it moves the nearest-rank value
    values = list(range(1, 201))
    values[189] = 400.0
    assert arith.percentile(values, 0.95)["value"] == 191
    moved = arith.hd_percentile(values, 0.95)["value"] - tail["value"]
    assert 0.0 < moved < 0.5 * (400.0 - 190.0)
    with pytest.raises(ValueError):
        arith.hd_percentile([1.0, 2.0], 1.0)


def test_self_time_of_nested_spans():
    spans = [
        ("a", 0.0, 10.0, None),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 8.0, 0),
    ]
    totals = arith.self_times(spans)
    assert totals["a"] == [4.0, 10.0, 1]
    assert totals["b"] == [5.0, 6.0, 2]
    assert totals["c"] == [1.0, 1.0, 1]
    # self times partition the root's interval
    assert sum(t[0] for t in totals.values()) == pytest.approx(10.0)


def test_self_time_counts_only_outermost_recursive_activation():
    spans = [
        ("factor", 0.0, 10.0, None),
        ("factor", 1.0, 9.0, 0),
        ("lmad", 2.0, 3.0, 1),
        ("factor", 4.0, 6.0, 1),
    ]
    totals = arith.self_times(spans)
    assert totals["factor"] == [9.0, 10.0, 1]
    assert totals["lmad"] == [1.0, 1.0, 1]


def test_self_time_clips_and_merges_overlapping_children():
    spans = [
        ("root", 0.0, 10.0, None),
        ("work", 1.0, 5.0, 0),
        ("work", 3.0, 7.0, 0),
        ("late", 9.0, 12.0, 0),
    ]
    assert arith.self_times(spans)["root"][0] == pytest.approx(3.0)
    with pytest.raises(ValueError):
        arith.self_times([("a", 0.0, 1.0, 0)])


def test_recorder_keeps_outermost_activation_only():
    recorder = SpanRecorder()

    def fact(n):
        return 1 if n <= 1 else n * traced(n - 1)

    traced = recorder.wrap("fact", fact)
    assert traced(5) == 120
    spans = recorder.drain()
    assert [s[0] for s in spans] == ["fact"]
    assert recorder.drain() == []


def test_geomean_ratios():
    assert arith.geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert arith.geomean([2.0, 8.0, 4.0]) == pytest.approx(4.0)
    assert arith.geomean([3.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        arith.geomean([1.0, 0.0])
    with pytest.raises(ValueError):
        arith.geomean([])


def test_failure_share_counts_shed_requests():
    outcomes = ["ok", "shed", "error", "ok", "wrong", "timeout"]
    assert arith.failure_share(outcomes) == (6, 4)
    limited = arith.limit_latencies([1.0, 2.0, 3.0], ["ok", "shed", "ok"])
    assert limited == [1.0, math.inf, 3.0]


def test_a_shed_request_misses_the_limit():
    latencies = [1.0] * 999 + [0.5]
    assert arith.window_passes(latencies, 100, 100, limit=5.0)
    shed = ["ok"] * 989 + ["shed"] * 11
    limited = arith.limit_latencies(latencies, shed)
    assert not arith.window_passes(limited, 100, 100, limit=5.0)


def test_window_rule():
    fast = [1.0] * 1000
    assert arith.window_passes(fast, 200, 199.0, limit=2.0)
    # p99 over the limit
    slow_tail = [1.0] * 980 + [9.0] * 20
    assert not arith.window_passes(slow_tail, 200, 200, limit=2.0)
    # a growing backlog: the window delivered less than its offered rate
    assert not arith.window_passes(fast, 200, 150.0, limit=2.0)
    # too few samples for a p99 with ten beyond it
    assert not arith.window_passes([1.0] * 999, 200, 200, limit=2.0)


def test_rung_verdict_takes_the_majority_of_windows():
    assert arith.rung_verdict([True, True], 3) is True
    assert arith.rung_verdict([False, False], 3) is False
    assert arith.rung_verdict([True, False], 3) is None
    assert arith.rung_verdict([True, False, True], 3) is True
    assert arith.rung_verdict([], 3) is None


def test_ladder_stops_at_first_failing_rung():
    assert arith.ladder_result([(200, True), (400, True), (1600, False)]) == (1, 3)
    assert arith.ladder_result([(200, True), (400, False), (1600, True)]) == (0, 2)
    assert arith.ladder_result([(200, False), (400, True)]) == (None, 1)
    assert arith.ladder_result([(200, True), (400, True)]) == (1, 2)
