"""Tests for the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import time

import pytest

from drive import poisson_offsets
from metrics import END_TO_END, PER_LAYER, benchmark_json
from stats import (
    covered_length,
    due_times,
    percentile,
    self_time,
    slices,
    stream_rng,
)
from speed import REFERENCE_CHUNK_S, SpeedProbe, speed_of
from workloads import WORKLOADS, RepeatStream, ZipfStream

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_percentile_is_nearest_rank_with_count():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == (3.0, 5)
    assert percentile(values, 99) == (5.0, 5)
    assert percentile(values, 0) == (1.0, 5)
    assert percentile(list(range(1, 101)), 99) == (99.0, 100)
    assert percentile([7.0], 50) == (7.0, 1)


def test_percentile_of_nothing_reports_zero_samples():
    assert percentile([], 99) == (0.0, 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_self_time_subtracts_union_of_children_inside_the_span():
    # Children overlap each other (2-5 and 4-6) and one overruns the
    # parent (9-12): covered time inside 0-10 is 2-6 and 9-10.
    children = [(2.0, 5.0), (4.0, 6.0), (9.0, 12.0)]
    assert covered_length(children, 0.0, 10.0) == pytest.approx(5.0)
    assert self_time(0.0, 10.0, children) == pytest.approx(5.0)
    assert self_time(0.0, 10.0, []) == pytest.approx(10.0)
    assert self_time(0.0, 1.0, [(3.0, 4.0)]) == pytest.approx(1.0)


def test_stream_rng_depends_only_on_its_coordinates():
    assert stream_rng(7, "request", 3).random() == stream_rng(7, "request", 3).random()
    assert stream_rng(7, "request", 3).random() != stream_rng(7, "request", 4).random()
    assert stream_rng(7, "request", 3).random() != stream_rng(8, "request", 3).random()


def _describe(request):
    return (
        request.client,
        request.operation,
        [str(c.name) for c in request.requirements],
        None if request.acceptance is None else request.acceptance.lower,
    )


@pytest.mark.parametrize("stream_type", [ZipfStream, RepeatStream])
def test_request_i_is_independent_of_order(stream_type):
    forward = stream_type(11, 8)
    backward = stream_type(11, 8)
    indices = list(range(40)) + [10_000_000, 20_000_123]
    ahead = {i: forward.request(i) for i in indices}
    behind = {i: backward.request(i) for i in reversed(indices)}
    for i in indices:
        assert ahead[i][1] == behind[i][1]
        assert _describe(ahead[i][0]) == _describe(behind[i][0])


def test_zipf_stream_varies_with_the_seed_and_carries_acceptance():
    one = [ZipfStream(1, 8).request(i)[1] for i in range(400)]
    two = [ZipfStream(2, 8).request(i)[1] for i in range(400)]
    assert one != two
    with_acceptance = sum(1 for _, lower in one if lower is not None)
    assert 40 < with_acceptance < 120  # about a fifth
    assert len({cls for cls, _ in one}) > 50  # many demand classes


def test_due_times_accumulate_from_the_start():
    assert due_times([0.5, 0.25, 0.0, 1.0], 10.0) == [10.5, 10.75, 10.75, 11.75]
    with pytest.raises(ValueError):
        due_times([0.1, -0.2], 0.0)


def test_poisson_schedule_is_seeded_and_bounded():
    offsets = poisson_offsets(3, 200.0, 0, seconds=5.0)
    assert offsets == poisson_offsets(3, 200.0, 0, seconds=5.0)
    assert offsets != poisson_offsets(4, 200.0, 0, seconds=5.0)
    assert offsets == sorted(offsets) and offsets[-1] <= 5.0
    assert 800 < len(offsets) < 1200
    # A count-bounded schedule is a prefix of the time-bounded one.
    assert poisson_offsets(3, 200.0, 0, sessions=50) == offsets[:50]


def test_slices_group_by_completion_time():
    done = [0.1, 0.5, 1.2, 1.9, 2.5, 3.7]
    groups = slices(done, 0.0, 3.7, 1.0)
    # Three whole seconds; the 0.7 s remainder joins the last slice.
    assert groups == [[0, 1], [2, 3], [4, 5]]
    assert slices([0.2, 0.4], 0.0, 0.5, 1.0) == [[0, 1]]


def test_speed_is_the_reference_over_the_median_sample_inside():
    ref = REFERENCE_CHUNK_S
    samples = [(0.1, ref), (0.4, 2 * ref), (0.7, 2 * ref), (1.2, ref / 2)]
    # Median of the three samples started in [0, 1): twice the reference
    # CPU time, so the host ran at half the reference speed.
    assert speed_of(samples, 0.0, 1.0) == pytest.approx(0.5)
    assert speed_of(samples, 1.0, 2.0) == pytest.approx(2.0)
    assert speed_of(samples, 2.0, 3.0) is None


def test_speed_probe_samples_and_stops():
    with SpeedProbe() as probe:
        started = time.perf_counter()
        time.sleep(0.3)
        ended = time.perf_counter()
    assert probe.samples
    assert probe.speed(started, ended) > 0
    # An interval with no sample falls back to the whole probe.
    assert probe.speed(ended + 10, ended + 11) == probe.speed(
        float("-inf"), float("inf")
    )


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        document = json.load(handle)
    expected = benchmark_json(
        [(workload.name, workload.why) for workload in WORKLOADS.values()]
    )
    assert document == expected
    names = [m.name for m in END_TO_END] + [m.name for m in PER_LAYER]
    assert len(names) == len(set(names))
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert setup.bound == max(m.bound for m in END_TO_END)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS.values())
