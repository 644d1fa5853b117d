"""Metrics: instruments, registry semantics, exporters, null mode."""

import pytest

from repro.telemetry import (
    DEFAULT_CACHE_SIZE,
    LRUCache,
    MetricsError,
    MetricsRegistry,
    NULL_REGISTRY,
    telemetry_session,
    to_prometheus,
)
from repro.telemetry.metrics import NULL_INSTRUMENT


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = MetricsRegistry().counter("c_total")
        assert counter.value == 0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(MetricsError):
            counter.inc(-1)

    def test_inc_zero_registers_a_sample(self):
        # Snapshots must show the full counter set even when nothing
        # fired — inc(0) is how instrumented code forces the sample.
        registry = MetricsRegistry()
        registry.counter("c_total", labelnames=("method",)).labels(
            "branch-bound"
        ).inc(0)
        [metric] = registry.snapshot()["metrics"]
        assert metric["samples"] == [
            {"labels": {"method": "branch-bound"}, "value": 0.0}
        ]


class TestLabels:
    def test_children_are_memoized(self):
        family = MetricsRegistry().counter("c_total", labelnames=("rule",))
        assert family.labels("R1-Tell") is family.labels("R1-Tell")
        assert family.labels("R1-Tell") is not family.labels("R2-Ask")

    def test_positional_and_keyword_agree(self):
        family = MetricsRegistry().counter(
            "c_total", labelnames=("a", "b")
        )
        assert family.labels("x", "y") is family.labels(b="y", a="x")

    def test_arity_and_unknown_names_rejected(self):
        family = MetricsRegistry().counter("c_total", labelnames=("a",))
        with pytest.raises(MetricsError):
            family.labels("x", "y")
        with pytest.raises(MetricsError):
            family.labels(wrong="x")
        with pytest.raises(MetricsError):
            family.labels("x", a="x")

    def test_unlabelled_family_refuses_labels(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().counter("c_total").labels("x")

    def test_preseed_registers_zeroes(self):
        rules = ("R1-Tell", "R2-Ask", "R3-Parall1")
        family = MetricsRegistry().counter(
            "sccp_transitions_total", labelnames=("rule",)
        )
        family.preseed(rules)
        samples = family.samples()
        assert {s["labels"]["rule"] for s in samples} == set(rules)
        assert all(s["value"] == 0 for s in samples)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13

    def test_set_max_keeps_the_peak(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set_max(7)
        gauge.set_max(3)
        assert gauge.value == 7


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        histogram = MetricsRegistry().histogram(
            "h_seconds", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(56.05)
        # cumulative le-semantics: ≤0.1 → 1, ≤1.0 → 3, ≤10.0 → 4, +Inf → 5
        assert histogram.cumulative_counts() == [1, 3, 4, 5]

    def test_timer_observes_elapsed_time(self):
        histogram = MetricsRegistry().histogram("h_seconds")
        with histogram.time():
            pass
        assert histogram.count == 1
        assert histogram.sum >= 0

    def test_empty_buckets_rejected(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().histogram("h_seconds", buckets=())


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("c_total") is registry.counter("c_total")

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(MetricsError):
            registry.gauge("m")

    def test_labelnames_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m", labelnames=("a",))
        with pytest.raises(MetricsError):
            registry.counter("m", labelnames=("b",))

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("z_total", "last").inc()
        registry.gauge("a_gauge", "first").set(2)
        snap = registry.snapshot()
        names = [m["name"] for m in snap["metrics"]]
        assert names == ["a_gauge", "z_total"]  # sorted by name
        by_name = {m["name"]: m for m in snap["metrics"]}
        assert by_name["z_total"]["kind"] == "counter"
        assert by_name["z_total"]["help"] == "last"
        assert by_name["a_gauge"]["samples"] == [{"labels": {}, "value": 2.0}]


class TestPrometheusExport:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter(
            "req_total", "Requests.", labelnames=("outcome",)
        ).labels("success").inc(3)
        registry.gauge("depth", "Depth.").set(1.5)
        text = to_prometheus(registry)
        assert "# HELP req_total Requests." in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{outcome="success"} 3' in text
        assert "depth 1.5" in text
        assert text.endswith("\n")

    def test_histogram_exposition(self):
        registry = MetricsRegistry()
        registry.histogram("h_seconds", buckets=(0.5, 1.0)).observe(0.7)
        text = to_prometheus(registry)
        assert 'h_seconds_bucket{le="0.5"} 0' in text
        assert 'h_seconds_bucket{le="1.0"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_sum 0.7" in text
        assert "h_seconds_count 1" in text

    def test_empty_registry_exports_empty_string(self):
        assert to_prometheus(MetricsRegistry()) == ""


class TestNullRegistry:
    def test_all_lookups_share_one_noop_instrument(self):
        assert NULL_REGISTRY.enabled is False
        counter = NULL_REGISTRY.counter("c_total", labelnames=("a",))
        assert counter is NULL_INSTRUMENT
        assert counter.labels("x") is counter
        counter.inc()
        counter.observe(1.0)
        counter.set(1.0)
        counter.set_max(1.0)
        counter.dec()
        with counter.time():
            pass
        assert counter.value == 0
        assert counter.count == 0

    def test_snapshot_is_empty(self):
        assert NULL_REGISTRY.snapshot() == {"metrics": []}
        assert NULL_REGISTRY.metrics() == []
        assert NULL_REGISTRY.get("anything") is None


class TestLRUCache:
    def test_hit_miss_and_eviction(self):
        cache = LRUCache(maxsize=2, name="t")
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b", the LRU entry
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats() == {
            "size": 2,
            "maxsize": 2,
            "hits": 3,
            "misses": 1,
            "evictions": 1,
        }

    def test_get_or_compute_computes_once(self):
        cache = LRUCache(maxsize=4, name="t")
        calls = []

        def compute():
            calls.append(1)
            return 42

        assert cache.get_or_compute("k", compute) == 42
        assert cache.get_or_compute("k", compute) == 42
        assert len(calls) == 1

    def test_resize_trims_lru_tail(self):
        cache = LRUCache(maxsize=4, name="t")
        for key in "abcd":
            cache.put(key, key)
        cache.resize(2)
        assert len(cache) == 2
        assert "c" in cache and "d" in cache
        with pytest.raises(ValueError):
            cache.resize(0)

    def test_default_capacity_matches_spec(self):
        assert LRUCache().maxsize == DEFAULT_CACHE_SIZE == 4096

    def test_counters_flow_to_the_active_registry(self):
        cache = LRUCache(maxsize=4, name="probe")
        with telemetry_session() as session:
            cache.get("missing")
            cache.put("k", 1)
            cache.get("k")
            hits = session.registry.get("cache_hits_total")
            misses = session.registry.get("cache_misses_total")
            assert hits.labels("probe").value == 1
            assert misses.labels("probe").value == 1
        # outside the session the cache keeps working, counters go nowhere
        cache.get("k")
        assert cache.hits == 2

    def test_counters_rebind_per_session(self):
        cache = LRUCache(maxsize=4, name="probe")
        with telemetry_session() as first:
            cache.get("nope")
        with telemetry_session() as second:
            cache.get("nope")
        for session in (first, second):
            misses = session.registry.get("cache_misses_total")
            assert misses.labels("probe").value == 1
