"""The metric catalogue: names, units, directions, bounds and targets.

``BENCHMARK.json`` at the repository root lists these same metrics (a
test keeps the two in step).  Its schema allows no extra keys, so the
record of which end-to-end metric, on which workload, each per-layer
metric should move lives here, in ``PER_LAYER``'s ``targets``.

"At the reference speed" means scaled, slice by slice, by the host speed
a probe process measured beside the program (:mod:`speed`); ``run.py``
prints the wall-clock figures beside the scaled ones.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float  # share of the parent's median it may worsen by
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    targets: str  # end-to-end metric (workloads) it should move


END_TO_END: List[EndToEnd] = [
    EndToEnd(
        "throughput_rps", "1/s", "higher", 0.25,
        "sessions that end with a correct SLA per second (median over "
        "one-second slices; closed loops at the reference speed)",
    ),
    EndToEnd(
        "latency_p50_ms", "ms", "lower", 0.25,
        "median session latency, open loop from the due time (median "
        "over one-second slices; at the reference speed)",
    ),
    EndToEnd(
        "latency_p99_ms", "ms", "lower", 0.25,
        "99th-percentile session latency, open loop from the due time "
        "(lower quartile over one-second slices; closed loops at the "
        "reference speed)",
    ),
    EndToEnd(
        "slo_met_share", "share", "higher", 0.1,
        "sessions ending OK and correct within the workload's stated "
        "latency limit, over sessions sent",
    ),
    EndToEnd(
        "answered_share", "share", "higher", 0.05,
        "1 - failed_share: sessions answered correctly (a confirmed "
        "rejection counts) over sessions attempted",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.1,
        "peak resident set of the fresh process after set-up and a fixed "
        "fill, before the timed window",
    ),
    EndToEnd(
        "rss_growth_kb_per_session", "kB", "lower", 0.1,
        "resident-set growth over the timed window per session served",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "build market and broker, start server or fleet, warm up "
        "(median of five set-ups; closed loops at the reference speed)",
    ),
]

PER_LAYER: List[PerLayer] = [
    PerLayer("driver.achieved_rate_rps", "1/s", "higher",
             "open-loop validity (fleet-faults-open)"),
    PerLayer("driver.send_lag_p99_ms", "ms", "lower",
             "open-loop validity (fleet-faults-open)"),
    PerLayer("runtime.queue_wait_p50_ms", "ms", "lower",
             "latency_p99_ms (repeat-market, fleet-faults-open)"),
    PerLayer("runtime.queue_wait_p99_ms", "ms", "lower",
             "latency_p99_ms (repeat-market, fleet-faults-open)"),
    PerLayer("runtime.session_self_us_p50", "us", "lower",
             "latency_p50_ms (repeat-market)"),
    PerLayer("runtime.attempts_per_session", "count", "lower",
             "latency_p99_ms, answered_share (fleet-faults-open)"),
    PerLayer("runtime.retry_share", "share", "lower",
             "latency_p99_ms, answered_share (fleet-faults-open)"),
    PerLayer("runtime.degraded_share", "share", "lower",
             "latency_p99_ms, answered_share (fleet-faults-open)"),
    PerLayer("runtime.degrade_lookup_us_p50", "us", "lower",
             "latency_p99_ms, answered_share (fleet-faults-open)"),
    PerLayer("fleet.dispatch_wait_p50_ms", "ms", "lower",
             "latency_p99_ms (fleet-faults-open)"),
    PerLayer("fleet.dispatch_wait_p99_ms", "ms", "lower",
             "latency_p99_ms (fleet-faults-open)"),
    PerLayer("fleet.shard_imbalance", "share", "lower",
             "latency_p99_ms (fleet-faults-open)"),
    PerLayer("soa.serve_session_us_p50", "us", "lower",
             "throughput_rps (repeat-market)"),
    PerLayer("soa.serve_session_us_p99", "us", "lower",
             "throughput_rps (repeat-market)"),
    PerLayer("soa.negotiate_self_us_p50", "us", "lower",
             "throughput_rps (repeat-market)"),
    PerLayer("soa.registry_find_us_p50", "us", "lower",
             "throughput_rps (repeat-market)"),
    PerLayer("soa.candidates_per_session", "count", "lower",
             "throughput_rps (repeat-market)"),
    PerLayer("soa.compile_document_calls_per_session", "count", "lower",
             "throughput_rps (repeat-market, zipf-market)"),
    PerLayer("soa.compile_document_us_p50", "us", "lower",
             "throughput_rps (repeat-market, zipf-market)"),
    PerLayer("soa.sign_combine_us_p50", "us", "lower",
             "throughput_rps (repeat-market, zipf-market)"),
    PerLayer("soa.slas_retained_per_session", "count", "lower",
             "rss_growth_kb_per_session (repeat-market)"),
    PerLayer("solver.solve_calls_per_session", "count", "lower",
             "throughput_rps (zipf-market)"),
    PerLayer("solver.solve_us_p50", "us", "lower",
             "throughput_rps (zipf-market)"),
    PerLayer("solver.solve_us_p99", "us", "lower",
             "throughput_rps (zipf-market)"),
    PerLayer("solver.miss_solve_us_p50", "us", "lower",
             "throughput_rps (zipf-market)"),
    PerLayer("solver.hit_solve_us_p50", "us", "lower",
             "throughput_rps (repeat-market)"),
    PerLayer("solver.fingerprint_us_p50", "us", "lower",
             "throughput_rps (repeat-market)"),
    PerLayer("solver.cache_hit_share", "share", "higher",
             "throughput_rps (zipf-market); the measured repeated-input share"),
    PerLayer("solver.cache_evictions_per_session", "count", "lower",
             "throughput_rps (zipf-market)"),
    PerLayer("solver.nodes_expanded_per_solve", "count", "lower",
             "throughput_rps (zipf-market)"),
    PerLayer("solver.buckets_per_solve", "count", "lower",
             "throughput_rps (zipf-market)"),
    PerLayer("solver.leaves_per_solve", "count", "lower",
             "throughput_rps (zipf-market)"),
    PerLayer("constraints.acceptance_us_p50", "us", "lower",
             "throughput_rps (zipf-market)"),
    PerLayer("resilience.breaker_open_share", "share", "lower",
             "answered_share (fleet-faults-open)"),
    PerLayer("resilience.breaker_rejections_per_session", "count", "lower",
             "answered_share (fleet-faults-open)"),
    PerLayer("telemetry.spans_retained_per_session", "count", "lower",
             "rss_growth_kb_per_session, latency_p50_ms (fleet-faults-open)"),
    PerLayer("telemetry.events_retained_per_session", "count", "lower",
             "rss_growth_kb_per_session, latency_p50_ms (fleet-faults-open)"),
    PerLayer("process.cpu_util", "share", "higher",
             "throughput_rps, latency_p99_ms (all workloads)"),
    PerLayer("process.gc_gen2_collections", "count", "lower",
             "throughput_rps, latency_p99_ms (all workloads)"),
    PerLayer("process.gc_pause_ms_p99", "ms", "lower",
             "throughput_rps, latency_p99_ms (all workloads)"),
    PerLayer("trace.overhead_throughput_share", "share", "lower",
             "none: the tracer's own cost (traced vs untraced half)"),
    PerLayer("trace.overhead_latency_p50_share", "share", "lower",
             "none: the tracer's own cost (traced vs untraced half)"),
]

UNITS: Dict[str, str] = {
    **{metric.name: metric.unit for metric in END_TO_END},
    **{metric.name: metric.unit for metric in PER_LAYER},
}


def benchmark_json(workloads: List[Tuple[str, str]]) -> dict:
    """The ``BENCHMARK.json`` document for ``(name, why)`` workloads."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 25,
        "workloads": [{"name": name, "why": why} for name, why in workloads],
        "end_to_end": [
            {
                "name": metric.name,
                "unit": metric.unit,
                "better": metric.better,
                "bound": metric.bound,
            }
            for metric in END_TO_END
        ],
        "per_layer": [
            {"name": metric.name, "unit": metric.unit, "better": metric.better}
            for metric in PER_LAYER
        ],
    }
