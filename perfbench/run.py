#!/usr/bin/env python3
"""The serving benchmark: one workload per process, end to end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload repeat-market --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the traced run: half the time untraced, half with spans
recorded around each layer's public calls; it reports the per-layer
metrics, the tracing overhead between the halves, and writes its spans
to ``perfbench/out/``.  Either way every agreement of the timed window is
checked against the exhaustive solver; a wrong one fails the run.

Output: a table of every metric with its unit (and sample count where it
is a percentile), then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status: 0
when every agreement was right, 1 when one was wrong, 2 when the program
cannot be found, 3 when the open loop could not keep its rate.
``--workload all`` runs each workload in a fresh process, one after the
other, and prints each one's table.  Every run pins itself to one CPU
(:func:`pin_to_one_cpu`).

End-to-end timings that are CPU work (``Workload.at_reference_speed``:
every timing of a closed loop, the open loop's median) are reported at
a fixed reference speed: a probe process on the same CPU (:mod:`speed`)
measures how fast the host runs in each one-second slice, and each
slice's rate and latencies are scaled by it.  The figures as the wall
clock read them are printed on the line below the table.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("repeat-market", "zipf-market", "fleet-faults-open")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: Slice length for the per-slice statistics of :func:`end_to_end`.
SLICE_S = 1.0

# Disjoint stream-index ranges, so the timed window sends the same
# requests whatever the warm-up and fill phases sent before it.
WINDOW_INDEX = 0
TRACED_INDEX = 10_000_000
FILL_INDEX = 20_000_000
WARM_INDEX = 30_000_000


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",)
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def rss_kb() -> float:
    """Current resident set size of this process, in kB."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 1024.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


async def measure(workload: Any, seed: int, seconds: float, traced: bool):
    """Set up, fill, run the timed window (two halves when traced) and
    stop; returns the raw measurements and the request stream."""
    from drive import closed_loop, open_loop, poisson_offsets
    from spans import ProcessProbe, SpanRecorder
    from stats import stream_rng

    stream = workload.make_stream(seed)

    async def window(
        serving: Any,
        first: int,
        length: Optional[float] = None,
        sessions: Optional[int] = None,
        recorder: Optional[SpanRecorder] = None,
    ):
        if workload.mode == "closed":
            return await closed_loop(
                serving.server,
                stream,
                workload.clients,
                first,
                seconds=length,
                sessions=sessions,
                recorder=recorder,
            )
        offsets = poisson_offsets(
            seed, workload.rate, first, seconds=length, sessions=sessions
        )
        return await open_loop(
            serving.server, stream, offsets, first, recorder=recorder
        )

    setups: List[float] = []
    serving = registry = None
    setup_started = time.perf_counter()
    for attempt in range(SETUPS):
        if serving is not None:
            await serving.stop()
            serving = registry = None
            gc.collect()
        started = time.perf_counter()
        registry = workload.build_market(seed)
        # Each set-up draws its own faults and retry backoff.  With the
        # run's seed in all of them the fleet's set-ups repeated one draw
        # of retries, so their median averaged nothing and set-up time
        # moved by half from seed to seed.
        serving = await workload.start_serving(
            registry, stream_rng(seed, "serving", attempt).getrandbits(31)
        )
        await closed_loop(
            serving.server,
            stream,
            workload.clients,
            WARM_INDEX + attempt * 100_000,
            sessions=workload.warm_sessions,
        )
        setups.append(time.perf_counter() - started)

    out: Dict[str, Any] = {
        "setups": setups,
        "setup_window": (setup_started, time.perf_counter()),
        "registry": registry,
    }
    try:
        await window(serving, FILL_INDEX, sessions=workload.fill_sessions)
        if not traced:
            gc.collect()
            # Peak before the window: a fixed amount of work so far, so
            # it does not grow with how many sessions a fast run serves.
            out["peak_rss_mb"] = peak_rss_mb()
            rss_before = rss_kb()
            out["tally"] = await window(serving, WINDOW_INDEX, length=seconds)
            gc.collect()
            out["rss_growth_kb"] = rss_kb() - rss_before
            return out, stream
        with ProcessProbe() as probe:
            untraced = await window(serving, WINDOW_INDEX, length=seconds / 2)
        before = counters(serving)
        recorder = SpanRecorder()
        recorder.install()
        try:
            tally = await window(
                serving, TRACED_INDEX, length=seconds / 2, recorder=recorder
            )
        finally:
            recorder.uninstall()
        out.update(
            tally=tally,
            untraced=untraced,
            probe=probe,
            before=before,
            after=counters(serving),
            recorder=recorder,
        )
        return out, stream
    finally:
        await serving.stop()


def counters(serving: Any) -> Dict[str, int]:
    """Program-side counters read around the traced window."""
    telemetry = serving.telemetry
    return {
        "evictions": serving.cache_evictions(),
        "slas": serving.slas_retained(),
        "telemetry_spans": (
            sum(1 for _ in telemetry.tracer.iter_spans()) if telemetry else 0
        ),
        "telemetry_events": len(telemetry.events) if telemetry else 0,
    }


def judge(tally: Any, oracle: Any) -> Tuple[List[Optional[str]], int, bytearray]:
    """Verdicts per distinct outcome, the failed-session count, and per
    session whether it ended OK with a correct agreement."""
    from oracle import verify

    verdicts = verify(oracle, tally.outcomes)
    served = [
        verdict is None and outcome[1] in ("completed", "degraded")
        for verdict, outcome in zip(verdicts, tally.outcomes)
    ]
    failed = sum(1 for index in tally.outcome if verdicts[index] is not None)
    return verdicts, failed, bytearray(served[index] for index in tally.outcome)


def end_to_end(
    raw: Dict[str, Any],
    failed: int,
    ok: bytearray,
    slo_limit_ms: float,
    probe: Optional[Any] = None,
    scaled: Tuple[str, ...] = (),
):
    """The end-to-end metrics of an untraced run, and the same timings
    as the wall clock read them.

    Timings are taken per one-second slice of the window, by completion
    time.  Throughput and p50 report the median slice: the machine's
    speed wanders by ±20% from one second to the next, and a median over
    slices shrugs off a slow second where one figure over the whole
    window does not.  The p99 reports the lower quartile of the slices'
    p99s: the host's preemption bursts inflate the tail of a minority
    of seconds by several times, and on closed loops even the median
    slice moved by a third from run to run.  Shares are over the whole
    window.

    With a ``probe`` (a :class:`speed.SpeedProbe` that ran through the
    run), the timings named in ``scaled`` are first scaled to the
    reference speed, each slice's rate and latencies by the host speed
    the probe measured over that same slice, the set-up time by the
    speed over the set-ups.
    """
    from stats import percentile, slices

    tally = raw["tally"]
    attempted = max(1, len(tally))
    latency = tally.latency_ms
    groups = slices(tally.done, tally.started, tally.last_done, SLICE_S)
    lengths = [SLICE_S] * len(groups)
    lengths[-1] = tally.duration_s - SLICE_S * (len(groups) - 1)
    speeds, setup_speed = [1.0] * len(groups), 1.0
    if scaled:
        bounds = [tally.started + SLICE_S * k for k in range(len(groups))]
        bounds.append(tally.last_done)
        speeds = [probe.speed(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        setup_speed = probe.speed(*raw["setup_window"])
    throughput = [
        sum(ok[k] for k in group) / length
        for group, length in zip(groups, lengths)
    ]
    p50 = [percentile([latency[k] for k in g], 50)[0] for g in groups]
    p99 = [percentile([latency[k] for k in g], 99)[0] for g in groups]
    slo_met = sum(
        1 for k in range(len(tally)) if ok[k] and latency[k] <= slo_limit_ms
    )

    def timings(scale: List[float], setup_scale: float) -> Dict[str, float]:
        kept = [k for k, group in enumerate(groups) if group]
        p99_scaled = [p99[k] * scale[k] for k in kept]
        return {
            "throughput_rps": statistics.median(
                rate / factor for rate, factor in zip(throughput, scale)
            ),
            "latency_p50_ms": statistics.median(p50[k] * scale[k] for k in kept),
            "latency_p99_ms": (
                statistics.quantiles(p99_scaled, n=4)[0]
                if len(p99_scaled) > 1
                else p99_scaled[0]
            ),
            "setup_s": statistics.median(raw["setups"]) * setup_scale,
        }

    wall = timings([1.0] * len(groups), 1.0)
    reported = dict(wall)
    if scaled:
        at_reference = timings(speeds, setup_speed)
        reported.update((name, at_reference[name]) for name in scaled)
    metrics = {
        "throughput_rps": (reported["throughput_rps"], len(tally)),
        "latency_p50_ms": (reported["latency_p50_ms"], len(tally)),
        "latency_p99_ms": (reported["latency_p99_ms"], len(tally)),
        "slo_met_share": (slo_met / attempted, len(tally)),
        "answered_share": (1.0 - failed / attempted, len(tally)),
        "peak_rss_mb": (raw["peak_rss_mb"], None),
        "rss_growth_kb_per_session": (
            raw["rss_growth_kb"] / attempted, len(tally)
        ),
        "setup_s": (reported["setup_s"], len(raw["setups"])),
    }
    return metrics, wall, statistics.median(speeds)


def print_table(
    title: str, metrics: Dict[str, Tuple[float, Optional[int]]]
) -> None:
    from metrics import UNITS

    print(title)
    for name, (value, count) in metrics.items():
        samples = f"  (n={count})" if count is not None else ""
        print(f"  {name:<42} {value:>14.6g} {UNITS[name]:<6}{samples}")


def pin_to_one_cpu() -> Optional[int]:
    """Confine this process and the threads it starts to one CPU.

    The program's threads share one interpreter lock, so they make one
    core's worth of progress at most.  Spread over two cores, each lock
    hand-off crosses cores and a busy neighbour on the host stalls the
    hand-off; on the two-core host this benchmark was built on, that cut
    closed-loop throughput by a third and made it and the p99 swing by
    half from run to run.  Pinned, both held within a few percent.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_one(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    cpu = pin_to_one_cpu()
    from drive import FAILED_STATUSES, LoadError
    from metrics import UNITS
    from oracle import Oracle
    from spans import layer_metrics
    from speed import SpeedProbe
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    scaled = workload.at_reference_speed if not args.trace else ()
    try:
        with SpeedProbe() if scaled else contextlib.nullcontext() as probe:
            raw, stream = asyncio.run(
                measure(workload, args.seed, args.seconds, bool(args.trace))
            )
    except LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    oracle = Oracle(stream, raw["registry"])
    verdicts, failed, ok = judge(raw["tally"], oracle)
    attempted = len(raw["tally"])
    if args.trace:
        untraced_verdicts, untraced_failed, _ = judge(raw["untraced"], oracle)
        verdicts = verdicts + untraced_verdicts
        failed += untraced_failed
        attempted += len(raw["untraced"])
        metrics = layer_metrics(
            raw["recorder"].spans,
            raw["tally"],
            raw["untraced"],
            raw["before"],
            raw["after"],
            raw["probe"],
        )
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{args.workload}.jsonl")
        raw["recorder"].write(spans_path)
        print(f"spans: {len(raw['recorder'].spans)} written to {spans_path}")
    else:
        metrics, wall, speed = end_to_end(
            raw, failed, ok, workload.slo_limit_ms, probe, scaled
        )

    # A session that ended failed/overloaded counts in ``failed`` but is
    # not a wrong answer; only wrong agreements fail the run.
    outcomes = raw["tally"].outcomes + (
        raw["untraced"].outcomes if args.trace else []
    )
    wrong = sorted(
        {
            verdict
            for verdict, outcome in zip(verdicts, outcomes)
            if verdict is not None and outcome[1] not in FAILED_STATUSES
        }
    )
    for verdict in wrong[:10]:
        print(f"wrong agreement: {verdict}", file=sys.stderr)
    statuses = Counter(
        tally.outcomes[index][1]
        for tally in (raw["tally"], raw.get("untraced"))
        if tally is not None
        for index in tally.outcome
    )
    print(
        f"workload {workload.name} ({workload.mode} loop), seed {args.seed}, "
        f"{args.seconds:g}s{' traced' if args.trace else ''}: "
        f"{attempted} sessions ({dict(sorted(statuses.items()))}), "
        f"{failed} failed (failed_share {failed / max(1, attempted):.6f}), "
        f"{oracle.problems_solved} reference problems solved exhaustively, "
        f"SLO limit {workload.slo_limit_ms:g} ms, pinned to CPU {cpu}"
    )
    print_table("metrics:", metrics)
    if not args.trace:
        print(
            "as the wall clock read them: "
            + ", ".join(f"{name} {value:.6g}" for name, value in wall.items())
            + f"; host speed {speed:.4f} x reference (median slice); "
            + f"scaled to the reference above: {', '.join(scaled)}"
        )
    correct = not wrong
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]}
                    for name, (value, _) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; the worst exit status wins."""
    status = 0
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        table = completed.stdout.splitlines()[:-1]
        if table:
            print("\n".join(table))
        status = max(status, completed.returncode)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
