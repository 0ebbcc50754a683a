"""The end-to-end runs (tracing off): set-up, a timed phase, the metrics.

A run measures for ``seconds`` seconds cut into ``SEGMENTS`` equal segments.
Rate, latency and CPU metrics are the median over segments (every segment's
value is kept in the result); counts are over the whole phase.  Set-up is
repeated ``SETUPS`` times and ``setup_s`` is the median.
"""

from __future__ import annotations

import asyncio
import gc
import statistics
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.kvstore import ITEM_HEADER_SIZE
from repro.sim import SimConfig, calibrate_num_keys, estimate_capacity_items, run_simulation
from repro.workloads import SINGLE_SIZE_WORKLOADS

from bench import checks
from bench.inproc import StoreBackend, replay
from bench.net import (
    Driver,
    PhaseLog,
    ServerProcess,
    new_client,
    peak_rss_mib,
    preload,
    server_counters,
)
from bench.spec import (
    SIM_MEMORY_LIMIT,
    SIM_REQUESTS,
    SIM_WORKLOAD_ID,
    SLAB_SIZE,
    NetSpec,
    Stream,
    sim_stream_spec,
)

SEGMENTS = 5
SETUPS = 3


def metric(value: float, unit: str, segments=None, samples=None) -> dict:
    out = {"value": float(value), "unit": unit}
    if segments is not None:
        out["segments"] = [float(v) for v in segments]
    if samples is not None:
        out["samples"] = int(samples)
    return out


def median_metric(segments, unit: str, samples=None) -> dict:
    return metric(statistics.median(segments), unit, segments, samples)


# -- network workloads -------------------------------------------------------------


async def set_up(spec: NetSpec, stream: Stream, warm_frames: int):
    """Spawn the server child, preload every key, run the discarded warm segment.

    Returns ``(seconds, server, client, driver)``; the caller stops the server.
    """
    started = time.perf_counter()
    server = ServerProcess(spec)
    client = new_client(server)
    try:
        await preload(stream, client)
        driver = Driver(stream, client)
        await driver.run(max_frames=warm_frames)
    except BaseException:
        await client.aclose()
        server.stop()
        raise
    return time.perf_counter() - started, server, client, driver


async def tear_down(server: ServerProcess, client) -> None:
    await client.aclose()
    server.stop()


#: one mark per segment boundary: (time, server CPU s, generator CPU s, ops
#: done, network calls done)
Mark = Tuple[float, float, float, int, int]


async def timed_phase(
    driver: Driver, server: ServerProcess, seconds: float
) -> Tuple[PhaseLog, List[Mark]]:
    """Run the driver for ``seconds``, marking progress at each segment end."""
    log = PhaseLog()

    def mark() -> Mark:
        return (time.perf_counter(), server.cpu_seconds(), time.process_time(),
                log.ops_done, len(log.rtt))

    marks = [mark()]
    start = marks[0][0]
    task = asyncio.ensure_future(driver.run(seconds=seconds, log=log))
    try:
        for segment in range(1, SEGMENTS + 1):
            due = start + seconds * segment / SEGMENTS
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            marks.append(mark())
    finally:
        await task
    return log, marks


def segment_metrics(log: PhaseLog, marks: List[Mark]) -> Dict[str, dict]:
    """ops/s, frame latency and server CPU per op, per segment."""
    ops_per_s, p50, p99, cpu_per_op = [], [], [], []
    rtt_us = np.asarray(log.rtt) * 1e6
    for before, after in zip(marks, marks[1:]):
        wall = after[0] - before[0]
        ops = after[3] - before[3]
        ops_per_s.append(ops / wall)
        cpu_per_op.append((after[1] - before[1]) / max(ops, 1) * 1e6)
        calls = rtt_us[before[4]:after[4]]
        p50.append(float(np.percentile(calls, 50)) if len(calls) else 0.0)
        p99.append(float(np.percentile(calls, 99)) if len(calls) else 0.0)
    calls_per_segment = len(log.rtt) // SEGMENTS
    return {
        "ops_per_s": median_metric(ops_per_s, "1/s"),
        "p50_us": median_metric(p50, "us", calls_per_segment),
        "p99_us": median_metric(p99, "us", calls_per_segment),
        "server_cpu_us_per_op": median_metric(cpu_per_op, "us"),
    }


def count_metrics(log: PhaseLog, after: Dict[str, float]) -> Dict[str, dict]:
    """hit rate, miss cost and bytes held per user byte, over the whole phase."""
    gets = max(log.gets, 1)
    items = after["store_curr_items"]
    user_bytes = after["store_live_bytes"] - items * ITEM_HEADER_SIZE
    return {
        "hit_rate": metric(log.hits / gets, "ratio", samples=log.gets),
        "miss_cost_per_kop": metric(log.miss_cost / gets * 1000.0, "cost/kop",
                                    samples=log.gets),
        "resident_bytes_per_user_byte": metric(
            after["store_memory_used_bytes"] / max(user_bytes, 1.0), "ratio", samples=items
        ),
    }


async def _run_net(spec: NetSpec, stream: Stream, seconds: float, warm_frames: int) -> dict:
    setups = []
    server = client = driver = None
    try:
        for repetition in range(SETUPS):
            if server is not None:
                await tear_down(server, client)
                server = None
            took, server, client, driver = await set_up(spec, stream, warm_frames)
            setups.append(took)
        before = await server_counters(client)
        log, marks = await timed_phase(driver, server, seconds)
        after = await server_counters(client)
        rss = server.peak_rss_mib()
    finally:
        if server is not None:
            await tear_down(server, client)

    metrics = {"setup_s": median_metric(setups, "s")}
    metrics.update(segment_metrics(log, marks))
    metrics.update(count_metrics(log, after))
    metrics["server_rss_mb"] = metric(rss, "MiB")

    def delta(name: str) -> float:
        return after[name] - before[name]

    server_gets = delta("store_get_hits_total") + delta("store_get_misses_total")
    gate = {
        "every_hit_value_matches_its_key": log.wrong_values == 0,
        "hits_plus_misses_equal_gets": server_gets == log.gets,
        "no_failed_operations": log.failed == 0,
    }
    gate.update(await checks.tcp_equals_loopback(spec, stream))
    gate.update(checks.gdwheel_equals_naive_greedydual(stream.workload.seed))
    return {
        "metrics": metrics,
        "gate": gate,
        "attempted": log.attempted,
        "failed": log.failed,
        "counts": {
            "frames": log.frames, "gets": log.gets, "hits": log.hits,
            "sets": log.sets, "refills": log.refills,
            "network_calls": len(log.rtt), "stream_frames": len(stream.frames),
            "evictions": delta("store_evictions_total"),
            # near 1: the generator, not the server, limits ops_per_s
            "loadgen_cpu_share": (marks[-1][2] - marks[0][2]) / (marks[-1][0] - marks[0][0]),
        },
    }


def scaled_warm_frames(spec: NetSpec, scale: float) -> int:
    return max(int(spec.warm_frames * scale), 50)


def run_net(spec: NetSpec, seed: int, seconds: float, scale: float) -> dict:
    warm_frames = scaled_warm_frames(spec, scale)
    frames = int(spec.frames_per_second * seconds) + warm_frames
    stream = Stream(spec, seed, frames)
    return asyncio.run(_run_net(spec, stream, seconds, warm_frames))


# -- sim_paper ---------------------------------------------------------------------


def sim_config(policy: str, seed: int, requests: int, num_keys=None) -> SimConfig:
    return SimConfig(
        spec=SINGLE_SIZE_WORKLOADS[SIM_WORKLOAD_ID], policy=policy,
        memory_limit=SIM_MEMORY_LIMIT, slab_size=SLAB_SIZE, num_requests=requests,
        num_keys=num_keys, seed=seed,
    )


def sim_set_up(seed: int, repetition: int) -> Tuple[float, int]:
    """Materialise the workload and calibrate the key count to 95 % LRU hits.

    Calibration is memoised per calibration seed, so each repetition uses its
    own; the run keeps the key count of repetition 0.
    """
    started = time.perf_counter()
    config = sim_config("lru", seed, SIM_REQUESTS)
    probe = config.spec.materialize(num_keys=1024, seed=seed)
    capacity = estimate_capacity_items(config, probe)
    num_keys = calibrate_num_keys(
        capacity_items=capacity, theta=config.spec.theta,
        target_hit_rate=config.target_hit_rate, seed=seed * SETUPS + repetition,
    )
    config.spec.materialize(num_keys=num_keys, seed=seed)
    return time.perf_counter() - started, num_keys


def sim_request_latency(seed: int, requests: int, num_keys: int):
    """p50 and p99 per segment of one request's time, caller's view.

    ``run_simulation`` times a whole round, so the requests it draws for this
    seed are issued here one by one against a bare ``KVStore`` (GET, and on a
    miss the SET that refills it), each timed alone.
    """
    stream = Stream(sim_stream_spec(num_keys), seed, requests)
    calls = replay(stream, StoreBackend(stream), 0, requests)
    latency_us = np.asarray([sum(times) for times in calls.values()]) * 1e6
    segments = np.array_split(latency_us, SEGMENTS)
    return ([float(np.percentile(s, 50)) for s in segments],
            [float(np.percentile(s, 99)) for s in segments])


def run_sim(seed: int, seconds: float, scale: float) -> dict:
    requests = max(int(SIM_REQUESTS * scale), 2_000)
    setups, key_counts = zip(*(sim_set_up(seed, r) for r in range(SETUPS)))
    num_keys = key_counts[0]

    phase_start = time.perf_counter()
    lru = run_simulation(sim_config("lru", seed, requests, num_keys))
    gdpq = run_simulation(sim_config("gd-pq", seed, requests, num_keys))
    rates, cpu_us = [], []
    wheel = None
    # the baselines above count against the measured time; GD-Wheel gets the rest
    while wheel is None or (time.perf_counter() - phase_start < seconds) or len(rates) < 3:
        # every round starts from the same collector state; without this the
        # full collections of the previous round land in every other round
        gc.collect()
        cpu0, t0 = time.process_time(), time.perf_counter()
        wheel = run_simulation(sim_config("gd-wheel", seed, requests, num_keys))
        wall = time.perf_counter() - t0
        rates.append(requests / wall)
        cpu_us.append((time.process_time() - cpu0) / requests * 1e6)

    # before the latency pass, whose per-request records are the benchmark's
    # memory and not the simulation's
    rss = peak_rss_mib()
    p50, p99 = sim_request_latency(seed, requests, num_keys)
    held = sum(c["num_slabs"] for c in wheel.class_stats) * SLAB_SIZE
    footprint = sum(c["live_bytes"] for c in wheel.class_stats)
    items = sum(c["live_items"] for c in wheel.class_stats)
    metrics = {
        "setup_s": median_metric(setups, "s"),
        "ops_per_s": median_metric(rates, "1/s"),
        "p50_us": median_metric(p50, "us", requests // SEGMENTS),
        "p99_us": median_metric(p99, "us", requests // SEGMENTS),
        "server_cpu_us_per_op": median_metric(cpu_us, "us"),
        "hit_rate": metric(wheel.hit_rate, "ratio", samples=requests),
        "miss_cost_per_kop": metric(
            wheel.total_recomputation_cost / requests * 1000.0, "cost/kop",
            samples=requests),
        "server_rss_mb": metric(rss, "MiB"),
        "resident_bytes_per_user_byte": metric(
            held / (footprint - items * ITEM_HEADER_SIZE), "ratio", samples=items),
    }
    saved = 100.0 * (1.0 - wheel.total_recomputation_cost / lru.total_recomputation_cost)
    gate = {
        "gdwheel_and_gdpq_same_hit_rate": wheel.hit_rate == gdpq.hit_rate,
        "gdwheel_costs_less_than_lru": saved > 0.0,
    }
    gate.update(checks.gdwheel_equals_naive_greedydual(seed))
    return {
        "metrics": metrics,
        "gate": gate,
        "attempted": requests * (len(rates) + 2),
        "failed": 0,
        "counts": {
            "rounds": len(rates), "requests_per_round": requests,
            "num_keys": num_keys, "cost_saved_vs_lru_pct": saved,
            "lru_hit_rate": lru.hit_rate,
            "lru_miss_cost_per_kop": lru.total_recomputation_cost / requests * 1000.0,
        },
    }
