"""The traced run: spans around the benchmark's calls into each layer.

Kept apart from the timed runs.  The driver records, per stream frame, a
``request`` span with children ``workloads.next_batch`` and one
``aio.client.roundtrip`` per network call.  The same frames are then replayed
in this process through ``LoopbackConnection`` (``protocol.dispatch``), through
bare ``KVStore`` calls (``kvstore.call``) and through a bare policy
(``core.policy``); each replayed call becomes the child of the span one layer
up, so a layer's self time is its span minus its child, by construction.
Spans live in memory and are written to ``bench/out/trace_<workload>.jsonl``
when the run ends.  Spans inside ``src/`` are a later change.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from bench import e2e
from bench.e2e import metric
from bench.inproc import LoopbackBackend, PolicyBackend, StoreBackend, replay
from bench.net import PhaseLog, server_counters
from bench.spec import NetSpec, Stream, sim_stream_spec

MAX_TRACED_FRAMES = 20_000
#: parent of each replayed layer, outermost first
NESTING = ("aio.client.roundtrip", "protocol.dispatch", "kvstore.call", "core.policy")
LAYERS = ("request", "workloads.next_batch") + NESTING


class SpanRecorder:
    """In-memory spans ``(name, start, end, parent id, request id)``; a span's
    id is its position in ``spans``."""

    def __init__(self, call_span: str) -> None:
        self.call_span = call_span  # name of the span around each call a request makes
        self.spans: List[Tuple[str, float, float, Optional[int], int]] = []
        self.calls: Dict[int, List[int]] = defaultdict(list)  # request id -> call span ids

    def request(self, request_id, t0, t1, calls, t_end) -> None:
        spans = self.spans
        root = len(spans)
        spans.append(("request", t0, t_end, None, request_id))
        spans.append(("workloads.next_batch", t0, t1, root, request_id))
        for start, end in calls:
            self.calls[request_id].append(len(spans))
            spans.append((self.call_span, start, end, root, request_id))

    def nest(self, name: str, durations: Dict[int, List[float]]) -> None:
        """Hang replayed call durations under the innermost span of each call."""
        for request_id, span_ids in self.calls.items():
            replayed = durations.get(request_id, ())
            for position, (parent, took) in enumerate(zip(span_ids, replayed)):
                start = self.spans[parent][1]
                span_ids[position] = len(self.spans)
                self.spans.append((name, start, start + took, parent, request_id))

    def self_times_us(self) -> Dict[str, List[float]]:
        """Per request and layer: span time minus the time of its children."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        per_request: Dict[str, Dict[int, float]] = {name: defaultdict(float) for name in LAYERS}
        for (name, start, end, _, request_id), children in zip(self.spans, child_time):
            per_request[name][request_id] += max(0.0, end - start - children) * 1e6
        return {name: list(times.values()) for name, times in per_request.items()}

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span_id, (name, start, end, parent, request_id) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent,
                    "request_id": request_id,
                    "start": round((start - origin) * 1e6, 3),
                    "end": round((end - origin) * 1e6, 3),
                }) + "\n")


# -- the runs ----------------------------------------------------------------------


def layer_metrics(recorder: SpanRecorder) -> Dict[str, dict]:
    """Median self time per layer and request, and how far the layers are from
    summing to the request (non-zero only where a replayed child outlasted
    its live parent)."""
    self_times = recorder.self_times_us()
    out = {}
    for name in LAYERS:
        times = self_times[name]
        out[f"trace.{name}.self_us"] = metric(
            statistics.median(times) if times else 0.0, "us", samples=len(times))
    totals = [
        (end - start) * 1e6 for name, start, end, _, _ in recorder.spans if name == "request"
    ]
    attributed = sum(sum(times) for times in self_times.values())
    out["trace.request.total_us"] = metric(statistics.median(totals), "us", samples=len(totals))
    out["trace.closure_gap_pct"] = metric(
        100.0 * abs(attributed - sum(totals)) / sum(totals), "%")
    return out


def labelled_sum(counters: Dict[str, float], name: str) -> float:
    return sum(v for k, v in counters.items() if k == name or k.startswith(name + "{"))


def counter_metrics(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, dict]:
    """Work each layer did over the run, from the program's own counters."""

    def delta(name: str) -> float:
        return labelled_sum(after, name) - labelled_sum(before, name)

    evictions = delta("store_evictions_total")
    return {
        "core.evictions": metric(delta("slab_class_evictions"), "count"),
        "core.cascade_moves_per_kevict": metric(
            1000.0 * delta("gdwheel_migrations_total") / max(evictions, 1.0), "count"),
        "kvstore.evictions": metric(evictions, "count"),
        "kvstore.slab_moves": metric(delta("store_slab_moves_total"), "count"),
        "kvstore.curr_items": metric(after["store_curr_items"], "count"),
        "kvstore.live_bytes": metric(after["store_live_bytes"], "B"),
        "aio.server.bytes_in": metric(delta("server_bytes_in_total"), "B"),
        "aio.server.bytes_out": metric(delta("server_bytes_out_total"), "B"),
    }


async def _trace_net(spec: NetSpec, stream: Stream, seconds: float,
                     warm_frames: int, out_path: Path) -> dict:
    _, server, client, driver = await e2e.set_up(spec, stream, warm_frames)
    try:
        before = await server_counters(client)
        cpu0 = server.cpu_seconds()
        first = driver.position
        untraced = await driver.run(max_frames=MAX_TRACED_FRAMES, seconds=seconds)
        recorder = driver.recorder = SpanRecorder("aio.client.roundtrip")
        first_traced = driver.position
        traced = await driver.run(max_frames=MAX_TRACED_FRAMES, seconds=seconds)
        server_cpu = server.cpu_seconds() - cpu0
        after = await server_counters(client)
        retries = client.request_retries + client.connect_retries
    finally:
        await e2e.tear_down(server, client)

    count = driver.position - first_traced
    for name, backend in (("protocol.dispatch", LoopbackBackend),
                          ("kvstore.call", StoreBackend),
                          ("core.policy", PolicyBackend)):
        backend = backend(stream)
        replay(stream, backend, 0, first_traced)  # reach the live server's state
        recorder.nest(name, replay(stream, backend, first_traced, count))
    recorder.write(out_path)

    metrics = layer_metrics(recorder)
    metrics.update(counter_metrics(before, after))
    wall = (untraced.ended - untraced.started) + (traced.ended - traced.started)
    loadgen_cpu = untraced.cpu_seconds + traced.cpu_seconds
    failed = untraced.failed + traced.failed
    metrics.update({
        "aio.server.cpu_s": metric(server_cpu, "s"),
        "aio.loadgen.cpu_s": metric(loadgen_cpu, "s"),
        # generator CPU over wall: near 1 means the generator, not the server,
        # limits ops_per_s
        "aio.loadgen.cpu_share": metric(loadgen_cpu / wall, "ratio"),
        "aio.client.retries": metric(retries, "count"),
        "aio.client.errors": metric(failed, "count"),
        "workloads.next_batch_us": metric(
            untraced.next_batch_s / max(untraced.frames, 1) * 1e6, "us",
            samples=untraced.frames),
        "bench.trace_overhead_pct": metric(overhead_pct(untraced, traced), "%"),
    })
    return {
        "metrics": metrics,
        "gate": {
            "every_hit_value_matches_its_key":
                untraced.wrong_values + traced.wrong_values == 0,
            "no_failed_operations": failed == 0,
        },
        "attempted": untraced.attempted + traced.attempted,
        "failed": failed,
        "counts": {"traced_frames": count, "spans": len(recorder.spans),
                   "first_traced_frame": first_traced - first},
    }


def overhead_pct(untraced: PhaseLog, traced: PhaseLog) -> float:
    """How much slower the traced segment ran than the untraced one before it."""
    def rate(log: PhaseLog) -> float:
        return log.ops_done / (log.ended - log.started)
    return 100.0 * (rate(untraced) - rate(traced)) / rate(untraced)


def trace_net(spec: NetSpec, seed: int, seconds: float, scale: float, out_path: Path) -> dict:
    warm_frames = e2e.scaled_warm_frames(spec, scale)
    segment = seconds / e2e.SEGMENTS  # a fifth of the timed run, untraced then traced
    frames = min(int(spec.frames_per_second * segment), MAX_TRACED_FRAMES) * 2 + warm_frames
    stream = Stream(spec, seed, frames)
    return asyncio.run(_trace_net(spec, stream, segment, warm_frames, out_path))


def trace_sim(seed: int, seconds: float, scale: float, out_path: Path) -> dict:
    """``sim_paper`` has no sockets: the simulation's own request stream through
    bare ``KVStore`` calls is the traced run, and the policy replay its child."""
    _, num_keys = e2e.sim_set_up(seed, 0)
    count = min(max(int(e2e.SIM_REQUESTS * scale) // e2e.SEGMENTS, 400), MAX_TRACED_FRAMES)
    stream = Stream(sim_stream_spec(num_keys), seed, 2 * count)
    backend = StoreBackend(stream)
    before = counters_of(backend.store)
    cpu0, t0 = time.process_time(), time.perf_counter()
    replay(stream, backend, 0, count)
    t1 = time.perf_counter()
    recorder = SpanRecorder("kvstore.call")
    replay(stream, backend, count, count, recorder)
    t2 = time.perf_counter()
    cpu = time.process_time() - cpu0
    after = counters_of(backend.store)
    policy = PolicyBackend(stream)
    replay(stream, policy, 0, count)
    recorder.nest("core.policy", replay(stream, policy, count, count))
    recorder.write(out_path)

    metrics = layer_metrics(recorder)
    metrics.update(counter_metrics(before, after))
    next_batch = [
        (end - start) * 1e6 for name, start, end, _, _ in recorder.spans
        if name == "workloads.next_batch"
    ]
    metrics.update({
        # no server and no client here
        "aio.server.cpu_s": metric(0.0, "s"),
        "aio.client.retries": metric(0.0, "count"),
        "aio.client.errors": metric(0.0, "count"),
        "aio.loadgen.cpu_s": metric(cpu, "s"),
        "aio.loadgen.cpu_share": metric(cpu / (t2 - t0), "ratio"),
        "workloads.next_batch_us": metric(statistics.median(next_batch), "us",
                                          samples=len(next_batch)),
        "bench.trace_overhead_pct": metric(
            100.0 * ((t2 - t1) - (t1 - t0)) / (t2 - t1), "%"),
    })
    return {
        "metrics": metrics,
        "gate": {},
        "attempted": 2 * count,
        "failed": 0,
        "counts": {"traced_frames": count, "spans": len(recorder.spans)},
    }


def counters_of(store) -> Dict[str, float]:
    store.publish_metrics()
    return dict(store.metrics.snapshot())
