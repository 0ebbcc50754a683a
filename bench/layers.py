"""Per-layer microbenchmarks: each layer's public calls, timed alone.

Every number is the median over ``REPEATS`` passes of the time per call, with
the ``for`` loop that drives the calls included (about 30 ns, the same on
every commit).  Names are prefixed by the ``src/repro/`` module they measure.
The ``ledger.*`` rows are the closure check: parse + store call + encode,
each timed alone, against the same frame through ``LoopbackConnection``, and
that against the frame over TCP.
"""

from __future__ import annotations

import asyncio
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.aio import AsyncStoreClient
from repro.cluster import ConsistentHashRing
from repro.core import GDPQPolicy, GDWheelPolicy, LRUPolicy, PolicyEntry
from repro.kvstore import HashTable, Item, SlabAllocator
from repro.obs.registry import MetricsRegistry, NullRegistry
from repro.protocol import (
    GetCommand,
    GetResponse,
    LoopbackConnection,
    RequestParser,
    ResponseParser,
    StoreCommand,
    StoreServer,
    ValueResponse,
    encode_command,
    encode_response,
)
from repro.protocol.commands import MultiGetCommand, MultiSetCommand
from repro.sim import run_simulation
from repro.tier import FlashTier, TierConfig
from repro.workloads import SINGLE_SIZE_WORKLOADS

from bench.inproc import preloaded_store
from bench.e2e import SETUPS, metric, sim_config, sim_set_up
from bench.net import ServerProcess, preload
from bench.spec import NET_SPECS, SLAB_SIZE, Stream

REPEATS = 5
POLICIES = {"gdwheel": GDWheelPolicy, "lru": LRUPolicy, "gdpq": GDPQPolicy}
RESIDENT = {"10k": 10_000, "100k": 100_000}
#: the paper's measurement mix: every request touches, one in twenty evicts
#: one entry and inserts another
MISS_SHARE = 0.05


def per_call(call: Callable, inputs: List, repeats: int = REPEATS) -> float:
    """Median over ``repeats`` passes of seconds per ``call(x)`` over ``inputs``."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        for x in inputs:
            call(x)
        samples.append((time.perf_counter() - started) / len(inputs))
    return statistics.median(samples)


def ns(seconds: float) -> dict:
    return metric(seconds * 1e9, "ns")


def us(seconds: float) -> dict:
    return metric(seconds * 1e6, "us")


# -- core --------------------------------------------------------------------------


def policy_costs(name: str, resident: int, ops: int, rng) -> Dict[str, float]:
    """Seconds per touch, per eviction and per insert at ``resident`` entries.

    Evictions and inserts run as alternating passes of ``ops`` calls, so the
    structure stays near ``resident`` and the wheel's hand keeps advancing.
    """
    policy = POLICIES[name]()
    costs = rng.integers(1, 451, size=resident + ops * REPEATS).tolist()
    entries = [PolicyEntry(key=i) for i in range(resident)]
    for entry, cost in zip(entries, costs):
        policy.insert(entry, cost)
    targets = [entries[i] for i in rng.integers(0, resident, size=ops).tolist()]
    touch = per_call(policy.touch, targets)
    evict, insert = [], []
    for repeat in range(REPEATS):
        fresh = [
            (PolicyEntry(key=resident + repeat * ops + i), costs[resident + repeat * ops + i])
            for i in range(ops)
        ]
        started = time.perf_counter()
        for _ in range(ops):
            policy.select_victim()
        middle = time.perf_counter()
        for entry, cost in fresh:
            policy.insert(entry, cost)
        evict.append((middle - started) / ops)
        insert.append((time.perf_counter() - middle) / ops)
    return {
        "touch": touch,
        "evict": statistics.median(evict),
        "insert": statistics.median(insert),
    }


def core_layer(rng, scale: float) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    per_request: Dict[str, Dict[str, float]] = {}
    for name in POLICIES:
        per_request[name] = {}
        for label, resident in RESIDENT.items():
            resident = max(int(resident * scale), 200)
            t = policy_costs(name, resident, max(resident // 10, 20), rng)
            out[f"core.{name}.touch_ns.{label}"] = ns(t["touch"])
            if name == "gdwheel":
                out[f"core.gdwheel.insert_ns.{label}"] = ns(t["insert"])
                out[f"core.gdwheel.evict_ns.{label}"] = ns(t["evict"])
            else:
                out[f"core.{name}.evict_insert_ns.{label}"] = ns(t["evict"] + t["insert"])
            per_request[name][label] = t["touch"] + MISS_SHARE * (t["evict"] + t["insert"])
    for name in ("gdwheel", "gdpq"):
        # Fig. 7: per-request policy time at 100k entries over that at 10k
        out[f"core.{name}.flatness_ratio"] = metric(
            per_request[name]["100k"] / per_request[name]["10k"], "ratio")
    # Fig. 8: GD-Wheel's per-request policy time over LRU's, at 100k entries
    out["core.gdwheel.vs_lru_ratio"] = metric(
        per_request["gdwheel"]["100k"] / per_request["lru"]["100k"], "ratio")
    return out


# -- kvstore, protocol, ledger -------------------------------------------------------


def kvstore_structures(stream: Stream, rng, ops: int) -> Dict[str, dict]:
    table = HashTable(initial_power=14)
    for key, value in zip(stream.keys, stream.values):
        table.insert(Item(key=key, value=value))
    lookups = [stream.keys[i] for i in rng.integers(0, len(stream.keys), size=ops).tolist()]
    allocator = SlabAllocator(memory_limit=4 << 20, slab_size=SLAB_SIZE)
    item = Item(key=stream.keys[0], value=stream.values[0])
    slab_class = allocator.class_for_size(item.footprint)
    allocator.grow(slab_class)

    def alloc_free(_):
        slab, index = slab_class.try_alloc()
        slab_class.store_item(item, slab, index)
        slab_class.free_item(item)

    return {
        "kvstore.hashtable.find_ns": ns(per_call(table.find, lookups)),
        "kvstore.slab.alloc_free_ns": ns(per_call(alloc_free, range(ops))),
    }


def batches(ids: List[int], size: int) -> List[List[int]]:
    return [ids[at:at + size] for at in range(0, len(ids) - size + 1, size)]


def frame_layers(hot: Stream, evicting: Stream, rng, ops: int) -> Dict[str, dict]:
    """Store calls, parser, encoder and loopback dispatch for GET, MGET-16, SET.

    ``hot`` fits in memory (hits and in-place updates); ``evicting`` is at its
    memory limit, so a SET of an absent key evicts.
    """
    keys, values, costs = hot.keys, hot.values, hot.costs
    store = preloaded_store(hot)
    ids = rng.integers(0, hot.spec.num_keys, size=ops).tolist()
    groups = batches(ids, 16)
    key_groups = [[keys[i] for i in group] for group in groups]
    set_entries = [(keys[i], values[i], costs[i]) for i in ids]
    set_groups = [[(keys[i], values[i], costs[i], 0, 0) for i in group] for group in groups]
    absent = [b"absent%09d" % i for i in range(ops)]

    full = preloaded_store(evicting)
    evict_ids = [i for i in evicting.preload_order if not full.contains(evicting.keys[i])]
    evict_ids = evict_ids[:max(ops // REPEATS, 1)]
    evict_entries = [
        (evicting.keys[i], evicting.values[i], evicting.costs[i]) for i in evict_ids
    ]
    # one pass only: a second pass would find the keys resident
    set_evict = per_call(lambda e: full.set(e[0], e[1], cost=e[2]), evict_entries, repeats=1)

    get_call = per_call(store.get, [keys[i] for i in ids])
    set_call = per_call(lambda e: store.set(e[0], e[1], cost=e[2]), set_entries)
    mget_call = per_call(store.get_many, key_groups)
    out = {
        "kvstore.store.get_hit_us": us(get_call),
        "kvstore.store.get_miss_us": us(per_call(store.get, absent)),
        "kvstore.store.set_update_us": us(set_call),
        "kvstore.store.set_evict_us": us(set_evict),
        "kvstore.store.get_many16_us": us(mget_call),
        "kvstore.store.set_many16_us": us(per_call(store.set_many, set_groups)),
    }

    def store_command(i: int) -> StoreCommand:
        return StoreCommand(verb="set", key=keys[i], flags=0, exptime=0,
                            value=values[i], cost=costs[i])

    get_frames = [encode_command(GetCommand(keys=(keys[i],))) for i in ids]
    mget_frames = [encode_command(MultiGetCommand(keys=tuple(g))) for g in key_groups]
    set_frames = [encode_command(store_command(i)) for i in ids]
    mset_frames = [
        encode_command(MultiSetCommand(items=tuple(store_command(i) for i in group)))
        for group in groups
    ]
    parser = RequestParser()

    def parse(frame: bytes) -> None:
        parser.feed(frame)
        for _ in parser:
            pass

    hit_responses = [
        GetResponse(values=(ValueResponse(key=keys[i], flags=0, value=values[i]),))
        for i in ids
    ]
    mget_responses = [
        GetResponse(values=tuple(
            ValueResponse(key=keys[i], flags=0, value=values[i]) for i in group))
        for group in groups
    ]
    hit_bytes = [encode_response(response) for response in hit_responses]
    response_parser = ResponseParser()

    def parse_response(data: bytes) -> None:
        response_parser.feed(data)
        response_parser.try_parse()

    stored = StoreServer(store).dispatch(store_command(ids[0]))[0]
    parse_get = per_call(parse, get_frames)
    parse_mget = per_call(parse, mget_frames)
    parse_set = per_call(parse, set_frames)
    encode_hit = per_call(encode_response, hit_responses)
    encode_mget = per_call(encode_response, mget_responses)
    encode_stored = per_call(encode_response, [stored] * ops)
    out.update({
        "protocol.text.parse_get_us": us(parse_get),
        "protocol.text.parse_mget16_us": us(parse_mget),
        "protocol.text.parse_set_us": us(parse_set),
        "protocol.text.parse_mset16_us": us(per_call(parse, mset_frames)),
        "protocol.text.encode_hit_us": us(encode_hit),
        "protocol.text.encode_mget16_us": us(encode_mget),
        "protocol.text.encode_command_us": us(per_call(
            encode_command, [GetCommand(keys=(keys[i],)) for i in ids])),
        "protocol.text.parse_response_us": us(per_call(parse_response, hit_bytes)),
    })

    loopback = LoopbackConnection(StoreServer(store))
    loop_times = {
        "get": per_call(loopback.send, get_frames),
        "mget16": per_call(loopback.send, mget_frames),
        "set": per_call(loopback.send, set_frames),
    }
    for op, seconds in loop_times.items():
        out[f"protocol.loopback.{op}_us"] = us(seconds)
    sums = {
        "get": parse_get + get_call + encode_hit,
        "mget16": parse_mget + mget_call + encode_mget,
        "set": parse_set + set_call + encode_stored,
    }
    for op, total in sums.items():
        out[f"ledger.{op}.sum_us"] = us(total)
        out[f"ledger.{op}.loopback_us"] = us(loop_times[op])
        out[f"ledger.{op}.unattributed_pct"] = metric(
            100.0 * (loop_times[op] - total) / loop_times[op], "%")
    return out


# -- aio ---------------------------------------------------------------------------


async def tcp_round_trips(hot: Stream, rng, ops: int) -> Dict[str, float]:
    """Seconds per frame over one connection, one frame in flight, against a
    server child holding the ``hot`` universe."""
    keys, values, costs = hot.keys, hot.values, hot.costs
    ids = rng.integers(0, hot.spec.num_keys, size=ops).tolist()
    key_groups = [[keys[i] for i in group] for group in batches(ids, 16)]
    server = ServerProcess(hot.spec)
    client = AsyncStoreClient("127.0.0.1", server.port, pool_size=1)
    try:
        await preload(hot, client)
        times = {"get": [], "mget16": [], "set": []}
        for _ in range(REPEATS):
            started = time.perf_counter()
            for i in ids:
                await client.get(keys[i])
            times["get"].append((time.perf_counter() - started) / len(ids))
            started = time.perf_counter()
            for group in key_groups:
                await client.get_many(group)
            times["mget16"].append((time.perf_counter() - started) / len(key_groups))
            started = time.perf_counter()
            for i in ids:
                await client.set(keys[i], values[i], cost=costs[i])
            times["set"].append((time.perf_counter() - started) / len(ids))
    finally:
        await client.aclose()
        server.stop()
    return {op: statistics.median(samples) for op, samples in times.items()}


def aio_layer(hot: Stream, rng, ops: int, frames: Dict[str, dict]) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    rtts = asyncio.run(tcp_round_trips(hot, rng, ops))
    for op, rtt in rtts.items():
        loopback = frames[f"protocol.loopback.{op}_us"]["value"] / 1e6
        out[f"aio.tcp.{op}_rtt_us"] = us(rtt)
        # transport self time, both ends: what TCP adds to the in-process frame
        out[f"aio.{op}_self_us"] = us(rtt - loopback)
        out[f"ledger.{op}.transport_share_pct"] = metric(100.0 * (rtt - loopback) / rtt, "%")
    return out


# -- workloads, sim, obs, cluster, tier ----------------------------------------------


def workloads_layer(evicting: Stream, seed: int) -> Dict[str, dict]:
    spec = SINGLE_SIZE_WORKLOADS[evicting.spec.workload_id]
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        spec.materialize(evicting.spec.num_keys, seed=seed)
        samples.append(time.perf_counter() - started)
    return {"workloads.materialize_s": metric(statistics.median(samples), "s")}


def sim_layer(seed: int, scale: float) -> Dict[str, dict]:
    requests = max(int(100_000 * scale), 2_000)
    calibrate_s, num_keys = sim_set_up(seed, SETUPS)  # a calibration seed no set-up used
    results, rates = {}, {}
    for policy in ("lru", "gd-wheel", "gd-pq"):
        started = time.perf_counter()
        results[policy] = run_simulation(sim_config(policy, seed, requests, num_keys))
        rates[policy] = requests / (time.perf_counter() - started)
    lru, wheel, pq = results["lru"], results["gd-wheel"], results["gd-pq"]
    per_kop = 1000.0 / requests
    return {
        "sim.lru.requests_per_s": metric(rates["lru"], "1/s"),
        "sim.gdwheel.requests_per_s": metric(rates["gd-wheel"], "1/s"),
        "sim.gdpq.requests_per_s": metric(rates["gd-pq"], "1/s"),
        "sim.gdwheel_vs_lru_speed_ratio": metric(rates["gd-wheel"] / rates["lru"], "ratio"),
        "sim.lru.miss_cost_per_kop": metric(lru.total_recomputation_cost * per_kop, "cost/kop"),
        "sim.gdpq.miss_cost_per_kop": metric(pq.total_recomputation_cost * per_kop, "cost/kop"),
        "sim.gdwheel.miss_cost_per_kop": metric(
            wheel.total_recomputation_cost * per_kop, "cost/kop"),
        # Fig. 10's bar: recomputation cost GD-Wheel saves against LRU
        "sim.cost_saved_vs_lru_pct": metric(
            100.0 * (1.0 - wheel.total_recomputation_cost / lru.total_recomputation_cost), "%"),
        "sim.gdwheel.model_avg_latency_us": metric(wheel.average_latency_us, "us"),
        "sim.gdwheel.model_p99_latency_us": metric(wheel.p99_latency_us, "us"),
        "sim.calibrate_s": metric(calibrate_s, "s"),
    }


def side_layers(hot: Stream, rng, ops: int, scratch: Path) -> Dict[str, dict]:
    """Layers off the four hot paths, so a refactor there is still seen."""
    keys, values = hot.keys, hot.values
    lookups = [keys[i] for i in rng.integers(0, hot.spec.num_keys, size=ops).tolist()]
    timed = per_call(preloaded_store(hot, MetricsRegistry()).get, lookups)
    untimed = per_call(preloaded_store(hot, NullRegistry()).get, lookups)
    ring = ConsistentHashRing([f"node{i}" for i in range(8)])
    out = {
        "obs.store_get_overhead_pct": metric(100.0 * (timed - untimed) / untimed, "%"),
        "cluster.ring.lookup_ns": ns(per_call(ring.node_for, lookups)),
    }
    directory = scratch / "tier"
    shutil.rmtree(directory, ignore_errors=True)
    tier = FlashTier(directory, TierConfig(capacity_bytes=64 << 20))
    try:
        spilled = list(range(min(ops, hot.spec.num_keys)))
        out["tier.put_us"] = us(per_call(
            lambda i: tier.spill(keys[i], values[i], 400), spilled, repeats=1))
        out["tier.get_us"] = us(per_call(tier.lookup, [keys[i] for i in spilled]))
    finally:
        tier.close()
        shutil.rmtree(directory, ignore_errors=True)
    return out


def measure_layers(seed: int, scale: float, scratch: Path) -> Dict[str, dict]:
    """Every workload-independent per-layer metric."""
    rng = np.random.default_rng(seed)
    ops = max(int(20_000 * scale), 320)
    hot = Stream(NET_SPECS["get1_hot"], seed, ops)
    evicting = Stream(NET_SPECS["mget16_evict"], seed, ops)
    out = core_layer(rng, scale)
    out.update(kvstore_structures(hot, rng, ops))
    frames = frame_layers(hot, evicting, rng, ops)
    out.update(frames)
    out.update(aio_layer(hot, rng, max(ops // 10, 160), frames))
    out.update(workloads_layer(evicting, seed))
    out.update(sim_layer(seed, scale))
    out.update(side_layers(hot, rng, ops, scratch))
    return out
