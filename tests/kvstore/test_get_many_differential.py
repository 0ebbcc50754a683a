"""``get_many(keys)`` is ``[get(k) for k in keys]``, seeded and differential.

Two twin stores see the same seeded history.  One answers each read frame
with one ``get_many`` call, the other with a per-key ``get`` loop.  After
every frame both must return the same items and hold the same
``StoreStats`` counters; after the reads, a SET stream must evict the same
keys in the same order from both.  The cases cover misses, expired items,
a flash tier behind RAM, the cost-aware rebalancer (slab moves), a
rebalancer that counts ``on_request`` calls, and an instrumented registry.
"""

import random

import pytest

from repro.core import GDWheelPolicy
from repro.kvstore import (
    CostAwareRebalancer,
    KVStore,
    NullRebalancer,
    SimClock,
)
from repro.obs.registry import MetricsRegistry
from repro.tier import FlashTier, TierConfig

SLAB_SIZE = 16 * 1024
NUM_KEYS = 1000
#: value sizes spanning three slab classes (the rebalancers move slabs
#: between classes; single-size cases use the first)
SIZES = (100, 300, 700)


class CountingRebalancer(NullRebalancer):
    """Moves nothing; counts the per-operation heartbeat."""

    def __init__(self) -> None:
        super().__init__()
        self.requests = 0

    def on_request(self) -> None:
        self.requests += 1


def key_of(i: int) -> bytes:
    return b"key-%05d" % i


def build(case: str, tmp_path, twin: str):
    clock = SimClock()
    options = {}
    if case == "tier":
        options["tier"] = FlashTier(
            tmp_path / twin,
            TierConfig(capacity_bytes=256 * 1024, segment_bytes=16 * 1024),
        )
    elif case == "cost_aware":
        options["rebalancer"] = CostAwareRebalancer()
    elif case == "counting":
        options["rebalancer"] = CountingRebalancer()
    elif case == "instrumented":
        options["registry"] = MetricsRegistry()
    evicted = []
    store = KVStore(
        memory_limit=6 * SLAB_SIZE, policy_factory=GDWheelPolicy,
        slab_size=SLAB_SIZE, clock=clock,
        on_evict=lambda item, reason: evicted.append((item.key, reason)),
        **options,
    )
    return store, evicted


def write_stream(rng: random.Random, count: int, multi_size: bool):
    """``count`` seeded SETs; about one in five expires soon."""
    for _ in range(count):
        i = rng.randrange(NUM_KEYS)
        size = rng.choice(SIZES) if multi_size else SIZES[0]
        exptime = rng.uniform(1.0, 40.0) if rng.random() < 0.2 else 0
        yield key_of(i), bytes([65 + i % 26]) * size, rng.randrange(1, 500), exptime


def read_frames(rng: random.Random, count: int):
    """Frames of 1-24 keys: known keys, never-stored keys and repeats."""
    for _ in range(count):
        frame = [key_of(rng.randrange(NUM_KEYS + 100))
                 for _ in range(rng.randrange(1, 25))]
        if rng.random() < 0.3:
            frame.append(frame[0])
        yield frame


def view(item):
    if item is None:
        return None
    return (item.key, item.value, item.cost, item.flags, item.exptime,
            item.cas_unique)


def latency_counts(store):
    return {name: value for name, value in store.metrics.snapshot().items()
            if name.startswith("store_op_latency_us") and name.endswith("_count")}


CASES = ["plain", "tier", "cost_aware", "counting", "instrumented"]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("case", CASES)
def test_get_many_matches_per_key_get(case, seed, tmp_path):
    batched, batched_evicted = build(case, tmp_path, "batched")
    looped, looped_evicted = build(case, tmp_path, "looped")
    multi_size = case == "cost_aware"
    writes = list(write_stream(random.Random(seed), 3 * NUM_KEYS, multi_size))
    for store in (batched, looped):
        for key, value, cost, exptime in writes:
            store.set(key, value, cost=cost, exptime=exptime)
    assert batched_evicted == looped_evicted

    frames = list(read_frames(random.Random(seed + 100), 120))
    for step, frame in enumerate(frames):
        if step % 10 == 0:
            for store in (batched, looped):
                store.clock.advance(2.0)
        got = batched.get_many(frame)
        want = [looped.get(key) for key in frame]
        assert [view(i) for i in got] == [view(i) for i in want]
        assert batched.stats.snapshot() == looped.stats.snapshot()
    stats = batched.stats
    assert stats.get_misses > 0 and stats.get_hits > 0
    if case != "tier":
        assert stats.get_expired > 0
    if case == "tier":
        assert stats.tier_promotions > 0
    if case == "cost_aware":
        assert stats.slab_moves > 0
    if case == "counting":
        reads = sum(map(len, frames))
        assert batched.rebalancer.requests == len(writes) + reads
        assert looped.rebalancer.requests == len(writes) + reads
    if case == "instrumented":
        counts = latency_counts(batched)
        assert counts == latency_counts(looped)
        assert counts["store_op_latency_us{op=get}_count"] == sum(map(len, frames))
    batched.check_invariants()
    looped.check_invariants()

    # the reads left both policies in the same state: the same SET stream
    # now evicts the same keys in the same order
    mark = len(batched_evicted)
    assert looped_evicted == batched_evicted
    for store in (batched, looped):
        for key, value, cost, exptime in write_stream(
            random.Random(seed + 200), NUM_KEYS, multi_size
        ):
            store.set(key, value, cost=cost, exptime=exptime)
    assert len(batched_evicted) > mark
    assert batched_evicted == looped_evicted
    assert batched.stats.snapshot() == looped.stats.snapshot()
