"""The workloads, and the seeded request streams the network workloads replay.

Why each workload exists (the benchmark needs, for every layer, one workload
where that layer does most of the work and one where it does little):

``get1_hot``
    One key per frame and everything fits: a frame's cost is transport and
    parsing; the policy only touches and the store only looks up.
``mget16_evict``
    Sixteen keys per frame at twice the memory: framing is amortised 16x, so
    store lookups, policy touches and evict+insert refills dominate.
``mixed_multisize``
    Half the frames write, across three slab classes with the cost-aware
    rebalancer: slab allocation, per-class eviction, slab moves and large
    payloads through the write path.
``sim_paper``
    No sockets: the paper's own experiment (Table 2 workload 1 under LRU,
    GD-Wheel and GD-PQ) with exact, repeatable counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.workloads import MULTI_SIZE_WORKLOADS, SINGLE_SIZE_WORKLOADS, Workload

SLAB_SIZE = 64 * 1024

#: On ``get1_hot`` one GET in this many asks for a key never stored — the
#: compulsory misses every cache sees — so ``miss_cost_per_kop`` is never 0
#: and the miss-then-SET path is checked on the workload without evictions.
COLD_GET_EVERY = 1000
COLD_KEY_COST = 150


@dataclass(frozen=True)
class NetSpec:
    """One network workload: store geometry, key universe, traffic mix."""

    name: str
    table: str  # "single" (paper Table 2) or "multi" (Table 3)
    workload_id: str
    num_keys: int
    memory_limit: int
    batch: int  # keys per frame
    set_share: float  # share of frames that write
    cost_aware_rebalancer: bool = False
    cold_gets: bool = False
    #: stream frames generated per measured second; the stream wraps if a
    #: faster program outruns it
    frames_per_second: int = 8_000
    #: frames of the discarded warm segment that ends every set-up
    warm_frames: int = 1_500


NET_SPECS = {
    spec.name: spec
    for spec in (
        NetSpec("get1_hot", "single", "6", 5_000, 16 << 20, batch=1,
                set_share=0.05, cold_gets=True, frames_per_second=40_000,
                warm_frames=8_000),
        NetSpec("mget16_evict", "single", "1", 20_000, 4 << 20, batch=16,
                set_share=0.05),
        NetSpec("mixed_multisize", "multi", "1", 20_000, 3 << 20, batch=8,
                set_share=0.5, cost_aware_rebalancer=True),
    )
}

SIM_WORKLOAD_ID = "1"
SIM_MEMORY_LIMIT = 16 << 20
SIM_REQUESTS = 300_000

#: Run order.  ``sim_paper`` first: its memory metric is the peak RSS of the
#: benchmark process itself, which the streams of earlier workloads would raise.
WORKLOAD_NAMES = ("sim_paper", *NET_SPECS)


def sim_stream_spec(num_keys: int) -> NetSpec:
    """``sim_paper``'s store and request stream in the shape of a network
    workload (one GET per frame), for driving a bare ``KVStore`` with the
    stream ``run_simulation`` draws for the same seed."""
    return NetSpec("sim_paper", "single", SIM_WORKLOAD_ID, num_keys, SIM_MEMORY_LIMIT,
                   batch=1, set_share=0.0)


#: One stream frame: (is_set, key ids).
Frame = Tuple[bool, List[int]]


class Stream:
    """Keys, values, costs and the frame sequence of one network workload.

    Everything is a function of ``seed``.  A value is the key repeated to the
    key's value size, so every hit can be checked against the key alone.
    """

    def __init__(self, spec: NetSpec, seed: int, frames: int) -> None:
        table = SINGLE_SIZE_WORKLOADS if spec.table == "single" else MULTI_SIZE_WORKLOADS
        self.spec = spec
        self.workload: Workload = table[spec.workload_id].materialize(
            spec.num_keys, seed=seed
        )
        frames = max(frames, spec.warm_frames + 1)
        rng = np.random.default_rng(seed)
        is_set = rng.random(frames) < spec.set_share
        ids = self.workload.sample_requests(frames * spec.batch).reshape(
            frames, spec.batch
        )
        self.keys: List[bytes] = list(self.workload.key_list())
        self.costs: List[int] = list(self.workload.cost_list())
        sizes = self.workload.value_sizes.tolist()
        if spec.cold_gets:
            cold_rows = np.flatnonzero(~is_set)[COLD_GET_EVERY - 1::COLD_GET_EVERY]
            first_cold = len(self.keys)
            ids[cold_rows, 0] = np.arange(first_cold, first_cold + len(cold_rows))
            width = self.workload.spec.key_size - 1
            self.keys += [
                b"k%0*d" % (width, first_cold + i) for i in range(len(cold_rows))
            ]
            self.costs += [COLD_KEY_COST] * len(cold_rows)
            sizes += [sizes[0]] * len(cold_rows)
        self.values: List[bytes] = [
            (key * (size // len(key) + 1))[:size]
            for key, size in zip(self.keys, sizes)
        ]
        self.frames: List[Frame] = list(zip(is_set.tolist(), ids.tolist()))
        self.preload_order: List[int] = self.workload.warmup_order(
            seed=seed + 101
        ).tolist()

    def frame(self, index: int) -> Frame:
        """Frame ``index`` of the stream, wrapping past its end."""
        return self.frames[index % len(self.frames)]
