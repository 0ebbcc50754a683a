"""Work per served frame, counted instead of timed.

Every Python-level function call a frame makes on its way through
``LoopbackConnection`` (parse, dispatch, store, policy, encode) is counted
with ``sys.setprofile``.  The store, the key stream and the frames are all
fixed by a seed, so the counts are exact: the same code gives the same
number on every run and on every machine, and a change that adds Python
work to a frame fails here instead of hiding in timing noise.

The ceilings are the counts measured on Python 3.11 plus 5%.  Python 3.12
inlines list comprehensions, so its counts can only be lower.
"""

from __future__ import annotations

import sys

import pytest

from repro.core import GDWheelPolicy
from repro.kvstore import ITEM_HEADER_SIZE, KVStore
from repro.protocol import LoopbackConnection, StoreServer, encode_command
from repro.protocol.commands import (
    GetCommand,
    MultiGetCommand,
    MultiSetCommand,
    StoreCommand,
)
from repro.workloads import SINGLE_SIZE_WORKLOADS

SEED = 44
NUM_KEYS = 4000
FRAMES = 200
SLAB_SIZE = 64 * 1024

#: Python calls per frame: the measured count + 5%.  Measured (3.11):
#: GET 23.35, MGET-16 58.87, MSET-8 335.16 (before the dict index, C-level
#: key check and one-loop MGET: 44.34, 425.86 and 559.16).
CEILINGS = {"get": 24.5, "mget16": 61.8, "mset8": 351.9}


def _frames(workload, kind: str, frames: int):
    keys, values, costs = (
        workload.key_list(), workload.value_list(), workload.cost_list()
    )
    batch = {"get": 1, "mget16": 16, "mset8": 8}[kind]
    ids = workload.sample_requests(frames * batch).reshape(frames, batch).tolist()
    for row in ids:
        if kind == "get":
            command = GetCommand(keys=(keys[row[0]],))
        elif kind == "mget16":
            command = MultiGetCommand(keys=tuple(keys[i] for i in row))
        else:
            command = MultiSetCommand(items=tuple(
                StoreCommand(verb="set", key=keys[i], flags=0, exptime=0,
                             value=values[i], cost=costs[i])
                for i in row
            ))
        yield encode_command(command)


def calls_per_frame() -> dict:
    """Mean Python calls per frame for each frame kind, in one store whose
    working set is twice its memory (so MSET frames evict)."""
    workload = SINGLE_SIZE_WORKLOADS["1"].materialize(NUM_KEYS, seed=SEED)
    footprint = ITEM_HEADER_SIZE + workload.spec.key_size + int(
        workload.value_sizes[0]
    )
    store = KVStore(
        memory_limit=max(NUM_KEYS * footprint // 2, 4 * SLAB_SIZE),
        policy_factory=GDWheelPolicy,
        slab_size=SLAB_SIZE,
    )
    keys, values, costs = (
        workload.key_list(), workload.value_list(), workload.cost_list()
    )
    for i in workload.warmup_order(seed=SEED + 1).tolist():
        store.set(keys[i], values[i], cost=costs[i])
    connection = LoopbackConnection(StoreServer(store))
    counts = {}
    for kind in ("get", "mget16", "mset8"):
        requests = list(_frames(workload, kind, FRAMES))
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        send = connection.send
        sys.setprofile(profile)
        try:
            for request in requests:
                send(request)
        finally:
            sys.setprofile(None)
        counts[kind] = calls / len(requests)
    return counts


@pytest.fixture(scope="module")
def counts():
    return calls_per_frame()


@pytest.mark.parametrize("kind", sorted(CEILINGS))
def test_calls_per_frame_within_ceiling(counts, kind):
    assert counts[kind] <= CEILINGS[kind], (
        f"{kind}: {counts[kind]:.2f} Python calls per frame, "
        f"ceiling {CEILINGS[kind]}"
    )


def test_counts_are_exact():
    assert calls_per_frame() == calls_per_frame()


if __name__ == "__main__":
    print(calls_per_frame())
