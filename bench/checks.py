"""Correctness gates that need no timed phase.

Each returns ``{gate name: passed}``; a failed gate makes the run incorrect.
"""

from __future__ import annotations

import asyncio
from typing import Dict

import numpy as np

from repro.core import GDWheelPolicy, NaiveGreedyDual, PolicyEntry
from repro.protocol import LoopbackConnection, StoreServer

from bench.inproc import encode_ids, new_store
from bench.net import ServerProcess
from bench.spec import NetSpec, Stream

SAMPLE_FRAMES = 64
VICTIM_OPERATIONS = 20_000
VICTIM_CAPACITY = 256


async def tcp_equals_loopback(spec: NetSpec, stream: Stream) -> Dict[str, bool]:
    """A fresh server child and a fresh in-process store answer the same
    ``SAMPLE_FRAMES`` frames (half of them forced to write) byte for byte."""
    requests = []
    for index in range(SAMPLE_FRAMES):
        is_set, ids = stream.frame(index)
        request = encode_ids(stream, is_set, ids)
        if index % 2 == 0 and not is_set:
            # the stores start empty: write this frame's keys first so it hits
            request = encode_ids(stream, True, ids) + request
        requests.append(request)
    loopback = LoopbackConnection(StoreServer(new_store(spec)))
    expected = [loopback.send(request) for request in requests]

    server = ServerProcess(spec)
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        try:
            same = True
            for request, want in zip(requests, expected):
                writer.write(request)
                await writer.drain()
                got = await asyncio.wait_for(reader.readexactly(len(want)), 5.0)
                same = same and got == want
        except (asyncio.IncompleteReadError, asyncio.TimeoutError, ConnectionError):
            same = False
        finally:
            writer.close()
            await writer.wait_closed()
    finally:
        server.stop()
    return {"tcp_and_loopback_answers_byte_identical": same}


def gdwheel_equals_naive_greedydual(seed: int) -> Dict[str, bool]:
    """GD-Wheel and the O(n) GreedyDual oracle evict the same keys in the same
    order over ``VICTIM_OPERATIONS`` seeded touches and evict+inserts."""
    rng = np.random.default_rng(seed)
    key_ids = rng.integers(0, VICTIM_CAPACITY * 4, size=VICTIM_OPERATIONS).tolist()
    new_costs = rng.integers(1, 451, size=VICTIM_OPERATIONS).tolist()

    def victims(policy):
        entries, evicted = {}, []
        for key, cost in zip(key_ids, new_costs):
            entry = entries.get(key)
            if entry is not None:
                policy.touch(entry)
                continue
            if len(policy) >= VICTIM_CAPACITY:
                victim = policy.select_victim()
                evicted.append(victim.key)
                del entries[victim.key]
            entry = entries[key] = PolicyEntry(key=key)
            policy.insert(entry, cost)
        return evicted

    return {
        "gdwheel_and_naive_greedydual_same_victims":
            victims(GDWheelPolicy()) == victims(NaiveGreedyDual())
    }
