"""The program's layers driven inside this process, without sockets.

The store as the server child builds it, stream frames as request bytes, and
three backends that execute one frame against one layer each: through
``LoopbackConnection``, as bare ``KVStore`` calls, and on a bare policy.
``replay`` runs a range of stream frames against a backend, cache-aside, timing
every call.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.core import GDWheelPolicy, PolicyEntry
from repro.kvstore import CostAwareRebalancer, KVStore
from repro.protocol import (
    GetCommand,
    LoopbackConnection,
    ResponseParser,
    StoreCommand,
    StoreServer,
    encode_command,
)
from repro.protocol.commands import MultiGetCommand, MultiSetCommand

from bench.spec import SLAB_SIZE, NetSpec, Stream


def new_store(spec: NetSpec, registry=None) -> KVStore:
    """The server child's store, built in this process."""
    return KVStore(
        memory_limit=spec.memory_limit,
        policy_factory=GDWheelPolicy,
        slab_size=SLAB_SIZE,
        rebalancer=CostAwareRebalancer() if spec.cost_aware_rebalancer else None,
        registry=registry,
    )


def encode_ids(stream: Stream, is_set: bool, ids) -> bytes:
    """One frame over key ids ``ids`` as the request bytes the client sends."""
    keys, values, costs = stream.keys, stream.values, stream.costs
    if is_set:
        items = tuple(
            StoreCommand(verb="set", key=keys[i], flags=0, exptime=0,
                         value=values[i], cost=costs[i])
            for i in ids
        )
        command = items[0] if stream.spec.batch == 1 else MultiSetCommand(items=items)
    elif stream.spec.batch == 1:
        command = GetCommand(keys=(keys[ids[0]],))
    else:
        command = MultiGetCommand(keys=tuple(keys[i] for i in ids))
    return encode_command(command)


def preloaded_store(stream: Stream, registry=None) -> KVStore:
    store = new_store(stream.spec, registry)
    for i in stream.preload_order:
        store.set(stream.keys[i], stream.values[i], cost=stream.costs[i])
    return store


class LoopbackBackend:
    """Frames as request bytes through ``LoopbackConnection.send``."""

    def __init__(self, stream: Stream) -> None:
        self.stream = stream
        self.connection = LoopbackConnection(StoreServer(preloaded_store(stream)))
        self.parser = ResponseParser()

    def call(self, index: int, is_set: bool, ids: List[int]):
        request = encode_ids(self.stream, is_set, ids)
        started = time.perf_counter()
        response = self.connection.send(request)
        took = time.perf_counter() - started
        if is_set:
            return took, ()
        self.parser.feed(response)
        found = {value.key for value in self.parser.try_parse().values}
        return took, [i for i in ids if self.stream.keys[i] not in found]


class StoreBackend:
    """Frames as bare ``KVStore.get_many`` / ``set_many`` calls."""

    def __init__(self, stream: Stream) -> None:
        self.stream = stream
        self.store = preloaded_store(stream)

    def call(self, index: int, is_set: bool, ids: List[int]):
        keys, values, costs = self.stream.keys, self.stream.values, self.stream.costs
        if is_set:
            entries = [(keys[i], values[i], costs[i], 0, 0) for i in ids]
            started = time.perf_counter()
            self.store.set_many(entries)
            return time.perf_counter() - started, ()
        frame_keys = [keys[i] for i in ids]
        started = time.perf_counter()
        items = self.store.get_many(frame_keys)
        took = time.perf_counter() - started
        return took, [i for i, item in zip(ids, items) if item is None]


class PolicyBackend:
    """Frames as touches and evict+inserts on one bare GD-Wheel holding as many
    entries as the preloaded store holds items."""

    def __init__(self, stream: Stream) -> None:
        self.stream = stream
        self.capacity = len(preloaded_store(stream))
        self.policy = GDWheelPolicy()
        self.entries: Dict[int, PolicyEntry] = {}
        for i in stream.preload_order:
            self._insert(i)

    def _insert(self, i: int) -> None:
        entry = self.entries.pop(i, None)
        if entry is not None:
            self.policy.remove(entry)
        elif len(self.policy) >= self.capacity:
            del self.entries[self.policy.select_victim().key]
        entry = self.entries[i] = PolicyEntry(key=i)
        self.policy.insert(entry, self.stream.costs[i])

    def call(self, index: int, is_set: bool, ids: List[int]):
        started = time.perf_counter()
        missed = []
        if is_set:
            for i in ids:
                self._insert(i)
        else:
            for i in ids:
                entry = self.entries.get(i)
                if entry is None:
                    missed.append(i)
                else:
                    self.policy.touch(entry)
        return time.perf_counter() - started, missed


def replay(stream: Stream, backend, first: int, count: int,
           recorder=None) -> Dict[int, List[float]]:
    """Frames ``first .. first+count`` against ``backend``, cache-aside.

    Returns the seconds each call took, per frame index.  With ``recorder``
    the replay is itself the traced run (``sim_paper`` has no sockets).
    """
    out: Dict[int, List[float]] = {}
    perf = time.perf_counter
    for index in range(first, first + count):
        t0 = perf()
        is_set, ids = stream.frame(index)
        t1 = perf()
        took, missed = backend.call(index, is_set, ids)
        calls = [took]
        if missed:
            calls.append(backend.call(index, True, list(dict.fromkeys(missed)))[0])
        out[index] = calls
        if recorder is not None:
            t_end = perf()
            spans, at = [], t1
            for took in calls:
                spans.append((at, at + took))
                at += took
            recorder.request(index, t0, t1, spans, t_end)
    return out
