"""Async serving demo: one event loop, many connections, a latency report.

Starts an asyncio GD-Wheel store server on an ephemeral loopback port,
drives it with the closed-loop YCSB-style load generator (Zipf keys, the
paper's Table 2 baseline cost groups), then scatter/gathers a multi-key
GET across a 3-node async pool.

Run with::

    PYTHONPATH=src python examples/async_serving.py
"""

import asyncio

from repro.aio import (
    AsyncStoreClient,
    AsyncStorePool,
    AsyncTCPStoreServer,
    run_closed_loop,
)
from repro.core import GDWheelPolicy
from repro.kvstore import KVStore
from repro.workloads import SINGLE_SIZE_WORKLOADS


def make_store(megabytes: int = 16) -> KVStore:
    return KVStore(
        memory_limit=megabytes * 1024 * 1024,
        slab_size=64 * 1024,
        policy_factory=GDWheelPolicy,
    )


async def single_server_load() -> None:
    workload = SINGLE_SIZE_WORKLOADS["1"].materialize(5_000, seed=42)
    async with AsyncTCPStoreServer(make_store()) as server:
        host, port = server.address
        print(f"async server listening on {host}:{port}")
        report = await run_closed_loop(
            host, port, workload,
            total_ops=20_000, concurrency=8, batch_size=16, seed=42,
        )
        print(report.format("closed-loop YCSB-B, 8 workers, batch 16"))
        print(
            f"server saw {server.total_connections} connections, "
            f"peak {server.peak_connections}, "
            f"{server.bytes_in:,} B in / {server.bytes_out:,} B out"
        )


async def cluster_fan_out() -> None:
    servers = {}
    for i in range(3):
        servers[f"node{i}"] = AsyncTCPStoreServer(make_store(4))
        await servers[f"node{i}"].start()
    clients = {
        name: AsyncStoreClient(*server.address, pool_size=4)
        for name, server in servers.items()
    }
    pool = AsyncStorePool(clients)
    try:
        items = [(b"page:%05d" % i, b"<html>%05d</html>" % i, 25) for i in range(3_000)]
        stored = await pool.multi_set(items)
        found = await pool.multi_get([key for key, _, _ in items])
        print(f"\n3-node pool: stored {stored}, multi_get returned {len(found)}")
        print(f"per-node ops: {pool.node_ops}")
        totals = await pool.aggregate_stats()
        print(f"fleet stats: sets={totals['sets']} get_hits={totals['get_hits']}")
    finally:
        await pool.aclose()
        for server in servers.values():
            await server.stop()


if __name__ == "__main__":
    asyncio.run(single_server_load())
    asyncio.run(cluster_fan_out())
