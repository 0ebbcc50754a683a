"""The server child process of the network workloads.

``KVStore`` (GD-Wheel per slab class) behind ``AsyncTCPStoreServer`` on the
stdlib asyncio loop, text protocol, no tier, no event trace, no overload
policy.  Prints ``PORT <n>`` once listening and serves until its stdin
reaches EOF, so it can never outlive the benchmark that spawned it.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from bench import ensure_repro_importable


async def serve(memory_limit: int, slab_size: int, cost_aware_rebalancer: bool) -> None:
    from repro.aio import AsyncTCPStoreServer
    from repro.core import GDWheelPolicy
    from repro.kvstore import CostAwareRebalancer, KVStore

    store = KVStore(
        memory_limit=memory_limit,
        policy_factory=GDWheelPolicy,
        slab_size=slab_size,
        rebalancer=CostAwareRebalancer() if cost_aware_rebalancer else None,
    )
    async with AsyncTCPStoreServer(store) as server:
        print(f"PORT {server.address[1]}", flush=True)
        # EOF on stdin is the stop signal (parent closed the pipe or died)
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.buffer.read)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--memory-limit", type=int, required=True)
    parser.add_argument("--slab-size", type=int, required=True)
    parser.add_argument("--cost-aware-rebalancer", action="store_true")
    args = parser.parse_args()
    ensure_repro_importable()
    asyncio.run(serve(args.memory_limit, args.slab_size, args.cost_aware_rebalancer))


if __name__ == "__main__":
    main()
