"""Parser resync + version-skew matrix for the batched wire protocol.

Satellite of PR 8: MGET/MSET frames are bigger than any single command
the proxy used to chop, so the incremental parsers get fresh adversaries
— chunks split mid-frame (must reassemble exactly) and chunks with the
tail bytes gone (must error or time out, never silently mis-answer).
The version-skew matrix runs both directions of the rollout over real
sockets: a new client against an old server (negotiated per-key
fallback) and an old client against a new server (untouched GET path).
"""

import asyncio

import pytest

from repro.aio import AsyncStoreClient, AsyncTCPStoreServer
from repro.aio.backoff import NO_RETRY, RetryPolicy
from repro.core import GDWheelPolicy
from repro.kvstore import KVStore
from repro.resilience import ChaosProxy, FaultSchedule


def fresh_store(limit=4 * 1024 * 1024):
    return KVStore(
        memory_limit=limit, slab_size=64 * 1024, policy_factory=GDWheelPolicy
    )


def run(coro):
    return asyncio.run(coro)


ITEMS = [(b"key-%03d" % i, b"value-%03d" % i, i + 1) for i in range(32)]
KEYS = [key for key, _, _ in ITEMS]


class TestTextResyncUnderChaos:
    def test_partial_writes_reassemble_batched_frames(self):
        # every chunk split in two mid-stream: MSET item bodies and the
        # multi-VALUE MGET reply must come back bit-exact
        async def main():
            async with AsyncTCPStoreServer(fresh_store()) as server:
                schedule = FaultSchedule(seed=8).always(partial_write_prob=1.0)
                async with ChaosProxy(*server.address, schedule) as proxy:
                    client = AsyncStoreClient(*proxy.address, retry=NO_RETRY)
                    assert await client.set_many(ITEMS) == len(ITEMS)
                    found = await client.get_many(KEYS)
                    assert found == {key: value for key, value, _ in ITEMS}
                    assert client.batch_supported is True
                    assert proxy.fault_counts["partial_write"] >= 1
                    await client.aclose()

        run(main())

    def test_truncated_mget_frames_fail_loudly(self):
        # inbound truncation chops MGET/MSET frames client->server: the
        # server may never mis-parse the stream into a wrong answer; the
        # client must surface an error or time out
        async def main():
            async with AsyncTCPStoreServer(fresh_store()) as server:
                schedule = FaultSchedule(seed=13).always(
                    truncate_prob=1.0, direction="in"
                )
                async with ChaosProxy(*server.address, schedule) as proxy:
                    client = AsyncStoreClient(
                        *proxy.address, timeout=0.2,
                        retry=RetryPolicy(max_attempts=2, base_delay=0.01),
                    )
                    with pytest.raises(Exception):
                        for _ in range(25):
                            await client.set_many(ITEMS)
                            await client.get_many(KEYS)
                    assert proxy.fault_counts["truncate"] >= 1
                    await client.aclose()

        run(main())

    def test_truncated_mget_replies_fail_loudly(self):
        async def main():
            async with AsyncTCPStoreServer(fresh_store()) as server:
                schedule = FaultSchedule(seed=17).always(
                    truncate_prob=1.0, direction="out"
                )
                async with ChaosProxy(*server.address, schedule) as proxy:
                    client = AsyncStoreClient(
                        *proxy.address, timeout=0.2,
                        retry=RetryPolicy(max_attempts=2, base_delay=0.01),
                    )
                    with pytest.raises(Exception):
                        for _ in range(25):
                            await client.set_many(ITEMS)
                            found = await client.get_many(KEYS)
                            # any reply that does parse must be correct
                            for key, value in found.items():
                                assert value == dict(
                                    (k, v) for k, v, _ in ITEMS
                                )[key]
                    assert proxy.fault_counts["truncate"] >= 1
                    await client.aclose()

        run(main())


class TestVersionSkewMatrix:
    def test_new_client_old_server_over_tcp(self):
        # old server: refuses mget/mset and closes; the client redials,
        # replays per-key, and caches the refusal on the pool
        async def main():
            async with AsyncTCPStoreServer(
                fresh_store(), accept_batch=False
            ) as server:
                client = AsyncStoreClient(*server.address, retry=NO_RETRY)
                assert await client.set_many(ITEMS) == len(ITEMS)
                assert client.batch_supported is False
                found = await client.get_many(KEYS)
                assert found == {key: value for key, value, _ in ITEMS}
                assert client.batch_supported is False
                await client.aclose()

        run(main())

    def test_old_client_new_server_over_tcp(self):
        # old client wire shape: plain multi-key GET + per-key SETs
        async def main():
            async with AsyncTCPStoreServer(fresh_store()) as server:
                client = AsyncStoreClient(
                    *server.address, retry=NO_RETRY, batching="get"
                )
                assert await client.set_many(ITEMS) == len(ITEMS)
                found = await client.get_many(KEYS)
                assert found == {key: value for key, value, _ in ITEMS}
                await client.aclose()

        run(main())

    def test_new_client_old_server_under_partial_writes(self):
        # version skew and a flaky network at once: the fallback still
        # converges to correct per-key results
        async def main():
            async with AsyncTCPStoreServer(
                fresh_store(), accept_batch=False
            ) as server:
                schedule = FaultSchedule(seed=21).always(partial_write_prob=1.0)
                async with ChaosProxy(*server.address, schedule) as proxy:
                    client = AsyncStoreClient(*proxy.address, retry=NO_RETRY)
                    assert await client.set_many(ITEMS[:8]) == 8
                    found = await client.get_many(KEYS[:8])
                    assert found == {k: v for k, v, _ in ITEMS[:8]}
                    assert client.batch_supported is False
                    await client.aclose()

        run(main())
