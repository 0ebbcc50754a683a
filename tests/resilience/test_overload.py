"""Server overload protection: idle timeout, deadlines, load shedding."""

import asyncio
import socket
import time

import pytest

from repro.aio import AsyncStoreClient, AsyncTCPStoreServer
from repro.aio.backoff import NO_RETRY
from repro.core import GDWheelPolicy
from repro.kvstore import KVStore
from repro.obs import EventTrace
from repro.protocol import LoopbackConnection, ServerBusyError, StoreServer
from repro.protocol.text import RequestParser
from repro.resilience import OverloadPolicy


def fresh_store(limit=4 * 1024 * 1024):
    return KVStore(
        memory_limit=limit, slab_size=64 * 1024, policy_factory=GDWheelPolicy
    )


def run(coro):
    return asyncio.run(coro)


class TestOverloadPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            OverloadPolicy(idle_timeout=0)
        with pytest.raises(ValueError):
            OverloadPolicy(request_deadline=-1)
        with pytest.raises(ValueError):
            OverloadPolicy(max_inflight=0)
        with pytest.raises(ValueError):
            OverloadPolicy(shed_latency_us=0)
        with pytest.raises(ValueError):
            OverloadPolicy(latency_alpha=0.0)

    def test_enabled_flag(self):
        assert not OverloadPolicy().enabled
        assert OverloadPolicy(idle_timeout=1.0).enabled
        assert OverloadPolicy(max_inflight=4).enabled

    def test_disabled_policy_keeps_fast_path(self):
        # an all-None policy must not arm the protected loop
        server = AsyncTCPStoreServer(fresh_store(), overload=OverloadPolicy())
        assert server.overload is None


class TestEngineBudget:
    """StoreServer.handle_bytes budget semantics, transport-free."""

    def test_zero_budget_sheds_whole_batch(self):
        engine = StoreServer(fresh_store())
        parser = RequestParser()
        payload = b"set k 0 0 1\r\nv\r\nget k\r\n"
        out, keep_open = engine.handle_bytes(parser, payload, budget=0.0,
                                             shed_reason="queue_depth")
        assert out == b"SERVER_ERROR busy\r\nSERVER_ERROR busy\r\n"
        assert keep_open is True
        assert len(engine.store) == 0  # the set never executed

    def test_deadline_sheds_batch_tail(self):
        engine = StoreServer(fresh_store())
        # burn the budget with a slow store dispatch
        original_get = engine.store.get

        def slow_get(key):
            time.sleep(0.03)
            return original_get(key)

        engine.store.get = slow_get
        parser = RequestParser()
        payload = b"".join(b"get k%d\r\n" % i for i in range(5))
        out, keep_open = engine.handle_bytes(parser, payload, budget=0.01)
        lines = out.split(b"\r\n")
        # first command dispatched (END), the rest answered busy
        assert lines[0] == b"END"
        assert lines.count(b"SERVER_ERROR busy") == 4
        assert keep_open is True

    def test_noreply_commands_shed_silently(self):
        engine = StoreServer(fresh_store())
        parser = RequestParser()
        payload = b"set a 0 0 1 noreply\r\nv\r\nget a\r\n"
        out, _ = engine.handle_bytes(parser, payload, budget=0.0)
        # one busy for the get; nothing for the noreply set
        assert out == b"SERVER_ERROR busy\r\n"

    def test_quit_honoured_while_shedding(self):
        engine = StoreServer(fresh_store())
        parser = RequestParser()
        out, keep_open = engine.handle_bytes(
            parser, b"get k\r\nquit\r\n", budget=0.0
        )
        assert keep_open is False
        assert out == b"SERVER_ERROR busy\r\n"

    def test_shed_counter_and_trace(self):
        trace = EventTrace()
        store = fresh_store()
        engine = StoreServer(store, trace=trace)
        parser = RequestParser()
        engine.handle_bytes(parser, b"get a\r\nget b\r\n", budget=0.0,
                            shed_reason="latency")
        snapshot = engine.metrics.snapshot()
        assert snapshot["server_shed_commands_total{reason=latency}"] == 2
        events = trace.events(kind="overload_shed")
        assert len(events) == 1
        assert events[0].reason == "latency" and events[0].shed_commands == 2

    def test_no_budget_path_unchanged(self):
        connection = LoopbackConnection(StoreServer(fresh_store()))
        assert connection.send(b"set k 0 0 1\r\nv\r\n") == b"STORED\r\n"
        assert connection.send(b"get k\r\n").startswith(b"VALUE k")


class TestAsyncIdleTimeout:
    def test_silent_connection_is_closed_and_traced(self):
        async def main():
            trace = EventTrace()
            store = fresh_store()
            engine = StoreServer(store, trace=trace)
            policy = OverloadPolicy(idle_timeout=0.1)
            async with AsyncTCPStoreServer(engine=engine, overload=policy) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                started = time.monotonic()
                data = await asyncio.wait_for(reader.read(100), 3)
                assert data == b""  # server closed us
                assert time.monotonic() - started >= 0.09
                writer.close()
                assert server.idle_disconnects == 1
                events = trace.events(kind="idle_disconnect")
                assert len(events) == 1 and events[0].idle_timeout == 0.1

        run(main())

    def test_active_connection_survives_idle_gaps_shorter_than_limit(self):
        async def main():
            policy = OverloadPolicy(idle_timeout=0.5)
            async with AsyncTCPStoreServer(fresh_store(), overload=policy) as server:
                client = AsyncStoreClient(*server.address, retry=NO_RETRY)
                assert await client.set(b"k", b"v")
                await asyncio.sleep(0.2)
                assert await client.get(b"k") == b"v"
                assert server.idle_disconnects == 0
                await client.aclose()

        run(main())

    def test_idle_slot_freed_under_max_connections(self):
        # the motivating bug: a silent client can no longer pin a slot
        async def main():
            policy = OverloadPolicy(idle_timeout=0.15)
            async with AsyncTCPStoreServer(
                fresh_store(), max_connections=1, overload=policy
            ) as server:
                silent_reader, silent_writer = await asyncio.open_connection(
                    *server.address
                )
                await asyncio.sleep(0.05)
                # slot pinned: a second connection is refused
                r2, w2 = await asyncio.open_connection(*server.address)
                assert (await asyncio.wait_for(r2.readline(), 2)).startswith(
                    b"SERVER_ERROR too many connections"
                )
                w2.close()
                # after the idle timeout fires, the slot opens up
                assert await asyncio.wait_for(silent_reader.read(100), 3) == b""
                silent_writer.close()
                client = AsyncStoreClient(*server.address, retry=NO_RETRY)
                assert await client.set(b"k", b"v")
                await client.aclose()

        run(main())


class TestAsyncShedding:
    def test_latency_gate_sheds_with_busy(self):
        async def main():
            policy = OverloadPolicy(shed_latency_us=0.0001)
            async with AsyncTCPStoreServer(fresh_store(), overload=policy) as server:
                client = AsyncStoreClient(*server.address, retry=NO_RETRY)
                assert await client.set(b"k", b"v")  # EWMA still zero
                with pytest.raises(ServerBusyError):
                    await client.set(b"k2", b"v")
                snapshot = server.engine.metrics.snapshot()
                assert snapshot["server_shed_commands_total{reason=latency}"] >= 1
                await client.aclose()

        run(main())

    def test_queue_depth_gate_sheds_concurrent_batches(self):
        async def main():
            store = fresh_store(limit=32 * 1024 * 1024)
            # a batch stays "inflight" while its response drains; a client
            # that never reads wedges its batch there, so a second client's
            # batch sees the queue full and is shed.  The response must
            # overflow the kernel's TCP buffers (tcp_wmem caps at ~4 MB)
            # or drain() returns and nothing stays inflight — hence the
            # ~9.6 MB payload and the tiny receive window on the client.
            for i in range(1200):
                store.set(b"k%04d" % i, b"x" * 8000, cost=1)
            engine = StoreServer(store)
            policy = OverloadPolicy(max_inflight=1)
            async with AsyncTCPStoreServer(engine=engine, overload=policy) as server:
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
                sock.setblocking(False)
                await asyncio.get_running_loop().sock_connect(
                    sock, server.address
                )
                r1, w1 = await asyncio.open_connection(sock=sock)
                w1.write(b"".join(b"get k%04d\r\n" % i for i in range(1200)))
                await w1.drain()
                await asyncio.sleep(0.3)  # server now blocked in drain()
                c2 = AsyncStoreClient(*server.address, retry=NO_RETRY)
                with pytest.raises(ServerBusyError):
                    await c2.get(b"k0000")
                snapshot = engine.metrics.snapshot()
                assert snapshot[
                    "server_shed_commands_total{reason=queue_depth}"
                ] >= 1
                await c2.aclose()
                w1.transport.abort()

        run(main())

    def test_deadline_sheds_tail_over_tcp(self):
        async def main():
            store = fresh_store()
            original_set = store.set

            def slow_set(key, value, **kwargs):
                time.sleep(0.02)
                return original_set(key, value, **kwargs)

            store.set = slow_set
            policy = OverloadPolicy(request_deadline=0.01)
            async with AsyncTCPStoreServer(store, overload=policy) as server:
                # per-key frames: an MSET is a single command (one shed
                # unit), so the per-command tail shedding under test needs
                # the pipelined per-key wire mode
                client = AsyncStoreClient(
                    *server.address, retry=NO_RETRY, batching="none"
                )
                # a deep pipelined batch cannot hold the loop past the
                # deadline: the tail comes back busy, surfaced as
                # ServerBusyError by _check_stored
                with pytest.raises(ServerBusyError):
                    await client.set_many(
                        [(b"k%d" % i, b"v", 1) for i in range(20)]
                    )
                snapshot = server.engine.metrics.snapshot()
                assert snapshot["server_shed_commands_total{reason=deadline}"] >= 1
                await client.aclose()

        run(main())
