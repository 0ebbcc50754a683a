"""TCP server lifecycle: ephemeral ports, reuse, clean shutdown."""

import asyncio
import socket

import pytest

from repro.aio import AsyncTCPStoreServer
from repro.core import LRUPolicy
from repro.kvstore import KVStore
from repro.protocol import CostAwareClient
from tests.serving import ServerThread


def fresh_store():
    return KVStore(
        memory_limit=256 * 1024, slab_size=64 * 1024, policy_factory=LRUPolicy
    )


class TestTCPServerLifecycle:
    def test_ephemeral_port_zero_binds_real_port(self):
        with ServerThread(fresh_store(), port=0) as server:
            host, port = server.address
            assert host == "127.0.0.1"
            assert port > 0
            client = CostAwareClient.tcp(host, port)
            assert client.set(b"k", b"v", cost=3)
            assert client.get(b"k") == b"v"
            client.close()

    def test_so_reuseaddr_is_set(self):
        with ServerThread(fresh_store()) as server:
            value = server.server._server.sockets[0].getsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR
            )
            assert value != 0

    def test_port_rebindable_immediately_after_stop(self):
        server = ServerThread(fresh_store()).start()
        _, port = server.address
        client = CostAwareClient.tcp("127.0.0.1", port)
        client.set(b"k", b"v")
        server.stop()
        client.close()
        # rebinding the same port right away must not raise EADDRINUSE
        second = ServerThread(fresh_store(), port=port).start()
        try:
            client = CostAwareClient.tcp("127.0.0.1", port)
            assert client.get(b"k") is None  # fresh store, old data gone
            client.close()
        finally:
            second.stop()

    def test_stop_without_start_does_not_hang(self):
        asyncio.run(AsyncTCPStoreServer(fresh_store()).stop())

    def test_double_start_rejected(self):
        async def main():
            async with AsyncTCPStoreServer(fresh_store()) as server:
                with pytest.raises(RuntimeError):
                    await server.start()

        asyncio.run(main())

    def test_connect_refused_after_stop(self):
        server = ServerThread(fresh_store()).start()
        _, port = server.address
        server.stop()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=0.5)
