"""Server dispatch and client behaviour over loopback and TCP."""

import pytest

from repro.core import GDWheelPolicy
from repro.kvstore import KVStore, SimClock
from repro.protocol import CostAwareClient, LoopbackConnection, StoreServer
from tests.serving import ServerThread


@pytest.fixture
def store():
    return KVStore(
        memory_limit=4 * 1024 * 1024,
        slab_size=64 * 1024,
        policy_factory=GDWheelPolicy,
    )


@pytest.fixture
def client(store):
    return CostAwareClient.loopback(StoreServer(store))


class TestCommandsOverLoopback:
    def test_get_set_roundtrip(self, client):
        assert client.set(b"k", b"v", cost=100)
        assert client.get(b"k") == b"v"

    def test_get_miss_is_none(self, client):
        assert client.get(b"missing") is None

    def test_cost_reaches_the_item(self, client, store):
        client.set(b"k", b"v", cost=321)
        assert store.hashtable.find(b"k").cost == 321

    def test_zero_cost_set_omits_token(self, client, store):
        client.set(b"k", b"v")
        assert store.hashtable.find(b"k").cost == 0

    def test_add_replace_contract(self, client):
        assert client.add(b"k", b"v1") is True
        assert client.add(b"k", b"v2") is False
        assert client.replace(b"k", b"v3") is True
        assert client.get(b"k") == b"v3"
        assert client.replace(b"absent", b"x") is False

    def test_delete(self, client):
        client.set(b"k", b"v")
        assert client.delete(b"k") is True
        assert client.delete(b"k") is False

    def test_get_many(self, client):
        client.set(b"a", b"1")
        client.set(b"b", b"2")
        result = client.get_many([b"a", b"b", b"missing"])
        assert result == {b"a": b"1", b"b": b"2"}

    def test_flush_all(self, client):
        client.set(b"a", b"1")
        assert client.flush_all() is True
        assert client.get(b"a") is None

    def test_touch_over_protocol(self, store):
        clock = store.clock
        client = CostAwareClient.loopback(StoreServer(store))
        client.set(b"k", b"v", exptime=10)
        assert client.touch(b"k", 100) is True
        clock.advance(50)
        assert client.get(b"k") == b"v"
        assert client.touch(b"absent", 5) is False

    def test_relative_exptime_applied(self, store):
        client = CostAwareClient.loopback(StoreServer(store))
        client.set(b"k", b"v", exptime=10)
        assert store.hashtable.find(b"k").exptime == pytest.approx(
            store.clock.now + 10
        )

    def test_stats_exposes_counters(self, client):
        client.set(b"k", b"v")
        client.get(b"k")
        client.get(b"nope")
        stats = client.stats()
        assert stats["get_hits"] == "1"
        assert stats["get_misses"] == "1"
        assert stats["sets"] == "1"
        assert stats["curr_items"] == "1"

    def test_oversized_value_is_server_error(self, client):
        from repro.protocol import ProtocolError

        with pytest.raises(ProtocolError, match="SERVER_ERROR"):
            client.set(b"big", b"v" * (2 * 1024 * 1024))

    def test_get_or_compute_caches_and_costs(self, client, store):
        calls = []

        def compute():
            calls.append(1)
            return b"expensive-result"

        value, hit = client.get_or_compute(b"page", compute, cost_units=77)
        assert (value, hit) == (b"expensive-result", False)
        value, hit = client.get_or_compute(b"page", compute, cost_units=77)
        assert (value, hit) == (b"expensive-result", True)
        assert len(calls) == 1
        assert store.hashtable.find(b"page").cost == 77

    def test_get_or_compute_times_when_cost_omitted(self, client, store):
        import time

        def slow():
            time.sleep(0.012)
            return b"v"

        client.get_or_compute(b"k", slow, cost_unit_seconds=0.010)
        assert store.hashtable.find(b"k").cost >= 1


class TestMalformedInputOverConnection:
    def test_client_error_closes_connection(self, store):
        connection = LoopbackConnection(StoreServer(store))
        response = connection.send(b"garbage command\r\n")
        assert response.startswith(b"CLIENT_ERROR")
        assert not connection.open
        with pytest.raises(ConnectionError):
            connection.send(b"get k\r\n")

    def test_quit_closes_connection(self, store):
        connection = LoopbackConnection(StoreServer(store))
        connection.send(b"quit\r\n")
        assert not connection.open


class TestTCP:
    def test_full_session_over_tcp(self, store):
        with ServerThread(store) as server:
            host, port = server.address
            client = CostAwareClient.tcp(host, port)
            try:
                assert client.set(b"k", b"v" * 500, cost=45)
                assert client.get(b"k") == b"v" * 500
                assert client.delete(b"k") is True
                stats = client.stats()
                assert stats["sets"] == "1"
            finally:
                client.close()

    def test_two_concurrent_clients(self, store):
        with ServerThread(store) as server:
            host, port = server.address
            c1 = CostAwareClient.tcp(host, port)
            c2 = CostAwareClient.tcp(host, port)
            try:
                c1.set(b"from-1", b"a")
                c2.set(b"from-2", b"b")
                assert c1.get(b"from-2") == b"b"
                assert c2.get(b"from-1") == b"a"
            finally:
                c1.close()
                c2.close()
