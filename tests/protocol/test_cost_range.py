"""A cost outside the policy's range is refused before the store changes.

GD-Wheel holds costs ``0 … NQ**NW − 1``: 65,535 with the paper's two
wheels of 256 queues, the range of the item's 2-byte cost field.  A write
above that is answered with an error, and the store is left exactly as it
was: the key keeps its previous value, and the hash table, the allocator
and the policy still agree (``check_invariants``).  The connection stays
usable afterwards.  A cost that is not an ``int`` (a float, or ``True``)
is refused the same way, with ``TypeError``.
"""

import pytest

from repro.core import (
    POLICY_REGISTRY,
    CostOutOfRangeError,
    GDWheelPolicy,
    LRUPolicy,
)
from repro.kvstore import KVStore
from repro.protocol import LoopbackConnection, StoreServer

TOO_HIGH = 65_536


def fresh_store(policy_factory=GDWheelPolicy):
    return KVStore(
        memory_limit=1024 * 1024, slab_size=64 * 1024,
        policy_factory=policy_factory,
    )


def value_of(store, key):
    item = store.get(key)
    return None if item is None else item.value


class TestStore:
    def test_set_above_range_raises_and_keeps_old_value(self):
        store = fresh_store()
        store.set(b"k", b"old", cost=5)
        with pytest.raises(CostOutOfRangeError):
            store.set(b"k", b"new", cost=TOO_HIGH)
        store.check_invariants()
        assert value_of(store, b"k") == b"old"
        assert store.hashtable.find(b"k").cost == 5

    def test_wheel_maximum_is_stored(self):
        store = fresh_store()
        store.set(b"k", b"v", cost=TOO_HIGH - 1)
        store.check_invariants()
        assert store.hashtable.find(b"k").cost == TOO_HIGH - 1

    @pytest.mark.parametrize("policy_factory", [GDWheelPolicy, LRUPolicy])
    def test_negative_cost_raises_and_keeps_old_value(self, policy_factory):
        store = fresh_store(policy_factory)
        store.set(b"k", b"old", cost=5)
        with pytest.raises(CostOutOfRangeError):
            store.set(b"k", b"new", cost=-1)
        store.check_invariants()
        assert value_of(store, b"k") == b"old"

    def test_unbounded_policy_takes_any_cost(self):
        store = fresh_store(LRUPolicy)
        store.set(b"k", b"v", cost=10 * TOO_HIGH)
        store.check_invariants()

    def test_set_many_reports_the_error_per_entry(self):
        store = fresh_store()
        store.set(b"a", b"old", cost=5)
        results = store.set_many(
            [(b"a", b"new", TOO_HIGH, 0, 0), (b"b", b"B", 1, 0, 0)]
        )
        assert isinstance(results[0], CostOutOfRangeError)
        assert results[1].value == b"B"
        store.check_invariants()
        assert value_of(store, b"a") == b"old"

    @pytest.mark.parametrize("policy", ["lru", "gd-wheel", "gd-pq", "camp"])
    @pytest.mark.parametrize("cost", [1.5, True])
    def test_non_int_cost_raises_and_keeps_old_value(self, policy, cost):
        store = fresh_store(POLICY_REGISTRY[policy])
        store.set(b"k", b"old", cost=5)
        with pytest.raises(TypeError):
            store.set(b"k", b"new", cost=cost)
        store.check_invariants()
        assert value_of(store, b"k") == b"old"
        assert store.hashtable.find(b"k").cost == 5


class TestTextProtocol:
    @pytest.fixture
    def store(self):
        store = fresh_store()
        store.set(b"k", b"old", cost=5)
        return store

    @pytest.fixture
    def connection(self, store):
        return LoopbackConnection(StoreServer(store))

    def assert_refused(self, connection, store, wire, key, previous):
        assert connection.send(wire) == b"CLIENT_ERROR cost out of range\r\n"
        assert connection.open
        store.check_invariants()
        assert value_of(store, key) == previous
        # the connection still serves the next command
        assert connection.send(b"get k\r\n") == b"VALUE k 0 3\r\nold\r\nEND\r\n"

    def test_set(self, connection, store):
        self.assert_refused(
            connection, store, b"set k 0 0 3 cost 65536\r\nnew\r\n", b"k", b"old"
        )

    def test_add(self, connection, store):
        self.assert_refused(
            connection, store, b"add fresh 0 0 3 cost 70000\r\nnew\r\n",
            b"fresh", None,
        )

    def test_cas(self, connection, store):
        token = store.hashtable.find(b"k").cas_unique
        self.assert_refused(
            connection, store,
            b"cas k 0 0 3 %d cost 65536\r\nnew\r\n" % token, b"k", b"old",
        )

    def test_mset_marks_the_item_and_stores_the_rest(self, connection, store):
        wire = (
            b"mset 2\r\n"
            b"k 0 0 3 cost 70000\r\nnew\r\n"
            b"good 0 0 1 cost 7\r\nG\r\n"
        )
        assert connection.send(wire) == b"MSET ERROR STORED\r\n"
        assert connection.open
        store.check_invariants()
        assert value_of(store, b"k") == b"old"
        assert value_of(store, b"good") == b"G"
