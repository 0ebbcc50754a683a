"""Batched wire protocol: MGET/MSET framing, dispatch, fallback (PR 8)."""

import pytest

from repro.core import GDWheelPolicy
from repro.kvstore import KVStore, SimClock
from repro.kvstore.errors import OutOfMemoryError
from repro.protocol import (
    CostAwareClient,
    LoopbackConnection,
    StoreServer,
)
from repro.protocol.commands import (
    GetCommand,
    GetResponse,
    MultiGetCommand,
    MultiSetCommand,
    MultiSetResponse,
    ProtocolError,
    SimpleResponse,
    StoreCommand,
)
from repro.protocol.text import (
    RequestParser,
    ResponseParser,
    encode_command,
    encode_response,
)


def fresh_store(limit=1024 * 1024, slab=64 * 1024):
    return KVStore(
        memory_limit=limit, slab_size=slab, policy_factory=GDWheelPolicy,
        clock=SimClock(),
    )


def parse_all(payload: bytes, accept_batch=True):
    parser = RequestParser(accept_batch=accept_batch)
    parser.feed(payload)
    return list(parser)


MSET_WIRE = (
    b"mset 2\r\n"
    b"a 1 0 2 cost 7\r\nAA\r\n"
    b"b 0 0 3\r\nBBB\r\n"
)


class TestTextFraming:
    def test_mget_parses_to_one_command(self):
        (command,) = parse_all(b"mget a b c\r\n")
        assert command == MultiGetCommand(keys=(b"a", b"b", b"c"))

    def test_mget_trailing_trace_token_is_stripped(self):
        (command,) = parse_all(b"mget a b tctx:00ff\r\n")
        assert command.keys == (b"a", b"b")
        assert command.trace_token == b"tctx:00ff"

    def test_mget_single_token_is_a_key_not_a_context(self):
        # the backward-compat rule: at least one real key must remain
        (command,) = parse_all(b"mget tctx:00ff\r\n")
        assert command.keys == (b"tctx:00ff",)
        assert command.trace_token is None

    def test_mset_parses_items_with_costs(self):
        (command,) = parse_all(MSET_WIRE)
        assert isinstance(command, MultiSetCommand)
        assert [i.key for i in command.items] == [b"a", b"b"]
        assert [i.value for i in command.items] == [b"AA", b"BBB"]
        assert [i.cost for i in command.items] == [7, 0]
        assert command.items[0].flags == 1
        assert not command.noreply

    def test_mset_noreply(self):
        (command,) = parse_all(
            b"mset 1 noreply\r\nk 0 0 1\r\nv\r\n"
        )
        assert command.noreply

    def test_mset_count_out_of_range(self):
        parser = RequestParser()
        parser.feed(b"mset 4097\r\n")
        with pytest.raises(ProtocolError):
            list(parser)

    def test_partial_feeds_resync(self):
        # byte-at-a-time: nothing emerges until the frame completes, then
        # the parser is clean for the next command
        wire = MSET_WIRE + b"mget a\r\n"
        parser = RequestParser()
        commands = []
        for i in range(len(wire)):
            parser.feed(wire[i : i + 1])
            commands.extend(parser)
        assert len(commands) == 2
        assert isinstance(commands[0], MultiSetCommand)
        assert commands[1] == MultiGetCommand(keys=(b"a",))

    def test_bad_mset_item_line_resyncs_parser(self):
        parser = RequestParser()
        parser.feed(b"mset 2\r\nnot-enough-tokens\r\n")
        with pytest.raises(ProtocolError):
            list(parser)
        # the aborted batch must not swallow the next command
        parser.feed(b"mget a\r\n")
        assert list(parser) == [MultiGetCommand(keys=(b"a",))]

    def test_encode_roundtrip_mget(self):
        command = MultiGetCommand(keys=(b"x", b"y"), trace_token=b"tctx:01")
        (parsed,) = parse_all(encode_command(command))
        assert parsed == command

    def test_encode_roundtrip_mset(self):
        command = MultiSetCommand(
            items=(
                StoreCommand(verb="set", key=b"k1", flags=3, exptime=0,
                             value=b"v1", cost=9),
                StoreCommand(verb="set", key=b"k2", flags=0, exptime=0,
                             value=b"", cost=0),
            ),
        )
        (parsed,) = parse_all(encode_command(command))
        assert parsed == command

    def test_mset_response_roundtrip(self):
        response = MultiSetResponse(statuses=(b"STORED", b"TOO_LARGE", b"OOM"))
        parser = ResponseParser()
        parser.feed(encode_response(response))
        parsed = parser.try_parse()
        assert parsed == response
        assert parsed.stored == 1


class TestTextDispatch:
    def test_mget_returns_only_hits(self):
        server = StoreServer(fresh_store())
        server.store.set(b"a", b"1", cost=1)
        server.store.set(b"c", b"3", cost=1)
        response, _ = server.dispatch(MultiGetCommand(keys=(b"a", b"b", b"c")))
        assert isinstance(response, GetResponse)
        assert [(v.key, v.value) for v in response.values] == [
            (b"a", b"1"), (b"c", b"3"),
        ]

    def test_mset_per_key_status_attribution(self):
        # slab=1 KiB: the oversized value fails alone, neighbours store
        server = StoreServer(fresh_store(slab=1024))
        command = MultiSetCommand(
            items=(
                StoreCommand(verb="set", key=b"ok1", flags=0, exptime=0,
                             value=b"v", cost=1),
                StoreCommand(verb="set", key=b"big", flags=0, exptime=0,
                             value=b"x" * 4096, cost=1),
                StoreCommand(verb="set", key=b"ok2", flags=0, exptime=0,
                             value=b"v", cost=1),
            ),
        )
        response, keep_open = server.dispatch(command)
        assert keep_open is True
        assert response.statuses == (b"STORED", b"TOO_LARGE", b"STORED")
        assert server.store.get(b"ok1") is not None
        assert server.store.get(b"big") is None

    def test_mset_oom_status(self):
        server = StoreServer(fresh_store())
        server.store.set_many = lambda entries: [
            OutOfMemoryError("no slab") for _ in entries
        ]
        response, _ = server.dispatch(
            MultiSetCommand(
                items=(
                    StoreCommand(verb="set", key=b"k", flags=0, exptime=0,
                                 value=b"v", cost=1),
                ),
            )
        )
        assert response.statuses == (b"OOM",)

    def test_mset_noreply_suppresses_response(self):
        connection = LoopbackConnection(StoreServer(fresh_store()))
        out = connection.send(
            b"mset 1 noreply\r\nk 0 0 1\r\nv\r\nget k\r\n"
        )
        assert out.startswith(b"VALUE k")  # no MSET line before it

    def test_mset_is_one_shed_unit(self):
        # an expired deadline answers the whole frame with ONE busy line
        engine = StoreServer(fresh_store())
        parser = RequestParser()
        out, keep_open = engine.handle_bytes(
            parser, MSET_WIRE, budget=0.0, shed_reason="deadline"
        )
        assert out == b"SERVER_ERROR busy\r\n"
        assert keep_open is True
        assert len(engine.store) == 0

    def test_mget_exptime_relative_conversion(self):
        # mset exptime is relative seconds on the wire, like plain set
        store = fresh_store()
        server = StoreServer(store)
        server.dispatch(
            MultiSetCommand(
                items=(
                    StoreCommand(verb="set", key=b"k", flags=0, exptime=10,
                                 value=b"v", cost=1),
                ),
            )
        )
        assert store.get(b"k") is not None
        store.clock.advance(11)
        assert store.get(b"k") is None


class TestTextNegotiation:
    def test_new_client_new_server(self):
        client = CostAwareClient.loopback(StoreServer(fresh_store()))
        assert client.set_many([(b"a", b"1", 2), (b"b", b"2", 3)]) == 2
        assert client.batch_supported is True
        assert client.get_many([b"a", b"b", b"ghost"]) == {
            b"a": b"1", b"b": b"2",
        }

    def test_new_client_old_server_falls_back(self):
        # accept_batch=False emulates a pre-PR-8 server: it answers
        # ``CLIENT_ERROR unknown command`` and closes; the client caches
        # the refusal and replays per-key
        server = StoreServer(fresh_store(), accept_batch=False)
        client = CostAwareClient.loopback(server)
        assert client.set_many([(b"a", b"1", 2), (b"b", b"2", 3)]) == 2
        assert client.batch_supported is False
        assert client.get_many([b"a", b"b"]) == {b"a": b"1", b"b": b"2"}
        assert client.batch_supported is False

    def test_old_client_new_server(self):
        # a client that never sends mget still works against a batched
        # server — the plain multi-key GET path is untouched
        client = CostAwareClient.loopback(StoreServer(fresh_store()))
        assert client.set(b"a", b"1", cost=2)
        response = client._roundtrip(GetCommand(keys=(b"a", b"ghost")))
        assert [(v.key, v.value) for v in response.values] == [(b"a", b"1")]

    def test_old_server_refusal_closes_connection(self):
        connection = LoopbackConnection(
            StoreServer(fresh_store(), accept_batch=False)
        )
        out = connection.send(b"mget a\r\n")
        assert out.startswith(b"CLIENT_ERROR unknown command")
        assert not connection.open
