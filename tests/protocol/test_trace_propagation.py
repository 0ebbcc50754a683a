"""Trace-context propagation compat: text pseudo-key, e2e.

The wire contract under test: trace context rides an existing request
shape (a trailing ``tctx:`` pseudo-key on GET lines), so every pairing of
trace-aware and stock peers must keep working — the token degrades to a
harmless miss on an old server.
"""

import asyncio

import pytest

from repro.aio import AsyncStoreClient, AsyncTCPStoreServer
from repro.core import GDWheelPolicy
from repro.kvstore import KVStore
from repro.obs.tracing import (
    TraceContext,
    Tracer,
    encode_token,
)
from repro.protocol import StoreServer
from repro.protocol.commands import GetCommand
from repro.protocol.text import RequestParser, _validate_key


def fresh_store():
    return KVStore(
        memory_limit=1024 * 1024, slab_size=64 * 1024,
        policy_factory=GDWheelPolicy,
    )


def make_tracer(**kwargs):
    kwargs.setdefault("process", "test")
    kwargs.setdefault("sample_interval", 1)
    return Tracer(**kwargs)


CONTEXT = TraceContext(trace_id=0xABCDEF, span_id=0x1234, sampled=True)
TOKEN = encode_token(CONTEXT)


def parse_one(line: bytes):
    parser = RequestParser()
    parser.feed(line)
    commands = list(parser)
    assert len(commands) == 1
    return commands[0]


# -- text parser: the pseudo-key is stripped, but only when safe -------------------


class TestTextParsing:
    def test_trailing_token_stripped_into_trace_token(self):
        command = parse_one(b"get alpha beta " + TOKEN + b"\r\n")
        assert command.keys == (b"alpha", b"beta")
        assert command.trace_token == TOKEN

    def test_single_key_token_is_treated_as_a_key(self):
        # a lone tctx:-prefixed key could be real data; with nothing else
        # on the line the parser must not eat it
        command = parse_one(b"get " + TOKEN + b"\r\n")
        assert command.keys == (TOKEN,)
        assert command.trace_token is None

    def test_plain_get_lines_unchanged(self):
        command = parse_one(b"get alpha\r\n")
        assert command.keys == (b"alpha",)
        assert command.trace_token is None

    def test_token_only_stripped_from_last_position(self):
        # mid-line tctx: keys stay keys — only the trailing position is
        # the propagation slot
        command = parse_one(b"get " + TOKEN + b" alpha\r\n")
        assert command.keys == (TOKEN, b"alpha")
        assert command.trace_token is None

    def test_token_is_a_valid_memcached_key(self):
        # backward compat hinges on old servers accepting the token as a
        # legal (if unknown) key: short enough, no spaces/control bytes
        assert _validate_key(TOKEN) == TOKEN
        assert len(TOKEN) <= 250


# -- text dispatch: all four client/server pairings --------------------------------


class TestTextDispatch:
    def test_old_server_answers_token_key_with_a_miss(self):
        # emulates a pre-tracing server that never strips the pseudo-key:
        # it looks the token up like any other key and misses harmlessly
        server = StoreServer(fresh_store())
        server.store.set(b"alpha", b"1")
        response, reply = server.dispatch(
            GetCommand(keys=(b"alpha", TOKEN))
        )
        assert reply
        assert [value.key for value in response.values] == [b"alpha"]

    def test_tracerless_server_ignores_trace_token(self):
        server = StoreServer(fresh_store())
        server.store.set(b"alpha", b"1")
        response, _ = server.dispatch(
            GetCommand(keys=(b"alpha",), trace_token=TOKEN)
        )
        assert [value.value for value in response.values] == [b"1"]

    def test_traced_server_handles_tokenless_old_client(self):
        tracer = make_tracer()
        server = StoreServer(fresh_store(), tracer=tracer)
        server.store.set(b"alpha", b"1")
        response, _ = server.dispatch(GetCommand(keys=(b"alpha",)))
        assert [value.value for value in response.values] == [b"1"]
        assert tracer.buffer.spans() == []

    def test_traced_server_continues_sampled_context(self):
        tracer = make_tracer()
        server = StoreServer(fresh_store(), tracer=tracer)
        server.store.set(b"alpha", b"1")
        response, _ = server.dispatch(
            GetCommand(keys=(b"alpha",), trace_token=TOKEN)
        )
        assert [value.value for value in response.values] == [b"1"]
        spans = tracer.buffer.spans()
        assert [span.name for span in spans] == ["server.dispatch"]
        span = spans[0]
        assert span.trace_id == CONTEXT.trace_id
        assert span.parent_id == CONTEXT.span_id
        assert span.attrs["cmd"] == "get"
        assert span.attrs["nkeys"] == 1

    def test_unsampled_token_records_nothing(self):
        # upstream sampler said no: the server must not record (or re-roll)
        tracer = make_tracer()
        server = StoreServer(fresh_store(), tracer=tracer)
        declined = encode_token(
            TraceContext(trace_id=7, span_id=8, sampled=False)
        )
        server.dispatch(GetCommand(keys=(b"alpha",), trace_token=declined))
        assert tracer.buffer.spans() == []

    def test_malformed_token_dispatches_untraced(self):
        tracer = make_tracer()
        server = StoreServer(fresh_store(), tracer=tracer)
        server.store.set(b"alpha", b"1")
        response, _ = server.dispatch(
            GetCommand(keys=(b"alpha",), trace_token=b"tctx:garbage")
        )
        assert [value.value for value in response.values] == [b"1"]
        assert tracer.buffer.spans() == []

    def test_store_spans_nest_under_server_dispatch(self):
        tracer = make_tracer()
        store = fresh_store()
        tracer.instrument_store(store)
        server = StoreServer(store, tracer=tracer)
        store.set(b"alpha", b"1")
        server.dispatch(GetCommand(keys=(b"alpha",), trace_token=TOKEN))
        spans = {span.name: span for span in tracer.buffer.spans()}
        assert set(spans) == {"server.dispatch", "store.get"}
        assert spans["store.get"].parent_id == spans["server.dispatch"].span_id
        assert spans["store.get"].trace_id == CONTEXT.trace_id


# -- end to end: one GET, one trace, both processes' spans linked ------------------


class TestEndToEnd:
    def test_sampled_get_links_client_and_server_spans(self):
        client_tracer = make_tracer(process="client")
        server_tracer = make_tracer(process="server")

        async def main():
            store = fresh_store()
            async with AsyncTCPStoreServer(store, tracer=server_tracer) as server:
                host, port = server.address
                client = AsyncStoreClient(
                    host, port, tracer=client_tracer
                )
                await client.set(b"k", b"v")
                assert await client.get(b"k") == b"v"
                await client.aclose()

        asyncio.run(main())

        client_spans = client_tracer.buffer.spans()
        server_spans = server_tracer.buffer.spans()
        # the GET dispatch is the only command carrying a token on the wire
        assert [span.name for span in server_spans] == ["server.dispatch"]
        dispatch = server_spans[0]
        by_id = {span.span_id: span for span in client_spans}
        send = by_id[dispatch.parent_id]
        assert send.name == "client.send_await"
        assert send.trace_id == dispatch.trace_id
        root = by_id[send.parent_id]
        assert root.name == "client.request"
        assert root.parent_id is None
        # the same trace also carries the pool.acquire hop
        names = {
            span.name for span in client_spans
            if span.trace_id == dispatch.trace_id
        }
        assert {"client.request", "pool.acquire", "client.send_await"} <= names

    def test_tracerless_pairing_still_serves(self):
        # belt and braces for the async stack: no tracer anywhere, the
        # path taken by every pre-tracing deployment
        async def main():
            async with AsyncTCPStoreServer(fresh_store()) as server:
                host, port = server.address
                client = AsyncStoreClient(host, port)
                await client.set(b"k", b"v")
                assert await client.get(b"k") == b"v"
                await client.aclose()

        asyncio.run(main())

    def test_traced_client_against_tracerless_async_server(self):
        client_tracer = make_tracer(process="client")

        async def main():
            async with AsyncTCPStoreServer(fresh_store()) as server:
                host, port = server.address
                client = AsyncStoreClient(host, port, tracer=client_tracer)
                await client.set(b"k", b"v")
                assert await client.get(b"k") == b"v"
                await client.aclose()

        asyncio.run(main())
        names = {span.name for span in client_tracer.buffer.spans()}
        # client-side spans record fine; the server simply missed the token
        assert "client.request" in names


# -- batched frames: one tctx per MGET frame (PR 8) --------------------------------


class TestBatchedFrameTracing:
    def test_wire_carries_exactly_one_token_per_mget_frame(self):
        from repro.obs import tracing
        from repro.protocol.commands import MultiGetCommand
        from repro.protocol.text import encode_command

        commands = tracing.attach_context(
            [MultiGetCommand(keys=(b"a", b"b", b"c"))], CONTEXT
        )
        wire = encode_command(commands[0])
        assert wire.count(b"tctx:") == 1  # one frame, one token
        parsed = parse_one(wire)
        assert parsed.keys == (b"a", b"b", b"c")
        assert parsed.trace_token == TOKEN

    def test_text_mget_dispatch_records_one_span_for_the_batch(self):
        from repro.protocol.commands import MultiGetCommand

        tracer = make_tracer()
        server = StoreServer(fresh_store(), tracer=tracer)
        server.store.set(b"a", b"1")
        server.store.set(b"b", b"2")
        server.dispatch(
            MultiGetCommand(keys=(b"a", b"b", b"miss"), trace_token=TOKEN)
        )
        spans = tracer.buffer.spans()
        assert [span.name for span in spans] == ["server.dispatch"]
        span = spans[0]
        assert span.trace_id == CONTEXT.trace_id
        assert span.parent_id == CONTEXT.span_id
        assert span.attrs["cmd"] == "mget"
        assert span.attrs["nkeys"] == 3

    def test_store_get_many_span_shares_the_batch_trace_id(self):
        from repro.protocol.commands import MultiGetCommand

        tracer = make_tracer()
        store = fresh_store()
        tracer.instrument_store(store)
        server = StoreServer(store, tracer=tracer)
        store.set(b"a", b"1")
        server.dispatch(MultiGetCommand(keys=(b"a", b"x"), trace_token=TOKEN))
        spans = {span.name: span for span in tracer.buffer.spans()}
        assert set(spans) == {"server.dispatch", "store.get_many"}
        child = spans["store.get_many"]
        assert child.trace_id == CONTEXT.trace_id
        assert child.parent_id == spans["server.dispatch"].span_id

    def test_e2e_one_server_span_per_mget_frame(self):
        # a 12-key multi_get in mget mode is ONE frame: the server must
        # record exactly one dispatch span, linked under the client's
        # send_await hop of the same trace
        client_tracer = make_tracer(process="client")
        server_tracer = make_tracer(process="server")

        async def main():
            store = fresh_store()
            tracer = server_tracer
            tracer.instrument_store(store)
            async with AsyncTCPStoreServer(store, tracer=tracer) as server:
                host, port = server.address
                client = AsyncStoreClient(host, port, tracer=client_tracer)
                await client.set_many(
                    [(b"k%d" % i, b"v%d" % i, 1) for i in range(12)]
                )
                found = await client.get_many([b"k%d" % i for i in range(12)])
                assert len(found) == 12
                await client.aclose()

        asyncio.run(main())
        dispatches = [
            span for span in server_tracer.buffer.spans()
            if span.name == "server.dispatch" and span.attrs["cmd"] == "mget"
        ]
        assert len(dispatches) == 1
        dispatch = dispatches[0]
        assert dispatch.attrs["nkeys"] == 12
        # the vectored store op nests under it, same trace
        children = [
            span for span in server_tracer.buffer.spans()
            if span.name == "store.get_many"
        ]
        assert len(children) == 1
        assert children[0].trace_id == dispatch.trace_id
        assert children[0].parent_id == dispatch.span_id
        # and the trace id came from the client's send_await hop
        client_by_id = {
            span.span_id: span for span in client_tracer.buffer.spans()
        }
        send = client_by_id[dispatch.parent_id]
        assert send.name == "client.send_await"
        assert send.trace_id == dispatch.trace_id
