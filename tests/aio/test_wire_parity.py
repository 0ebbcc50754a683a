"""Wire parity: the TCP server answers exactly what the in-process path does.

One pipelined request stream goes over a raw socket to an
:class:`AsyncTCPStoreServer` and, on a twin store, through a
:class:`LoopbackConnection`; the two response streams must be
byte-identical.  The raw socket keeps the check independent of the
client under test, and the stream is written in two pieces cut mid-command
so the server's incremental framing runs across reads.

The binary protocol is served in-process only, so its parity check is
framing: one frame stream fed whole and the same stream fed in 7-byte
pieces (every frame split, headers included) must answer the same bytes.
"""

import asyncio

from repro.aio import AsyncTCPStoreServer
from repro.core import GDWheelPolicy
from repro.kvstore import KVStore
from repro.protocol import LoopbackConnection, StoreServer
from repro.protocol.binary import (
    OP_DELETE,
    OP_GET,
    OP_INCREMENT,
    OP_MGET,
    OP_MSET,
    OP_SET,
    BinaryParser,
    BinaryStoreServer,
    MAGIC_REQUEST,
    pack_mget_value,
    pack_mset_value,
    pack_store_extras,
    request,
)

TEXT_STREAM = (
    b"set a 0 0 5 cost 7\r\nhello\r\n"
    b"set n 3 0 2\r\n10\r\n"
    b"get a\r\n"
    b"get missing\r\n"
    b"mset 2\r\nb 1 0 3 cost 9\r\nBBB\r\nc 0 0 1\r\nC\r\n"
    b"mget a b c missing\r\n"
    b"incr n 5\r\n"
    b"incr missing 1\r\n"
    b"delete b\r\n"
    b"delete b\r\n"
    b"set q 0 0 1 noreply\r\nQ\r\n"
    b"get a b c n q\r\n"
)


def fresh_store():
    return KVStore(
        memory_limit=4 * 1024 * 1024, slab_size=64 * 1024,
        policy_factory=GDWheelPolicy,
    )


async def tcp_exchange(address, pieces, expected_length):
    reader, writer = await asyncio.open_connection(*address)
    try:
        for piece in pieces:
            writer.write(piece)
            await writer.drain()
            await asyncio.sleep(0.01)
        received = bytearray()
        while len(received) < expected_length:
            chunk = await asyncio.wait_for(reader.read(65536), 5.0)
            if not chunk:
                break
            received += chunk
        return bytes(received)
    finally:
        writer.close()
        await writer.wait_closed()


def test_text_stream_tcp_matches_loopback():
    expected = LoopbackConnection(StoreServer(fresh_store())).send(TEXT_STREAM)
    assert expected.count(b"VALUE ") == 8  # hits really came back

    async def main():
        async with AsyncTCPStoreServer(fresh_store()) as server:
            cut = TEXT_STREAM.index(b"BBB") + 1  # inside an mset item value
            return await tcp_exchange(
                server.address, [TEXT_STREAM[:cut], TEXT_STREAM[cut:]],
                len(expected),
            )

    assert asyncio.run(main()) == expected


def test_binary_stream_split_frames_match_whole():
    frames = [
        request(OP_SET, key=b"a", value=b"hello",
                extras=pack_store_extras(0, 0, 7), opaque=1),
        request(OP_SET, key=b"n", value=b"10",
                extras=pack_store_extras(3, 0, 0), opaque=2),
        request(OP_GET, key=b"a", opaque=3),
        request(OP_GET, key=b"missing", opaque=4),
        request(OP_MSET, value=pack_mset_value(
            [(b"b", b"BBB", 9, 0, 1), (b"c", b"C", 0, 0, 0)]), opaque=5),
        request(OP_MGET, value=pack_mget_value([b"a", b"b", b"c", b"x"]),
                opaque=6),
        request(OP_INCREMENT, key=b"n",
                extras=(5).to_bytes(8, "big") + bytes(12), opaque=7),
        request(OP_DELETE, key=b"b", opaque=8),
        request(OP_DELETE, key=b"b", opaque=9),
    ]
    stream = b"".join(frame.pack() for frame in frames)

    whole, keep_open = BinaryStoreServer(fresh_store()).handle_bytes(
        BinaryParser(MAGIC_REQUEST), stream
    )
    assert keep_open

    server = BinaryStoreServer(fresh_store())
    parser = BinaryParser(MAGIC_REQUEST)
    split = bytearray()
    for offset in range(0, len(stream), 7):
        reply, keep_open = server.handle_bytes(parser, stream[offset:offset + 7])
        assert keep_open
        split += reply

    assert bytes(split) == whole
    assert whole.count(b"hello") == 2  # the GET and the MGET hit
