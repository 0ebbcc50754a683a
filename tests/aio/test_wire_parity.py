"""Wire parity: the TCP server answers exactly what the in-process path does.

One pipelined request stream goes over a raw socket to an
:class:`AsyncTCPStoreServer` and, on a twin store, through a
:class:`LoopbackConnection`; the two response streams must be
byte-identical.  The raw socket keeps the check independent of the
client under test, and the stream is written in two pieces cut mid-command
so the server's incremental framing runs across reads.
"""

import asyncio

from repro.aio import AsyncTCPStoreServer
from repro.core import GDWheelPolicy
from repro.kvstore import KVStore
from repro.protocol import LoopbackConnection, StoreServer

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
