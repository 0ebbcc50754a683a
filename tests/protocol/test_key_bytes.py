"""Every byte value inside a key, through every keyed command.

Key validation is a C-level ``bytes.translate`` check.  This test holds it
to the per-byte rule it replaced (reject 0-32 and 127): for each of the 256
byte values placed inside a key, ``get``, ``mget``, ``set``, ``mset``,
``delete``, ``touch`` and ``incr`` must answer byte-for-byte what the same
server answers with that per-byte predicate patched in.
"""

import pytest

from repro.core import GDWheelPolicy
from repro.kvstore import KVStore
from repro.protocol import LoopbackConnection, StoreServer
from repro.protocol import text
from repro.protocol.commands import ProtocolError

#: bytes that split a request line into tokens (``bytes.split()``)
WHITESPACE = set(b" \t\n\r\x0b\x0c")

TEMPLATES = {
    "get": b"get ab%scd\r\n",
    "mget": b"mget k1 ab%scd k2\r\n",
    "set": b"set ab%scd 0 0 1\r\nx\r\n",
    "mset": b"mset 1\r\nab%scd 0 0 1\r\nx\r\n",
    "delete": b"delete ab%scd\r\n",
    "touch": b"touch ab%scd 10\r\n",
    "incr": b"incr ab%scd 1\r\n",
}


def per_byte_validate_key(key: bytes) -> bytes:
    """The reference rule: one Python-level test per key byte."""
    if not key or len(key) > text.MAX_KEY_LENGTH:
        raise ProtocolError(f"bad key length {len(key)}")
    if any(c <= 32 or c == 127 for c in key):
        raise ProtocolError("key contains whitespace or control characters")
    return key


def answers(requests) -> list:
    """Each request's answer on its own connection to one store holding
    ``ab<b>cd`` = ``5`` for every byte ``b`` (written directly, so
    unchecked) and ``k1``.  Request ``b`` only names key ``ab<b>cd``."""
    store = KVStore(memory_limit=1 << 20, slab_size=64 * 1024,
                    policy_factory=GDWheelPolicy)
    for b in range(256):
        store.set(b"ab%scd" % bytes([b]), b"5")
    store.set(b"k1", b"1")
    server = StoreServer(store)
    return [LoopbackConnection(server).send(request) for request in requests]


@pytest.mark.parametrize("command", sorted(TEMPLATES))
def test_every_key_byte_answers_as_the_per_byte_rule(command, monkeypatch):
    requests = [TEMPLATES[command] % bytes([b]) for b in range(256)]
    got = answers(requests)
    with monkeypatch.context() as patched:
        patched.setattr(text, "_validate_key", per_byte_validate_key)
        patched.setattr(
            text, "_validate_keys",
            lambda keys: tuple(per_byte_validate_key(k) for k in keys),
        )
        want = answers(requests)
    for b in range(256):
        assert got[b] == want[b], f"byte {b}: {got[b]!r} != {want[b]!r}"
        if b not in WHITESPACE:
            rejected = got[b].startswith(b"CLIENT_ERROR key contains")
            assert rejected == (b <= 32 or b == 127), f"byte {b}: {got[b]!r}"


def test_long_and_bad_keys_report_the_first_failure():
    parser = text.RequestParser()
    parser.feed(b"mget ok " + b"x" * 251 + b" a\x01b\r\n")
    with pytest.raises(ProtocolError, match="bad key length 251"):
        list(parser)
    parser = text.RequestParser()
    parser.feed(b"mget ok a\x01b " + b"x" * 251 + b"\r\n")
    with pytest.raises(ProtocolError, match="control characters"):
        list(parser)
