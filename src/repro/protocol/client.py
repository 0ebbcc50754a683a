"""Cost-aware client — the application side of the paper's Figure 1.

:class:`CostAwareClient` speaks the extended text protocol over either the
in-process loopback connection or a TCP socket.  On top of the raw
GET/SET/DELETE it offers :meth:`get_or_compute`, the cache-aside pattern
the paper's applications use: GET; on a miss run the computation, time it,
and SET the result back *with its cost attached*.
"""

from __future__ import annotations

import socket
import time
from typing import Callable, List, Optional, Tuple

from repro.protocol.commands import (
    DeleteCommand,
    DigestCommand,
    DigestResponse,
    FlushCommand,
    GetCommand,
    GetResponse,
    IncrCommand,
    KeyListCommand,
    KeyListResponse,
    MultiGetCommand,
    MultiSetCommand,
    MultiSetResponse,
    NumberResponse,
    ProtocolError,
    SimpleResponse,
    StatsCommand,
    StatsResponse,
    StoreCommand,
    TouchCommand,
)
from repro.protocol.server import LoopbackConnection
from repro.protocol.sockopt import tune_socket
from repro.protocol.text import ResponseParser, encode_command


class Transport:
    """Minimal transport interface: write bytes, read some reply bytes."""

    def send(self, data: bytes) -> None:
        raise NotImplementedError

    def recv(self) -> bytes:
        raise NotImplementedError

    def close(self) -> None:
        pass


class LoopbackTransport(Transport):
    """Wraps :class:`LoopbackConnection` (synchronous: send returns reply).

    Emulates a pooled TCP client's redial: when the server closed the
    connection (``quit``, protocol error — including an old server
    refusing ``mget``), the next send opens a fresh connection to the
    same engine instead of failing forever.
    """

    def __init__(self, connection: LoopbackConnection) -> None:
        self._connection = connection
        self._pending = b""

    def send(self, data: bytes) -> None:
        if not self._connection.open:
            self._connection = LoopbackConnection(self._connection.engine)
        self._pending += self._connection.send(data)

    def recv(self) -> bytes:
        out, self._pending = self._pending, b""
        return out


class TCPTransport(Transport):
    """A blocking TCP socket transport."""

    def __init__(self, host: str, port: int, timeout: float = 5.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        tune_socket(self._sock)

    def send(self, data: bytes) -> None:
        self._sock.sendall(data)

    def recv(self) -> bytes:
        return self._sock.recv(65536)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class CostAwareClient:
    """A memcached client that can attach costs to stored values."""

    def __init__(self, transport: Transport) -> None:
        self._transport = transport
        self._parser = ResponseParser()
        #: MGET/MSET support, negotiated on first batched call (None =
        #: unprobed; False = old server, per-key fallback from then on)
        self.batch_supported: Optional[bool] = None

    @classmethod
    def loopback(cls, server) -> "CostAwareClient":
        """Client over an in-process connection to a :class:`StoreServer`."""
        return cls(LoopbackTransport(LoopbackConnection(server)))

    @classmethod
    def tcp(cls, host: str, port: int) -> "CostAwareClient":
        return cls(TCPTransport(host, port))

    def close(self) -> None:
        self._transport.close()

    def _roundtrip(self, command):
        self._transport.send(encode_command(command))
        while True:
            response = self._parser.try_parse()
            if response is not None:
                return response
            data = self._transport.recv()
            if not data:
                raise ConnectionError("server closed the connection")
            self._parser.feed(data)

    # -- commands ------------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        response = self._roundtrip(GetCommand(keys=(key,)))
        if not isinstance(response, GetResponse):
            raise ProtocolError(f"unexpected GET response: {response!r}")
        return response.values[0].value if response.values else None

    def get_many(self, keys: List[bytes]) -> dict:
        """Batched GET: one MGET frame, falling back (once) on old servers.

        An old server answers ``CLIENT_ERROR unknown command`` and closes;
        loopback transports survive that (the reply arrives first), and
        the outcome is cached in :attr:`batch_supported` so only the first
        call pays the probe.
        """
        if not keys:
            return {}
        if self.batch_supported is not False:
            response = self._roundtrip(MultiGetCommand(keys=tuple(keys)))
            if isinstance(response, GetResponse):
                self.batch_supported = True
                return {v.key: v.value for v in response.values}
            if not (
                isinstance(response, SimpleResponse)
                and response.line.startswith(b"CLIENT_ERROR unknown command")
            ):
                raise ProtocolError(f"unexpected MGET response: {response!r}")
            self.batch_supported = False
        response = self._roundtrip(GetCommand(keys=tuple(keys)))
        if not isinstance(response, GetResponse):
            raise ProtocolError(f"unexpected GET response: {response!r}")
        return {v.key: v.value for v in response.values}

    def set_many(self, items: List[Tuple[bytes, bytes, int]],
                 exptime: float = 0) -> int:
        """Batched SET of (key, value, cost[, version]) tuples; #stored.

        One MSET frame, with the same negotiated per-key fallback as
        :meth:`get_many`.  A 4th element per tuple carries a replication
        version (0 / omitted = unversioned).
        """
        if not items:
            return 0
        normalized = [
            item if len(item) == 4 else (item[0], item[1], item[2], 0)
            for item in items
        ]
        if self.batch_supported is not False:
            command = MultiSetCommand(
                items=tuple(
                    StoreCommand(verb="set", key=key, flags=0,
                                 exptime=exptime, value=value, cost=cost,
                                 version=version)
                    for key, value, cost, version in normalized
                )
            )
            response = self._roundtrip(command)
            if isinstance(response, MultiSetResponse):
                self.batch_supported = True
                return response.stored
            if not (
                isinstance(response, SimpleResponse)
                and response.line.startswith(b"CLIENT_ERROR unknown command")
            ):
                raise ProtocolError(f"unexpected MSET response: {response!r}")
            self.batch_supported = False
        stored = 0
        for key, value, cost, version in normalized:
            if self.set(key, value, cost=cost, exptime=exptime,
                        version=version):
                stored += 1
        return stored

    def digest(self, nslots: int) -> DigestResponse:
        """Anti-entropy digest: per-slot (count, hash) over live keys."""
        response = self._roundtrip(DigestCommand(nslots=nslots))
        if not isinstance(response, DigestResponse):
            raise ProtocolError(f"unexpected DIGEST response: {response!r}")
        return response

    def key_entries(self, slot: int, nslots: int) -> KeyListResponse:
        """One digest slot's (key, version, cost, flags, exptime) entries."""
        response = self._roundtrip(KeyListCommand(slot=slot, nslots=nslots))
        if not isinstance(response, KeyListResponse):
            raise ProtocolError(f"unexpected KEYS response: {response!r}")
        return response

    def _store(self, verb: str, key: bytes, value: bytes, cost: int,
               exptime: float, flags: int, version: int = 0) -> bool:
        response = self._roundtrip(
            StoreCommand(verb=verb, key=key, flags=flags, exptime=exptime,
                         value=value, cost=cost, version=version)
        )
        if not isinstance(response, SimpleResponse):
            raise ProtocolError(f"unexpected store response: {response!r}")
        if response.line == b"STORED":
            return True
        if response.line == b"NOT_STORED":
            return False
        raise ProtocolError(response.line.decode())

    def set(self, key: bytes, value: bytes, cost: int = 0,
            exptime: float = 0, flags: int = 0, version: int = 0) -> bool:
        return self._store("set", key, value, cost, exptime, flags, version)

    def add(self, key: bytes, value: bytes, cost: int = 0,
            exptime: float = 0, flags: int = 0) -> bool:
        return self._store("add", key, value, cost, exptime, flags)

    def replace(self, key: bytes, value: bytes, cost: int = 0,
                exptime: float = 0, flags: int = 0) -> bool:
        return self._store("replace", key, value, cost, exptime, flags)

    def append(self, key: bytes, suffix: bytes) -> bool:
        return self._store("append", key, suffix, 0, 0, 0)

    def prepend(self, key: bytes, prefix: bytes) -> bool:
        return self._store("prepend", key, prefix, 0, 0, 0)

    def gets(self, key: bytes) -> Optional[Tuple[bytes, int]]:
        """GET with CAS token: (value, cas_unique), or None on a miss."""
        response = self._roundtrip(GetCommand(keys=(key,), with_cas=True))
        if not isinstance(response, GetResponse):
            raise ProtocolError(f"unexpected GETS response: {response!r}")
        if not response.values:
            return None
        value = response.values[0]
        return value.value, value.cas_unique or 0

    def cas(self, key: bytes, value: bytes, cas_unique: int, cost: int = 0,
            exptime: float = 0, flags: int = 0) -> str:
        """CAS: returns "stored", "exists" (stale token), or "not_found"."""
        response = self._roundtrip(
            StoreCommand(verb="cas", key=key, flags=flags, exptime=exptime,
                         value=value, cost=cost, cas_unique=cas_unique)
        )
        if not isinstance(response, SimpleResponse):
            raise ProtocolError(f"unexpected CAS response: {response!r}")
        mapping = {b"STORED": "stored", b"EXISTS": "exists",
                   b"NOT_FOUND": "not_found"}
        if response.line in mapping:
            return mapping[response.line]
        raise ProtocolError(response.line.decode())

    def incr(self, key: bytes, delta: int = 1) -> Optional[int]:
        """INCR: the new value, or None if the key is absent."""
        response = self._roundtrip(IncrCommand(key=key, delta=delta))
        if isinstance(response, NumberResponse):
            return response.value
        if isinstance(response, SimpleResponse):
            if response.line == b"NOT_FOUND":
                return None
            raise ProtocolError(response.line.decode())
        raise ProtocolError(f"unexpected INCR response: {response!r}")

    def decr(self, key: bytes, delta: int = 1) -> Optional[int]:
        """DECR: the new value (clamped at 0), or None if absent."""
        response = self._roundtrip(
            IncrCommand(key=key, delta=delta, negative=True)
        )
        if isinstance(response, NumberResponse):
            return response.value
        if isinstance(response, SimpleResponse):
            if response.line == b"NOT_FOUND":
                return None
            raise ProtocolError(response.line.decode())
        raise ProtocolError(f"unexpected DECR response: {response!r}")

    def delete(self, key: bytes) -> bool:
        response = self._roundtrip(DeleteCommand(key=key))
        return isinstance(response, SimpleResponse) and response.line == b"DELETED"

    def touch(self, key: bytes, exptime: float) -> bool:
        response = self._roundtrip(TouchCommand(key=key, exptime=exptime))
        return isinstance(response, SimpleResponse) and response.line == b"TOUCHED"

    def flush_all(self) -> bool:
        response = self._roundtrip(FlushCommand())
        return isinstance(response, SimpleResponse) and response.line == b"OK"

    def stats(self, subcommand: str = "") -> dict:
        """``stats [slabs|items|settings|metrics|trace]`` as a dict."""
        response = self._roundtrip(StatsCommand(subcommand=subcommand))
        if not isinstance(response, StatsResponse):
            raise ProtocolError(f"unexpected STATS response: {response!r}")
        return dict(response.stats)

    def stats_reset(self) -> bool:
        """``stats reset``: zero the server's resettable counters."""
        response = self._roundtrip(StatsCommand(subcommand="reset"))
        return (
            isinstance(response, SimpleResponse) and response.line == b"RESET"
        )

    # -- the cache-aside pattern (Figure 1) -----------------------------------------

    def get_or_compute(
        self,
        key: bytes,
        compute: Callable[[], bytes],
        cost_units: Optional[int] = None,
        cost_unit_seconds: float = 0.001,
        exptime: float = 0,
    ) -> Tuple[bytes, bool]:
        """GET; on miss, compute, SET with cost, and return (value, was_hit).

        The cost is ``cost_units`` when given, otherwise the measured
        recomputation time quantized at ``cost_unit_seconds`` per unit (the
        paper maps milliseconds of recomputation onto small integers).
        """
        cached = self.get(key)
        if cached is not None:
            return cached, True
        started = time.perf_counter()
        value = compute()
        elapsed = time.perf_counter() - started
        if cost_units is None:
            cost_units = max(1, round(elapsed / cost_unit_seconds))
        self.set(key, value, cost=cost_units, exptime=exptime)
        return value, False
