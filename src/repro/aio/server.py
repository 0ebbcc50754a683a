"""Asyncio TCP server on a low-level zero-copy transport.

One event loop multiplexes every connection; each connection is an
:class:`asyncio.BufferedProtocol` whose ``get_buffer()`` hands the kernel
a preallocated per-connection receive buffer.  Bytes land there and feed
the offset-cursor :class:`~repro.protocol.server.StoreConnection` parser
directly — no ``StreamReader``, no intermediate ``bytes`` object, no task
wakeup between ``recv`` and dispatch.  A read that contains many
pipelined commands is answered with one coalesced ``transport.write``;
the transport corks small writes at its own layer.

Backpressure is callback-driven instead of ``await writer.drain()``: when
a peer stops reading and the write buffer crosses the transport's
high-water mark, ``pause_writing`` fires and the connection suspends its
*own* reads (``pause_reading``), so a slow client stalls only itself —
request inflow stops, the write buffer stops growing, and ``resume_writing``
re-opens the tap once the peer drains.

Shutdown is graceful: stop accepting, close live transports, and wait for
their ``connection_lost`` callbacks.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional, Set, Tuple

from repro.kvstore.store import KVStore
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import ConnectionRejectedEvent, IdleDisconnectEvent
from repro.protocol.server import StoreConnection, StoreServer
from repro.protocol.sockopt import tune_socket
from repro.resilience.overload import OverloadPolicy

#: Per-connection receive buffer handed to the kernel via ``get_buffer``;
#: large enough that a deep pipeline arrives in few reads.
READ_SIZE = 65536

#: Default transport write high-water mark: above this many buffered
#: response bytes the connection pauses its own reads until the peer
#: drains (``pause_writing``/``resume_writing``).
WRITE_HIGH_WATER = 256 * 1024

TOO_MANY_CONNECTIONS = b"SERVER_ERROR too many connections\r\n"


class _StoreProtocol(asyncio.BufferedProtocol):
    """The unprotected fast path: recv buffer -> parser -> one write.

    Every callback here runs directly from the event loop's reader/writer
    machinery — there is no per-connection task, no coroutine scheduling
    between a ``recv`` and its dispatch, and no per-batch ``drain()``
    handshake.  That is the entire point of this class.
    """

    __slots__ = (
        "server",
        "connection",
        "transport",
        "closed",
        "write_paused",
        "_recv",
        "_recv_view",
        "_rejected",
        "_loop",
    )

    def __init__(self, server: "AsyncTCPStoreServer") -> None:
        self.server = server
        self.connection = StoreConnection(server.engine)
        self.transport: Optional[asyncio.Transport] = None
        self.closed: Optional[asyncio.Future] = None
        self.write_paused = False
        self._recv = bytearray(READ_SIZE)
        self._recv_view = memoryview(self._recv)
        self._rejected = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle -------------------------------------------------------------

    def connection_made(self, transport) -> None:
        server = self.server
        self._loop = asyncio.get_event_loop()
        self.closed = self._loop.create_future()
        self.transport = transport
        tune_socket(transport.get_extra_info("socket"))
        if server.write_high_water is not None:
            transport.set_write_buffer_limits(high=server.write_high_water)
        if (
            server.max_connections is not None
            and server.current_connections >= server.max_connections
        ):
            # refused connections never enter the accounting: the reply
            # flushes from the transport buffer, then the FIN goes out
            self._rejected = True
            server._note_rejected()
            transport.write(TOO_MANY_CONNECTIONS)
            transport.close()
            return
        server._register(self)

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        if not self._rejected:
            self.server._unregister(self)
        if self.closed is not None and not self.closed.done():
            self.closed.set_result(None)

    def eof_received(self) -> bool:
        return False  # half-close = close; connection_lost follows

    # -- zero-copy receive path ------------------------------------------------

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._recv_view

    def buffer_updated(self, nbytes: int) -> None:
        if self._rejected:
            return
        server = self.server
        server._bytes_in.inc(nbytes)
        try:
            # one feed may dispatch many pipelined commands; the responses
            # come back as one coalesced buffer for one transport.write
            response = self.connection.feed(self._recv_view[:nbytes])
        except ConnectionError:
            self.transport.close()
            return
        if response:
            server._bytes_out.inc(len(response))
            self.transport.write(response)
        if not self.connection.open:
            self.transport.close()

    # -- write backpressure ----------------------------------------------------

    def pause_writing(self) -> None:
        # the peer stopped reading and the write buffer crossed the
        # high-water mark: stop feeding it new requests.  Request inflow
        # halts, so the buffered backlog is bounded by what one recv's
        # worth of commands can produce plus the high-water mark itself.
        self.write_paused = True
        self.server._write_pauses.inc()
        if not self.transport.is_closing():
            self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.write_paused = False
        if not self.transport.is_closing():
            self.transport.resume_reading()


class _ProtectedStoreProtocol(_StoreProtocol):
    """The overload-armed connection (``server.overload`` is set).

    Mirrors the fast path, adding: a lazily re-armed idle-timeout timer
    (one ``call_later`` outstanding per connection, re-armed on fire, not
    per read), queue-depth/latency shed decisions before dispatch (whole
    batch answered busy via ``budget=0``), a per-batch deadline budget,
    and EWMA latency tracking over the dispatch time.

    A batch counts as in-flight from the read that carried it until its
    reply is *accepted by the peer*: if the response write pauses this
    connection, the inflight slot stays held until ``resume_writing`` —
    the transport-level equivalent of the old per-batch ``drain()``, and
    what lets the queue-depth gate see clients that stop reading.
    """

    __slots__ = ("_idle_handle", "_last_activity", "_held_inflight")

    def __init__(self, server: "AsyncTCPStoreServer") -> None:
        super().__init__(server)
        self._idle_handle: Optional[asyncio.TimerHandle] = None
        self._last_activity = 0.0
        self._held_inflight = False

    def connection_made(self, transport) -> None:
        super().connection_made(transport)
        if self._rejected:
            return
        policy = self.server.overload
        if policy.idle_timeout is not None:
            self._last_activity = self._loop.time()
            self._idle_handle = self._loop.call_later(
                policy.idle_timeout, self._check_idle
            )

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        if self._idle_handle is not None:
            self._idle_handle.cancel()
            self._idle_handle = None
        if self._held_inflight:
            self._held_inflight = False
            self.server._inflight -= 1
        super().connection_lost(exc)

    def _check_idle(self) -> None:
        server = self.server
        idle_timeout = server.overload.idle_timeout
        idle = self._loop.time() - self._last_activity
        if idle < idle_timeout:
            # activity since arming: sleep out the remainder instead of
            # re-arming on every read (lazy timer, zero per-read cost)
            self._idle_handle = self._loop.call_later(
                idle_timeout - idle, self._check_idle
            )
            return
        self._idle_handle = None
        server._idle_closed.inc()
        if server.engine.trace is not None:
            server.engine.trace.record(
                IdleDisconnectEvent(idle_timeout=idle_timeout)
            )
        self.transport.close()

    def buffer_updated(self, nbytes: int) -> None:
        if self._rejected:
            return
        server = self.server
        policy = server.overload
        if self._idle_handle is not None:
            self._last_activity = self._loop.time()
        server._bytes_in.inc(nbytes)
        budget = policy.request_deadline
        shed_reason = "deadline"
        if (
            policy.max_inflight is not None
            and server._inflight >= policy.max_inflight
        ):
            budget, shed_reason = 0.0, "queue_depth"
        elif (
            policy.shed_latency_us is not None
            and server._latency_ewma_us > policy.shed_latency_us
        ):
            budget, shed_reason = 0.0, "latency"
        server._inflight += 1
        release = True
        try:
            started = time.perf_counter()
            try:
                response = self.connection.feed(
                    self._recv_view[:nbytes],
                    budget=budget,
                    shed_reason=shed_reason,
                )
            except ConnectionError:
                self.transport.close()
                return
            elapsed_us = (time.perf_counter() - started) * 1e6
            server._latency_ewma_us += policy.latency_alpha * (
                elapsed_us - server._latency_ewma_us
            )
            if response:
                server._bytes_out.inc(len(response))
                self.transport.write(response)
                if self.write_paused:
                    # peer is not accepting the reply: the batch stays
                    # in-flight until resume_writing (or connection_lost)
                    self._held_inflight = True
                    release = False
        finally:
            if release:
                server._inflight -= 1
        if not self.connection.open:
            self.transport.close()

    def resume_writing(self) -> None:
        if self._held_inflight:
            self._held_inflight = False
            self.server._inflight -= 1
        super().resume_writing()


class AsyncTCPStoreServer:
    """An asyncio TCP server speaking the extended memcached protocol.

    Args:
        store: the backing :class:`KVStore` (or pass ``engine=`` to serve
            a prebuilt :class:`StoreServer`).
        host/port: bind address; port 0 binds an ephemeral port, exposed
            via :attr:`address` once started.
        max_connections: beyond this many concurrent connections, new
            clients get ``SERVER_ERROR too many connections`` and are
            closed (memcached's ``-c`` limit behaviour).  ``None`` = no cap.
        overload: an :class:`~repro.resilience.OverloadPolicy` arming idle
            timeouts, per-batch request deadlines, and queue-depth/latency
            load shedding (``SERVER_ERROR busy``).  ``None`` (default)
            keeps the unprotected fast path byte-for-byte.
        tracer: optional :class:`~repro.obs.tracing.Tracer` forwarded to
            the protocol engine so sampled requests record server-side
            spans (see :meth:`StoreServer.dispatch`).
        accept_batch: forwarded to :class:`StoreServer` — ``False``
            emulates a pre-MGET build (compat-matrix tests).
        write_high_water: transport write-buffer high-water mark per
            connection; crossing it pauses that connection's reads until
            the peer drains.  ``None`` keeps asyncio's default limits.
    """

    def __init__(
        self,
        store: Optional[KVStore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: Optional[int] = None,
        engine: Optional[StoreServer] = None,
        registry: Optional[MetricsRegistry] = None,
        overload: Optional[OverloadPolicy] = None,
        tracer=None,
        accept_batch: bool = True,
        write_high_water: Optional[int] = WRITE_HIGH_WATER,
    ) -> None:
        if engine is None:
            if store is None:
                raise ValueError("either store or engine is required")
            engine = StoreServer(store, tracer=tracer, accept_batch=accept_batch)
        elif tracer is not None and engine.tracer is None:
            engine.tracer = tracer
        self.engine = engine
        self._host = host
        self._port = port
        self.max_connections = max_connections
        self.write_high_water = write_high_water
        self.overload = (
            overload if overload is not None and overload.enabled else None
        )
        self._inflight = 0          # batches between read and fully-sent reply
        self._latency_ewma_us = 0.0  # smoothed per-batch dispatch latency
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_StoreProtocol] = set()
        # -- observability -----------------------------------------------------
        # Connection/byte accounting lives in a metrics registry (labeled
        # transport="async").  The max_connections gate reads the current-
        # connections gauge, so when the attached registry is a no-op
        # NullRegistry a private live registry keeps the accounting real.
        base = registry if registry is not None else engine.metrics
        self.metrics = base if base.enabled else MetricsRegistry()
        self._current = self.metrics.gauge(
            "server_current_connections", help="open client connections",
            transport="async",
        )
        self._peak = self.metrics.gauge(
            "server_peak_connections", help="peak concurrent connections",
            transport="async",
        )
        self._total = self.metrics.counter(
            "server_connections_total", help="connections accepted",
            transport="async",
        )
        self._rejected = self.metrics.counter(
            "server_rejected_connections_total",
            help="connections refused over the max_connections cap",
            transport="async",
        )
        self._idle_closed = self.metrics.counter(
            "server_idle_disconnects_total",
            help="connections closed by the idle timeout",
            transport="async",
        )
        self._bytes_in = self.metrics.counter(
            "server_bytes_in_total", help="request bytes received",
            transport="async",
        )
        self._bytes_out = self.metrics.counter(
            "server_bytes_out_total", help="response bytes sent",
            transport="async",
        )
        self._write_pauses = self.metrics.counter(
            "server_write_pauses_total",
            help="times a connection paused reads on write backpressure",
            transport="async",
        )

    # -- registry-backed views (the historical attribute API) -------------------

    @property
    def current_connections(self) -> int:
        return int(self._current.value)

    @property
    def peak_connections(self) -> int:
        return int(self._peak.value)

    @property
    def total_connections(self) -> int:
        return self._total.value

    @property
    def rejected_connections(self) -> int:
        return self._rejected.value

    @property
    def bytes_in(self) -> int:
        return self._bytes_in.value

    @property
    def bytes_out(self) -> int:
        return self._bytes_out.value

    @property
    def idle_disconnects(self) -> int:
        return self._idle_closed.value

    @property
    def write_pauses(self) -> int:
        """Times any connection hit write backpressure and paused reads."""
        return self._write_pauses.value

    @property
    def dispatch_latency_ewma_us(self) -> float:
        """Smoothed per-batch dispatch latency (overload-protected mode)."""
        return self._latency_ewma_us

    # -- connection accounting (protocol callbacks) -----------------------------

    def _register(self, protocol: _StoreProtocol) -> None:
        self._connections.add(protocol)
        self._current.inc()
        self._total.inc()
        self._peak.set(max(self._peak.value, self._current.value))

    def _unregister(self, protocol: _StoreProtocol) -> None:
        if protocol in self._connections:
            self._connections.discard(protocol)
            self._current.dec()

    def _note_rejected(self) -> None:
        self._rejected.inc()
        if self.engine.trace is not None:
            self.engine.trace.record(
                ConnectionRejectedEvent(
                    current=self.current_connections,
                    limit=self.max_connections,
                )
            )

    def _make_protocol(self) -> _StoreProtocol:
        """Protocol factory — the overload decision is made per class, so
        the unprotected fast path carries zero overload code.  Benchmarks
        override this to freeze a baseline protocol."""
        if self.overload is not None:
            return _ProtectedStoreProtocol(self)
        return _StoreProtocol(self)

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("server already started")
        loop = asyncio.get_event_loop()
        self._server = await loop.create_server(
            self._make_protocol, self._host, self._port
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — the real port even when created with 0."""
        if self._server is None:
            raise RuntimeError("server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, close connections, wait.

        Safe to call more than once.
        """
        if self._server is None:
            return
        server, self._server = self._server, None
        server.close()
        await server.wait_closed()
        waiters = []
        for protocol in list(self._connections):
            if protocol.transport is not None:
                # abort, not close: a peer that stopped reading would
                # otherwise pin shutdown on its unflushed write buffer
                protocol.transport.abort()
            if protocol.closed is not None:
                waiters.append(protocol.closed)
        if waiters:
            await asyncio.gather(*waiters, return_exceptions=True)
        self._connections.clear()

    async def __aenter__(self) -> "AsyncTCPStoreServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()
