"""Parsed protocol commands and responses.

The wire format lives in :mod:`repro.protocol.text`; these dataclasses are
the parsed form the server dispatches on and the client constructs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


class ProtocolError(Exception):
    """Malformed input; the server answers ``CLIENT_ERROR``."""


class ServerBusyError(ProtocolError):
    """The server answered ``SERVER_ERROR busy`` (overload shedding).

    Raised client-side so callers can distinguish "the shard is shedding
    load, back off" from a transport failure — deliberately *not* in the
    client's retryable set: hammering a shedding server with reconnects is
    exactly what load shedding exists to prevent.
    """


@dataclass(frozen=True)
class GetCommand:
    """``get <key>+`` / ``gets <key>+`` — fetch one or more keys.

    ``gets`` additionally returns each item's CAS token.

    ``trace_token`` carries a raw distributed-tracing context token when
    the request line ended with a ``tctx:`` pseudo-key (see
    :mod:`repro.obs.tracing`).  The parser strips that token out of
    ``keys``, so dispatch never treats it as data; servers without a
    tracer ignore the field entirely.
    """

    keys: Tuple[bytes, ...]
    with_cas: bool = False
    trace_token: Optional[bytes] = None


@dataclass(frozen=True)
class StoreCommand:
    """A storage command with a data block.

    ``set/add/replace/append/prepend <key> <flags> <exptime> <bytes>
    [cost <cost>] [noreply]`` — plus ``cas``, which carries the
    ``cas_unique`` token after the byte count.

    ``cost`` is the paper's protocol extension (Section 4.3): an optional
    trailing token pair on storage commands carrying the recomputation
    cost.

    ``version`` is the replication extension: an optional ``version <v>``
    token pair carrying a hybrid-logical-clock version (see
    :mod:`repro.replica.hlc`).  A ``set`` whose version is older than the
    stored item's answers ``NOT_STORED`` (last-writer-wins); version 0
    means "unversioned" and always stores.
    """

    verb: str  # "set" | "add" | "replace" | "append" | "prepend" | "cas"
    key: bytes
    flags: int
    exptime: float
    value: bytes
    cost: int = 0
    noreply: bool = False
    cas_unique: Optional[int] = None
    version: int = 0


@dataclass(frozen=True)
class MultiGetCommand:
    """``mget <key>+ [tctx:...]`` — a first-class batched GET frame.

    Unlike a multi-key ``get``, ``mget`` is dispatched *vectored*: the
    server executes the whole key batch against the store in one call
    and encodes every response into one shared buffer.  ``trace_token``
    carries at most one trace context for the entire frame — batching
    collapses N per-key tokens into one.

    A server that predates this command answers ``CLIENT_ERROR unknown
    command`` (and closes), which is the negotiation signal clients use
    to fall back to per-key GETs (see
    :meth:`repro.aio.client.AsyncStoreClient.get_many`).
    """

    keys: Tuple[bytes, ...]
    trace_token: Optional[bytes] = None


@dataclass(frozen=True)
class MultiSetCommand:
    """``mset <count> [noreply]`` followed by ``count`` item blocks.

    Each item block is a storage spec line without the verb —
    ``<key> <flags> <exptime> <bytes> [cost <cost>]`` plus its data
    chunk — so one MSET frame carries a whole write batch with one
    header line of framing overhead.  ``items`` reuses
    :class:`StoreCommand` (verb ``"set"``) for dispatch symmetry.
    """

    items: Tuple[StoreCommand, ...]
    noreply: bool = False


@dataclass(frozen=True)
class DigestCommand:
    """``digest <nslots>`` — per-slot key/version summary for anti-entropy.

    The store hashes every live key into ``nslots`` buckets and answers,
    per non-empty bucket, the item count and an order-independent XOR hash
    over (key, version) pairs.  Two replicas holding identical data answer
    identical digests; a diverged slot pins down *where* to repair without
    shipping the keyspace.  Gated behind the same negotiation as
    MGET/MSET: pre-replication servers answer ``CLIENT_ERROR``.
    """

    nslots: int


@dataclass(frozen=True)
class DigestResponse:
    """``DIGEST <nslots>`` + one ``SLOT <slot> <count> <hash>`` per bucket.

    Only non-empty slots are listed; ``slots`` is sorted by slot index.
    """

    nslots: int
    slots: Tuple[Tuple[int, int, int], ...]  # (slot, count, hash)

    def as_map(self) -> dict:
        return {slot: (count, digest) for slot, count, digest in self.slots}


@dataclass(frozen=True)
class KeyListCommand:
    """``keys <slot> <nslots>`` — enumerate one digest slot's metadata.

    The repair/bootstrap follow-up to :class:`DigestCommand`: answers
    every live key whose hash falls in ``slot``, with its version, cost,
    flags and absolute exptime — everything but the value, which the
    caller fetches via MGET so large values ride the batched path.
    """

    slot: int
    nslots: int


@dataclass(frozen=True)
class KeyListResponse:
    """``KEYS <n>`` + one ``KEY <key> <version> <cost> <flags> <exptime>``."""

    entries: Tuple[Tuple[bytes, int, int, int, float], ...]


@dataclass(frozen=True)
class IncrCommand:
    """``incr/decr <key> <delta> [noreply]``."""

    key: bytes
    delta: int
    negative: bool = False  # True for decr
    noreply: bool = False


@dataclass(frozen=True)
class DeleteCommand:
    """``delete <key> [noreply]``."""

    key: bytes
    noreply: bool = False


@dataclass(frozen=True)
class TouchCommand:
    """``touch <key> <exptime> [noreply]``."""

    key: bytes
    exptime: float
    noreply: bool = False


@dataclass(frozen=True)
class FlushCommand:
    """``flush_all [noreply]``."""

    noreply: bool = False


@dataclass(frozen=True)
class StatsCommand:
    """``stats [slabs|items|settings|metrics|trace|reset]``.

    ``metrics`` renders the live registry (counters, gauges, latency
    percentiles), ``trace`` the recent eviction/rebalance events, and
    ``reset`` zeroes resettable counters and answers ``RESET`` (memcached's
    ``stats reset``).
    """

    subcommand: str = ""


@dataclass(frozen=True)
class QuitCommand:
    """``quit`` — close the connection."""


@dataclass(frozen=True)
class ValueResponse:
    """One ``VALUE`` block of a GET response (CAS token for ``gets``)."""

    key: bytes
    flags: int
    value: bytes
    cas_unique: Optional[int] = None


@dataclass(frozen=True)
class NumberResponse:
    """The decimal result line of a successful INCR/DECR."""

    value: int


@dataclass(frozen=True)
class GetResponse:
    values: Tuple[ValueResponse, ...]


@dataclass(frozen=True)
class MultiSetResponse:
    """One ``MSET <status>...`` line: per-item storage outcomes, in order.

    Statuses are the same words a single storage command would answer
    (``STORED``, ``NOT_STORED``, ``SERVER_ERROR ...`` collapsed to
    ``ERROR``), so a batch keeps per-key attribution while costing one
    response frame.
    """

    statuses: Tuple[bytes, ...]

    @property
    def stored(self) -> int:
        return sum(1 for status in self.statuses if status == b"STORED")


@dataclass(frozen=True)
class SimpleResponse:
    """STORED / NOT_STORED / DELETED / NOT_FOUND / TOUCHED / OK / ERROR..."""

    line: bytes


@dataclass(frozen=True)
class StatsResponse:
    stats: List[Tuple[str, str]] = field(default_factory=list)


STORED = SimpleResponse(b"STORED")
NOT_STORED = SimpleResponse(b"NOT_STORED")
DELETED = SimpleResponse(b"DELETED")
NOT_FOUND = SimpleResponse(b"NOT_FOUND")
TOUCHED = SimpleResponse(b"TOUCHED")
OK = SimpleResponse(b"OK")
RESET = SimpleResponse(b"RESET")
EXISTS = SimpleResponse(b"EXISTS")
NOT_FOUND_CAS = SimpleResponse(b"NOT_FOUND")


def server_error(message: str) -> SimpleResponse:
    return SimpleResponse(b"SERVER_ERROR " + message.encode())


#: the overload-shedding reply: "try again later, this box is protecting itself"
BUSY = SimpleResponse(b"SERVER_ERROR busy")


def client_error(message: str) -> SimpleResponse:
    return SimpleResponse(b"CLIENT_ERROR " + message.encode())
