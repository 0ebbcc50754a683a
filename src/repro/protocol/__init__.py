"""The memcached text protocol with the paper's cost extension.

The protocol engine, its in-process loopback connection and the sync
client; the asyncio TCP server lives in :mod:`repro.aio`.
"""

from repro.protocol.client import (
    CostAwareClient,
    LoopbackTransport,
    TCPTransport,
    Transport,
)
from repro.protocol.commands import (
    DELETED,
    DeleteCommand,
    EXISTS,
    FlushCommand,
    IncrCommand,
    NumberResponse,
    GetCommand,
    GetResponse,
    NOT_FOUND,
    NOT_STORED,
    OK,
    ProtocolError,
    QuitCommand,
    STORED,
    ServerBusyError,
    SimpleResponse,
    StatsCommand,
    StatsResponse,
    StoreCommand,
    TOUCHED,
    TouchCommand,
    ValueResponse,
)
from repro.protocol.server import (
    LoopbackConnection,
    StoreConnection,
    StoreServer,
)
from repro.protocol.sockopt import SOCKET_BUFFER, tune_socket
from repro.protocol.text import (
    RequestParser,
    ResponseParser,
    encode_command,
    encode_response,
)

__all__ = [
    "CostAwareClient",
    "DELETED",
    "DeleteCommand",
    "EXISTS",
    "FlushCommand",
    "IncrCommand",
    "NumberResponse",
    "GetCommand",
    "GetResponse",
    "LoopbackConnection",
    "LoopbackTransport",
    "NOT_FOUND",
    "NOT_STORED",
    "OK",
    "ProtocolError",
    "QuitCommand",
    "RequestParser",
    "ResponseParser",
    "SOCKET_BUFFER",
    "STORED",
    "ServerBusyError",
    "SimpleResponse",
    "StatsCommand",
    "StatsResponse",
    "StoreCommand",
    "StoreConnection",
    "StoreServer",
    "TCPTransport",
    "TOUCHED",
    "TouchCommand",
    "Transport",
    "ValueResponse",
    "tune_socket",
    "encode_command",
    "encode_response",
]
