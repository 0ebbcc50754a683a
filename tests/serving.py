"""A real TCP server for synchronous tests: the asyncio server on its own
event-loop thread.

Blocking socket calls made inside the server's own loop would deadlock it,
so the loop runs in a daemon thread and the test thread talks to the
server over sockets like any other client.
"""

from __future__ import annotations

import asyncio
import threading

from repro.aio import AsyncTCPStoreServer

#: seconds to wait for the server to start or stop
TIMEOUT = 5


class ServerThread:
    """:class:`AsyncTCPStoreServer` served from a thread-owned event loop.

    Takes the server's own arguments.  Usable as a context manager, or
    through :meth:`start` / :meth:`stop` for fixtures that outlive a block.
    :attr:`address` stays readable after :meth:`stop`, so a test can
    point a client at a member it has just taken down.
    """

    def __init__(self, *args, **kwargs) -> None:
        self.server = AsyncTCPStoreServer(*args, **kwargs)
        self.address = None
        self._loop = None
        self._thread = None

    def start(self) -> "ServerThread":
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, daemon=True)
        self._thread.start()
        try:
            self._run(self.server.start())
        except BaseException:
            self.stop()
            raise
        self.address = self.server.address
        return self

    def stop(self) -> None:
        """Stop the server and its loop; safe to call more than once."""
        if self._loop is None:
            return
        try:
            self._run(self.server.stop())
        finally:
            loop, self._loop = self._loop, None
            loop.call_soon_threadsafe(loop.stop)
            self._thread.join(TIMEOUT)
            loop.close()

    def _run(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(TIMEOUT)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
