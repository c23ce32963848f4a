"""One lifecycle for the asyncio servers: compile service, cache peer, gateway.

:class:`AsyncServer` binds a listener, tracks one handler task per
connection, and stops in one order:

1. set the stop event, so every wait on an idle client returns (see
   :meth:`AsyncServer._unless_stopping`);
2. close the listener;
3. let each connection handler finish the request it is serving;
4. run the server's own :meth:`~AsyncServer._teardown`.

The order matters on Python 3.12, where ``asyncio.Server.wait_closed()``
waits for every open connection: a handler parked on an idle keep-alive
client would otherwise hold the stop until that client hung up.

:class:`ServerThread` runs one server on a background thread with its own
event loop (tests, benchmarks, the chaos harness and the gateway cluster
use it), and :func:`run_until_signalled` is the blocking body of
``repro serve`` and ``repro cache-serve``.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
from typing import Any, Awaitable, Callable, Optional, Tuple, TypeVar

from . import protocol

T = TypeVar("T")


class AsyncServer:
    """Start, stop and drain one asyncio TCP server.

    Subclasses implement :meth:`_serve_connection` and may override
    :meth:`_teardown`; the base owns the listener, the stop event and the
    set of live connection handlers.
    """

    #: what messages call this server ("service is not started").
    kind = "server"
    #: stream buffer bound: the longest line a handler can read.
    stream_limit = protocol.MAX_LINE_BYTES

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop_requested: Optional[asyncio.Future] = None
        self._handlers: set = set()

    @property
    def address(self) -> Tuple[str, int]:
        """The actual bound (host, port) — call after :meth:`start`."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError(f"{self.kind} is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    @property
    def stopping(self) -> bool:
        """True once a stop was requested."""
        return self._stop_requested is not None and self._stop_requested.done()

    async def start(self) -> None:
        """Bind the listening socket (idempotent)."""
        if self._server is not None:
            return
        self._stop_requested = asyncio.get_running_loop().create_future()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=self.stream_limit
        )

    def request_stop(self) -> None:
        """Ask the serve loop to drain and exit (threadsafe via its loop)."""
        if self._stop_requested is not None and not self._stop_requested.done():
            self._stop_requested.set_result(None)

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`request_stop`, then :meth:`stop`."""
        await self.start()
        try:
            await self._stop_requested
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Stop accepting, let in-flight requests finish, tear down."""
        if self._server is None:
            return
        server, self._server = self._server, None
        self.request_stop()
        server.close()
        await asyncio.gather(*tuple(self._handlers), return_exceptions=True)
        await server.wait_closed()
        await self._teardown()

    async def _teardown(self) -> None:
        """Release what the server owns beyond its connections."""

    # -- connection handling ------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            await self._serve_connection(reader, writer)
        except OSError:
            pass  # the client hung up; nothing to answer
        finally:
            self._handlers.discard(task)
            writer.close()
            # CancelledError included: loop teardown may cancel the close
            # handshake itself
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        raise NotImplementedError

    async def _unless_stopping(self, awaitable: Awaitable[T]) -> Optional[T]:
        """``await awaitable``, or None once a stop is requested.

        Every wait on an idle client goes through here, so a stop never
        waits on a keep-alive connection that sends nothing.  Only the
        wait is cancelled, never a request already being served.
        """
        work = asyncio.ensure_future(awaitable)
        try:
            await asyncio.wait(
                (work, self._stop_requested), return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            if not work.done():
                work.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await work
        if work.cancelled():
            return None
        return work.result()

    async def _next_line(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[bytes]:
        """The next JSON request line; None once the connection should close.

        None on client EOF and on stop.  A line longer than
        :attr:`stream_limit` is answered with ``bad-request`` first.
        """
        try:
            line = await self._unless_stopping(reader.readline())
        except (asyncio.LimitOverrunError, ValueError):
            writer.write(
                protocol.encode_line(
                    protocol.error_response(
                        protocol.E_BAD_REQUEST, "request line too long"
                    )
                )
            )
            await writer.drain()
            return None
        return line or None


class ServerThread:
    """One :class:`AsyncServer` on a dedicated background thread.

    Usage::

        with ServiceThread(jobs=2) as service:
            client = Client(*service.address)
            ...

    Subclasses name the server class; keyword arguments go to its
    constructor (``port`` defaults to 0, an ephemeral port).  The thread
    owns its own event loop; :meth:`stop` signals it and joins.
    """

    server_class = AsyncServer
    thread_name = "repro-server"

    def __init__(self, **server_kwargs: Any) -> None:
        server_kwargs.setdefault("port", 0)
        self._kwargs = server_kwargs
        self._server: Optional[AsyncServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name=self.thread_name, daemon=True
        )

    def _run(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        try:
            server = self.server_class(**self._kwargs)
            await server.start()
            self._server, self._loop = server, asyncio.get_running_loop()
        except Exception as exc:  # re-raised by start() on the caller's thread
            self._startup_error = exc
            return
        finally:
            self._ready.set()
        await server.serve_until_stopped()

    def start(self) -> "ServerThread":
        kind = self.server_class.kind
        self._thread.start()
        self._ready.wait(timeout=60)
        if self._startup_error is not None:
            raise RuntimeError(
                f"{kind} failed to start: {self._startup_error}"
            ) from self._startup_error
        if self._server is None:
            raise RuntimeError(f"{kind} failed to start (timeout)")
        return self

    @property
    def server(self) -> AsyncServer:
        if self._server is None:
            raise RuntimeError(f"{self.server_class.kind} is not started")
        return self._server

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    def stop(self, timeout: float = 60.0) -> None:
        if self._server is not None and self._thread.is_alive():
            with contextlib.suppress(RuntimeError):  # the loop already closed
                self._loop.call_soon_threadsafe(self._server.request_stop)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def run_until_signalled(
    make_server: Callable[[], AsyncServer],
    describe: Callable[[AsyncServer], str],
    announce: Optional[Callable[[str], Any]] = None,
) -> int:
    """Serve until SIGINT/SIGTERM; returns the process exit code.

    ``make_server`` builds the server inside the event loop;
    ``announce``, when given, is called once with ``describe(server)``
    after the listener is bound.
    """

    async def _main() -> None:
        server = make_server()
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signum, server.request_stop)
        if announce is not None:
            announce(describe(server))
        await server.serve_until_stopped()

    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(_main())
    return 0
