"""The long-running TCP server over a serving frontend.

:class:`NetServer` is the socket face of the serving stack.  It owns no
execution path of its own: every query that arrives over the wire is
decoded by the codec, admitted by the tenancy layer, and submitted to
the **same** :class:`~repro.serve.frontend.ServingFrontend` /
:class:`~repro.serve.scheduler.BatchScheduler` pair that in-process
callers use — micro-batching, caching, backpressure, and metrics apply
identically whether a query arrived by function call or by socket.

```
                 ┌── per connection ───────────────────────────────┐
 TCP accept ──▶  │ reader thread: frame → decode → tenancy.submit ─┼──▶ frontend ──▶ scheduler
 (thread per     │        │ (futures + reply slot, FIFO)           │        │
  connection)    │ writer thread: await futures → encode → send ◀──┼────────┘
                 └─────────────────────────────────────────────────┘
```

Connection protocol: the first frame must be HELLO (``key_id`` +
token); the server authenticates against its
:class:`~repro.net.tenancy.TenantRegistry` and answers HELLO_OK or an
AUTH error.  After that, any number of QUERY and STATS frames; every
request frame receives exactly one RESULT/STATS_OK/ERROR reply, **in
request order**.

Fault containment — each chaos mode fails only its own connection:

* **Slow loris** — frame reads run against a per-frame deadline
  (:func:`repro.net.codec.read_frame_from`), so a peer trickling bytes
  is cut off when the frame's budget expires.  Nothing of a partial
  frame ever reaches the scheduler.
* **Oversized body** — the length prefix is validated before the body
  is read; the connection gets a FORMAT error and closes without
  buffering the declared payload.
* **Mid-stream disconnect** — a vanished peer kills its reader; the
  writer drains (futures still settle in the scheduler, quota returns
  via completion callbacks) and exits on the send failure.  The
  scheduler never learns the client left.

The split into reader and writer threads is what keeps the socket path
**open-loop**: the reader admits frames as fast as they arrive while
answers are still in flight, so a single pipelined connection gives the
scheduler real batching opportunities instead of one-query lockstep.
"""

from __future__ import annotations

import queue
import socket
import socketserver
import threading
import time

from repro.core.errors import KeyMismatchError, ParameterError
from repro.net import codec
from repro.net.codec import ErrorCode, FrameTooLargeError, MessageType, WireFormatError
from repro.net.tenancy import (
    AuthError,
    QuotaExceededError,
    TenantAdmission,
    TenantConfig,
    TenantRegistry,
)
from repro.serve.frontend import (
    DeadlineExceededError,
    QueueFullError,
    ServingFrontend,
)

__all__ = ["NetServer", "DEFAULT_FRAME_TIMEOUT", "ConnectionLimitError"]

#: Default per-frame read deadline in seconds (the slow-loris budget).
DEFAULT_FRAME_TIMEOUT = 30.0

#: Bound on how long :meth:`NetServer.close` waits for its accept thread
#: and, all together, for the handlers of the connections it ended.
CLOSE_JOIN_SECONDS = 5.0


def _shutdown_socket(sock: socket.socket) -> None:
    """End both directions of ``sock``; the handler's reads return EOF."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already closed by its handler or by the peer


class ConnectionLimitError(QueueFullError):
    """The server-wide connection limit refused this connection.

    A :class:`~repro.serve.frontend.QueueFullError` subclass (BUSY on
    the wire) carrying ``retry_after`` — the server's hint on when an
    accept slot may be free again.
    """

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def classify_error(exc: BaseException) -> ErrorCode:
    """Map a server-side exception to its wire error code."""
    if isinstance(exc, AuthError):
        return ErrorCode.AUTH
    if isinstance(exc, DeadlineExceededError):
        return ErrorCode.DEADLINE
    if isinstance(exc, QuotaExceededError):
        return ErrorCode.QUOTA
    if isinstance(exc, QueueFullError):
        return ErrorCode.BUSY
    if isinstance(exc, WireFormatError):
        return ErrorCode.FORMAT
    if isinstance(exc, KeyMismatchError):
        return ErrorCode.KEY
    if isinstance(exc, ParameterError):
        return ErrorCode.PARAMETER
    return ErrorCode.INTERNAL


class _ConnectionHandler(socketserver.BaseRequestHandler):
    """One client connection: a frame reader plus an ordered reply writer."""

    # -- writer side -------------------------------------------------------------

    def _writer_loop(self) -> None:
        """Pop reply slots in request order; wait, encode, send.

        Each slot is either pre-encoded ``bytes`` (errors, stats) or a
        ``(futures, )`` tuple whose answers are awaited *here*, off the
        reader thread — the reader keeps admitting new frames while
        earlier answers are still computing.  A send failure means the
        client is gone; pending futures still settle inside the
        scheduler (quota releases ride their completion callbacks), so
        the writer simply stops writing.
        """
        sock = self.request
        while True:
            slot = self._outbox.get()
            if slot is None:
                return
            try:
                payload = slot() if callable(slot) else slot
                sock.sendall(payload)
            except OSError:
                return  # peer gone; scheduler-side work settles on its own

    def _reply_result(self, futures, v2: bool = False) -> bytes:
        """Await one QUERY frame's futures and encode its reply."""
        results = []
        for future in futures:
            try:
                results.append(future.result())
            except Exception as exc:
                # One reply per request frame: the first per-query
                # failure answers for the frame (siblings still settle
                # and release their quota via callbacks).
                return self._error_frame(exc, v2)
        batch = codec.SearchResultBatch(results)
        return codec.encode_frame(
            MessageType.RESULT, codec.encode_result_batch(batch)
        )

    # -- reader side -------------------------------------------------------------

    def _error_frame(self, exc: BaseException, v2: bool) -> bytes:
        """Encode an ERROR frame in the version the request negotiated.

        A peer proves it speaks v2 by sending QUERY_V2; its errors then
        carry the v2 body with the ``retry_after`` hint (load-shedding
        refusals attach one).  Everything earlier — including the
        handshake and connection-limit refusals — stays in the v1
        layout every peer parses.
        """
        code = classify_error(exc)
        if v2:
            body = codec.encode_error_v2(
                code, str(exc), getattr(exc, "retry_after", None)
            )
        else:
            body = codec.encode_error(code, str(exc))
        return codec.encode_frame(MessageType.ERROR, body)

    def _send_error(self, exc: BaseException, v2: bool = False) -> None:
        """Enqueue an in-order ERROR reply for the frame just read."""
        self._outbox.put(self._error_frame(exc, v2))

    def _handshake(self) -> bool:
        """Authenticate the connection's first frame (HELLO)."""
        server: NetServer = self.server.owner
        frame = codec.read_frame_from(
            self.request, server.max_body_bytes, server.frame_timeout
        )
        if frame is None:
            return False
        msg_type, body = frame
        if msg_type is not MessageType.HELLO:
            self._outbox.put(
                codec.encode_frame(
                    MessageType.ERROR,
                    codec.encode_error(
                        ErrorCode.FORMAT,
                        f"expected HELLO as the first frame, got {msg_type.name}",
                    ),
                )
            )
            return False
        key_id, token = codec.decode_hello(body)
        try:
            self._channel = server.admission.channel(key_id, token or None)
        except AuthError as exc:
            self._send_error(exc)
            return False
        # HELLO_OK advertises the server's highest negotiable protocol
        # version.  v1 clients ignore the body (negotiation is free for
        # them); v2 clients answer with QUERY_V2 frames from then on.
        self._outbox.put(
            codec.encode_frame(
                MessageType.HELLO_OK,
                codec.encode_hello_ok(codec.PROTOCOL_VERSION_MAX),
            )
        )
        return True

    def _serve_frames(self) -> None:
        """The post-handshake request loop (QUERY / STATS frames)."""
        server: NetServer = self.server.owner
        while not server.closing:
            frame = codec.read_frame_from(
                self.request, server.max_body_bytes, server.frame_timeout
            )
            if frame is None:
                return
            msg_type, body = frame
            if msg_type in (MessageType.QUERY, MessageType.QUERY_V2):
                # Error-body encoding follows the *request*: a QUERY_V2
                # frame gets v2 ERROR replies (retry hints attached),
                # anything else stays in the v1 layout every peer parses.
                v2 = msg_type is MessageType.QUERY_V2
                try:
                    if v2:
                        batch, deadline_ms = codec.decode_query_batch_v2(body)
                    else:
                        batch, deadline_ms = codec.decode_query_batch(body), None
                    futures = self._channel.submit_batch(
                        list(batch), deadline_ms=deadline_ms
                    )
                except Exception as exc:
                    self._send_error(exc, v2)
                    continue
                self._outbox.put(
                    lambda futures=futures, v2=v2: self._reply_result(futures, v2)
                )
            elif msg_type is MessageType.STATS:
                self._outbox.put(
                    codec.encode_frame(
                        MessageType.STATS_OK, codec.encode_stats(server.stats())
                    )
                )
            else:
                self._send_error(
                    WireFormatError(
                        f"unexpected {msg_type.name} frame after the handshake"
                    )
                )

    # -- socketserver plumbing ---------------------------------------------------

    def setup(self) -> None:  # noqa: D102 (socketserver hook)
        self.request.settimeout(self.server.owner.frame_timeout)
        self._outbox: "queue.Queue" = queue.Queue()
        self._channel = None
        self.server.owner._track(self.request)
        self._admitted = self.server.owner._acquire_connection()
        self._writer = threading.Thread(
            target=self._writer_loop, name="repro-net-writer", daemon=True
        )
        self._writer.start()

    def handle(self) -> None:  # noqa: D102 (socketserver hook)
        try:
            if not self._admitted:
                # Refused before the handshake: the peer gets one BUSY
                # error (v1 layout — nothing is negotiated yet) with a
                # retry hint, then the connection closes.
                server: NetServer = self.server.owner
                self._send_error(
                    ConnectionLimitError(
                        "server is at its connection limit "
                        f"({server.max_connections}); retry later",
                        retry_after=1.0,
                    )
                )
                return
            if self._handshake():
                self._serve_frames()
        except (FrameTooLargeError, WireFormatError) as exc:
            # Framing is unrecoverable mid-stream (the body was never
            # read / the stream position is unknowable): report, close.
            self._send_error(exc)
        except (socket.timeout, TimeoutError):
            pass  # slow-loris / idle deadline: drop the connection
        except OSError:
            pass  # peer vanished mid-read

    def finish(self) -> None:  # noqa: D102 (socketserver hook)
        self._outbox.put(None)
        self._writer.join(timeout=DEFAULT_FRAME_TIMEOUT)
        if self._admitted:
            self.server.owner._release_connection()
        self.server.owner._untrack(self.request)


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    """Thread-per-connection TCP server with an owner backref."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, owner: "NetServer", address) -> None:
        self.owner = owner
        super().__init__(address, _ConnectionHandler)


class NetServer:
    """The wire-protocol server over one serving frontend.

    Parameters
    ----------
    frontend:
        The :class:`~repro.serve.frontend.ServingFrontend` every
        network query is submitted to (the single execution path).
    tenants:
        The admitted tenants: a :class:`TenantRegistry`, or a list of
        :class:`TenantConfig` to build one from.
    host / port:
        Bind address; port 0 picks an ephemeral port (see
        :attr:`address` for the bound one).
    max_body_bytes:
        Frame-body cap; larger length prefixes are refused before the
        body is read.
    frame_timeout:
        Per-frame read deadline in seconds (the slow-loris budget) —
        also the idle timeout between a connection's frames.
    max_connections:
        Server-wide cap on concurrently open connections; an accept
        over the cap is answered with one BUSY error (retry hint
        attached) and closed.  ``None`` = unlimited.

    The server is a context manager: ``with NetServer(...) as server:``
    binds, starts accepting in a background thread, and shuts down on
    exit.  The frontend's lifecycle stays with its creator — wrap the
    ``NetServer`` *inside* the frontend's ``with`` block.
    """

    def __init__(
        self,
        frontend: ServingFrontend,
        tenants: "TenantRegistry | list[TenantConfig]",
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = codec.DEFAULT_MAX_BODY_BYTES,
        frame_timeout: float = DEFAULT_FRAME_TIMEOUT,
        max_connections: int | None = None,
    ) -> None:
        if max_connections is not None and max_connections < 1:
            raise ParameterError(
                f"max_connections must be >= 1, got {max_connections}"
            )
        registry = (
            tenants
            if isinstance(tenants, TenantRegistry)
            else TenantRegistry(list(tenants))
        )
        self.admission = TenantAdmission(frontend, registry)
        self.max_body_bytes = max_body_bytes
        self.frame_timeout = frame_timeout
        self.max_connections = max_connections
        self.closing = False
        self._connection_lock = threading.Lock()
        self._connections = 0
        # Live handler sockets, each with the thread serving it, so that
        # close() can end established connections too.
        self._handlers: "dict[socket.socket, threading.Thread]" = {}
        self._tcp = _ThreadingTCPServer(self, (host, port))
        self._thread: threading.Thread | None = None

    def _acquire_connection(self) -> bool:
        """Claim an accept slot; ``False`` (and a metric) over the cap."""
        with self._connection_lock:
            if (
                self.max_connections is not None
                and self._connections >= self.max_connections
            ):
                self.frontend.metrics.record_connection_refused()
                return False
            self._connections += 1
            return True

    def _release_connection(self) -> None:
        with self._connection_lock:
            self._connections = max(0, self._connections - 1)

    def _track(self, sock: socket.socket) -> None:
        """Register a handler's socket; one accepted during close() ends now."""
        with self._connection_lock:
            if not self.closing:
                self._handlers[sock] = threading.current_thread()
                return
        _shutdown_socket(sock)

    def _untrack(self, sock: socket.socket) -> None:
        with self._connection_lock:
            self._handlers.pop(sock, None)

    @property
    def connections(self) -> int:
        """Connections currently admitted (past the limit check)."""
        with self._connection_lock:
            return self._connections

    @property
    def frontend(self) -> ServingFrontend:
        """The serving frontend network queries are submitted to."""
        return self.admission.frontend

    @property
    def registry(self) -> TenantRegistry:
        """The tenant registry guarding admission."""
        return self.admission.registry

    @property
    def address(self) -> "tuple[str, int]":
        """The bound ``(host, port)`` (resolves an ephemeral port 0)."""
        return self._tcp.server_address

    def stats(self) -> dict:
        """The ``stats`` wire payload: tenancy view + frontend metrics."""
        payload = self.admission.stats()
        payload["frontend"] = self.frontend.metrics.snapshot().as_dict()
        return payload

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "NetServer":
        """Begin accepting connections in a background thread."""
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._tcp.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="repro-net-accept",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_until_interrupt(self) -> None:
        """Foreground accept loop (the CLI ``listen`` body)."""
        try:
            self._tcp.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def close(self) -> None:
        """Stop accepting, end every live connection, release the socket.

        Each established connection's socket is shut down in both
        directions, so its peer sees the disconnect at once instead of
        after the idle ``frame_timeout``, and its handler thread is
        joined within :data:`CLOSE_JOIN_SECONDS`.  Idempotent.
        """
        with self._connection_lock:
            if self.closing:
                return
            self.closing = True
            handlers = list(self._handlers.items())
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=CLOSE_JOIN_SECONDS)
        for sock, _ in handlers:
            _shutdown_socket(sock)
        deadline = time.monotonic() + CLOSE_JOIN_SECONDS
        for _, thread in handlers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))

    def __enter__(self) -> "NetServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
