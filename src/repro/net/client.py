"""The client side of the wire protocol, mirroring in-process serving.

:class:`NetClient` gives remote callers the same ergonomics as
:class:`~repro.serve.frontend.ServingFrontend`: ``submit`` returns a
future immediately, ``answer``/``answer_many`` block, and
``answer_batch`` takes a whole :class:`EncryptedQueryBatch`.  Because
``submit`` is all :func:`~repro.serve.frontend.replay_open_loop` needs,
the open-loop Poisson replayer drives a remote server unchanged — the
loopback bench's parity check depends on exactly that symmetry.

The connection is **pipelined**: a sender may have any number of frames
in flight; a background reader thread matches replies to requests in
FIFO order (the server guarantees one in-order reply per request
frame) and resolves the pending futures.  Wire errors come back as the
same typed exceptions the in-process path raises — a remote
:class:`~repro.net.tenancy.QuotaExceededError` is
``QuotaExceededError`` here too — so calling code cannot tell (and
need not care) which side of the socket refused it.

Resilience (the blocking APIs only — futures from ``submit`` settle
exactly once and are never replayed):

* **Version negotiation.**  The HELLO_OK body advertises the server's
  highest protocol version; the client speaks
  ``min(its max, server max)``.  Under v2 every query rides a QUERY_V2
  frame that can carry ``deadline_ms``, and ERROR replies carry
  retry-after hints.  A v1 server gets plain QUERY frames — the v1
  stream, byte for byte.
* **Retries with capped exponential backoff + full jitter.**  With
  ``retries=N``, the blocking calls retry transient refusals
  (connection loss, BUSY, QUOTA, caller timeouts) up to N times,
  sleeping ``uniform(0, min(cap, base * 2^attempt))`` between attempts
  and honoring any server retry-after hint.  The clock and RNG are
  injectable, so tests drive the schedule deterministically.
* **Safe re-execution.**  A query is a read: answering it changes
  nothing on the server, so a retry whose first attempt actually
  executed simply runs the search again and returns the same answer.
* **Fail-fast caller timeouts.**  ``answer(timeout=...)`` expiry aborts
  the connection (failing every in-flight future typed) and raises
  :class:`RequestTimeoutError` — the FIFO reply stream is never left
  desynced behind a stalled request.  The next blocking call (or retry
  attempt) reconnects automatically.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError

from repro.core.errors import KeyMismatchError, ParameterError, PPANNSError
from repro.core.protocol import (
    EncryptedQuery,
    EncryptedQueryBatch,
    SearchResult,
    SearchResultBatch,
)
from repro.net import codec
from repro.net.codec import ErrorCode, MessageType, WireFormatError
from repro.net.tenancy import AuthError, QuotaExceededError
from repro.serve.frontend import DeadlineExceededError, QueueFullError

__all__ = [
    "NetClient",
    "RemoteError",
    "ConnectionClosedError",
    "RequestTimeoutError",
    "exception_for",
]


class RemoteError(PPANNSError):
    """The server reported a failure with no more specific local type."""


class ConnectionClosedError(RemoteError):
    """The connection dropped with requests still awaiting replies."""


class RequestTimeoutError(RemoteError):
    """A caller-side timeout expired waiting for a reply.

    Raised by the blocking APIs instead of a bare
    ``concurrent.futures.TimeoutError``.  The connection is aborted
    first — every in-flight future fails typed and the FIFO reply
    stream cannot desync behind the stalled request; a retrying client
    reconnects on the next attempt.
    """


#: ERROR-frame code → the local exception type it round-trips to.
_ERROR_TYPES = {
    ErrorCode.AUTH: AuthError,
    ErrorCode.QUOTA: QuotaExceededError,
    ErrorCode.BUSY: QueueFullError,
    ErrorCode.FORMAT: WireFormatError,
    ErrorCode.PARAMETER: ParameterError,
    ErrorCode.KEY: KeyMismatchError,
    ErrorCode.INTERNAL: RemoteError,
    ErrorCode.DEADLINE: DeadlineExceededError,
}

#: Transient refusals the blocking APIs replay under ``retries=N``.
#: QUOTA/BUSY clear as completions drain, connection loss and caller
#: timeouts clear on reconnect; everything else (AUTH, KEY, FORMAT,
#: PARAMETER, DEADLINE) would fail identically and is raised at once.
_RETRYABLE = (
    ConnectionClosedError,
    RequestTimeoutError,
    QueueFullError,
    QuotaExceededError,
)


def exception_for(
    code: ErrorCode, message: str, retry_after: float | None = None
) -> PPANNSError:
    """Rehydrate an ERROR frame into the matching typed exception."""
    exc = _ERROR_TYPES.get(code, RemoteError)(message)
    if retry_after is not None:
        exc.retry_after = retry_after
    return exc


class NetClient:
    """One authenticated connection to a :class:`~repro.net.server.NetServer`.

    Parameters
    ----------
    host / port:
        The server's bound address.
    key_id:
        The tenant identity to authenticate as (the DCE key tag the
        connection's queries are encrypted under).
    token:
        The tenant's auth token, if its registration requires one.
    timeout:
        Seconds allowed for connect + handshake, and the per-frame
        read deadline on replies.
    retries:
        How many times the *blocking* APIs replay a transient refusal
        (see the module docstring) before raising it; 0 disables.
    backoff_base / backoff_cap:
        The capped-exponential schedule: attempt ``i`` sleeps a
        full-jitter draw from ``[0, min(cap, base * 2**i)]`` seconds.
    rng / sleep:
        The jitter source (``random.Random``-like) and sleep function —
        injectable so retry tests are deterministic and instant.
    on_retry:
        Optional zero-argument hook invoked once per performed retry —
        the CLI wires it to
        :meth:`~repro.serve.metrics.ServerMetrics.record_retry` so
        client-visible retries reach the metrics view.

    Construction performs the HELLO handshake; an
    :class:`~repro.net.tenancy.AuthError` raised here is the server's
    refusal.  The client is a context manager and thread-safe: any
    thread may ``submit`` while the reader resolves futures.
    """

    def __init__(
        self,
        host: str,
        port: int,
        key_id: int,
        token: str | None = None,
        timeout: float = 30.0,
        retries: int = 0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        rng=None,
        sleep=time.sleep,
        on_retry=None,
    ) -> None:
        if retries < 0:
            raise ParameterError(f"retries must be >= 0, got {retries}")
        if backoff_base <= 0 or backoff_cap <= 0:
            raise ParameterError(
                "backoff_base and backoff_cap must be > 0, got "
                f"{backoff_base} / {backoff_cap}"
            )
        self.key_id = int(key_id)
        self._host = host
        self._port = port
        self._token = token
        self._timeout = timeout
        self._retries = int(retries)
        self._backoff_base = float(backoff_base)
        self._backoff_cap = float(backoff_cap)
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep
        self._on_retry = on_retry
        self.retry_count = 0
        self._send_lock = threading.Lock()
        self._connect_lock = threading.Lock()
        self._pending: "deque[tuple[str, object, bool]]" = deque()
        self._closed = False
        self._sock: socket.socket | None = None
        self._reader: threading.Thread | None = None
        self.protocol_version = 1
        self._connect()

    # -- connection lifecycle ----------------------------------------------------

    def _connect(self) -> None:
        """Dial, handshake, negotiate, and start this socket's reader."""
        sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        try:
            codec.send_frame(
                sock,
                MessageType.HELLO,
                codec.encode_hello(self.key_id, self._token),
            )
            reply = codec.read_frame_from(sock, timeout=self._timeout)
            if reply is None:
                raise ConnectionClosedError(
                    "server closed the connection during the handshake"
                )
            msg_type, body = reply
            if msg_type is MessageType.ERROR:
                raise exception_for(*codec.decode_error(body))
            if msg_type is not MessageType.HELLO_OK:
                raise WireFormatError(
                    f"expected HELLO_OK, server sent {msg_type.name}"
                )
            # Negotiation: the HELLO_OK body advertises the server's
            # max version (empty body = a v1-era server).  Both sides
            # then speak the minimum.
            self.protocol_version = min(
                codec.PROTOCOL_VERSION_MAX, codec.decode_hello_ok(body)
            )
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self._reader = threading.Thread(
            target=self._reader_loop,
            args=(sock,),
            name="repro-net-client-reader",
            daemon=True,
        )
        self._reader.start()

    def _ensure_connected(self) -> None:
        """Reconnect if a previous abort dropped the socket."""
        if self._closed:
            raise ConnectionClosedError("client is closed")
        with self._connect_lock:
            if self._closed:
                raise ConnectionClosedError("client is closed")
            if self._sock is None:
                self._connect()

    def _abort_connection(self) -> None:
        """Drop the socket now; every in-flight future fails typed.

        The fail-fast half of the caller-timeout contract: a stalled
        request must not leave the FIFO stream waiting behind it, so
        the whole connection goes — the reader unblocks, pending
        futures settle with :class:`ConnectionClosedError`, and the
        next blocking call reconnects.
        """
        with self._connect_lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        self._fail_pending(
            ConnectionClosedError("connection aborted with requests in flight")
        )

    # -- reply side --------------------------------------------------------------

    def _reader_loop(self, sock: socket.socket) -> None:
        """Match reply frames to pending requests in FIFO order."""
        try:
            while True:
                frame = codec.read_frame_from(sock, timeout=None)
                if frame is None:
                    break
                self._dispatch(*frame)
        except (OSError, WireFormatError):
            pass
        with self._connect_lock:
            if sock is not self._sock:
                # A reconnect superseded this socket; whoever aborted it
                # already settled the futures that were riding it.
                return
            # The peer closed first: clear the slot so the next blocking
            # call (or retry attempt) reconnects instead of writing into
            # a dead socket.
            self._sock = None
        try:
            sock.close()
        except OSError:
            pass
        self._fail_pending(
            ConnectionClosedError("connection closed with requests in flight")
        )

    def _next_pending(self) -> "tuple[str, object, bool] | None":
        with self._send_lock:
            return self._pending.popleft() if self._pending else None

    def _decode_error(self, body: bytes, v2: bool) -> PPANNSError:
        """Decode an ERROR body in the layout its request negotiated."""
        if v2:
            return exception_for(*codec.decode_error_v2(body))
        return exception_for(*codec.decode_error(body))

    def _dispatch(self, msg_type: MessageType, body: bytes) -> None:
        entry = self._next_pending()
        if entry is None:
            return  # unsolicited frame; nothing is waiting on it
        kind, target, v2 = entry
        if msg_type is MessageType.RESULT and kind == "query":
            try:
                batch = codec.decode_result_batch(body)
            except WireFormatError as exc:
                self._settle_queries(target, error=exc)
                return
            if len(batch) != len(target):
                self._settle_queries(
                    target,
                    error=WireFormatError(
                        f"server answered {len(batch)} results "
                        f"for {len(target)} queries"
                    ),
                )
                return
            for future, result in zip(target, batch):
                if not future.cancelled():
                    future.set_result(result)
        elif msg_type is MessageType.ERROR:
            error = self._decode_error(body, v2)
            if kind == "query":
                self._settle_queries(target, error=error)
            else:
                if not target.cancelled():
                    target.set_exception(error)
        elif msg_type is MessageType.STATS_OK and kind == "stats":
            try:
                payload = codec.decode_stats(body)
            except WireFormatError as exc:
                target.set_exception(exc)
            else:
                target.set_result(payload)
        else:
            error = WireFormatError(
                f"server sent {msg_type.name} where a {kind} reply was due"
            )
            if kind == "query":
                self._settle_queries(target, error=error)
            else:
                target.set_exception(error)

    @staticmethod
    def _settle_queries(futures, error: BaseException) -> None:
        for future in futures:
            if not future.cancelled() and not future.done():
                future.set_exception(error)

    def _fail_pending(self, error: BaseException) -> None:
        while True:
            entry = self._next_pending()
            if entry is None:
                return
            kind, target, _ = entry
            if kind == "query":
                self._settle_queries(target, error)
            elif not target.done():
                target.set_exception(error)

    # -- request side ------------------------------------------------------------

    def _send_request(
        self,
        kind: str,
        target,
        msg_type: MessageType,
        body: bytes,
        v2: bool = False,
    ):
        with self._send_lock:
            if self._closed:
                raise ConnectionClosedError("client is closed")
            sock = self._sock
            if sock is None:
                raise ConnectionClosedError(
                    "connection is down (aborted by a timeout or fault); "
                    "a blocking call will reconnect"
                )
            # Registered before the bytes leave: the reader can never
            # see a reply with no pending entry to match it.
            self._pending.append((kind, target, v2))
            try:
                codec.send_frame(sock, msg_type, body)
            except OSError as exc:
                self._pending.pop()
                raise ConnectionClosedError(
                    f"connection lost while sending: {exc}"
                ) from None
        return target

    def submit_batch(
        self, batch: EncryptedQueryBatch, deadline_ms: int | None = None
    ) -> "list[Future[SearchResult]]":
        """Send one batch message; returns a future per query, in order.

        ``deadline_ms`` is the whole batch's latency budget, carried on
        the QUERY_V2 envelope; it requires a server that negotiated
        protocol v2 (:class:`~repro.core.errors.ParameterError`
        otherwise — a v1 server would silently ignore the budget, which
        is worse than refusing).
        """
        self._ensure_connected()
        if deadline_ms is not None:
            if deadline_ms <= 0:
                raise ParameterError(
                    f"deadline_ms must be a positive integer, got {deadline_ms}"
                )
            if self.protocol_version < 2:
                raise ParameterError(
                    "deadline_ms needs protocol v2, but the server "
                    "negotiated v1"
                )
        v2 = self.protocol_version >= 2
        if v2:
            msg_type = MessageType.QUERY_V2
            body = codec.encode_query_batch_v2(batch, deadline_ms)
        else:
            msg_type = MessageType.QUERY
            body = codec.encode_query_batch(batch)
        futures: "list[Future[SearchResult]]" = [
            Future() for _ in range(len(batch))
        ]
        self._send_request("query", futures, msg_type, body, v2)
        return futures

    def submit(
        self, query: EncryptedQuery, deadline_ms: int | None = None
    ) -> "Future[SearchResult]":
        """Admit one query (frontend parity); returns its future."""
        return self.submit_batch(
            EncryptedQueryBatch.from_queries([query]), deadline_ms=deadline_ms
        )[0]

    # -- retry engine ------------------------------------------------------------

    def _backoff_delay(self, attempt: int, hint: float | None) -> float:
        """Full-jitter draw, floored by the server's retry-after hint."""
        cap = min(self._backoff_cap, self._backoff_base * (2.0 ** attempt))
        delay = self._rng.uniform(0.0, cap)
        if hint is not None:
            delay = max(delay, float(hint))
        return delay

    def _with_retries(self, op):
        """Run one blocking operation under the retry policy.

        Only :data:`_RETRYABLE` refusals are replayed, up to the
        configured count.  Re-sending is safe by construction: a query
        changes no server state, so an attempt that actually executed
        and is run again returns the same answer.
        """
        attempt = 0
        while True:
            try:
                self._ensure_connected()
                return op()
            except _RETRYABLE as exc:
                if attempt >= self._retries or self._closed:
                    raise
                self.retry_count += 1
                if self._on_retry is not None:
                    self._on_retry()
                self._sleep(
                    self._backoff_delay(
                        attempt, getattr(exc, "retry_after", None)
                    )
                )
                attempt += 1

    def _await(self, future: "Future", timeout: float | None):
        """Wait on one future; a caller timeout aborts the connection."""
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            self._abort_connection()
            raise RequestTimeoutError(
                f"no reply within {timeout}s; connection aborted so the "
                "reply stream cannot desync"
            ) from None

    # -- blocking conveniences (the retrying APIs) -------------------------------

    def answer(
        self,
        query: EncryptedQuery,
        timeout: float | None = None,
        deadline_ms: int | None = None,
    ):
        """Blocking single-query convenience: ``submit`` + wait."""
        return self._with_retries(
            lambda: self._await(
                self.submit(query, deadline_ms=deadline_ms), timeout
            )
        )

    def answer_many(
        self,
        queries: "list[EncryptedQuery]",
        timeout: float | None = None,
        deadline_ms: int | None = None,
    ) -> "list[SearchResult]":
        """Submit several queries as one message and wait for all."""
        if not queries:
            return []

        def op():
            futures = self.submit_batch(
                EncryptedQueryBatch.from_queries(queries),
                deadline_ms=deadline_ms,
            )
            return [self._await(future, timeout) for future in futures]

        return self._with_retries(op)

    def answer_batch(
        self,
        batch: EncryptedQueryBatch,
        timeout: float | None = None,
        deadline_ms: int | None = None,
    ) -> SearchResultBatch:
        """Round-trip a whole batch; the remote ``PPANNS.serve()`` shape."""

        def op():
            futures = self.submit_batch(batch, deadline_ms=deadline_ms)
            return SearchResultBatch(
                [self._await(future, timeout) for future in futures]
            )

        return self._with_retries(op)

    def stats(self, timeout: float | None = None) -> dict:
        """Fetch the server's tenancy/metrics view (the STATS message)."""

        def op():
            future: "Future[dict]" = Future()
            self._send_request("stats", future, MessageType.STATS, b"")
            return self._await(
                future, timeout if timeout is not None else self._timeout
            )

        return self._with_retries(op)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Drop the connection; in-flight futures fail with a closed error."""
        with self._send_lock:
            if self._closed:
                return
            self._closed = True
        reader = self._reader
        self._abort_connection()
        if reader is not None and reader.is_alive():
            reader.join(timeout=self._timeout)

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
