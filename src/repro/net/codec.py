"""The framed, versioned binary wire codec of the network serving layer.

Everything that crosses the ``repro.net`` socket boundary travels as a
**frame**: a fixed 12-byte header (magic, version, message type, length
prefix) followed by a type-specific body.  The layout is normative in
``docs/FORMATS.md`` ("Network envelope"); this module is its executable
counterpart, exactly as ``repro.core.protocol`` is for the message
objects themselves.

```
 offset  size  field
 0       4     magic  = b"PPAN"
 4       1     protocol version = 1
 5       1     message type (MessageType)
 6       2     reserved, must be zero
 8       4     body length (uint32 LE), bounded by max_body_bytes
 12      ...   body
```

Design points, each load-bearing for a satellite or chaos requirement:

* **The batch envelope carries its own ``key_id``.**  In-process, the
  DCE key tag rides on the trapdoors; a ``filter_only`` batch has a
  ``(n, 0)`` trapdoor matrix and therefore *nowhere* to put it.  The
  QUERY body stores ``key_id`` as an envelope field, so zero-trapdoor
  batches round-trip without a spurious trapdoor requirement and the
  tenancy layer can authenticate **before** touching any payload.
* **Length prefix first, body later.**  ``read_frame_from`` validates
  the header — magic, version, reserved bits, and the length against
  ``max_body_bytes`` — *before* reading a single body byte, so an
  oversized frame is refused in O(1) (:class:`FrameTooLargeError`)
  instead of buffered.
* **Typed rejection.**  Malformed input raises
  :class:`WireFormatError` subclasses — :class:`TruncatedFrameError`
  for streams that end mid-frame, :class:`FrameTooLargeError` for a
  length prefix over the limit — never a bare ``struct.error`` or a
  silent mis-parse.
* **Deadline reads.**  Socket reads take a per-*frame* deadline, not a
  per-``recv`` timeout: a slow-loris peer trickling one byte per
  timeout window still gets cut off when the frame's total budget is
  spent.

Dtypes on the wire: DCPE ciphertexts as little-endian float32 (the
paper's cost-model accounting, via :mod:`repro.crypto.serialization`),
DCE trapdoors and result payloads as float64/int64 — the refine phase's
comparison algebra must survive the wire bit-identically.
"""

from __future__ import annotations

import enum
import json
import socket
import struct
import time

import numpy as np

from repro.core.errors import PPANNSError
from repro.core.protocol import (
    EncryptedQueryBatch,
    SearchRequest,
    SearchResult,
    SearchResultBatch,
)
from repro.crypto.serialization import (
    bytes_to_vectors,
    bytes_to_vectors_f64,
    vectors_to_bytes,
    vectors_to_bytes_f64,
)

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "PROTOCOL_VERSION_MAX",
    "HEADER_SIZE",
    "DEFAULT_MAX_BODY_BYTES",
    "MessageType",
    "ErrorCode",
    "WireFormatError",
    "TruncatedFrameError",
    "FrameTooLargeError",
    "encode_frame",
    "decode_frame",
    "parse_header",
    "encode_hello",
    "decode_hello",
    "encode_hello_ok",
    "decode_hello_ok",
    "encode_query_batch",
    "decode_query_batch",
    "encode_query_batch_v2",
    "decode_query_batch_v2",
    "query_frame_size",
    "encode_result_batch",
    "decode_result_batch",
    "encode_error",
    "decode_error",
    "encode_error_v2",
    "decode_error_v2",
    "encode_stats",
    "decode_stats",
    "send_frame",
    "read_frame_from",
]

#: Frame magic: every conforming stream starts each frame with these bytes.
MAGIC = b"PPAN"

#: Wire protocol version; bumped on any incompatible layout change.
#: The frame *header* byte stays 1 — protocol v2 is purely additive
#: (new message types, negotiated via HELLO_OK), so v1 peers keep
#: parsing every frame a conforming peer will actually send them.
PROTOCOL_VERSION = 1

#: Highest *negotiable* protocol version this build understands.  The
#: server advertises it in the HELLO_OK body; both sides then speak
#: ``min(client max, server max)``.  An empty HELLO_OK body — what a
#: pre-negotiation server sends — decodes as version 1.
PROTOCOL_VERSION_MAX = 2

#: Default cap on a frame's body length (16 MiB).
DEFAULT_MAX_BODY_BYTES = 16 * 1024 * 1024

_HEADER = struct.Struct("<4sBBHI")  # magic, version, type, reserved, body length

#: Size of the fixed frame header in bytes.
HEADER_SIZE = _HEADER.size

# QUERY body prefix: key_id, n, d, trapdoor_dim, k, ratio_k, ef_search,
# mode, 3 pad bytes.  ratio_k / ef_search use -1 to encode None.
_QUERY_PREFIX = struct.Struct("<qIIIIiiB3x")

# RESULT body prefix: row count, wall_seconds (NaN encodes None).
_RESULT_PREFIX = struct.Struct("<Id")

# HELLO body prefix: key_id, token length.
_HELLO_PREFIX = struct.Struct("<qH")

# ERROR body prefix: error code.
_ERROR_PREFIX = struct.Struct("<H")

# v2 QUERY body prefix: the v1 fields plus deadline_ms (0 encodes None).
_QUERY_V2_PREFIX = struct.Struct("<qIIIIiiB3xI")

# v2 ERROR body prefix: error code, retry-after seconds (NaN encodes None).
_ERROR_V2_PREFIX = struct.Struct("<Hd")

# HELLO_OK body (v2+): the server's highest negotiable protocol version.
_HELLO_OK_PREFIX = struct.Struct("<B")

_MODE_CODES = {"full": 0, "filter_only": 1}
_MODE_NAMES = {code: name for name, code in _MODE_CODES.items()}


class MessageType(enum.IntEnum):
    """Frame type tags (the header's ``message type`` byte)."""

    HELLO = 1  #: client → server: key_id + token authentication
    HELLO_OK = 2  #: server → client: authentication accepted (empty body)
    QUERY = 3  #: client → server: one EncryptedQueryBatch envelope
    RESULT = 4  #: server → client: the SearchResultBatch answer
    ERROR = 5  #: server → client: typed failure for the preceding frame
    STATS = 6  #: client → server: request the tenancy/metrics view
    STATS_OK = 7  #: server → client: JSON stats payload
    QUERY_V2 = 8  #: client → server: QUERY envelope + deadline_ms (v2 only)


class ErrorCode(enum.IntEnum):
    """ERROR-frame codes; the client maps them back to typed exceptions."""

    AUTH = 1  #: authentication failed (unknown tenant / bad token)
    QUOTA = 2  #: per-tenant admission quota exhausted
    BUSY = 3  #: global admission queue full (QueueFullError)
    FORMAT = 4  #: malformed or oversized frame
    PARAMETER = 5  #: invalid search parameters
    KEY = 6  #: trapdoor key does not match the index
    INTERNAL = 7  #: any other server-side failure
    DEADLINE = 8  #: the query's deadline budget expired before execution


class WireFormatError(PPANNSError):
    """A frame violates the wire layout (bad magic, version, or body)."""


class TruncatedFrameError(WireFormatError):
    """The stream ended (or the buffer ran out) in the middle of a frame."""


class FrameTooLargeError(WireFormatError):
    """A frame's length prefix exceeds the configured body cap."""


# -- frame layer -------------------------------------------------------------------


def encode_frame(msg_type: MessageType, body: bytes = b"") -> bytes:
    """Wrap a message body in the 12-byte framed header."""
    return _HEADER.pack(
        MAGIC, PROTOCOL_VERSION, int(msg_type), 0, len(body)
    ) + body


def parse_header(
    header: bytes, max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
) -> "tuple[MessageType, int]":
    """Validate a frame header; returns ``(message type, body length)``.

    Raises :class:`TruncatedFrameError` for a short header,
    :class:`FrameTooLargeError` for a length prefix over
    ``max_body_bytes``, and :class:`WireFormatError` for bad magic,
    version, reserved bits, or an unknown message type.  The body is
    *not* read here — oversized frames are refused before any body
    byte is consumed.
    """
    if len(header) < HEADER_SIZE:
        raise TruncatedFrameError(
            f"frame header is {len(header)} bytes, need {HEADER_SIZE}"
        )
    magic, version, type_code, reserved, length = _HEADER.unpack(
        header[:HEADER_SIZE]
    )
    if magic != MAGIC:
        raise WireFormatError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise WireFormatError(
            f"unsupported protocol version {version} "
            f"(this side speaks {PROTOCOL_VERSION})"
        )
    if reserved != 0:
        raise WireFormatError(f"reserved header bits must be zero, got {reserved}")
    try:
        msg_type = MessageType(type_code)
    except ValueError:
        raise WireFormatError(f"unknown message type {type_code}") from None
    if length > max_body_bytes:
        raise FrameTooLargeError(
            f"frame body of {length} bytes exceeds the {max_body_bytes}-byte cap"
        )
    return msg_type, length


def decode_frame(
    data: bytes, max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
) -> "tuple[MessageType, bytes, int]":
    """Parse one frame from a byte buffer.

    Returns ``(message type, body, bytes consumed)``.  Raises
    :class:`TruncatedFrameError` when the buffer ends mid-frame — the
    streaming caller's signal to wait for more bytes — and the same
    typed errors as :func:`parse_header` for corruption.
    """
    msg_type, length = parse_header(data, max_body_bytes)
    end = HEADER_SIZE + length
    if len(data) < end:
        raise TruncatedFrameError(
            f"frame body needs {length} bytes, buffer holds {len(data) - HEADER_SIZE}"
        )
    return msg_type, data[HEADER_SIZE:end], end


# -- message bodies ----------------------------------------------------------------


def encode_hello(key_id: int, token: str | None = None) -> bytes:
    """HELLO body: the tenant's ``key_id`` plus its UTF-8 auth token."""
    raw = (token or "").encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WireFormatError(f"auth token of {len(raw)} bytes exceeds 65535")
    return _HELLO_PREFIX.pack(int(key_id), len(raw)) + raw


def decode_hello(body: bytes) -> "tuple[int, str]":
    """Inverse of :func:`encode_hello`; returns ``(key_id, token)``."""
    if len(body) < _HELLO_PREFIX.size:
        raise TruncatedFrameError(
            f"HELLO body is {len(body)} bytes, need >= {_HELLO_PREFIX.size}"
        )
    key_id, token_len = _HELLO_PREFIX.unpack(body[: _HELLO_PREFIX.size])
    raw = body[_HELLO_PREFIX.size:]
    if len(raw) != token_len:
        raise WireFormatError(
            f"HELLO token length {token_len} disagrees with {len(raw)} payload bytes"
        )
    try:
        token = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireFormatError(f"HELLO token is not valid UTF-8: {exc}") from None
    return int(key_id), token


def _query_envelope_fields(
    batch: EncryptedQueryBatch,
) -> "tuple[int, int, int, int, int, int, int, int]":
    """The envelope prefix fields shared by the v1 and v2 QUERY bodies."""
    request = batch.request
    n, d = batch.sap_vectors.shape
    t_dim = int(batch.trapdoor_vectors.shape[1])
    return (
        int(batch.key_id),
        int(n),
        int(d),
        t_dim,
        int(request.k),
        -1 if request.ratio_k is None else int(request.ratio_k),
        -1 if request.ef_search is None else int(request.ef_search),
        _MODE_CODES[request.mode],
    )


def encode_hello_ok(max_version: int = PROTOCOL_VERSION_MAX) -> bytes:
    """HELLO_OK body: the server's highest negotiable protocol version.

    A v1-era server sent an *empty* HELLO_OK body; a v1-era client
    ignores the body entirely.  Advertising the version here is
    therefore backward compatible in both directions — the negotiated
    version is ``min(client max, server max)``, and an empty body
    decodes as 1.
    """
    if not 1 <= int(max_version) <= 0xFF:
        raise WireFormatError(f"protocol version {max_version} out of range")
    return _HELLO_OK_PREFIX.pack(int(max_version))


def decode_hello_ok(body: bytes) -> int:
    """Inverse of :func:`encode_hello_ok`; an empty body means version 1."""
    if not body:
        return 1
    (version,) = _HELLO_OK_PREFIX.unpack(body[: _HELLO_OK_PREFIX.size])
    if version < 1:
        raise WireFormatError(f"HELLO_OK advertises protocol version {version}")
    return int(version)


def encode_query_batch(batch: EncryptedQueryBatch) -> bytes:
    """QUERY body: the batch envelope plus both ciphertext matrices.

    The envelope carries ``key_id`` explicitly — **not** via the
    trapdoors — so a ``filter_only`` batch with a ``(n, 0)`` trapdoor
    matrix serializes without inventing one.  DCPE ciphertexts go as
    float32 (the FORMATS.md wire accounting), trapdoors as exact
    float64.
    """
    return (
        _QUERY_PREFIX.pack(*_query_envelope_fields(batch))
        + vectors_to_bytes(batch.sap_vectors)
        + vectors_to_bytes_f64(batch.trapdoor_vectors)
    )


def encode_query_batch_v2(
    batch: EncryptedQueryBatch, deadline_ms: int | None = None
) -> bytes:
    """QUERY_V2 body: the v1 envelope plus a per-batch deadline budget.

    ``deadline_ms`` is the client's remaining latency budget in
    milliseconds (0 on the wire encodes "no deadline").  The matrices
    are byte-identical to the v1 layout — v2 only prepends one more
    envelope field.
    """
    if deadline_ms is not None:
        deadline_ms = int(deadline_ms)
        if not 0 < deadline_ms <= 0xFFFFFFFF:
            raise WireFormatError(
                f"deadline_ms must be in [1, {0xFFFFFFFF}], got {deadline_ms}"
            )
    return (
        _QUERY_V2_PREFIX.pack(
            *_query_envelope_fields(batch), 0 if deadline_ms is None else deadline_ms
        )
        + vectors_to_bytes(batch.sap_vectors)
        + vectors_to_bytes_f64(batch.trapdoor_vectors)
    )


def decode_query_batch(body: bytes) -> EncryptedQueryBatch:
    """Inverse of :func:`encode_query_batch`.

    Rejects any body whose length disagrees with its declared shape
    (:class:`TruncatedFrameError` when short, :class:`WireFormatError`
    when over-long or self-inconsistent).
    """
    if len(body) < _QUERY_PREFIX.size:
        raise TruncatedFrameError(
            f"QUERY body is {len(body)} bytes, need >= {_QUERY_PREFIX.size}"
        )
    key_id, n, d, t_dim, k, ratio_k, ef_search, mode_code = _QUERY_PREFIX.unpack(
        body[: _QUERY_PREFIX.size]
    )
    return _decode_query_payload(
        body, _QUERY_PREFIX.size, key_id, n, d, t_dim, k, ratio_k, ef_search,
        mode_code,
    )


def decode_query_batch_v2(
    body: bytes,
) -> "tuple[EncryptedQueryBatch, int | None]":
    """Inverse of :func:`encode_query_batch_v2`.

    Returns ``(batch, deadline_ms)`` where ``deadline_ms`` is ``None``
    when the client declared no budget (0 on the wire).
    """
    if len(body) < _QUERY_V2_PREFIX.size:
        raise TruncatedFrameError(
            f"QUERY_V2 body is {len(body)} bytes, need >= {_QUERY_V2_PREFIX.size}"
        )
    (
        key_id, n, d, t_dim, k, ratio_k, ef_search, mode_code, deadline_ms,
    ) = _QUERY_V2_PREFIX.unpack(body[: _QUERY_V2_PREFIX.size])
    batch = _decode_query_payload(
        body, _QUERY_V2_PREFIX.size, key_id, n, d, t_dim, k, ratio_k, ef_search,
        mode_code,
    )
    return batch, None if deadline_ms == 0 else int(deadline_ms)


def _decode_query_payload(
    body: bytes,
    prefix_size: int,
    key_id: int,
    n: int,
    d: int,
    t_dim: int,
    k: int,
    ratio_k: int,
    ef_search: int,
    mode_code: int,
) -> EncryptedQueryBatch:
    """Decode the matrices + request shared by the v1 and v2 bodies."""
    if mode_code not in _MODE_NAMES:
        raise WireFormatError(f"unknown search-mode code {mode_code}")
    sap_bytes = n * d * 4
    trap_bytes = n * t_dim * 8
    expected = prefix_size + sap_bytes + trap_bytes
    if len(body) < expected:
        raise TruncatedFrameError(
            f"QUERY body declares ({n}, {d}) + ({n}, {t_dim}) matrices "
            f"({expected} bytes) but carries {len(body)}"
        )
    if len(body) != expected:
        raise WireFormatError(
            f"QUERY body carries {len(body) - expected} trailing bytes"
        )
    try:
        request = SearchRequest(
            k=int(k),
            ratio_k=None if ratio_k < 0 else int(ratio_k),
            ef_search=None if ef_search < 0 else int(ef_search),
            mode=_MODE_NAMES[mode_code],
        )
    except PPANNSError as exc:
        raise WireFormatError(f"QUERY carries invalid parameters: {exc}") from None
    sap_end = prefix_size + sap_bytes
    if d > 0:
        sap = bytes_to_vectors(body[prefix_size:sap_end], d)
        if sap.shape[0] != n:
            raise WireFormatError(
                f"QUERY SAP payload holds {sap.shape[0]} rows, declared {n}"
            )
    else:
        raise WireFormatError("QUERY declares zero-dimensional ciphertexts")
    if t_dim > 0:
        trapdoors = bytes_to_vectors_f64(body[sap_end:expected], t_dim)
    else:
        trapdoors = np.zeros((n, 0))
    try:
        return EncryptedQueryBatch(sap, trapdoors, int(key_id), request)
    except PPANNSError as exc:
        raise WireFormatError(f"QUERY payload is inconsistent: {exc}") from None


def query_frame_size(n: int, d: int, trapdoor_dim: int) -> int:
    """Total bytes of a QUERY frame for a declared batch shape.

    Header + envelope prefix + ``4nd`` float32 SAP bytes +
    ``8 * n * trapdoor_dim`` float64 trapdoor bytes; the size
    accounting doctested in ``docs/FORMATS.md``.
    """
    return HEADER_SIZE + _QUERY_PREFIX.size + 4 * n * d + 8 * n * trapdoor_dim


def encode_result_batch(results: SearchResultBatch) -> bytes:
    """RESULT body: ragged per-query id rows plus the batch wall clock.

    Only what the user is entitled to travels — the neighbor ids and
    the batch throughput clock.  Server-side instrumentation (stage
    splits, shard timings, comparison counts) never crosses the wire.
    """
    rows = [np.asarray(result.ids, dtype="<i8") for result in results]
    wall = results.wall_seconds
    parts = [
        _RESULT_PREFIX.pack(len(rows), float("nan") if wall is None else wall),
        np.asarray([row.shape[0] for row in rows], dtype="<u4").tobytes(),
    ]
    parts.extend(row.tobytes() for row in rows)
    return b"".join(parts)


def decode_result_batch(body: bytes) -> SearchResultBatch:
    """Inverse of :func:`encode_result_batch`."""
    if len(body) < _RESULT_PREFIX.size:
        raise TruncatedFrameError(
            f"RESULT body is {len(body)} bytes, need >= {_RESULT_PREFIX.size}"
        )
    n, wall = _RESULT_PREFIX.unpack(body[: _RESULT_PREFIX.size])
    lengths_end = _RESULT_PREFIX.size + 4 * n
    if len(body) < lengths_end:
        raise TruncatedFrameError(
            f"RESULT body declares {n} rows but truncates the length table"
        )
    lengths = np.frombuffer(
        body[_RESULT_PREFIX.size:lengths_end], dtype="<u4"
    ).astype(np.int64)
    expected = lengths_end + 8 * int(lengths.sum())
    if len(body) < expected:
        raise TruncatedFrameError(
            f"RESULT body needs {expected} bytes for its id rows, has {len(body)}"
        )
    if len(body) != expected:
        raise WireFormatError(
            f"RESULT body carries {len(body) - expected} trailing bytes"
        )
    flat = np.frombuffer(body[lengths_end:expected], dtype="<i8").astype(np.int64)
    results, offset = [], 0
    for length in lengths:
        results.append(SearchResult(ids=flat[offset:offset + length].copy()))
        offset += int(length)
    return SearchResultBatch(
        results, wall_seconds=None if np.isnan(wall) else float(wall)
    )


def encode_error(code: ErrorCode, message: str) -> bytes:
    """ERROR body: a typed code plus a human-readable UTF-8 message."""
    return _ERROR_PREFIX.pack(int(code)) + message.encode("utf-8")


def decode_error(body: bytes) -> "tuple[ErrorCode, str]":
    """Inverse of :func:`encode_error`; unknown codes map to INTERNAL."""
    if len(body) < _ERROR_PREFIX.size:
        raise TruncatedFrameError(
            f"ERROR body is {len(body)} bytes, need >= {_ERROR_PREFIX.size}"
        )
    (code,) = _ERROR_PREFIX.unpack(body[: _ERROR_PREFIX.size])
    try:
        error_code = ErrorCode(code)
    except ValueError:
        error_code = ErrorCode.INTERNAL
    return error_code, body[_ERROR_PREFIX.size:].decode("utf-8", errors="replace")


def encode_error_v2(
    code: ErrorCode, message: str, retry_after: float | None = None
) -> bytes:
    """v2 ERROR body: code, retry-after hint, then the UTF-8 message.

    ``retry_after`` is the server's advice (in seconds) on when a
    retry might succeed — populated for load-shedding refusals (BUSY,
    QUOTA) and NaN-encoded as "no hint" otherwise.  Only sent on
    connections that negotiated protocol v2; v1 peers get the
    :func:`encode_error` layout.
    """
    hint = float("nan") if retry_after is None else float(retry_after)
    return _ERROR_V2_PREFIX.pack(int(code), hint) + message.encode("utf-8")


def decode_error_v2(body: bytes) -> "tuple[ErrorCode, str, float | None]":
    """Inverse of :func:`encode_error_v2`; unknown codes map to INTERNAL."""
    if len(body) < _ERROR_V2_PREFIX.size:
        raise TruncatedFrameError(
            f"v2 ERROR body is {len(body)} bytes, need >= {_ERROR_V2_PREFIX.size}"
        )
    code, hint = _ERROR_V2_PREFIX.unpack(body[: _ERROR_V2_PREFIX.size])
    try:
        error_code = ErrorCode(code)
    except ValueError:
        error_code = ErrorCode.INTERNAL
    message = body[_ERROR_V2_PREFIX.size:].decode("utf-8", errors="replace")
    return error_code, message, None if np.isnan(hint) else float(hint)


def encode_stats(payload: dict) -> bytes:
    """STATS_OK body: the tenancy/metrics view as UTF-8 JSON."""
    return json.dumps(payload).encode("utf-8")


def decode_stats(body: bytes) -> dict:
    """Inverse of :func:`encode_stats`."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError(f"STATS_OK body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise WireFormatError("STATS_OK body must be a JSON object")
    return payload


# -- socket transport --------------------------------------------------------------


def send_frame(sock: socket.socket, msg_type: MessageType, body: bytes = b"") -> None:
    """Write one complete frame to a connected socket."""
    sock.sendall(encode_frame(msg_type, body))


def _recv_exact(
    sock: socket.socket,
    count: int,
    deadline: float | None,
    allow_clean_eof: bool = False,
) -> bytes | None:
    """Read exactly ``count`` bytes, racing a per-frame deadline.

    Every ``recv`` gets only the *remaining* budget — a peer trickling
    one byte per call (slow loris) cannot reset the clock; the whole
    frame must arrive within the deadline or ``socket.timeout`` fires.
    ``allow_clean_eof`` returns ``None`` when the peer closes before
    the first byte (a normal end of stream); mid-read EOF always
    raises :class:`TruncatedFrameError`.
    """
    chunks: list[bytes] = []
    received = 0
    while received < count:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise socket.timeout("frame deadline exceeded")
            sock.settimeout(remaining)
        chunk = sock.recv(count - received)
        if not chunk:
            if not chunks and allow_clean_eof:
                return None
            raise TruncatedFrameError(
                f"peer closed the stream {count - received} bytes short of a frame"
            )
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def read_frame_from(
    sock: socket.socket,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    timeout: float | None = None,
) -> "tuple[MessageType, bytes] | None":
    """Read one frame off a socket; ``None`` on a clean end of stream.

    ``timeout`` bounds the **whole frame** (header + body) — see
    :func:`_recv_exact` for the slow-loris rationale.  The header is
    validated before the body is read, so a frame whose length prefix
    exceeds ``max_body_bytes`` raises :class:`FrameTooLargeError`
    without buffering its body.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    header = _recv_exact(sock, HEADER_SIZE, deadline, allow_clean_eof=True)
    if header is None:
        return None
    msg_type, length = parse_header(header, max_body_bytes)
    body = _recv_exact(sock, length, deadline) if length else b""
    return msg_type, body
