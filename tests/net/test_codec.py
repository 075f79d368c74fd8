"""Wire-codec tests: round trips, size accounting, typed rejection.

The codec's contract (normative layout in ``docs/FORMATS.md``):

1. **Round trip** — every message body survives encode/decode for
   arbitrary batch shapes, including the ``filter_only`` zero-trapdoor
   ``(n, 0)`` edge (the envelope carries ``key_id``, so no trapdoor is
   ever invented to hold it).
2. **Exactness where it matters** — trapdoors (float64) and result ids
   (int64) are bit-identical across the wire; DCPE ciphertexts travel
   as float32 and re-encoding a decoded batch is **idempotent** (the
   second round trip changes nothing), which is what lets the bench
   prove socket/in-process id parity.
3. **Typed rejection** — truncation raises :class:`TruncatedFrameError`,
   an over-limit length prefix :class:`FrameTooLargeError`, and any
   other corruption :class:`WireFormatError`; never a bare
   ``struct.error`` or a silent mis-parse.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import (
    EncryptedQueryBatch,
    SearchRequest,
    SearchResult,
    SearchResultBatch,
)
from repro.net import codec
from repro.net.codec import (
    DEFAULT_MAX_BODY_BYTES,
    HEADER_SIZE,
    MAGIC,
    ErrorCode,
    FrameTooLargeError,
    MessageType,
    TruncatedFrameError,
    WireFormatError,
)

_SETTINGS = settings(max_examples=40, deadline=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
ns = st.integers(min_value=1, max_value=6)
dims = st.integers(min_value=1, max_value=12)
modes = st.sampled_from(["full", "filter_only"])


def _make_batch(n, d, mode, seed, k=3, ratio_k=None, ef_search=None):
    rng = np.random.default_rng(seed)
    t_dim = 0 if mode == "filter_only" else 2 * d + 16
    return EncryptedQueryBatch(
        rng.standard_normal((n, d)) * 100.0,
        rng.standard_normal((n, t_dim)) * 50.0,
        key_id=int(rng.integers(-(2**62), 2**62)),
        request=SearchRequest(k=k, ratio_k=ratio_k, ef_search=ef_search, mode=mode),
    )


class TestFrameLayer:
    def test_frame_roundtrip(self):
        body = b"payload-bytes"
        frame = codec.encode_frame(MessageType.QUERY, body)
        msg_type, got, consumed = codec.decode_frame(frame)
        assert msg_type is MessageType.QUERY
        assert got == body
        assert consumed == len(frame) == HEADER_SIZE + len(body)

    def test_empty_body_frame(self):
        frame = codec.encode_frame(MessageType.HELLO_OK)
        msg_type, body, consumed = codec.decode_frame(frame)
        assert msg_type is MessageType.HELLO_OK
        assert body == b""
        assert consumed == HEADER_SIZE

    def test_truncated_header_rejected(self):
        frame = codec.encode_frame(MessageType.QUERY, b"xy")
        for cut in range(HEADER_SIZE):
            with pytest.raises(TruncatedFrameError):
                codec.decode_frame(frame[:cut])

    def test_truncated_body_rejected(self):
        frame = codec.encode_frame(MessageType.QUERY, b"0123456789")
        for cut in range(HEADER_SIZE, len(frame)):
            with pytest.raises(TruncatedFrameError):
                codec.decode_frame(frame[:cut])

    def test_bad_magic_rejected(self):
        frame = bytearray(codec.encode_frame(MessageType.QUERY, b"x"))
        frame[0] ^= 0xFF
        with pytest.raises(WireFormatError, match="magic"):
            codec.decode_frame(bytes(frame))

    def test_bad_version_rejected(self):
        frame = bytearray(codec.encode_frame(MessageType.QUERY, b"x"))
        frame[4] = codec.PROTOCOL_VERSION + 1
        with pytest.raises(WireFormatError, match="version"):
            codec.decode_frame(bytes(frame))

    def test_unknown_message_type_rejected(self):
        frame = bytearray(codec.encode_frame(MessageType.QUERY, b"x"))
        frame[5] = 200
        with pytest.raises(WireFormatError, match="message type"):
            codec.decode_frame(bytes(frame))

    def test_nonzero_reserved_bits_rejected(self):
        frame = bytearray(codec.encode_frame(MessageType.QUERY, b"x"))
        frame[6] = 1
        with pytest.raises(WireFormatError, match="reserved"):
            codec.decode_frame(bytes(frame))

    def test_over_limit_length_prefix_rejected_as_too_large(self):
        # A tiny declared cap: the header alone must trigger the refusal.
        frame = codec.encode_frame(MessageType.QUERY, b"a" * 100)
        with pytest.raises(FrameTooLargeError):
            codec.decode_frame(frame, max_body_bytes=50)

    def test_typed_errors_are_wire_format_errors(self):
        assert issubclass(TruncatedFrameError, WireFormatError)
        assert issubclass(FrameTooLargeError, WireFormatError)

    @given(corrupt_at=st.integers(min_value=0, max_value=HEADER_SIZE - 1),
           xor=st.integers(min_value=1, max_value=255))
    @_SETTINGS
    def test_any_header_corruption_is_typed(self, corrupt_at, xor):
        """Flipping any header byte either still parses (a benign length
        or type change) or raises a typed WireFormatError — never a raw
        struct/codec exception."""
        frame = bytearray(codec.encode_frame(MessageType.STATS, b"{}"))
        frame[corrupt_at] ^= xor
        try:
            codec.decode_frame(bytes(frame))
        except WireFormatError:
            pass  # the typed rejection contract

    def test_magic_constant(self):
        assert MAGIC == b"PPAN"
        assert codec.encode_frame(MessageType.HELLO)[:4] == MAGIC


class TestQueryBatchBodies:
    @given(n=ns, d=dims, mode=modes, seed=seeds)
    @_SETTINGS
    def test_roundtrip_arbitrary_shapes(self, n, d, mode, seed):
        batch = _make_batch(n, d, mode, seed)
        decoded = codec.decode_query_batch(codec.encode_query_batch(batch))
        assert decoded.key_id == batch.key_id
        assert decoded.request == batch.request
        # Trapdoors are float64 on the wire: exact.
        assert np.array_equal(decoded.trapdoor_vectors, batch.trapdoor_vectors)
        # Ciphertexts are float32 on the wire: f32-close...
        assert np.allclose(decoded.sap_vectors, batch.sap_vectors, rtol=1e-6)
        # ...and a second round trip is idempotent (bit-identical).
        again = codec.decode_query_batch(codec.encode_query_batch(decoded))
        assert np.array_equal(again.sap_vectors, decoded.sap_vectors)
        assert np.array_equal(again.trapdoor_vectors, decoded.trapdoor_vectors)

    @given(n=ns, d=dims, seed=seeds)
    @_SETTINGS
    def test_filter_only_zero_trapdoor_batch_survives(self, n, d, seed):
        """The satellite fix: a (n, 0) trapdoor matrix round-trips with
        its envelope key_id intact — no spurious trapdoor requirement."""
        batch = _make_batch(n, d, "filter_only", seed)
        assert batch.trapdoor_vectors.shape == (n, 0)
        decoded = codec.decode_query_batch(codec.encode_query_batch(batch))
        assert decoded.key_id == batch.key_id
        assert decoded.trapdoor_vectors.shape == (n, 0)
        assert decoded.request.mode == "filter_only"

    def test_optional_knobs_roundtrip(self):
        batch = _make_batch(2, 4, "full", 7, k=5, ratio_k=4, ef_search=64)
        decoded = codec.decode_query_batch(codec.encode_query_batch(batch))
        assert decoded.request.ratio_k == 4
        assert decoded.request.ef_search == 64
        none_batch = _make_batch(2, 4, "full", 8)
        decoded = codec.decode_query_batch(codec.encode_query_batch(none_batch))
        assert decoded.request.ratio_k is None
        assert decoded.request.ef_search is None

    @given(n=ns, d=dims, mode=modes, seed=seeds)
    @_SETTINGS
    def test_frame_size_accounting(self, n, d, mode, seed):
        batch = _make_batch(n, d, mode, seed)
        frame = codec.encode_frame(
            MessageType.QUERY, codec.encode_query_batch(batch)
        )
        t_dim = batch.trapdoor_vectors.shape[1]
        assert len(frame) == codec.query_frame_size(n, d, t_dim)

    @given(n=ns, d=dims, mode=modes, seed=seeds, fraction=st.floats(0.0, 0.999))
    @_SETTINGS
    def test_truncated_body_rejected_typed(self, n, d, mode, seed, fraction):
        body = codec.encode_query_batch(_make_batch(n, d, mode, seed))
        cut = int(len(body) * fraction)
        with pytest.raises(TruncatedFrameError):
            codec.decode_query_batch(body[:cut])

    def test_trailing_bytes_rejected(self):
        body = codec.encode_query_batch(_make_batch(2, 4, "full", 1))
        with pytest.raises(WireFormatError, match="trailing"):
            codec.decode_query_batch(body + b"\x00")

    def test_unknown_mode_code_rejected(self):
        body = bytearray(codec.encode_query_batch(_make_batch(1, 4, "full", 1)))
        body[codec._QUERY_PREFIX.size - 4] = 9  # the mode byte
        with pytest.raises(WireFormatError, match="mode"):
            codec.decode_query_batch(bytes(body))

    def test_zero_dimension_rejected(self):
        body = bytearray(codec.encode_query_batch(_make_batch(1, 4, "full", 1)))
        body[12:16] = (0).to_bytes(4, "little")  # d = 0
        with pytest.raises(WireFormatError):
            codec.decode_query_batch(bytes(body))

    def test_invalid_parameters_rejected_typed(self):
        body = bytearray(codec.encode_query_batch(_make_batch(1, 4, "full", 1)))
        body[20:24] = (0).to_bytes(4, "little")  # k = 0
        with pytest.raises(WireFormatError, match="parameters"):
            codec.decode_query_batch(bytes(body))


class TestResultBatchBodies:
    @given(
        lengths=st.lists(st.integers(0, 8), min_size=0, max_size=6),
        seed=seeds,
        with_wall=st.booleans(),
    )
    @_SETTINGS
    def test_roundtrip_ragged_rows(self, lengths, seed, with_wall):
        rng = np.random.default_rng(seed)
        results = SearchResultBatch(
            [
                SearchResult(ids=rng.integers(-(2**62), 2**62, size=length))
                for length in lengths
            ],
            wall_seconds=0.125 if with_wall else None,
        )
        decoded = codec.decode_result_batch(codec.encode_result_batch(results))
        assert len(decoded) == len(results)
        for want, got in zip(results, decoded):
            assert np.array_equal(want.ids, got.ids)  # int64: bit-exact
        assert decoded.wall_seconds == (0.125 if with_wall else None)

    def test_truncated_rejected(self):
        body = codec.encode_result_batch(
            SearchResultBatch([SearchResult(ids=np.arange(5))])
        )
        for cut in (2, 10, len(body) - 1):
            with pytest.raises(TruncatedFrameError):
                codec.decode_result_batch(body[:cut])

    def test_trailing_bytes_rejected(self):
        body = codec.encode_result_batch(
            SearchResultBatch([SearchResult(ids=np.arange(3))])
        )
        with pytest.raises(WireFormatError, match="trailing"):
            codec.decode_result_batch(body + b"\x01")


class TestSmallBodies:
    @given(key_id=st.integers(-(2**62), 2**62), token=st.text(max_size=64))
    @_SETTINGS
    def test_hello_roundtrip(self, key_id, token):
        got_key, got_token = codec.decode_hello(codec.encode_hello(key_id, token))
        assert got_key == key_id
        assert got_token == token

    def test_hello_token_length_mismatch_rejected(self):
        body = codec.encode_hello(1, "secret")
        with pytest.raises(WireFormatError):
            codec.decode_hello(body + b"extra")

    def test_oversized_token_rejected_on_encode(self):
        with pytest.raises(WireFormatError):
            codec.encode_hello(1, "x" * 70000)

    @given(code=st.sampled_from(list(ErrorCode)), message=st.text(max_size=80))
    @_SETTINGS
    def test_error_roundtrip(self, code, message):
        got_code, got_message = codec.decode_error(
            codec.encode_error(code, message)
        )
        assert got_code is code
        assert got_message == message

    def test_unknown_error_code_maps_to_internal(self):
        body = (250).to_bytes(2, "little") + b"??"
        code, _ = codec.decode_error(body)
        assert code is ErrorCode.INTERNAL

    def test_stats_roundtrip(self):
        payload = {"key_ids": [1, 2], "tenants": {"1": {"completed": 3}}}
        assert codec.decode_stats(codec.encode_stats(payload)) == payload

    def test_stats_rejects_non_object(self):
        with pytest.raises(WireFormatError):
            codec.decode_stats(b"[1, 2]")
        with pytest.raises(WireFormatError):
            codec.decode_stats(b"not json")

    def test_default_body_cap(self):
        assert DEFAULT_MAX_BODY_BYTES == 16 * 1024 * 1024


class TestProtocolV2:
    """The v2 additions: negotiation, deadline envelope, retry-after."""

    @given(seed=seeds, n=ns, d=dims, mode=modes,
           deadline=st.one_of(st.none(), st.integers(1, 0xFFFFFFFF)))
    @_SETTINGS
    def test_query_v2_roundtrip(self, seed, n, d, mode, deadline):
        batch = _make_batch(n, d, mode, seed)
        body = codec.encode_query_batch_v2(batch, deadline)
        got, got_deadline = codec.decode_query_batch_v2(body)
        assert got_deadline == deadline
        assert got.key_id == batch.key_id
        assert np.array_equal(got.trapdoor_vectors, batch.trapdoor_vectors)
        assert got.request == batch.request

    @given(seed=seeds, n=ns, d=dims, mode=modes)
    @_SETTINGS
    def test_v2_matrices_are_byte_identical_to_v1(self, seed, n, d, mode):
        """v2 only prepends envelope bytes: the ciphertext payload is
        the v1 layout, byte for byte."""
        batch = _make_batch(n, d, mode, seed)
        v1 = codec.encode_query_batch(batch)
        v2 = codec.encode_query_batch_v2(batch, 1234)
        from repro.net.codec import _QUERY_PREFIX, _QUERY_V2_PREFIX

        assert v1[_QUERY_PREFIX.size:] == v2[_QUERY_V2_PREFIX.size:]

    @pytest.mark.parametrize("bad", [0, -1, 0x1_0000_0000])
    def test_bad_deadline_rejected_on_encode(self, bad):
        batch = _make_batch(1, 3, "full", 7)
        with pytest.raises(WireFormatError, match="deadline"):
            codec.encode_query_batch_v2(batch, bad)

    def test_zero_deadline_on_wire_decodes_none(self):
        batch = _make_batch(1, 3, "full", 7)
        body = codec.encode_query_batch_v2(batch, None)
        _, deadline = codec.decode_query_batch_v2(body)
        assert deadline is None

    def test_hello_ok_roundtrip_and_legacy_bodies(self):
        assert codec.decode_hello_ok(codec.encode_hello_ok()) == (
            codec.PROTOCOL_VERSION_MAX
        )
        assert codec.decode_hello_ok(codec.encode_hello_ok(7)) == 7
        # A v1-era server sends an empty HELLO_OK body.
        assert codec.decode_hello_ok(b"") == 1

    @pytest.mark.parametrize("bad", [0, -3, 256])
    def test_hello_ok_version_out_of_range_rejected(self, bad):
        with pytest.raises(WireFormatError):
            codec.encode_hello_ok(bad)

    @given(code=st.sampled_from(list(ErrorCode)), message=st.text(max_size=80),
           hint=st.one_of(st.none(),
                          st.floats(min_value=0.0, max_value=3600.0,
                                    allow_nan=False)))
    @_SETTINGS
    def test_error_v2_roundtrip(self, code, message, hint):
        got_code, got_message, got_hint = codec.decode_error_v2(
            codec.encode_error_v2(code, message, hint)
        )
        assert got_code is code
        assert got_message == message
        assert got_hint == hint

    def test_error_v2_unknown_code_maps_to_internal(self):
        body = codec.encode_error_v2(ErrorCode.BUSY, "x", 1.0)
        body = (250).to_bytes(2, "little") + body[2:]
        code, _, hint = codec.decode_error_v2(body)
        assert code is ErrorCode.INTERNAL
        assert hint == 1.0

    def test_deadline_error_code_exists(self):
        assert ErrorCode.DEADLINE == 8

    def test_negotiation_is_min_of_both_sides(self):
        """The property a v1 peer depends on: min() never exceeds the
        older side, whatever the newer side advertises."""
        for client_max in range(1, 5):
            for server_max in range(1, 5):
                negotiated = min(client_max,
                                 codec.decode_hello_ok(
                                     codec.encode_hello_ok(server_max)))
                assert negotiated <= client_max
                assert negotiated <= server_max
                assert negotiated >= 1
