"""Multi-stream container tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compress.streams import pack_streams, stream_sizes, unpack_streams
from repro.errors import (
    CorruptStreamError, DecodeError, ResourceLimitError, ResourceLimits,
)


def test_roundtrip_basic():
    streams = {"ops": b"abcabcabc" * 50, "lits": bytes(range(100))}
    assert unpack_streams(pack_streams(streams)) == streams


def test_empty_container():
    assert unpack_streams(pack_streams({})) == {}


def test_empty_stream_preserved():
    streams = {"empty": b"", "one": b"x"}
    assert unpack_streams(pack_streams(streams)) == streams


def test_uncompressed_mode():
    streams = {"a": b"zz" * 100}
    blob = pack_streams(streams, compress=False)
    assert unpack_streams(blob) == streams
    # Raw mode must store payload verbatim (container adds only framing).
    assert len(blob) >= 200


def test_tiny_streams_stored_raw_when_compression_loses():
    streams = {"tiny": b"ab"}
    blob = pack_streams(streams)
    assert unpack_streams(blob) == streams
    assert len(blob) < 30


def test_compression_applied_to_large_redundant_streams():
    streams = {"big": b"abcdefgh" * 1000}
    assert len(pack_streams(streams)) < 2000


def test_unicode_stream_names():
    streams = {"ADDRLP8": b"\x01", "CNSTI16": b"\x02\x03"}
    assert unpack_streams(pack_streams(streams)) == streams


def test_truncated_container_raises():
    blob = pack_streams({"a": b"hello world"})
    with pytest.raises((EOFError, ValueError)):
        unpack_streams(blob[:-3])


def test_stream_sizes_reports_both():
    sizes = stream_sizes({"s": b"qq" * 200})
    raw, packed = sizes["s"]
    assert raw == 400
    assert packed < raw


@given(st.dictionaries(st.text(min_size=1, max_size=10), st.binary(max_size=500),
                       max_size=8))
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(streams):
    assert unpack_streams(pack_streams(streams)) == streams

# ---------------------------------------------------------------------------
# integrity checking and typed errors
# ---------------------------------------------------------------------------


def test_checksummed_roundtrip():
    streams = {"ops": b"abc" * 100, "lits": bytes(range(64))}
    blob = pack_streams(streams, checksums=True)
    assert unpack_streams(blob) == streams
    # Checksums cost exactly 4 bytes per stream over the unchecked form.
    assert len(blob) == len(pack_streams(streams)) + 4 * len(streams)


def test_crc_mismatch_detected():
    blob = bytearray(pack_streams({"s": b"payload bytes here"},
                                  checksums=True))
    blob[-3] ^= 0x40  # flip a payload bit, not the CRC itself
    with pytest.raises(CorruptStreamError):
        unpack_streams(bytes(blob))


def test_legacy_entries_without_crc_still_decode():
    streams = {"s": b"old format data" * 10}
    assert unpack_streams(pack_streams(streams, checksums=False)) == streams


def test_unknown_flags_rejected():
    blob = bytearray(pack_streams({"s": b"x"}))
    # The flag byte follows count(1) + name_len(1) + name(1).
    assert blob[3] in (0, 1)
    blob[3] |= 0x80
    with pytest.raises(CorruptStreamError):
        unpack_streams(bytes(blob))


def test_forged_stream_count_hits_limit_not_memory():
    blob = bytearray(pack_streams({"s": b"x"}))
    forged = b"\xff\xff\xff\xff\x7f" + bytes(blob[1:])  # count = 2^34-ish
    with pytest.raises(ResourceLimitError):
        unpack_streams(bytes(forged))


def test_custom_limits_enforced():
    streams = {f"s{i}": b"x" for i in range(8)}
    blob = pack_streams(streams)
    with pytest.raises(ResourceLimitError):
        unpack_streams(blob, limits=ResourceLimits(max_streams=4))


def test_errors_are_decode_errors():
    try:
        unpack_streams(pack_streams({"a": b"hello world"})[:-3])
    except DecodeError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected a DecodeError subclass")


# ---------------------------------------------------------------------------
# flag bytes outside deflate + CRC32
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flags", [4, 5])
def test_retired_codec_flags_rejected(flags):
    """Bit 4 once marked an arithmetic-coded payload (5: deflate and
    arith at once).  No writer sets it any more, so a reader must refuse
    it as corrupt rather than guess at the payload."""
    blob = bytearray(pack_streams({"s": b"qq" * 300}))
    # count(1) + name_len(1) + name(1), then the flag byte.
    assert blob[3] == 1
    blob[3] = flags
    with pytest.raises(CorruptStreamError,
                       match=f"unknown stream flags {flags:#x}"):
        unpack_streams(bytes(blob))
