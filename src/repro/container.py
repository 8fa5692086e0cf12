"""Seekable (v3) containers: the layout WIR3 and BRI3 share.

The paper's motivating scenario is demand-paging compressed code: a
client should be able to page in *one function* without downloading (or
decompressing) the whole unit.  Both v3 containers therefore group
functions into *chunks* — independently decodable, CRC-framed byte
extents — behind a block index that maps every function to the chunk
holding it and every chunk to its (offset, length, CRC32) in the blob::

    magic(4) | crc32(header) u32 LE | uvarint len(stored) | stored | chunks

    header = body | uvarint nchunks | per chunk: uvarint offset,
                                      uvarint length, crc32 u32 LE

The CRC covers the raw header; ``stored`` is the header as the format
keeps it (wire deflates it, BRISC stores it raw).  Chunk offsets are
relative to the chunk area, which starts right after ``stored``.  The
format-specific ``body`` names every function with its chunk id and its
span length in the *decoded address space* (the concatenated function
images, in module order).

This module owns that framing for both formats: it writes and parses
the prefix and the chunk table, checks chunk bounds and CRCs, builds the
:class:`ContainerIndex`, and serves ``decode_function``,
``decode_range`` and :func:`verify`.  A format supplies a
:class:`Layout` subclass (:mod:`repro.wire.format`,
:mod:`repro.brisc.encode`) holding only what differs: the header body,
how the header is stored, and how one chunk's payload decodes.  The
front doors here (:func:`container_index`, :func:`decode_range_bytes`,
:func:`verify`) pick the layout by the blob's magic, so the service and
CLI never branch on the format themselves.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .compress.bitio import read_uvarint, take_bytes, write_uvarint
from .errors import (
    CorruptStreamError, DEFAULT_LIMITS, ResourceLimits,
    TruncatedStreamError, UnsupportedFormatError, decode_guard,
)

__all__ = [
    "DEFAULT_CHUNK_BYTES",
    "ChunkRecord",
    "ContainerIndex",
    "FunctionRecord",
    "Layout",
    "assemble_sparse",
    "container_index",
    "container_kind",
    "decode_range_bytes",
    "pack_chunks",
    "verify",
]

#: Default chunk-size cap.  Half a (4 KB) page: small enough that a
#: one-function fetch of a typical unit moves a fraction of the blob,
#: large enough that per-chunk framing overhead stays in the noise.
DEFAULT_CHUNK_BYTES = 2048


def pack_chunks(sizes: Sequence[int],
                chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> List[List[int]]:
    """Group function indices, in module order, into chunks of at most
    ``chunk_bytes`` summed ``sizes``.

    Functions defined together tend to be called together, so module
    order is the locality the chunks keep.  A function larger than the
    cap gets a chunk of its own: the cap is a target, not a hard bound,
    because functions are atomic.
    """
    if chunk_bytes < 1:
        raise ValueError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
    chunks: List[List[int]] = []
    used = 0
    for index, size in enumerate(sizes):
        if not chunks or used + size > chunk_bytes:
            chunks.append([])
            used = 0
        chunks[-1].append(index)
        used += size
    return chunks


# ---------------------------------------------------------------------------
# The parsed block index
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChunkRecord:
    """One chunk's extent in the stored blob."""

    index: int
    offset: int          # absolute byte offset of the chunk in the blob
    length: int          # stored bytes
    crc32: int
    members: Tuple[int, ...] = ()   # function indices, ascending


@dataclass(frozen=True)
class FunctionRecord:
    """One function's location: which chunk stores it, and where its
    bytes land in the *decoded* address space (concatenated function
    images in original module order)."""

    index: int
    name: str
    chunk: int
    span_start: int
    span_length: int


@dataclass
class ContainerIndex:
    """The block index of a seekable (v3) container.

    ``header_bytes`` is the prefix (magic, CRCs, header) every partial
    read needs; ``ranges_for_*`` return the minimal sorted list of
    ``(offset, length)`` byte ranges a client must fetch to decode the
    request.  ``span_bytes`` is the total decoded address space.
    """

    kind: str                       # "wire" | "brisc"
    version: int
    total_bytes: int
    header_bytes: int
    functions: List[FunctionRecord] = field(default_factory=list)
    chunks: List[ChunkRecord] = field(default_factory=list)

    @property
    def span_bytes(self) -> int:
        return sum(f.span_length for f in self.functions)

    def function(self, name: str) -> FunctionRecord:
        for record in self.functions:
            if record.name == name:
                return record
        raise _no_function(name, [f.name for f in self.functions])

    def chunk_of(self, name: str) -> ChunkRecord:
        return self.chunks[self.function(name).chunk]

    def functions_in_span(self, start: int,
                          length: int) -> List[FunctionRecord]:
        """Functions whose decoded span intersects [start, start+length)."""
        if start < 0 or length < 0:
            raise CorruptStreamError(
                f"invalid span request start={start} length={length}")
        end = start + length
        return [f for f in self.functions
                if f.span_length and f.span_start < end
                and start < f.span_start + f.span_length]

    def _ranges(self, chunk_ids: Iterable[int]) -> List[Tuple[int, int]]:
        ranges = [(0, self.header_bytes)]
        for cid in sorted(set(chunk_ids)):
            chunk = self.chunks[cid]
            ranges.append((chunk.offset, chunk.length))
        return _coalesce(ranges)

    def ranges_for_function(self, name: str) -> List[Tuple[int, int]]:
        return self._ranges([self.function(name).chunk])

    def ranges_for_span(self, start: int, length: int) -> List[Tuple[int, int]]:
        return self._ranges(
            f.chunk for f in self.functions_in_span(start, length))


def _no_function(name: str, have: List[str]) -> CorruptStreamError:
    return CorruptStreamError(
        f"container has no function {name!r} (have: {have})")


def _coalesce(ranges: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge overlapping/adjacent (offset, length) ranges."""
    merged: List[Tuple[int, int]] = []
    for offset, length in sorted(ranges):
        if merged and offset <= merged[-1][0] + merged[-1][1]:
            last_off, last_len = merged[-1]
            merged[-1] = (last_off,
                          max(last_len, offset + length - last_off))
        else:
            merged.append((offset, length))
    return merged


def assemble_sparse(total_bytes: int,
                    segments: Iterable[Tuple[int, bytes]]) -> bytes:
    """Rebuild a sparse container from fetched ``(offset, bytes)`` pieces.

    Unfetched regions stay zero.  The result is decodable by
    ``decode_function``/``decode_range`` for any function whose header
    and chunk ranges were fetched — those are the only bytes the partial
    decoders touch, so the zero filler is never read.
    """
    if total_bytes < 0:
        raise ValueError(f"total_bytes must be >= 0, got {total_bytes}")
    blob = bytearray(total_bytes)
    for offset, data in segments:
        if offset < 0 or offset + len(data) > total_bytes:
            raise ValueError(
                f"segment [{offset}, {offset + len(data)}) outside the "
                f"{total_bytes}-byte container")
        blob[offset:offset + len(data)] = data
    return bytes(blob)


# ---------------------------------------------------------------------------
# One format's layout: the shared framing plus the format's hooks
# ---------------------------------------------------------------------------

#: One function as the header body names it: (name, chunk id, span length).
Entry = Tuple[str, int, int]


class Layout:
    """A container format: the v2/v3 reading and v3 framing it shares
    with the other format, plus the hooks where it differs.

    ``shell`` is whatever :meth:`parse_body` rebuilds from the header
    (the wire module skeleton, the BRISC preamble and function
    metadata); :meth:`decode_chunk` turns one chunk's payload into that
    format's decoded functions, keyed by function index.
    """

    kind = ""      # "wire" | "brisc"
    prefix = b""   # the magic without its version byte
    noun = ""      # how error messages name the format
    what = ""      # the decode_guard label of a decode

    # -- hooks -------------------------------------------------------------

    def pack_header(self, header: bytes) -> bytes:
        """The header as stored in the blob (default: raw)."""
        return header

    def unpack_header(self, stored: bytes, limits: ResourceLimits) -> bytes:
        return stored

    def parse_body(self, header: bytes, limits: ResourceLimits
                   ) -> Tuple[Any, List[Entry], int]:
        """Parse the header body; returns (shell, entries, end offset)."""
        raise NotImplementedError

    def decode_chunk(self, shell: Any, payload: bytes, chunk: ChunkRecord,
                     limits: ResourceLimits) -> Dict[int, Any]:
        """Decode one CRC-checked chunk into its member functions."""
        raise NotImplementedError

    def decode_flat(self, blob: bytes, limits: ResourceLimits) -> List[Any]:
        """Every function of a v2 (unchunked) container, fully decoded."""
        raise NotImplementedError

    def span_image(self, fn: Any) -> bytes:
        """A decoded function's bytes in the decoded address space."""
        raise NotImplementedError

    def describe(self, blob: bytes) -> str:
        """Fully decode ``blob`` and say what it holds."""
        raise NotImplementedError

    # -- shared ------------------------------------------------------------

    def version(self, blob: bytes) -> int:
        """The container version byte, validated; typed error otherwise."""
        if blob[:3] != self.prefix:
            raise UnsupportedFormatError(f"not a {self.noun} container")
        if blob[3:4] not in (b"2", b"3"):
            raise UnsupportedFormatError(
                f"{self.noun} container version {blob[3:4]!r} is not "
                f"supported")
        return blob[3] - ord("0")

    def write(self, body: bytes, chunks: Sequence[bytes]) -> bytes:
        """Frame ``body`` and the chunk payloads as a v3 container."""
        header = bytearray(body)
        write_uvarint(header, len(chunks))
        offset = 0
        for chunk in chunks:
            write_uvarint(header, offset)
            write_uvarint(header, len(chunk))
            header.extend(zlib.crc32(chunk).to_bytes(4, "little"))
            offset += len(chunk)
        stored = self.pack_header(bytes(header))
        prefix = bytearray(self.prefix + b"3")
        prefix.extend(zlib.crc32(header).to_bytes(4, "little"))
        write_uvarint(prefix, len(stored))
        return bytes(prefix) + stored + b"".join(chunks)

    def read_index(self, blob: bytes, limits: Optional[ResourceLimits] = None
                   ) -> Tuple[ContainerIndex, Any]:
        """Verify the prefix and parse the header: (index, shell).  No
        chunk is read."""
        limits = limits or DEFAULT_LIMITS
        if self.version(blob) != 3:
            raise UnsupportedFormatError(
                f"{blob[:4]!r} is not a seekable (v3) container")
        with decode_guard(f"{self.noun} container index"):
            crc, pos = take_bytes(blob, 4, 4, f"{self.noun} header CRC")
            size, pos = read_uvarint(blob, pos)
            limits.check(f"{self.noun} header size", size,
                         limits.max_decoded_bytes)
            stored, base = take_bytes(blob, pos, size,
                                      f"{self.noun} container header")
            header = self.unpack_header(stored, limits)
            if zlib.crc32(header) != int.from_bytes(crc, "little"):
                raise CorruptStreamError(
                    f"{self.noun} container header CRC mismatch")
            shell, entries, pos = self.parse_body(header, limits)
            table = _parse_chunk_table(header, pos, limits)
            return _build_index(self.kind, base, entries, table), shell

    def read_chunks(self, blob: bytes, index: ContainerIndex, shell: Any,
                    chunk_ids: Iterable[int],
                    limits: ResourceLimits) -> Dict[int, Any]:
        """Check and decode the given chunks; functions by index."""
        functions: Dict[int, Any] = {}
        with decode_guard(self.what):
            for cid in sorted(set(chunk_ids)):
                chunk = index.chunks[cid]
                functions.update(self.decode_chunk(
                    shell, _chunk_payload(blob, chunk), chunk, limits))
        return functions

    def read_all(self, blob: bytes, limits: ResourceLimits
                 ) -> Tuple[Any, List[Any]]:
        """Fully decode a v3 container: (shell, functions in order)."""
        index, shell = self.read_index(blob, limits)
        functions = self.read_chunks(blob, index, shell,
                                     range(len(index.chunks)), limits)
        return shell, [functions[i] for i in range(len(index.functions))]

    def decode_function(self, blob: bytes, name: str,
                        limits: Optional[ResourceLimits] = None) -> Any:
        """Decode one function by name, touching only its covering chunk.

        On a v3 blob this verifies the header CRC and the target chunk's
        CRC only — corruption elsewhere in the container is invisible,
        which is the isolation property the fuzz harness checks.  v2
        blobs fall back to a full decode.  The result is exactly the
        function a full decode would return.
        """
        limits = limits or DEFAULT_LIMITS
        if self.version(blob) != 3:
            functions = self.decode_flat(blob, limits)
            for fn in functions:
                if fn.name == name:
                    return fn
            raise _no_function(name, [fn.name for fn in functions])
        index, shell = self.read_index(blob, limits)
        record = index.function(name)
        return self.read_chunks(blob, index, shell, [record.chunk],
                                limits)[record.index]

    def decode_range(self, blob: bytes, start: int, length: int,
                     limits: Optional[ResourceLimits] = None) -> bytes:
        """Decoded-address-space bytes ``[start, start+length)``.

        Byte-identical to concatenating every function's image after a
        full decode and slicing — but on a v3 blob only the chunks
        covering the requested span are CRC-checked and decoded.
        Out-of-range spans clamp like a Python slice; negative arguments
        raise a typed error.
        """
        limits = limits or DEFAULT_LIMITS
        if start < 0 or length < 0:
            raise CorruptStreamError(
                f"invalid range request start={start} length={length}")
        end = start + length
        if self.version(blob) != 3:
            whole = b"".join(self.span_image(fn)
                             for fn in self.decode_flat(blob, limits))
            return whole[start:end]
        index, shell = self.read_index(blob, limits)
        records = index.functions_in_span(start, length)
        functions = self.read_chunks(
            blob, index, shell, (r.chunk for r in records), limits)
        out = bytearray()
        with decode_guard(self.what):
            for record in records:
                image = self.span_image(functions[record.index])
                if len(image) != record.span_length:
                    raise CorruptStreamError(
                        f"function {record.name!r} decodes to {len(image)} "
                        f"span bytes, the index promises "
                        f"{record.span_length}")
                lo = max(start, record.span_start) - record.span_start
                hi = min(end, record.span_start + record.span_length)
                out.extend(image[lo:hi - record.span_start])
        return bytes(out)


def _parse_chunk_table(header: bytes, pos: int, limits: ResourceLimits
                       ) -> List[Tuple[int, int, int]]:
    """The chunk table that ends every v3 header: (offset, length, crc)."""
    nchunks, pos = read_uvarint(header, pos)
    limits.check("chunk count", nchunks, limits.max_streams)
    if nchunks * 6 > len(header) - pos:  # each chunk costs >= 6 bytes
        raise TruncatedStreamError(
            f"header promises {nchunks} chunks, header too short")
    table: List[Tuple[int, int, int]] = []
    for _ in range(nchunks):
        offset, pos = read_uvarint(header, pos)
        length, pos = read_uvarint(header, pos)
        crc, pos = take_bytes(header, pos, 4, "chunk CRC")
        table.append((offset, length, int.from_bytes(crc, "little")))
    return table


def _build_index(kind: str, base: int, entries: List[Entry],
                 table: List[Tuple[int, int, int]]) -> ContainerIndex:
    index = ContainerIndex(
        kind=kind, version=3,
        total_bytes=base + sum(length for _, length, _ in table),
        header_bytes=base)
    members: Dict[int, List[int]] = {}
    span = 0
    for i, (name, chunk_id, span_length) in enumerate(entries):
        if chunk_id >= len(table):
            raise CorruptStreamError(
                f"function {name!r} references chunk {chunk_id} "
                f"of {len(table)}")
        index.functions.append(
            FunctionRecord(i, name, chunk_id, span, span_length))
        members.setdefault(chunk_id, []).append(i)
        span += span_length
    for cid, (offset, length, crc) in enumerate(table):
        index.chunks.append(ChunkRecord(cid, base + offset, length, crc,
                                        tuple(members.get(cid, ()))))
    return index


def _chunk_payload(blob: bytes, chunk: ChunkRecord) -> bytes:
    """One chunk's stored bytes, bounds- and CRC-checked."""
    if chunk.offset + chunk.length > len(blob):
        raise TruncatedStreamError(
            f"chunk {chunk.index} extent [{chunk.offset}, "
            f"{chunk.offset + chunk.length}) beyond the {len(blob)}-byte "
            f"container")
    payload = blob[chunk.offset:chunk.offset + chunk.length]
    if zlib.crc32(payload) != chunk.crc32:
        raise CorruptStreamError(f"chunk {chunk.index} CRC mismatch")
    return payload


# ---------------------------------------------------------------------------
# Front doors: pick the layout by magic
# ---------------------------------------------------------------------------


def _layout(blob: bytes) -> Layout:
    if blob[:3] == b"WIR":
        from .wire.format import WIRE

        return WIRE
    if blob[:3] == b"BRI":
        from .brisc.encode import BRISC

        return BRISC
    raise UnsupportedFormatError(
        f"unrecognized container magic {blob[:4]!r}")


def container_kind(blob: bytes) -> str:
    """``"wire"`` or ``"brisc"``, by magic; typed error otherwise."""
    return _layout(blob).kind


def container_index(blob: bytes,
                    limits: Optional[ResourceLimits] = None) -> ContainerIndex:
    """Parse the block index of a seekable container (either format)."""
    return _layout(blob).read_index(blob, limits)[0]


def decode_range_bytes(blob: bytes, start: int, length: int,
                       limits: Optional[ResourceLimits] = None) -> bytes:
    """``decode_range`` for either format."""
    return _layout(blob).decode_range(blob, start, length, limits)


def verify(blob: bytes, function: Optional[str] = None) -> str:
    """Integrity-check a container of either format and version.

    Decodes the whole container, or with ``function`` only the chunks
    covering that function (so sparse containers from a range fetch
    verify too).  Returns a one-line description; raises
    :class:`~repro.errors.UnsupportedFormatError` for an unknown magic
    or version and another :class:`~repro.errors.DecodeError` for
    corruption.
    """
    layout = _layout(blob)
    if function is None:
        return layout.describe(blob)
    fn = layout.decode_function(blob, function)
    return f"{layout.noun} function {fn.name!r}"
