"""BRISC image serialization: byte encoding and decoding.

An image holds the dictionary (serialized patterns), the Markov successor
tables, global data, and per-function code bytes plus the basic-block
start offsets that make the code randomly addressable.  The decoder
reconstructs a runnable :class:`~repro.vm.instr.VMProgram`; semantics are
preserved exactly (labels are regenerated as ``L<offset>``).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..compress.bitio import read_uvarint, take_bytes, write_uvarint
from ..container import DEFAULT_CHUNK_BYTES, ChunkRecord, Layout, pack_chunks
from ..errors import (
    CorruptStreamError, DEFAULT_LIMITS, ResourceLimits,
    TruncatedStreamError, decode_guard,
)
from ..ir.tree import GlobalData, PtrInit, ScalarInit
from ..vm.instr import Instr, VMFunction, VMProgram
from ..vm.isa import Operand
from .markov import CTX_BB, CTX_ENTRY, ESCAPE, MarkovModel, build_markov
from .pattern import (
    _BYTE_SIZES, _NIBBLE_CLASSES, Burned, DictPattern, deserialize_pattern,
    serialize_pattern,
)
from .slots import SlotProgram

__all__ = [
    "BriscImage", "decode_function", "decode_image", "decode_range",
    "encode_image", "repack_v3",
]

# Fourth magic byte = container version.  "BRI2" carries a CRC32 of the
# entire payload right after the magic, verified before any parsing, so
# corruption is detected up front instead of mid-dictionary-rebuild.
# BRISC is interpreted in place from one monolithic image, so a
# whole-payload CRC plays the role the per-stream CRCs play in the
# (multi-stream) wire container.  "BRI3" is the seekable layout of
# :mod:`repro.container`: the header (dictionary, tables, globals,
# function metadata, block index) carries its own CRC, and the function
# code bytes move into per-chunk extents each with their own CRC — see
# the v3 section below.
_MAGIC = b"BRI2"


@dataclass
class BriscImage:
    """An encoded BRISC program plus its measurement breakdown."""

    blob: bytes
    breakdown: Dict[str, int] = field(default_factory=dict)
    opcode_bytes: int = 0
    operand_bytes: int = 0
    max_successors: int = 0
    pattern_count: int = 0

    def __len__(self) -> int:
        return len(self.blob)

    @property
    def size(self) -> int:
        return len(self.blob)

    @property
    def code_segment_size(self) -> int:
        """Code + dictionary + Markov tables — the paper's metric scope
        ("we compress only code segments"; data/meta are excluded)."""
        return (self.breakdown.get("code", 0)
                + self.breakdown.get("dictionary", 0)
                + self.breakdown.get("tables", 0))


def _zig(v: int) -> int:
    return (v << 1) ^ (v >> 63) if v < 0 else v << 1


def _unzig(z: int) -> int:
    return -(z >> 1) - 1 if z & 1 else z >> 1


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _slot_bytes(
    pattern: DictPattern,
    insns: Tuple[Instr, ...],
    opcode: bytes,
    label_offsets: Dict[str, int],
    symbol_ids: Dict[str, int],
) -> bytes:
    """Opcode byte(s) + packed operand bytes for one slot."""
    out = bytearray(opcode)
    _, classes = pattern.operand_layout()
    values = pattern.wildcard_values(insns)
    assert len(values) == len(classes)
    nibbles: List[int] = []
    wide = bytearray()
    for (cls, value) in values:
        if cls in ("r", "f"):
            nibbles.append(int(value) & 0xF)
        elif cls == "n4":
            nibbles.append((int(value) // 4) & 0xF)
        elif cls in ("b", "h", "w"):
            wide += int(value).to_bytes(_BYTE_SIZES[cls], "little", signed=True)
        elif cls == "l":
            assert isinstance(value, str)
            wide += label_offsets[value].to_bytes(2, "little")
        elif cls == "s":
            assert isinstance(value, str)
            wide += symbol_ids[value].to_bytes(2, "little")
        else:  # d
            wide += struct.pack("<d", float(value))
    for i in range(0, len(nibbles), 2):
        hi = nibbles[i]
        lo = nibbles[i + 1] if i + 1 < len(nibbles) else 0
        out.append((hi << 4) | lo)
    out += wide
    return bytes(out)


#: Interned single-byte opcodes, so the per-slot fast path allocates
#: nothing (escapes still build their 3-byte form).
_OPCODE_BYTES = [bytes([i]) for i in range(256)]


def _opcode_for(reverse_table: Dict[int, int], pid: int) -> bytes:
    """The context-relative opcode byte (with 2-byte escape if needed).

    ``reverse_table`` maps pattern id -> table index (first occurrence),
    precomputed once per context so the per-slot lookup is O(1) instead
    of an O(n) ``list.index`` scan.
    """
    idx = reverse_table.get(pid, ESCAPE)
    if idx < ESCAPE:
        return _OPCODE_BYTES[idx]
    return _OPCODE_BYTES[ESCAPE] + pid.to_bytes(2, "little")


def _pack_globals(out: bytearray, globals_: List[GlobalData]) -> None:
    write_uvarint(out, len(globals_))
    for g in globals_:
        raw = g.name.encode("utf-8")
        write_uvarint(out, len(raw))
        out.extend(raw)
        write_uvarint(out, g.size)
        write_uvarint(out, g.align)
        out.append(1 if g.is_string else 0)
        write_uvarint(out, len(g.items))
        for item in g.items:
            if isinstance(item, ScalarInit):
                if isinstance(item.value, float) or item.size == 8:
                    out.append(1)
                    write_uvarint(out, item.offset)
                    out.extend(struct.pack("<d", float(item.value)))
                else:
                    out.append(0)
                    write_uvarint(out, item.offset)
                    write_uvarint(out, item.size)
                    write_uvarint(out, _zig(int(item.value)))
            else:
                out.append(2)
                write_uvarint(out, item.offset)
                raw = item.symbol.encode("utf-8")
                write_uvarint(out, len(raw))
                out.extend(raw)


def _pack_block_offsets(out: bytearray, offsets: List[int]) -> None:
    """Ascending basic-block start offsets, delta-coded."""
    write_uvarint(out, len(offsets))
    last = 0
    for off in offsets:
        write_uvarint(out, off - last)
        last = off


def _take_block_offsets(data: bytes, pos: int, name: str,
                        code_len: int) -> Tuple[Set[int], int]:
    """Inverse of :func:`_pack_block_offsets`, bounded by the code."""
    nbb, pos = read_uvarint(data, pos)
    if nbb > len(data) - pos:
        raise TruncatedStreamError(
            f"function {name!r} promises {nbb} block offsets, "
            f"image too short")
    offsets: Set[int] = set()
    last = 0
    for _ in range(nbb):
        delta, pos = read_uvarint(data, pos)
        last += delta
        if last > code_len:
            raise CorruptStreamError(
                f"block offset {last} beyond code of {code_len} "
                f"bytes in {name!r}")
        offsets.add(last)
    return offsets, pos


def _take_name(data: bytes, pos: int, what: str) -> Tuple[str, int]:
    n, pos = read_uvarint(data, pos)
    DEFAULT_LIMITS.check(f"{what} length", n, DEFAULT_LIMITS.max_name_bytes)
    raw, pos = take_bytes(data, pos, n, what)
    return raw.decode("utf-8"), pos


def _take_byte(data: bytes, pos: int, what: str) -> Tuple[int, int]:
    if pos >= len(data):
        raise TruncatedStreamError(f"image ends before {what}")
    return data[pos], pos + 1


def _unpack_globals(data: bytes, pos: int) -> Tuple[List[GlobalData], int]:
    count, pos = read_uvarint(data, pos)
    if count > len(data) - pos:  # each global costs several bytes
        raise TruncatedStreamError(
            f"image promises {count} globals, only {len(data) - pos} bytes")
    globals_: List[GlobalData] = []
    for _ in range(count):
        name, pos = _take_name(data, pos, "global name")
        size, pos = read_uvarint(data, pos)
        align, pos = read_uvarint(data, pos)
        flag, pos = _take_byte(data, pos, "global flags")
        is_string = bool(flag)
        nitems, pos = read_uvarint(data, pos)
        if nitems > len(data) - pos:
            raise TruncatedStreamError(
                f"global {name!r} promises {nitems} items, image too short")
        g = GlobalData(name, size, align, is_string=is_string)
        for _ in range(nitems):
            tag, pos = _take_byte(data, pos, "initializer tag")
            offset, pos = read_uvarint(data, pos)
            if tag == 0:
                isize, pos = read_uvarint(data, pos)
                z, pos = read_uvarint(data, pos)
                g.items.append(ScalarInit(offset, isize, _unzig(z)))
            elif tag == 1:
                raw, pos = take_bytes(data, pos, 8, "double initializer")
                g.items.append(ScalarInit(offset, 8, struct.unpack("<d", raw)[0]))
            elif tag == 2:
                symbol, pos = _take_name(data, pos, "pointer symbol")
                g.items.append(PtrInit(offset, symbol))
            else:
                raise CorruptStreamError(f"unknown initializer tag {tag}")
        globals_.append(g)
    return globals_, pos


def encode_image(
    slots: SlotProgram, globals_: List[GlobalData]
) -> Tuple[BriscImage, MarkovModel]:
    """Serialize a slot program into a BRISC image."""
    model, fn_ids = build_markov(slots)
    # Trim stored tables to 255 entries (escape covers the tail).
    stored_tables = {ctx: t[:ESCAPE] for ctx, t in model.tables.items()}
    # Per-context reverse maps (pid -> first index) for O(1) opcode lookup.
    reverse_tables: Dict[int, Dict[int, int]] = {}
    for ctx, table in stored_tables.items():
        reverse: Dict[int, int] = {}
        for i, pid in enumerate(table):
            reverse.setdefault(pid, i)
        reverse_tables[ctx] = reverse
    symbol_ids: Dict[str, int] = {}
    for fn in slots.functions:
        symbol_ids[fn.name] = len(symbol_ids)
    for g in globals_:
        symbol_ids.setdefault(g.name, len(symbol_ids))

    out = bytearray()  # container payload; magic + CRC32 are prepended below
    # Dictionary.
    write_uvarint(out, len(model.patterns))
    dict_start = len(out)
    for pattern in model.patterns:
        out.extend(serialize_pattern(pattern))
    dict_bytes = len(out) - dict_start
    # Tables.
    tables_start = len(out)
    write_uvarint(out, len(stored_tables))
    for ctx in sorted(stored_tables):
        write_uvarint(out, _zig(ctx))
        table = stored_tables[ctx]
        write_uvarint(out, len(table))
        for pid in table:
            write_uvarint(out, pid)
    table_bytes = len(out) - tables_start
    # Globals.
    meta_start = len(out)
    _pack_globals(out, globals_)
    raw = slots.entry.encode("utf-8")
    write_uvarint(out, len(raw))
    out.extend(raw)
    meta_bytes = len(out) - meta_start

    # Functions.
    code_bytes = 0
    opcode_total = 0
    operand_total = 0
    write_uvarint(out, len(slots.functions))
    for fi, fn in enumerate(slots.functions):
        ids = fn_ids[fi]
        # First pass: slot byte offsets (opcode escapes add 2 bytes).
        offsets: List[int] = []
        cursor = 0
        opcodes: List[bytes] = []
        prev: Optional[int] = None
        for i, slot in enumerate(fn.slots):
            if i == 0:
                ctx = CTX_ENTRY
            elif slot.is_block_start:
                ctx = CTX_BB
            else:
                assert prev is not None
                ctx = prev
            opcode = _opcode_for(reverse_tables.get(ctx, {}), ids[i])
            opcodes.append(opcode)
            offsets.append(cursor)
            cursor += len(opcode) + slot.pattern.operand_bytes()
            prev = ids[i]
        total_len = cursor
        label_offsets: Dict[str, int] = {}
        bb_offsets: List[int] = []
        for i, slot in enumerate(fn.slots):
            for label in slot.labels:
                label_offsets[label] = offsets[i]
            if slot.is_block_start and i > 0:
                bb_offsets.append(offsets[i])
        # Second pass: emit.
        body = bytearray()
        for i, slot in enumerate(fn.slots):
            encoded = _slot_bytes(slot.pattern, slot.insns, opcodes[i],
                                  label_offsets, symbol_ids)
            opcode_total += len(opcodes[i])
            operand_total += len(encoded) - len(opcodes[i])
            body += encoded
        assert len(body) == total_len
        code_bytes += total_len

        raw = fn.name.encode("utf-8")
        write_uvarint(out, len(raw))
        out.extend(raw)
        write_uvarint(out, fn.frame_size)
        write_uvarint(out, fn.param_bytes)
        write_uvarint(out, total_len)
        out.extend(body)
        _pack_block_offsets(out, bb_offsets)

    payload = bytes(out)
    image = BriscImage(
        blob=_MAGIC + zlib.crc32(payload).to_bytes(4, "little") + payload,
        breakdown={
            "dictionary": dict_bytes,
            "tables": table_bytes,
            "meta": meta_bytes,
            "code": code_bytes,
        },
        opcode_bytes=opcode_total,
        operand_bytes=operand_total,
        max_successors=model.max_successors(),
        pattern_count=len(model.patterns),
    )
    return image, model


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


@dataclass
class DecodedImage:
    """Parsed image: everything needed to interpret or rebuild a program."""

    patterns: List[DictPattern]
    tables: Dict[int, List[int]]
    globals: List[GlobalData]
    entry: str
    functions: List["DecodedFunction"] = field(default_factory=list)


@dataclass
class DecodedFunction:
    name: str
    frame_size: int
    param_bytes: int
    code: bytes
    bb_offsets: Set[int] = field(default_factory=set)


def _parse_preamble(
    data: bytes, pos: int, limits: ResourceLimits
) -> Tuple[DecodedImage, int, int]:
    """Parse dictionary + tables + globals + entry + function count — the
    part v2 payloads and v3 headers share.  Returns (image shell with no
    functions yet, nfuncs, pos)."""
    npatterns, pos = read_uvarint(data, pos)
    limits.check("pattern count", npatterns, limits.max_patterns)
    if npatterns > len(data) - pos:  # each pattern costs >= 1 byte
        raise TruncatedStreamError(
            f"image promises {npatterns} patterns, "
            f"only {len(data) - pos} bytes remain")
    patterns: List[DictPattern] = []
    for _ in range(npatterns):
        pattern, pos = deserialize_pattern(data, pos)
        patterns.append(pattern)
    ntables, pos = read_uvarint(data, pos)
    if ntables > len(data) - pos:
        raise TruncatedStreamError(
            f"image promises {ntables} tables, image too short")
    tables: Dict[int, List[int]] = {}
    for _ in range(ntables):
        zctx, pos = read_uvarint(data, pos)
        count, pos = read_uvarint(data, pos)
        if count > len(data) - pos:
            raise TruncatedStreamError(
                f"Markov table promises {count} entries, image too short")
        table: List[int] = []
        for _ in range(count):
            pid, pos = read_uvarint(data, pos)
            if pid >= npatterns:
                raise CorruptStreamError(
                    f"Markov table references pattern {pid} "
                    f"of {npatterns}")
            table.append(pid)
        tables[_unzig(zctx)] = table
    globals_, pos = _unpack_globals(data, pos)
    entry, pos = _take_name(data, pos, "entry symbol")
    nfuncs, pos = read_uvarint(data, pos)
    limits.check("function count", nfuncs, limits.max_functions)
    if nfuncs > len(data) - pos:
        raise TruncatedStreamError(
            f"image promises {nfuncs} functions, image too short")
    return DecodedImage(patterns, tables, globals_, entry), nfuncs, pos


def parse_image(
    blob: bytes, limits: Optional[ResourceLimits] = None
) -> DecodedImage:
    """Parse an image's container structure (no slot decoding yet)."""
    limits = limits or DEFAULT_LIMITS
    if BRISC.version(blob) == 3:
        (image, _, _), functions = BRISC.read_all(blob, limits)
        image.functions = functions
        return image
    with decode_guard("BRISC image"):
        stored, pos = take_bytes(blob, 4, 4, "BRISC payload CRC")
        data = blob[pos:]
        if zlib.crc32(data) != int.from_bytes(stored, "little"):
            raise CorruptStreamError("BRISC payload CRC mismatch")
        out, nfuncs, pos = _parse_preamble(data, 0, limits)
        for _ in range(nfuncs):
            name, pos = _take_name(data, pos, "function name")
            frame, pos = read_uvarint(data, pos)
            params, pos = read_uvarint(data, pos)
            code_len, pos = read_uvarint(data, pos)
            limits.check("function code size", code_len,
                         limits.max_decoded_bytes)
            code, pos = take_bytes(data, pos, code_len,
                                   f"code for function {name!r}")
            offsets, pos = _take_block_offsets(data, pos, name, code_len)
            out.functions.append(
                DecodedFunction(name, frame, params, code, offsets))
        return out


def symbol_names(image: DecodedImage) -> List[str]:
    """Symbol index space: function names first, then global names."""
    names = [fn.name for fn in image.functions]
    for g in image.globals:
        if g.name not in names:
            names.append(g.name)
    return names


def decode_slot(
    image: DecodedImage,
    fn: DecodedFunction,
    offset: int,
    ctx: int,
    names: Optional[List[str]] = None,
) -> Tuple[DictPattern, List[Instr], int, int]:
    """Decode one slot at ``offset``; returns (pattern, instructions,
    next_offset, pattern_id) — the id is the context for a fall-through
    successor.  Label operands come back as ``L<offset>`` names;
    symbol indices resolve through ``names`` (default: the image's own
    symbol table)."""
    if names is None:
        names = symbol_names(image)
    code = fn.code
    byte, offset = _take_byte(code, offset, "opcode byte")
    if byte == ESCAPE:
        raw, offset = take_bytes(code, offset, 2, "escaped pattern id")
        pid = int.from_bytes(raw, "little")
    else:
        table = image.tables.get(ctx)
        if table is None or byte >= len(table):
            raise CorruptStreamError(
                f"invalid opcode byte {byte} in context {ctx}")
        pid = table[byte]
    if pid >= len(image.patterns):
        raise CorruptStreamError(
            f"slot references pattern {pid} of {len(image.patterns)}")
    pattern = image.patterns[pid]
    _, classes = pattern.operand_layout()
    nnib = sum(1 for c in classes if c in _NIBBLE_CLASSES)
    nibbles: List[int] = []
    for i in range((nnib + 1) // 2):
        b, offset = _take_byte(code, offset, "operand nibbles")
        nibbles.append(b >> 4)
        nibbles.append(b & 0xF)
    nibbles = nibbles[:nnib]
    values: List[object] = []
    ni = 0
    for cls in classes:
        if cls in ("r", "f"):
            values.append(nibbles[ni])
            ni += 1
        elif cls == "n4":
            values.append(nibbles[ni] * 4)
            ni += 1
        elif cls in ("b", "h", "w"):
            width = _BYTE_SIZES[cls]
            raw, offset = take_bytes(code, offset, width,
                                     f"{cls!r} operand")
            values.append(int.from_bytes(raw, "little", signed=True))
        elif cls == "l":
            raw, offset = take_bytes(code, offset, 2, "label operand")
            values.append(f"L{int.from_bytes(raw, 'little')}")
        elif cls == "s":
            raw, offset = take_bytes(code, offset, 2, "symbol operand")
            idx = int.from_bytes(raw, "little")
            if idx >= len(names):
                raise CorruptStreamError(
                    f"symbol index {idx} of {len(names)}")
            values.append(names[idx])
        else:
            raw, offset = take_bytes(code, offset, 8, "double operand")
            values.append(struct.unpack("<d", raw)[0])
    # Rebuild concrete instructions.
    instrs: List[Instr] = []
    vi = 0
    for part in pattern.parts:
        operands: List[object] = []
        for f in part.fields:
            if isinstance(f, Burned):
                operands.append(f.value)
            else:
                operands.append(values[vi])
                vi += 1
        instrs.append(Instr(part.name, tuple(operands)))  # type: ignore[arg-type]
    return pattern, instrs, offset, pid


def decode_image(
    blob: bytes, limits: Optional[ResourceLimits] = None
) -> VMProgram:
    """Fully decode an image back into a runnable VM program."""
    image = parse_image(blob, limits=limits)
    with decode_guard("BRISC image"):
        names = symbol_names(image)
        program = VMProgram("decoded", entry=image.entry)
        program.globals = list(image.globals)
        for fn in image.functions:
            vmf = VMFunction(fn.name, frame_size=fn.frame_size,
                             param_bytes=fn.param_bytes)
            offset = 0
            prev: Optional[int] = None
            offset_to_index: Dict[int, int] = {}
            referenced: Set[str] = set()
            while offset < len(fn.code):
                if offset == 0:
                    ctx = CTX_ENTRY
                elif offset in fn.bb_offsets:
                    ctx = CTX_BB
                else:
                    assert prev is not None
                    ctx = prev
                offset_to_index[offset] = len(vmf.code)
                _, instrs, offset, prev = decode_slot(image, fn, offset, ctx,
                                                      names)
                for instr in instrs:
                    for kind, value in zip(instr.spec.signature,
                                           instr.operands):
                        if kind is Operand.LABEL:
                            referenced.add(str(value))
                vmf.code.extend(instrs)
            # Labels at every block start and at referenced offsets.
            for off in sorted(set(fn.bb_offsets) | {0}):
                if off in offset_to_index:
                    vmf.labels.setdefault(f"L{off}", offset_to_index[off])
            for label in referenced:
                off = int(label[1:])
                if off not in offset_to_index:
                    raise CorruptStreamError(
                        f"branch to mid-slot offset {off} in {fn.name}")
                vmf.labels.setdefault(label, offset_to_index[off])
            program.functions.append(vmf)
        return program


# ---------------------------------------------------------------------------
# BRI3: the BRISC parts of the seekable container
# ---------------------------------------------------------------------------
#
# The header body is the v2 preamble (dictionary, Markov tables, globals,
# entry) followed by the function metadata — name, frame, params, code
# length, block-start offsets, chunk id — and is stored raw.  A chunk is
# simply the concatenated code bytes of its member functions (ascending
# original index): BRISC code is already compressed and interpreted in
# place, so chunking moves bytes without re-encoding them, and
# ``decode_range`` is an exact byte slice of what a full ``parse_image``
# would see.


def _pack_preamble(out: bytearray, image: DecodedImage) -> None:
    """Re-serialize the shared preamble of a parsed image (the exact
    inverse of :func:`_parse_preamble`)."""
    write_uvarint(out, len(image.patterns))
    for pattern in image.patterns:
        out.extend(serialize_pattern(pattern))
    write_uvarint(out, len(image.tables))
    for ctx in sorted(image.tables):
        write_uvarint(out, _zig(ctx))
        table = image.tables[ctx]
        write_uvarint(out, len(table))
        for pid in table:
            write_uvarint(out, pid)
    _pack_globals(out, image.globals)
    raw = image.entry.encode("utf-8")
    write_uvarint(out, len(raw))
    out.extend(raw)


def repack_v3(
    blob: bytes,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    limits: Optional[ResourceLimits] = None,
) -> bytes:
    """Transcode a BRISC image (v2/v3) into a seekable BRI3 one.

    The function code bytes are moved, never re-encoded, so the chunked
    image decodes to exactly the same program.  Functions are packed in
    image order into chunks of at most ``chunk_bytes`` code bytes.
    """
    image = parse_image(blob, limits=limits)
    groups = pack_chunks([len(fn.code) for fn in image.functions],
                         chunk_bytes)
    chunk_of = {i: cid for cid, members in enumerate(groups)
                for i in members}
    body = bytearray()
    _pack_preamble(body, image)
    write_uvarint(body, len(image.functions))
    for index, fn in enumerate(image.functions):
        raw = fn.name.encode("utf-8")
        write_uvarint(body, len(raw))
        body.extend(raw)
        write_uvarint(body, fn.frame_size)
        write_uvarint(body, fn.param_bytes)
        write_uvarint(body, len(fn.code))
        _pack_block_offsets(body, sorted(fn.bb_offsets))
        write_uvarint(body, chunk_of[index])
    return BRISC.write(bytes(body), [
        b"".join(image.functions[i].code for i in members)
        for members in groups])


class _BriscLayout(Layout):
    kind = "brisc"
    prefix = b"BRI"
    noun = "BRISC"
    what = "BRISC image"

    def parse_body(self, header, limits):
        image, nfuncs, pos = _parse_preamble(header, 0, limits)
        skeletons: List[DecodedFunction] = []  # every field but the code
        entries = []
        for _ in range(nfuncs):
            name, pos = _take_name(header, pos, "function name")
            frame, pos = read_uvarint(header, pos)
            params, pos = read_uvarint(header, pos)
            code_len, pos = read_uvarint(header, pos)
            limits.check("function code size", code_len,
                         limits.max_decoded_bytes)
            offsets, pos = _take_block_offsets(header, pos, name, code_len)
            chunk_id, pos = read_uvarint(header, pos)
            skeletons.append(
                DecodedFunction(name, frame, params, b"", offsets))
            entries.append((name, chunk_id, code_len))
        code_lens = [code_len for _, _, code_len in entries]
        return (image, skeletons, code_lens), entries, pos

    def decode_chunk(self, shell, payload: bytes, chunk: ChunkRecord,
                     limits: ResourceLimits) -> Dict[int, DecodedFunction]:
        _, skeletons, code_lens = shell
        expected = sum(code_lens[i] for i in chunk.members)
        if expected != chunk.length:
            raise CorruptStreamError(
                f"chunk {chunk.index} holds {chunk.length} bytes, its "
                f"members need {expected}")
        functions: Dict[int, DecodedFunction] = {}
        cursor = 0
        for member in chunk.members:
            fn = skeletons[member]
            end = cursor + code_lens[member]
            functions[member] = DecodedFunction(
                fn.name, fn.frame_size, fn.param_bytes, payload[cursor:end],
                set(fn.bb_offsets))
            cursor = end
        return functions

    def decode_flat(self, blob, limits):
        return parse_image(blob, limits=limits).functions

    def span_image(self, fn: DecodedFunction) -> bytes:
        return fn.code

    def describe(self, blob: bytes) -> str:
        return f"BRISC image, {len(decode_image(blob).functions)} functions"


BRISC = _BriscLayout()

decode_function = BRISC.decode_function
decode_range = BRISC.decode_range
