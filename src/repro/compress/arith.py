"""Adaptive arithmetic coding (order-0 and order-1 byte models).

The paper's design-space section places arithmetic coding at the
"compresses best / hardest to interpret" extreme: it codes fractions of a
bit per symbol but forces decompression before execution (the authors used
it per-function).  This module implements a classic 32-bit range arithmetic
coder with adaptive frequency models so the design-space benchmark
(`benchmarks/bench_design_space.py`) can place that extreme on the curve.
It is not a wire codec: on the suite units the whole arith-coded wire
blob came out larger than the deflated one, so the container ships
deflate only.

The coder follows Witten, Neal & Cleary (CACM 1987), the paper's citation.
The streaming classes (:class:`AdaptiveModel`, :class:`ArithmeticEncoder`,
:class:`ArithmeticDecoder`) are the readable reference implementation;
:func:`compress`/:func:`decompress` are batch kernels in the style of the
other table-driven compressors in this package: the whole coder loop runs
in one function frame with the model state in local lists, Fenwick
prefix/update walks driven by precomputed per-byte index tables
(:data:`_PREFIX_PATH`/:data:`_UPDATE_PATH`), and bits accumulated in a
single int that flushes whole bytes at a time.  The emitted bitstream is
bit-for-bit identical to the streaming classes' (pinned by
``tests/golden/arith1.bin`` and a cross-check property test).
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import TruncatedStreamError
from .bitio import BitReader, BitWriter

__all__ = ["AdaptiveModel", "ArithmeticEncoder", "ArithmeticDecoder",
           "compress", "decompress"]

_CODE_BITS = 32
_TOP = (1 << _CODE_BITS) - 1
_HALF = 1 << (_CODE_BITS - 1)
_QUARTER = 1 << (_CODE_BITS - 2)
_THREE_QUARTERS = _HALF + _QUARTER
_MAX_TOTAL = 1 << 16


class AdaptiveModel:
    """Adaptive frequency model over ``size`` symbols (plus implicit EOF).

    Frequencies start at 1 (Laplace smoothing) and increment on use; when
    the total exceeds ``_MAX_TOTAL`` all counts are halved, which also
    gives the model mild recency weighting.  ``freq`` stays a plain list
    of per-symbol counts; a Fenwick tree over the same counts serves the
    cumulative queries.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.freq = [1] * size
        self.total = size
        # Highest power of two <= size, for the find() descend.
        self._topbit = 1 << (size.bit_length() - 1) if size else 0
        self._rebuild()

    def _rebuild(self) -> None:
        """Recompute the Fenwick tree from ``freq`` (init and halving)."""
        size = self.size
        tree = [0] * (size + 1)
        for i, f in enumerate(self.freq):
            j = i + 1
            while j <= size:
                tree[j] += f
                j += j & -j
        self._tree = tree

    def _prefix(self, count: int) -> int:
        """Sum of the first ``count`` frequencies."""
        tree = self._tree
        acc = 0
        while count:
            acc += tree[count]
            count &= count - 1
        return acc

    def cumulative(self, symbol: int) -> "tuple[int, int, int]":
        """Return (low, high, total) cumulative counts for ``symbol``."""
        low = self._prefix(symbol)
        return low, low + self.freq[symbol], self.total

    def find(self, scaled: int) -> int:
        """Return the symbol whose cumulative range contains ``scaled``."""
        if scaled >= self.total:
            raise ValueError("scaled value outside model total")
        # Largest sym with prefix(sym) <= scaled: descend the tree.
        tree = self._tree
        pos = 0
        rem = scaled
        mask = self._topbit
        size = self.size
        while mask:
            nxt = pos + mask
            if nxt <= size and tree[nxt] <= rem:
                rem -= tree[nxt]
                pos = nxt
            mask >>= 1
        return pos

    def update(self, symbol: int) -> None:
        """Record one occurrence of ``symbol``."""
        self.freq[symbol] += 32
        self.total += 32
        if self.total >= _MAX_TOTAL:
            self.total = 0
            for i, f in enumerate(self.freq):
                self.freq[i] = (f + 1) // 2
                self.total += self.freq[i]
            self._rebuild()
        else:
            tree = self._tree
            size = self.size
            j = symbol + 1
            while j <= size:
                tree[j] += 32
                j += j & -j


class ArithmeticEncoder:
    """Streaming arithmetic encoder writing to a :class:`BitWriter`."""

    def __init__(self, writer: BitWriter) -> None:
        self.writer = writer
        self.low = 0
        self.high = _TOP
        self.pending = 0

    def _emit(self, bit: int) -> None:
        # One batched write: the decided bit, then ``pending`` opposite
        # bits — e.g. pending=3, bit=1 emits 1000, bit=0 emits 0111.
        pending = self.pending
        if pending:
            value = (1 << pending) if bit else ((1 << pending) - 1)
            self.writer.write_bits(value, pending + 1)
            self.pending = 0
        else:
            self.writer.write_bit(bit)

    def encode(self, model: AdaptiveModel, symbol: int) -> None:
        """Encode ``symbol`` under ``model`` and update the model."""
        low_c, high_c, total = model.cumulative(symbol)
        span = self.high - self.low + 1
        self.high = self.low + span * high_c // total - 1
        self.low = self.low + span * low_c // total
        while True:
            if self.high < _HALF:
                self._emit(0)
            elif self.low >= _HALF:
                self._emit(1)
                self.low -= _HALF
                self.high -= _HALF
            elif self.low >= _QUARTER and self.high < _THREE_QUARTERS:
                self.pending += 1
                self.low -= _QUARTER
                self.high -= _QUARTER
            else:
                break
            self.low <<= 1
            self.high = (self.high << 1) | 1
        model.update(symbol)

    def finish(self) -> None:
        """Flush the final interval disambiguation bits."""
        self.pending += 1
        if self.low < _QUARTER:
            self._emit(0)
        else:
            self._emit(1)


class ArithmeticDecoder:
    """Streaming arithmetic decoder reading from a :class:`BitReader`."""

    def __init__(self, reader: BitReader) -> None:
        self.reader = reader
        self.low = 0
        self.high = _TOP
        self.code = 0
        self._exhausted = False
        for _ in range(_CODE_BITS):
            self.code = (self.code << 1) | self._read_bit()

    def _read_bit(self) -> int:
        if self._exhausted:
            return 0
        try:
            return self.reader.read_bit()
        except EOFError:
            # Trailing zeros are implicit after the final flush; remember
            # EOF so the tail doesn't pay an exception per bit.
            self._exhausted = True
            return 0

    def decode(self, model: AdaptiveModel) -> int:
        """Decode one symbol under ``model`` and update the model."""
        span = self.high - self.low + 1
        scaled = ((self.code - self.low + 1) * model.total - 1) // span
        symbol = model.find(scaled)
        low_c, high_c, total = model.cumulative(symbol)
        self.high = self.low + span * high_c // total - 1
        self.low = self.low + span * low_c // total
        while True:
            if self.high < _HALF:
                pass
            elif self.low >= _HALF:
                self.low -= _HALF
                self.high -= _HALF
                self.code -= _HALF
            elif self.low >= _QUARTER and self.high < _THREE_QUARTERS:
                self.low -= _QUARTER
                self.high -= _QUARTER
                self.code -= _QUARTER
            else:
                break
            self.low <<= 1
            self.high = (self.high << 1) | 1
            self.code = (self.code << 1) | self._read_bit()
        model.update(symbol)
        return symbol


# ---------------------------------------------------------------------------
# batch kernels
# ---------------------------------------------------------------------------

#: Fenwick prefix-sum walk per byte value: the tree indices summed by
#: ``AdaptiveModel._prefix(b)``.  Static for the 256-symbol model, so
#: every cumulative lookup is a table-driven walk over at most 8 indices
#: with no index arithmetic in the hot loop.
_PREFIX_PATH: List[tuple] = []
for _b in range(256):
    _path = []
    _c = _b
    while _c:
        _path.append(_c)
        _c &= _c - 1
    _PREFIX_PATH.append(tuple(_path))

#: Fenwick point-update walk per byte value: the tree indices bumped by
#: ``AdaptiveModel.update(b)`` (tree size 256).
_UPDATE_PATH: List[tuple] = []
for _b in range(256):
    _path = []
    _j = _b + 1
    while _j <= 256:
        _path.append(_j)
        _j += _j & -_j
    _UPDATE_PATH.append(tuple(_path))
del _b, _c, _j, _path


def _fresh_context() -> List:
    """A new 256-symbol adaptive context: [freq list, Fenwick tree, total].

    Initial counts are all 1, for which the Fenwick cell at index ``j``
    holds ``j & -j`` (the size of its range).
    """
    return [[1] * 256, [0] + [j & -j for j in range(1, 257)], 256]


def _rescale(freq: List[int], tree: List[int]) -> int:
    """Halve every count (as ``AdaptiveModel`` does at ``_MAX_TOTAL``),
    rebuild the tree, and return the new total."""
    total = 0
    for i, f in enumerate(freq):
        freq[i] = (f + 1) // 2
        total += freq[i]
    for j in range(1, 257):
        tree[j] = 0
    for i, f in enumerate(freq):
        j = i + 1
        while j <= 256:
            tree[j] += f
            j += j & -j
    return total


def compress(data: bytes, order: int = 0) -> bytes:
    """Arithmetic-code ``data`` with an adaptive byte model.

    ``order=0`` uses a single model; ``order=1`` conditions each byte's
    model on the previous byte (256 models), the analogue of the paper's
    order-1 Markov opcode contexts.  Batch kernel: bit-identical to
    feeding :class:`ArithmeticEncoder` one symbol at a time.
    """
    if order not in (0, 1):
        raise ValueError("only order 0 and 1 models are provided")
    out = bytearray()
    # Bit accumulator, MSB-first (same discipline as BitWriter): the
    # 32-bit length prefix, then the coded bits.
    acc = len(data)
    nbits = 32
    low = 0
    high = _TOP
    pending = 0

    contexts: List[Optional[List]] = [None] * 256
    ctx = _fresh_context() if order == 0 else None
    prev = 0
    prefix_path = _PREFIX_PATH
    update_path = _UPDATE_PATH

    for b in data:
        if order:
            ctx = contexts[prev]
            if ctx is None:
                ctx = contexts[prev] = _fresh_context()
            prev = b
        freq, tree, total = ctx
        low_c = 0
        for j in prefix_path[b]:
            low_c += tree[j]
        high_c = low_c + freq[b]
        span = high - low + 1
        high = low + span * high_c // total - 1
        low = low + span * low_c // total
        while True:
            if high < _HALF:
                bit = 0
            elif low >= _HALF:
                bit = 1
                low -= _HALF
                high -= _HALF
            elif low >= _QUARTER and high < _THREE_QUARTERS:
                pending += 1
                low = (low - _QUARTER) << 1
                high = ((high - _QUARTER) << 1) | 1
                continue
            else:
                break
            # Emit the decided bit plus ``pending`` opposite bits.
            if pending:
                acc = ((acc << (pending + 1))
                       | ((1 << pending) if bit else ((1 << pending) - 1)))
                nbits += pending + 1
                pending = 0
            else:
                acc = (acc << 1) | bit
                nbits += 1
            low <<= 1
            high = (high << 1) | 1
        if nbits >= 4096:
            rem = nbits & 7
            out += (acc >> rem).to_bytes(nbits >> 3, "big")
            acc &= (1 << rem) - 1
            nbits = rem
        # Model update (+32 with halving, exactly AdaptiveModel.update).
        freq[b] += 32
        total = ctx[2] = ctx[2] + 32
        if total >= _MAX_TOTAL:
            ctx[2] = _rescale(freq, tree)
        else:
            for j in update_path[b]:
                tree[j] += 32

    # finish(): one more pending bit, then the interval disambiguator.
    pending += 1
    bit = 0 if low < _QUARTER else 1
    acc = ((acc << (pending + 1))
           | ((1 << pending) if bit else ((1 << pending) - 1)))
    nbits += pending + 1
    rem = nbits & 7
    if rem:  # zero-pad the final partial byte, as BitWriter.getvalue does
        acc <<= 8 - rem
        nbits += 8 - rem
    out += acc.to_bytes(nbits >> 3, "big")
    return bytes(out)


def decompress(blob: bytes, order: int = 0) -> bytes:
    """Invert :func:`compress` (the ``order`` must match).

    Batch kernel: the decoder state lives in locals and coded bits are
    pulled from a chunked big-int cache; past the final flush the cache
    yields the implicit trailing zeros.
    """
    if order not in (0, 1):
        raise ValueError("only order 0 and 1 models are provided")
    if len(blob) < 4:
        raise TruncatedStreamError("bit stream exhausted")
    n = int.from_bytes(blob[:4], "big")
    pos = 4
    cache = 0
    cache_bits = 0
    # Prime the 32-bit code register.
    chunk = blob[pos:pos + 32]
    if chunk:
        cache = int.from_bytes(chunk, "big")
        cache_bits = len(chunk) * 8
        pos += len(chunk)
    if cache_bits >= _CODE_BITS:
        cache_bits -= _CODE_BITS
        code = (cache >> cache_bits) & _TOP
        cache &= (1 << cache_bits) - 1
    else:
        code = (cache << (_CODE_BITS - cache_bits)) & _TOP
        cache = cache_bits = 0

    out = bytearray()
    append = out.append
    low = 0
    high = _TOP
    contexts: List[Optional[List]] = [None] * 256
    ctx = _fresh_context() if order == 0 else None
    prev = 0
    prefix_path = _PREFIX_PATH
    update_path = _UPDATE_PATH

    for _ in range(n):
        if order:
            ctx = contexts[prev]
            if ctx is None:
                ctx = contexts[prev] = _fresh_context()
        freq, tree, total = ctx
        span = high - low + 1
        scaled = ((code - low + 1) * total - 1) // span
        if scaled >= total:
            raise ValueError("scaled value outside model total")
        # Binary-indexed descend (AdaptiveModel.find, topbit=256).
        sym = 0
        rem = scaled
        mask = 256
        while mask:
            nxt = sym + mask
            if nxt <= 256 and tree[nxt] <= rem:
                rem -= tree[nxt]
                sym = nxt
            mask >>= 1
        low_c = 0
        for j in prefix_path[sym]:
            low_c += tree[j]
        high_c = low_c + freq[sym]
        high = low + span * high_c // total - 1
        low = low + span * low_c // total
        while True:
            if high < _HALF:
                pass
            elif low >= _HALF:
                low -= _HALF
                high -= _HALF
                code -= _HALF
            elif low >= _QUARTER and high < _THREE_QUARTERS:
                low -= _QUARTER
                high -= _QUARTER
                code -= _QUARTER
            else:
                break
            low <<= 1
            high = (high << 1) | 1
            if not cache_bits:
                chunk = blob[pos:pos + 32]
                if chunk:
                    cache = int.from_bytes(chunk, "big")
                    cache_bits = len(chunk) * 8
                    pos += len(chunk)
                else:
                    cache = 0
                    cache_bits = 256  # implicit trailing zeros
            cache_bits -= 1
            code = (code << 1) | ((cache >> cache_bits) & 1)
        append(sym)
        if order:
            prev = sym
        freq[sym] += 32
        total = ctx[2] = ctx[2] + 32
        if total >= _MAX_TOTAL:
            ctx[2] = _rescale(freq, tree)
        else:
            for j in update_path[sym]:
                tree[j] += 32
    return bytes(out)
