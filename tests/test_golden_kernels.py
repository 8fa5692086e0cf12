"""Golden byte-identity tests for the compression kernels and containers.

The fixtures in ``tests/golden/`` were produced by the pre-rewrite
(per-bit, per-symbol) kernels at commit d16ace2.  Every kernel rewrite
must reproduce them bit for bit: the wire (WIR2) and BRISC (BRI2)
containers are long-lived interchange formats, and the paper's size
tables are only comparable if the encodings never drift.  If one of
these tests fails, the change is a format break, not a perf tweak.
"""

import pathlib
import random

import pytest

from repro.brisc.encode import decode_image
from repro.compress import arith, deflate
from repro.compress.huffman import decode_symbols, encode_symbols
from repro.compress.mtf import mtf_decode, mtf_encode
from repro.wire.format import decode_module, encode_module

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def kernel_input():
    """The seeded corpus-like byte stream the kernel fixtures were cut from."""
    data = (GOLDEN / "kernel_input.bin").read_bytes()
    # Defend the fixture itself: it is the seeded stream, not arbitrary.
    rng = random.Random(7)
    chunk = bytes(rng.randrange(256) for _ in range(64))
    assert data == b"".join(chunk[: rng.randrange(16, 64)] for _ in range(120))
    return data


class TestKernelGoldens:
    def test_deflate_bytes_unchanged(self, kernel_input):
        blob = deflate.compress(kernel_input)
        assert blob == (GOLDEN / "deflate.bin").read_bytes()
        assert deflate.decompress(blob) == kernel_input

    def test_huffman_bytes_unchanged(self):
        rng = random.Random(3)
        symbols = [min(63, int(rng.expovariate(0.2))) for _ in range(5000)]
        blob = encode_symbols(symbols, 64)
        assert blob == (GOLDEN / "huffman.bin").read_bytes()
        assert decode_symbols(blob) == symbols

    def test_mtf_indices_unchanged(self):
        rng = random.Random(5)
        stream = [rng.choice([4, 8, 12, 16, 20, 24]) for _ in range(5000)]
        indices, novel = mtf_encode(stream)
        assert bytes(bytearray(indices)) == \
            (GOLDEN / "mtf_indices.bin").read_bytes()
        assert novel == [20, 12, 24, 4, 16, 8]
        assert mtf_decode(indices, novel) == stream

    def test_arith_order1_bytes_unchanged(self, kernel_input):
        data = kernel_input[:2000]
        blob = arith.compress(data, order=1)
        assert blob == (GOLDEN / "arith1.bin").read_bytes()
        assert arith.decompress(blob, order=1) == data


class TestContainerGoldens:
    """WIR2/BRI2 images of seeded corpus units must never drift."""

    @pytest.fixture(scope="class")
    def results(self):
        from repro.corpus.suite import suite_source
        from repro.pipeline import Toolchain

        tc = Toolchain()
        return {
            "wc": tc.compile(suite_source("wc"), name="wc"),
            "fib": tc.compile((GOLDEN / "fib.c").read_text(), name="fib"),
        }

    @pytest.mark.parametrize("unit", ["wc", "fib"])
    def test_wire_container_unchanged(self, results, unit):
        golden = (GOLDEN / f"{unit}.wir2").read_bytes()
        assert results[unit].wire_blob == golden

    @pytest.mark.parametrize("unit", ["wc", "fib"])
    def test_brisc_container_unchanged(self, results, unit):
        golden = (GOLDEN / f"{unit}.bri2").read_bytes()
        assert results[unit].brisc.image.blob == golden

    @pytest.mark.parametrize("unit", ["wc", "fib"])
    def test_golden_containers_decode(self, unit):
        module = decode_module((GOLDEN / f"{unit}.wir2").read_bytes())
        assert module.functions
        program = decode_image((GOLDEN / f"{unit}.bri2").read_bytes())
        assert program.functions

    def test_lcc_brisc_image_pinned(self):
        """The full lcc-shaped unit prices ~67k candidates over 15 greedy
        passes; its image, and the build counters, must never drift."""
        import hashlib

        from repro.corpus.suite import suite_source
        from repro.pipeline import Toolchain

        res = Toolchain().compile(suite_source("lcc"), name="lcc",
                                  stages=("brisc",))
        cp = res.brisc
        assert (hashlib.sha256(cp.image.blob).hexdigest() ==
                "2257ecac44f6dd1259497d33fd30580a8dfebf4d6b138a75352f892dc1ec135c")
        assert cp.size == 33_863
        assert cp.build.candidates_tested == 67_094
        assert cp.build.passes == 15
        assert len(cp.build.dictionary) == 382

    def test_roundtrip_through_reencode(self):
        """Decoding a golden wire blob and re-encoding reproduces it."""
        golden = (GOLDEN / "fib.wir2").read_bytes()
        assert encode_module(decode_module(golden)) == golden
