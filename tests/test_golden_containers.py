"""Container goldens: every shipped container version decodes, and the
seekable v3 layout is pinned byte for byte.

``tests/golden/`` pins one blob per (unit, format, version) — WIR2/WIR3
wire containers and BRI2/BRI3 BRISC images for ``fib`` and ``wc`` — plus
the canonical text dump each must decode to (``*.ir.txt`` for wire,
``*.vm.txt`` for BRISC).  The v3 goldens were written from the v2 ones
at a 64-byte chunk cap, so each holds at least two chunks; re-encoding
must reproduce them exactly, which holds the shared v3 framing, the
block index and the packing of functions into chunks to the recorded
bytes across every refactor.
"""

import pathlib

import pytest

from repro.brisc import decode_image
from repro.brisc.encode import repack_v3
from repro.container import container_index
from repro.ir import dump_module
from repro.vm import format_function
from repro.wire import decode_function, decode_module, encode_module_v3

GOLDEN = pathlib.Path(__file__).parent / "golden"

UNITS = ("fib", "wc")

#: Chunk cap the v3 goldens were written at.
CHUNK_BYTES = 64


def vm_dump(program) -> str:
    return "\n\n".join(format_function(fn) for fn in program.functions) + "\n"


class TestWireGoldens:
    @pytest.mark.parametrize("unit", UNITS)
    @pytest.mark.parametrize("version", (2, 3))
    def test_decodes_to_pinned_ir(self, unit, version):
        blob = (GOLDEN / f"{unit}.wir{version}").read_bytes()
        assert blob[:4] == b"WIR%d" % version
        dump = dump_module(decode_module(blob)) + "\n"
        assert dump == (GOLDEN / f"{unit}.ir.txt").read_text()

    @pytest.mark.parametrize("unit", UNITS)
    def test_decode_function_on_legacy_blobs(self, unit):
        """Function-granular reads work on pre-chunking containers too
        (via a full decode under the hood)."""
        blob = (GOLDEN / f"{unit}.wir2").read_bytes()
        module = decode_module(blob)
        for fn in module.functions:
            picked = decode_function(blob, fn.name)
            assert picked.name == fn.name
            assert len(picked.forest) == len(fn.forest)

    @pytest.mark.parametrize("unit", UNITS)
    def test_v3_bytes_are_pinned(self, unit):
        module = decode_module((GOLDEN / f"{unit}.wir2").read_bytes())
        golden = (GOLDEN / f"{unit}.wir3").read_bytes()
        assert encode_module_v3(module, chunk_bytes=CHUNK_BYTES) == golden
        assert len(container_index(golden).chunks) >= 2


class TestBriscGoldens:
    @pytest.mark.parametrize("unit", UNITS)
    @pytest.mark.parametrize("version", (2, 3))
    def test_decodes_to_pinned_vm(self, unit, version):
        blob = (GOLDEN / f"{unit}.bri{version}").read_bytes()
        assert blob[:4] == b"BRI%d" % version
        program = decode_image(blob)
        assert vm_dump(program) == (GOLDEN / f"{unit}.vm.txt").read_text()

    @pytest.mark.parametrize("unit", UNITS)
    def test_decode_function_on_legacy_images(self, unit):
        from repro.brisc.encode import decode_function as brisc_fn

        blob = (GOLDEN / f"{unit}.bri2").read_bytes()
        program = decode_image(blob)
        for fn in program.functions:
            assert brisc_fn(blob, fn.name).name == fn.name

    @pytest.mark.parametrize("unit", UNITS)
    def test_v3_bytes_are_pinned(self, unit):
        golden = (GOLDEN / f"{unit}.bri3").read_bytes()
        bri2 = (GOLDEN / f"{unit}.bri2").read_bytes()
        assert repack_v3(bri2, CHUNK_BYTES) == golden
        assert repack_v3(golden, CHUNK_BYTES) == golden
        assert len(container_index(golden).chunks) >= 2
