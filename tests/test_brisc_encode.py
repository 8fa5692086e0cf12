"""BRISC image encoding/decoding and Markov model tests."""

import pytest

import repro
from repro.brisc import compress, decompress
from repro.brisc.encode import parse_image
from repro.brisc.markov import CTX_BB, CTX_ENTRY, build_markov
from repro.brisc.slots import build_slots
from repro.corpus.samples import SAMPLES
from repro.vm import run_program


def compile_sample(name):
    return repro.compile_c(SAMPLES[name], name)


class TestMarkov:
    def test_special_contexts_exist(self):
        prog = compile_sample("wc")
        model, _ = build_markov(build_slots(prog))
        assert CTX_ENTRY in model.tables
        assert CTX_BB in model.tables

    def test_tables_ordered_by_frequency(self):
        prog = compile_sample("calc")
        model, _ = build_markov(build_slots(prog))
        for table in model.tables.values():
            assert len(table) == len(set(table))  # no duplicates

    def test_all_successor_tables_fit_a_byte(self):
        prog = compile_sample("sort")
        model, _ = build_markov(build_slots(prog))
        # The paper: "at most 244 instruction patterns can follow" any
        # pattern; our limit is 255 with escapes.
        assert model.max_successors() <= 256


class TestImageStructure:
    def test_parse_image_fields(self):
        cp = compress(compile_sample("wc"))
        image = parse_image(cp.image.blob)
        assert image.entry == "main"
        assert image.patterns
        assert image.functions
        assert CTX_ENTRY in image.tables

    def test_breakdown_sums_to_less_than_total(self):
        cp = compress(compile_sample("wc"))
        assert sum(cp.image.breakdown.values()) <= cp.image.size

    def test_code_segment_size(self):
        cp = compress(compile_sample("wc"))
        assert cp.image.code_segment_size == (
            cp.image.breakdown["code"] + cp.image.breakdown["dictionary"]
            + cp.image.breakdown["tables"])

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            parse_image(b"NOPE" + bytes(20))

    def test_opcode_plus_operand_bytes_equal_code(self):
        cp = compress(compile_sample("wc"))
        assert cp.image.opcode_bytes + cp.image.operand_bytes == \
            cp.image.breakdown["code"]


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["wc", "calc", "strings", "queens"])
    def test_decompressed_program_runs_identically(self, name):
        prog = compile_sample(name)
        base = run_program(prog)
        cp = compress(prog)
        back = decompress(cp.image.blob)
        redo = run_program(back)
        assert (redo.exit_code, redo.output) == (base.exit_code, base.output)

    def test_decompressed_instruction_stream_equivalent(self):
        prog = compile_sample("wc")
        cp = compress(prog)
        back = decompress(cp.image.blob)
        # Same instruction multiset per function (labels renamed).
        for a, b in zip(prog.functions, back.functions):
            assert a.name == b.name
            assert len(a.code) == len(b.code)
            assert [i.name for i in a.code] == [i.name for i in b.code]

    def test_frame_metadata_preserved(self):
        prog = compile_sample("wc")
        back = decompress(compress(prog).image.blob)
        for a, b in zip(prog.functions, back.functions):
            assert a.frame_size == b.frame_size
            assert a.param_bytes == b.param_bytes

    def test_globals_preserved(self):
        prog = compile_sample("wc")
        back = decompress(compress(prog).image.blob)
        assert {g.name for g in back.globals} == \
            {g.name for g in prog.globals}


class TestRandomAccess:
    def test_block_starts_decodable_independently(self):
        """The defining BRISC property: decoding may begin at any basic
        block boundary (that is what the special Markov contexts buy)."""
        from repro.brisc.encode import decode_slot, symbol_names

        cp = compress(compile_sample("calc"))
        image = parse_image(cp.image.blob)
        names = symbol_names(image)
        for fn in image.functions:
            for offset in sorted(fn.bb_offsets):
                pattern, instrs, nxt, pid = decode_slot(image, fn, offset,
                                                        CTX_BB, names)
                assert instrs
                assert nxt > offset
                assert image.patterns[pid] is pattern

    def test_function_entries_decodable(self):
        from repro.brisc.encode import decode_slot, symbol_names

        cp = compress(compile_sample("strings"))
        image = parse_image(cp.image.blob)
        names = symbol_names(image)
        for fn in image.functions:
            pattern, instrs, _, _ = decode_slot(image, fn, 0, CTX_ENTRY,
                                                names)
            assert instrs[0].name == "enter"


class TestContainerIntegrity:
    """BRI2 framing: version byte, whole-payload CRC."""

    def test_new_images_are_bri2_with_crc(self):
        import zlib

        blob = compress(compile_sample("wc")).image.blob
        assert blob[:4] == b"BRI2"
        stored = int.from_bytes(blob[4:8], "little")
        assert zlib.crc32(blob[8:]) == stored

    def test_unknown_version_rejected(self):
        from repro.errors import UnsupportedFormatError

        blob = compress(compile_sample("wc")).image.blob
        # BRI1 (the seed format, no CRC) is no longer read either.
        for legacy in (b"BRI1" + blob[8:], b"BRI9" + blob[4:]):
            with pytest.raises(UnsupportedFormatError):
                parse_image(legacy)

    def test_crc_catches_payload_corruption(self):
        from repro.errors import CorruptStreamError

        blob = bytearray(compress(compile_sample("wc")).image.blob)
        blob[len(blob) // 2] ^= 0x01
        with pytest.raises(CorruptStreamError):
            parse_image(bytes(blob))

    def test_truncation_is_typed(self):
        from repro.errors import DecodeError

        blob = compress(compile_sample("wc")).image.blob
        for cut in (2, 6, len(blob) // 2):
            with pytest.raises(DecodeError):
                parse_image(blob[:cut])
