"""End-to-end reproduction of the paper's worked examples.

Section 3 compiles `salt` to lcc trees; section 4.4 compresses the
corresponding OmniVM code, showing the exact candidate sets and the
cost-benefit rejection on a small program.
"""

import pytest

import repro
from repro.brisc import compress
from repro.brisc.pattern import pattern_of_instr
from repro.cfront import compile_to_ast
from repro.ir import dump_function, lower_unit

SALT = """
int salt(int j, int i) {
    if (j > 0) {
        pepper(i, j);
        j--;
    }
    return j;
}
int pepper(int a, int b) { return a * b; }
int main(void) { return salt(3, 4); }
"""


@pytest.fixture(scope="module")
def program():
    return repro.compile_c(SALT, "salt")


@pytest.fixture(scope="module")
def module():
    return lower_unit(compile_to_ast(SALT, "salt"), "salt")


class TestWireSection:
    def test_tree_stream_matches_paper_structure(self, module):
        """The paper's forest for salt: LEI guard, ARGI/ARGI/CALLI,
        the decrement ASGNI, LABELV, RETI."""
        fn = module.function("salt")
        assert [t.op.name for t in fn.forest] == [
            "LEI", "ARGI", "ARGI", "CALLI", "ASGNI", "LABELV", "RETI",
        ]

    def test_patternized_operator_stream(self, module):
        """Patternizing replaces every literal with a wildcard; the paper
        shows ASGNI(ADDRLP8[*], SUBI(INDIRI(ADDRLP8[*]), CNSTC[*]))."""
        from repro.wire import patternize_tree

        fn = module.function("salt")
        asgn = fn.forest[4]
        pattern, literals = patternize_tree(asgn)
        assert [p[0] for p in pattern] == [
            "ASGNI", "ADDRFP", "SUBI", "INDIRI", "ADDRFP", "CNSTI",
        ]
        assert [value for _, value in literals] == [0, 0, 1]

    def test_dump_notation(self, module):
        text = dump_function(module.function("salt"))
        assert "CALLI(ADDRGP[pepper])" in text


class TestBriscSection:
    def test_vm_code_shape_matches_paper(self, program):
        """The paper's OmniVM code for salt: enter, spills, compare-branch
        with immediate 0, argument moves, call, the decrement, reloads,
        exit, rjr."""
        salt = program.function("salt")
        names = [i.name for i in salt.code]
        assert names[0] == "enter"
        assert names[1] == "spill.i"
        assert "blei.i" in names  # ble.i n4,0,$L56 in the paper
        assert "call" in names
        assert names[-1] == "rjr"
        assert names[-2] == "exit"
        assert names[-3] == "reload.i"

    def test_operand_specialization_candidate_sets(self, program):
        """For `enter sp,sp,24` the paper lists 3 one-field candidate
        specializations; for `spill.i n4,16(sp)` likewise 3."""
        salt = program.function("salt")
        enter = salt.code[0]
        specs = pattern_of_instr(enter).specializations(enter)
        assert len(specs) == 3
        spill = salt.code[1]
        specs = pattern_of_instr(spill).specializations(spill)
        assert len(specs) == 3

    def test_augmented_sets_give_16_combination_candidates(self, program):
        """The paper: combining instructions 1 and 2 generates the 16
        pairs from both augmented operand-specialized sets (4 x 4)."""
        from repro.brisc.builder import _ScanTables
        from repro.brisc.slots import build_slots

        fn = build_slots(program).functions[0]
        tables = _ScanTables()
        a = tables.augmented_set(fn.slots[0])
        b = tables.augmented_set(fn.slots[1])
        assert len(a) == 4 and len(b) == 4
        assert len(a) * len(b) == 16
        assert len({x + y for x in a for y in b}) == 16

    def test_small_program_learns_nothing(self, program):
        """"Because of their code-generation/interpretation table cost, W,
        none of the candidate instructions are suitable, and the program,
        as given, remains."""
        cp = compress(program, k=20)
        assert cp.build.dictionary_size == cp.build.base_patterns

    def test_small_program_still_runs_compressed(self, program):
        from repro.brisc import run_image
        from repro.vm import run_program

        base = run_program(program)
        r = run_image(compress(program).image.blob)
        assert (r.exit_code, r.output) == (base.exit_code, base.output)
        assert base.exit_code == 2  # salt(3, 4) leaves j-1 = 2

    def test_large_input_overcomes_w(self, program):
        """"For a large input, in contrast, the benefits of operand
        specialization and opcode combination will outweigh the
        instruction table costs."""
        many = SALT + "\n".join(
            f"int salt{i}(int j, int i2) {{"
            f" if (j > {i}) {{ pepper(i2, j); j--; }} return j; }}"
            for i in range(30)
        )
        big = repro.compile_c(many)
        cp = compress(big, k=10)
        assert cp.build.dictionary_size > cp.build.base_patterns
