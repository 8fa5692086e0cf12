"""In-place BRISC interpretation tests: execution equivalence."""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.brisc import BriscInterpreter, compress, run_image
from repro.brisc.encode import decode_slot, encode_image, symbol_names
from repro.brisc.markov import CTX_BB, CTX_ENTRY
from repro.brisc.pattern import DictPattern, pattern_of_instr
from repro.brisc.slots import Slot, SlotFunction, SlotProgram
from repro.corpus import generate_program_source
from repro.corpus.samples import SAMPLES
from repro.errors import CorruptStreamError
from repro.ir.tree import GlobalData
from repro.vm import Instr, Interpreter, VMProgram, parse_function, run_program
from repro.vm.interp import RET_ADDR_BASE, VMError
from repro.vm.isa import Operand


def compile_sample(name):
    return repro.compile_c(SAMPLES[name], name)


_EXPECTED = {
    "wc": "4 30 156\n",
    "calc": "7\n21\n16\n20\n182\n",
    "strings": "noisserpmoc edoc\n10\n-1\n16\n",
    "hashtab": "235 -1\n",
}


class TestEquivalence:
    @pytest.mark.parametrize("name", sorted(_EXPECTED))
    def test_cached_interpretation_matches_vm(self, name):
        prog = compile_sample(name)
        base = run_program(prog)
        assert base.output == _EXPECTED[name]
        cp = compress(prog)
        r = run_image(cp.image.blob, cache_decoded=True)
        assert (r.exit_code, r.output) == (base.exit_code, base.output)

    @pytest.mark.parametrize("name", ["wc", "strings"])
    def test_uncached_interpretation_matches_vm(self, name):
        """True in-place mode: every visit re-decodes the slot."""
        prog = compile_sample(name)
        base = run_program(prog)
        cp = compress(prog)
        r = run_image(cp.image.blob, cache_decoded=False)
        assert (r.exit_code, r.output) == (base.exit_code, base.output)

    def test_step_counts_match_plain_vm(self):
        """BRISC executes the same dynamic instruction sequence."""
        prog = compile_sample("wc")
        base = run_program(prog)
        cp = compress(prog)
        r = run_image(cp.image.blob)
        assert r.steps == base.steps

    def test_uncached_decodes_more_slots(self):
        prog = compile_sample("wc")
        cp = compress(prog)
        cached = BriscInterpreter(cp.image.blob, cache_decoded=True)
        cached.run()
        uncached = BriscInterpreter(cp.image.blob, cache_decoded=False)
        uncached.run()
        assert uncached.slots_decoded > cached.slots_decoded

    def test_compression_with_learning_still_equivalent(self):
        # Force real dictionary growth, then check semantics survive
        # specialization + combination + Markov encoding.
        fns = "\n".join(
            f"int f{i}(int a, int b) {{ return a * {i + 1} + b; }}"
            for i in range(30)
        )
        src = fns + """
            int main(void) {
                int acc = 0;
                acc += f0(1, 2); acc += f7(3, 4); acc += f29(5, 6);
                print_int(acc);
                return 0;
            }
        """
        prog = repro.compile_c(src)
        base = run_program(prog)
        cp = compress(prog, k=8)
        assert cp.build.dictionary_size > cp.build.base_patterns  # learned
        r = run_image(cp.image.blob)
        assert (r.exit_code, r.output) == (base.exit_code, base.output)

    def test_entry_args_forwarded(self):
        prog = repro.compile_c("""
            int main(void) { return 0; }
            int square(int x) { return x * x; }
        """)
        cp = compress(prog)
        interp = BriscInterpreter(cp.image.blob)
        result = interp.run("square", args=(9,))
        assert result.exit_code == 81

    def test_jump_into_mid_block_rejected(self):
        prog = compile_sample("wc")
        cp = compress(prog)
        interp = BriscInterpreter(cp.image.blob)
        with pytest.raises(VMError):
            interp._landing(0, 1)  # offset 1 is mid-slot


def _slots(image, fn):
    """(offset, instructions, next offset) of every slot, in code order."""
    names = symbol_names(image)
    offset, prev = 0, None
    while offset < len(fn.code):
        ctx = (CTX_ENTRY if offset == 0
               else CTX_BB if offset in fn.bb_offsets else prev)
        _, instrs, nxt, prev = decode_slot(image, fn, offset, ctx, names)
        yield offset, instrs, nxt
        offset = nxt


def _mid_block(fn, offset):
    return offset != 0 and offset not in fn.bb_offsets


class TestControlTransfers:
    """Every transfer lands on a block start, cached or not: a cached
    slot must not make a mid-block offset a legal target."""

    @pytest.mark.parametrize("cache_decoded", [True, False])
    def test_branch_into_mid_block_rejected(self, cache_decoded):
        blob = compress(compile_sample("wc")).image.blob
        interp = BriscInterpreter(blob, cache_decoded=cache_decoded,
                                  max_steps=100_000)
        image = interp._image
        # The first mid-block branch: point its label (the slot's last
        # two bytes) at the branch itself, a slot already decoded when the
        # branch is taken.
        fn, offset, nxt = next(
            (fn, offset, nxt) for fn in image.functions
            for offset, instrs, nxt in _slots(image, fn)
            if Operand.LABEL in instrs[-1].spec.signature
            and _mid_block(fn, offset))
        fn.code = (fn.code[:nxt - 2] + offset.to_bytes(2, "little")
                   + fn.code[nxt:])
        with pytest.raises(VMError,
                           match=f"jump into mid-block offset {offset}$"):
            interp.run()

    @pytest.mark.parametrize("cache_decoded", [True, False])
    def test_return_into_mid_block_rejected(self, cache_decoded):
        fn = parse_function("""
            la n1,forged
            ld.iw n2,0(n1)
            li n0,5
            rjr n2
        """, "main")
        program = VMProgram("t", functions=[fn],
                            globals=[GlobalData("forged", 4, 4)])
        blob = compress(program).image.blob
        interp = BriscInterpreter(blob, cache_decoded=cache_decoded,
                                  max_steps=10_000)
        main = interp._image.functions[0]
        target = next(offset for offset, _, _ in _slots(interp._image, main)
                      if _mid_block(main, offset))
        interp.store(interp.symbols["forged"], 4, RET_ADDR_BASE | target)
        with pytest.raises(VMError,
                           match=f"jump into mid-block offset {target}$"):
            interp.run()


def _outcome(interp):
    """(exit code, output, steps) of a run, or (fault, output, steps)."""
    try:
        result = interp.run()
    except VMError as exc:
        return str(exc), "".join(interp.output), interp.steps
    return result.exit_code, result.output, result.steps


def _three_ways(program, **kwargs):
    blob = compress(program).image.blob
    return [_outcome(Interpreter(program, **kwargs)),
            _outcome(BriscInterpreter(blob, cache_decoded=True, **kwargs)),
            _outcome(BriscInterpreter(blob, cache_decoded=False, **kwargs))]


class TestOneOracle:
    """The VM, cached BRISC and uncached BRISC agree on everything a
    program can observe, step counts included."""

    @given(seed=st.integers(0, 100_000), functions=st.integers(2, 8))
    @settings(max_examples=12, deadline=None)
    def test_generated_programs_agree(self, seed, functions):
        program = repro.compile_c(
            generate_program_source(functions=functions, seed=seed))
        vm, cached, uncached = _three_ways(program)
        assert vm[0] == 0
        assert vm == cached == uncached

    @given(work=st.integers(0, 12), max_steps=st.integers(100, 4000))
    @settings(max_examples=12, deadline=None)
    def test_clock_and_step_budget_agree(self, work, max_steps):
        program = repro.compile_c(f"""
            int main(void) {{
                int i;
                int n = 0;
                while (1) {{
                    for (i = 0; i < {work}; i++) n = n + i * 3;
                    print_int(clock());
                    putchar(10);
                }}
                return n;
            }}
        """)
        vm, cached, uncached = _three_ways(program, max_steps=max_steps)
        assert vm[0] == f"exceeded {max_steps} steps"
        assert vm[2] == max_steps + 1
        assert vm == cached == uncached


def test_control_before_last_part_rejected():
    """Only a pattern's last part may transfer control: a taken branch
    must never leave a slot half-executed."""
    hlt, li = Instr("hlt", ()), Instr("li", (0, 7))
    slot = Slot(insns=(hlt, li), is_block_start=True,
                pattern=DictPattern((pattern_of_instr(hlt),
                                     pattern_of_instr(li))))
    image, _ = encode_image(
        SlotProgram("bad", functions=[SlotFunction("main", slots=[slot])]),
        [])
    with pytest.raises(CorruptStreamError,
                       match="transfers control before its last part"):
        BriscInterpreter(image.blob)


@pytest.mark.parametrize("mode", ["vm", "cached", "uncached"])
def test_finished_run_frees_interpreter_without_gc(mode):
    """Compiled ops close over their interpreter; a finished run must
    break that cycle so refcounting frees the memory image at once."""
    program = compile_sample("wc")
    if mode == "vm":
        interp = Interpreter(program)
    else:
        interp = BriscInterpreter(compress(program).image.blob,
                                  cache_decoded=mode == "cached")
    gc.disable()
    try:
        interp.run()
        ref = weakref.ref(interp)
        del interp
        assert ref() is None
    finally:
        gc.enable()
