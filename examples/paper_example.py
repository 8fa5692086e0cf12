"""The paper's worked example, end to end.

Usage::

    python examples/paper_example.py

Reproduces the `salt`/`pepper` walkthrough: the lcc trees of section 3,
the patternized streams with MTF coding, the OmniVM-style RISC code of
section 4.4, the candidate specializations of `enter sp,sp,24` and
`spill.i`, the 16 combination candidates, and the cost-benefit rejection
(B = P − W < 0) that leaves a small program uncompressed.
"""

import repro
from repro.brisc import compress
from repro.brisc.builder import _ScanTables
from repro.brisc.cost import CostModel
from repro.brisc.pattern import DictPattern, pattern_of_instr
from repro.brisc.slots import build_slots
from repro.cfront import compile_to_ast
from repro.compress.mtf import mtf_encode
from repro.ir import dump_function, lower_unit
from repro.vm.asm import format_function
from repro.wire import patternize_tree

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


def main() -> None:
    print("== section 3: the lcc trees ==")
    module = lower_unit(compile_to_ast(SALT, "salt"), "salt")
    print(dump_function(module.function("salt")))

    print("\n== patternized operator stream (literals -> wildcards) ==")
    for tree in module.function("salt").forest:
        pattern, literals = patternize_tree(tree)
        ops = " ".join(f"{name}{'*' if True else ''}" for name, _ in pattern)
        print(f"  {ops:60s}  literals: "
              f"{[v for _, v in literals]}")

    print("\n== MTF coding of a literal stream (the paper's [72 72 68 ...]"
          " example) ==")
    indices, novel = mtf_encode([72, 72, 68, 72, 68, 68, 68, 68])
    print(f"  stream [72 72 68 72 68 68 68 68] -> indices {indices},"
          f" novel {novel}")

    print("\n== section 4: the RISC VM code for salt ==")
    program = repro.compile_c(SALT, "salt")
    print(format_function(program.function("salt")))

    print("\n== candidate operand specializations (one field at a time) ==")
    salt = program.function("salt")
    for instr in salt.code[:3]:
        specs = pattern_of_instr(instr).specializations(instr)
        print(f"  {str(instr):28s} -> {', '.join(str(s) for s in specs)}")

    print("\n== opcode combination: the 16 pairs for instructions 1 and 2 ==")
    fn = build_slots(program).functions[0]
    tables = _ScanTables()
    a_set = tables.augmented_set(fn.slots[0])
    b_set = tables.augmented_set(fn.slots[1])
    for p in a_set:
        print("  set 1:", " ".join(str(tables.parts[i]) for i in p))
    print(f"  |augmented set 1| = {len(a_set)},"
          f" |augmented set 2| = {len(b_set)},"
          f" candidates = {len(a_set) * len(b_set)}")

    print("\n== the cost-benefit metric on [enter sp,*,*] ==")
    cost = CostModel()
    enter = salt.code[0]
    spec = pattern_of_instr(enter).specializations(enter)[0]
    cand = DictPattern((spec,))
    w = cost.working_set_cost(cand)
    benefit = cost.benefit(cand, bytes_saved=1)  # one occurrence, one byte
    print(f"  candidate {cand}")
    print(f"  W (avg Pentium/PPC template bytes) = {w}")
    print(f"  B = P - W = {benefit}   (negative, so it is rejected —"
          " exactly the paper's outcome)")

    print("\n== compressing the whole (small) program ==")
    cp = compress(program)
    print(f"  dictionary: {cp.build.dictionary_size} patterns"
          f" (base {cp.build.base_patterns}; nothing learned, as the paper"
          " predicts for small inputs)")
    print(f"  image: {cp.size} bytes; code segment"
          f" {cp.image.code_segment_size} bytes")
    result = repro.brisc.run_image(cp.image.blob)
    print(f"  interpreted in place: salt(3, 4) leaves j = "
          f"{result.exit_code}")


if __name__ == "__main__":
    main()
