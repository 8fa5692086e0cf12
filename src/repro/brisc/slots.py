"""Program slots: the unit of BRISC encoding.

A slot holds one *or more* concrete VM instructions (after opcode
combination) plus the dictionary pattern currently representing them.  The
concrete instructions are the ground truth; rewriting a slot just picks a
better pattern, and merging concatenates neighbours.

Block starts (function entries and branch targets) are flagged: they anchor
the Markov model's special contexts and bound opcode combination (a jump
target must begin a slot, or the program would branch into the middle of a
fused pattern).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..vm.instr import Instr, VMProgram
from .pattern import DictPattern, pattern_of_instr

__all__ = ["Slot", "SlotFunction", "SlotProgram", "build_slot_function",
           "build_slots"]


@dataclass
class Slot:
    """One encodable unit: concrete instructions + chosen pattern."""

    insns: Tuple[Instr, ...]
    pattern: DictPattern
    is_block_start: bool = False
    labels: Tuple[str, ...] = ()

    @property
    def size(self) -> int:
        """Current encoded size (opcode byte + operand bytes)."""
        return self.pattern.encoded_size()

    # The builder's slot-key cache (``_key``) never crosses a pickle.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_key", None)
        return state


@dataclass
class SlotFunction:
    """A function as a slot list."""

    name: str
    slots: List[Slot] = field(default_factory=list)
    frame_size: int = 0
    param_bytes: int = 0

    def encoded_code_size(self) -> int:
        return sum(s.size for s in self.slots)


@dataclass
class SlotProgram:
    """A whole program in slot form, plus the pattern dictionary."""

    name: str
    functions: List[SlotFunction] = field(default_factory=list)
    entry: str = "main"

    def encoded_code_size(self) -> int:
        return sum(fn.encoded_code_size() for fn in self.functions)

    def slot_count(self) -> int:
        return sum(len(fn.slots) for fn in self.functions)


def build_slot_function(fn) -> SlotFunction:
    """Initial slots for one VM function: one slot per instruction, base
    patterns.  Factored out of :func:`build_slots` so the incremental
    builder (:mod:`repro.brisc.journal`) can re-slot just the functions
    an edit changed."""
    sf = SlotFunction(fn.name, frame_size=fn.frame_size,
                      param_bytes=fn.param_bytes)
    starts: Dict[int, List[str]] = {}
    for label, index in fn.labels.items():
        starts.setdefault(index, []).append(label)
    # Return addresses land on the slot after a call, so those slots
    # are block starts too — the paper's block beginnings "of various
    # types" (branch targets and post-call resumption points).
    post_call = {
        i + 1 for i, instr in enumerate(fn.code)
        if instr.name in ("call", "calli")
    }
    for i, instr in enumerate(fn.code):
        base = pattern_of_instr(instr)
        sf.slots.append(
            Slot(
                insns=(instr,),
                pattern=DictPattern((base,)),
                is_block_start=(i == 0 or i in starts or i in post_call),
                labels=tuple(sorted(starts.get(i, ()))),
            )
        )
    return sf


def build_slots(program: VMProgram) -> SlotProgram:
    """Initial slot program: one slot per instruction, base patterns."""
    out = SlotProgram(program.name, entry=program.entry)
    for fn in program.functions:
        out.functions.append(build_slot_function(fn))
    return out
