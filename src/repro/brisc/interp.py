"""Direct interpretation of BRISC images — no decompression pass.

The interpreter fetches at byte offsets inside the compressed code,
resolves the opcode byte through the Markov context tables, unpacks the
operand bytes, and compiles the pattern's parts through the same
instruction-semantics table as the plain VM interpreter
(:data:`repro.vm.interp.SEMANTICS`) into one dispatch-table entry per slot.

Every control transfer must land on a block start (offset 0 or a
``bb_offsets`` entry), where the special Markov contexts let decoding
begin: branch labels are checked when their slot is compiled, return
addresses when the return executes.  Anywhere else a slot is reached by
falling through from its predecessor, whose pattern id is the context.

Two modes:

* ``cache_decoded=True`` (the default, and the mode the benchmarks time)
  — a slot is decoded and compiled on its first visit and then stays in
  the dispatch table, so the code runs in place without a decompression
  pass (closer to a threaded interpreter).
* ``cache_decoded=False`` — true interpretation in place: every visit to a
  slot re-decodes and recompiles it.  This is the configuration whose
  overhead the paper's "BRISC interpreted" column measures (they saw
  ~12x against native code).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import CorruptStreamError
from ..vm.instr import VMFunction, VMProgram
from ..vm.interp import Interpreter, Op, VMError
from .encode import decode_slot, parse_image, symbol_names
from .markov import CTX_BB, CTX_ENTRY

__all__ = ["BriscInterpreter", "run_image"]


class BriscInterpreter(Interpreter):
    """Executes a BRISC image in place."""

    def __init__(
        self,
        image: bytes,
        memory_size: int = 1 << 20,
        max_steps: int = 50_000_000,
        stdin: str = "",
        cache_decoded: bool = True,
    ) -> None:
        decoded = parse_image(image)
        for pid, pattern in enumerate(decoded.patterns):
            if any(part.is_control() for part in pattern.parts[:-1]):
                raise CorruptStreamError(
                    f"pattern {pid} transfers control before its last part")
        self._image = decoded
        self._sym_names: List[str] = symbol_names(decoded)
        shell = VMProgram("brisc", entry=decoded.entry)
        shell.globals = list(decoded.globals)
        for fn in decoded.functions:
            shell.functions.append(
                VMFunction(fn.name, frame_size=fn.frame_size,
                           param_bytes=fn.param_bytes)
            )
        self._cache_decoded = cache_decoded
        # Table index just past a decoded slot -> that slot's pattern id:
        # the Markov context for decoding its fall-through successor.
        self._pred_pid: Dict[int, int] = {}
        self.slots_decoded = 0
        super().__init__(shell, memory_size=memory_size, max_steps=max_steps,
                         stdin=stdin)

    def _link(self) -> None:
        # Table index = function base + byte offset; slots compile lazily.
        self._layout([len(fn.code) for fn in self._image.functions])

    def _label(self, func: int, label) -> int:
        return self._landing(func, int(str(label)[1:]))  # "L<offset>"

    def _landing(self, func: int, offset: int) -> int:
        if offset != 0 and offset not in self._image.functions[func].bb_offsets:
            raise VMError(f"jump into mid-block offset {offset}")
        return super()._landing(func, offset)

    def _fill(self, index: int) -> None:
        """Decode and compile the slot at table ``index`` on its first
        visit.  Uncached, the entry becomes a stub that decodes and
        compiles the slot again on every visit before running it."""
        func, offset = self._locate(index)
        fn = self._image.functions[func]
        if offset == 0:
            ctx = CTX_ENTRY
        elif offset in fn.bb_offsets:
            ctx = CTX_BB
        else:
            pred = self._pred_pid.get(index)
            if pred is None:
                raise VMError(f"jump into mid-block offset {offset}")
            ctx = pred
        decode = self._decoder(func, offset, ctx)
        run, self._sizes[index] = decode()
        if not self._cache_decoded:
            # This visit runs what was just decoded; later ones decode again.
            code, first = self._code, run

            def again():
                return decode()[0]()

            def run():
                code[index] = again
                return first()
        self._code[index] = run

    def _decoder(self, func: int, offset: int, ctx: int):
        """A function that decodes the slot at ``offset`` of ``func`` in
        context ``ctx`` and returns (compiled op, instruction count)."""
        image, names = self._image, self._sym_names
        fn, base, compile_ = image.functions[func], self._bases[func], self._compile

        def decode():
            _, instrs, nxt, pid = decode_slot(image, fn, offset, ctx, names)
            self.slots_decoded += 1
            self._pred_pid[base + nxt] = pid
            return (_chain([compile_(instr, func, nxt) for instr in instrs]),
                    len(instrs))
        return decode


def _chain(parts: Sequence[Op]) -> Op:
    """One op for a slot (patterns have at least one part): run every
    part; only the last may transfer control, so its result is the
    slot's."""
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        first, last = parts

        def run2():
            first()
            return last()
        return run2
    *head, last = parts

    def run():
        for part in head:
            part()
        return last()
    return run


def run_image(
    image: bytes,
    entry: Optional[str] = None,
    args: Tuple[int, ...] = (),
    max_steps: int = 50_000_000,
    stdin: str = "",
    cache_decoded: bool = True,
):
    """Interpret a BRISC image to completion."""
    interp = BriscInterpreter(image, max_steps=max_steps, stdin=stdin,
                              cache_decoded=cache_decoded)
    return interp.run(entry, args)
