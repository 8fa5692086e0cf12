"""The VM interpreter: loads a :class:`VMProgram` and executes it.

Memory model: a flat little-endian byte array.  Globals are laid out from
``GLOBAL_BASE`` up, the heap (a bump allocator behind ``malloc``) follows,
and the stack grows down from the top.  Function and return addresses live
in distinguishable high ranges so function pointers and ``ra`` values can
be stored to memory and reloaded like any other 32-bit word.

Dispatch: :data:`SEMANTICS` maps every mnemonic to a factory that binds
the instruction's resolved operands (register indices, immediates, branch
targets, symbol addresses) into a closure, once, on the instruction's first
visit.  Running a closure executes the instruction and returns the index of
the next one to run.  Every function is laid out in one flat index space
(see :meth:`Interpreter._layout`), so a call or return is just another
jump.  The in-place BRISC interpreter (:mod:`repro.brisc.interp`) fills the
same table with decoded slots.

The interpreter counts executed instructions; ``clock`` (syscall 8) returns
that count, which gives corpus programs a deterministic timing source.
"""

from __future__ import annotations

import operator
import struct
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..ir.tree import PtrInit, ScalarInit
from .instr import Instr, VMProgram
from .isa import NUM_FREGS, NUM_IREGS, Operand, REG_RA, REG_SP, SPEC, SYSCALLS

__all__ = ["VMError", "ExecutionResult", "Interpreter", "run_program",
           "SEMANTICS", "GLOBAL_BASE", "FUNC_ADDR_BASE"]

GLOBAL_BASE = 0x1000
FUNC_ADDR_BASE = 0x4000_0000
RET_ADDR_BASE = 0x5000_0000
HALT_ADDR = 0x5FFF_FFFF

_U32 = 0xFFFF_FFFF


def _s32(value: int) -> int:
    """Wrap to canonical signed 32-bit."""
    value &= _U32
    return value - 0x1_0000_0000 if value >= 0x8000_0000 else value


def _u32(value: int) -> int:
    return value & _U32


class VMError(Exception):
    """Any runtime fault: bad memory access, bad opcode, step overrun."""


@dataclass
class ExecutionResult:
    """What a program run produced."""

    exit_code: int
    output: str
    steps: int


# -- traps: rare exits from the dispatch loop -----------------------------------


class _Halt(Exception):
    """``hlt`` or a return to ``HALT_ADDR``: the program's exit value."""

    def __init__(self, value: int) -> None:
        self.value = value


class _Syscall(Exception):
    """``sys N``: the loop stores its step count, then serves the call."""

    def __init__(self, number: int, resume: int) -> None:
        self.number = number
        self.resume = resume


class _Miss(Exception):
    """The table entry is not compiled yet; the loop calls ``_fill``."""


def _miss() -> int:
    raise _Miss


# -- instruction semantics --------------------------------------------------------

#: A compiled instruction: runs it, returns the next table index.
Op = Callable[[], int]
#: ``factory(interp, operands, next_index)`` -> compiled op.  ``operands``
#: are resolved: labels are table indices, symbols addresses.
Factory = Callable[["Interpreter", Tuple, int], Op]

SEMANTICS: Dict[str, Factory] = {}


def _define(factory: Factory, *names: str) -> None:
    for name in names:
        SEMANTICS[name] = factory


def _load(fmt: str) -> Factory:
    unpack = struct.Struct("<" + fmt).unpack_from
    size = struct.calcsize(fmt)

    def factory(vm, ops, nxt):
        # ``ldx``/``stx`` forms have no displacement.
        d, k, b = ops if len(ops) == 3 else (ops[0], 0, ops[1])
        regs, mem = vm.iregs, vm.memory
        dst = vm.fregs if fmt == "d" else regs
        lo, top = GLOBAL_BASE, len(mem) - size

        def run():
            a = (regs[b] & 0xFFFF_FFFF) + k
            if a < lo or a > top:
                raise VMError(f"memory access out of range: {a:#x}+{size}")
            dst[d] = unpack(mem, a)[0]
            return nxt
        return run
    return factory


def _store(fmt: str) -> Factory:
    pack = struct.Struct("<" + fmt).pack_into
    size = struct.calcsize(fmt)

    def factory(vm, ops, nxt):
        s, k, b = ops if len(ops) == 3 else (ops[0], 0, ops[1])
        regs, mem = vm.iregs, vm.memory
        lo, top = GLOBAL_BASE, len(mem) - size
        if fmt == "d":
            fregs = vm.fregs

            def run():
                a = (regs[b] & 0xFFFF_FFFF) + k
                if a < lo or a > top:
                    raise VMError(f"memory access out of range: {a:#x}+{size}")
                pack(mem, a, fregs[s])
                return nxt
            return run
        mask = (1 << (8 * size)) - 1

        def run():
            a = (regs[b] & 0xFFFF_FFFF) + k
            if a < lo or a > top:
                raise VMError(f"memory access out of range: {a:#x}+{size}")
            pack(mem, a, regs[s] & mask)
            return nxt
        return run
    return factory


for _w, _fmt in (("iw", "i"), ("ib", "b"), ("iub", "B"), ("ih", "h"),
                 ("iuh", "H"), ("d", "d")):
    _define(_load(_fmt), f"ld.{_w}", f"ldx.{_w}")
for _w, _fmt in (("iw", "I"), ("ib", "B"), ("ih", "H"), ("d", "d")):
    _define(_store(_fmt), f"st.{_w}", f"stx.{_w}")
_define(SEMANTICS["ld.iw"], "reload.i")
_define(SEMANTICS["st.iw"], "spill.i")


def _constant(vm, ops, nxt):
    """``li``/``la``: the wrapped value is folded at compile time."""
    d, value = ops
    regs, value = vm.iregs, _s32(value)

    def run():
        regs[d] = value
        return nxt
    return run


def _constant_d(vm, ops, nxt):
    d, value = ops
    fregs, value = vm.fregs, float(value)

    def run():
        fregs[d] = value
        return nxt
    return run


_define(_constant, "li", "la")
_define(_constant_d, "li.d")


def _alu(fn: Callable[[int, int], int], imm: bool = False) -> Factory:
    """Integer ``d = s32(fn(a, b))``; ``imm`` takes b from the operand."""
    def factory(vm, ops, nxt):
        d, a, b = ops
        regs = vm.iregs
        if imm:
            def run():
                value = fn(regs[a], b)
                regs[d] = ((value + 0x8000_0000) & 0xFFFF_FFFF) - 0x8000_0000
                return nxt
        else:
            def run():
                value = fn(regs[a], regs[b])
                regs[d] = ((value + 0x8000_0000) & 0xFFFF_FFFF) - 0x8000_0000
                return nxt
        return run
    return factory


def _divtrunc(a: int, b: int) -> int:
    if b == 0:
        raise VMError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _remtrunc(a: int, b: int) -> int:
    return a - _divtrunc(a, b) * b


def _divu(a: int, b: int) -> int:
    if b & _U32 == 0:
        raise VMError("division by zero")
    return (a & _U32) // (b & _U32)


def _remu(a: int, b: int) -> int:
    if b & _U32 == 0:
        raise VMError("division by zero")
    return (a & _U32) % (b & _U32)


def _shl(a: int, b: int) -> int:
    return (a & _U32) << (b & 31)


def _shr(a: int, b: int) -> int:
    return (a & _U32) >> (b & 31)


def _sra(a: int, b: int) -> int:
    return a >> (b & 31)


_INT_OPS = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "and": operator.and_, "or": operator.or_, "xor": operator.xor,
    "shl": _shl, "shr": _shr, "sra": _sra,
}
for _name, _fn in _INT_OPS.items():
    _define(_alu(_fn), f"{_name}.i")
    _define(_alu(_fn, imm=True), f"{_name}i.i")
for _name, _fn in (("div", _divtrunc), ("divu", _divu), ("rem", _remtrunc),
                   ("remu", _remu)):
    _define(_alu(_fn), f"{_name}.i")
# Frame macros: ``enter sp,sp,24`` and ``exit sp,sp,24``.
_define(SEMANTICS["subi.i"], "enter")
_define(SEMANTICS["addi.i"], "exit")


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        raise VMError("floating division by zero")
    return a / b


def _falu(fn: Callable[[float, float], float]) -> Factory:
    def factory(vm, ops, nxt):
        d, a, b = ops
        fregs = vm.fregs

        def run():
            fregs[d] = fn(fregs[a], fregs[b])
            return nxt
        return run
    return factory


_define(_falu(operator.add), "add.d")
_define(_falu(operator.sub), "sub.d")
_define(_falu(operator.mul), "mul.d")
_define(_falu(_fdiv), "div.d")


def _unary(dst_file: str, src_file: str, fn: Callable) -> Factory:
    """``d = fn(a)`` between the integer ("i") and double ("f") files."""
    def factory(vm, ops, nxt):
        d, a = ops
        dst = vm.fregs if dst_file == "f" else vm.iregs
        src = vm.fregs if src_file == "f" else vm.iregs

        def run():
            dst[d] = fn(src[a])
            return nxt
        return run
    return factory


def _same(value):
    return value


_define(_unary("i", "i", _same), "mov.i")
_define(_unary("f", "f", _same), "mov.d")
_define(_unary("i", "i", lambda a: _s32(-a)), "neg.i")
_define(_unary("i", "i", lambda a: _s32(~a)), "not.i")
_define(_unary("i", "i", lambda a: ((a & 0xFF) ^ 0x80) - 0x80), "sext.b")
_define(_unary("i", "i", lambda a: a & 0xFF), "zext.b")
_define(_unary("i", "i", lambda a: ((a & 0xFFFF) ^ 0x8000) - 0x8000),
        "sext.h")
_define(_unary("i", "i", lambda a: a & 0xFFFF), "zext.h")
_define(_unary("f", "f", operator.neg), "neg.d")
_define(_unary("f", "i", float), "cvt.id")
_define(_unary("f", "i", lambda a: float(a & _U32)), "cvt.ud")
# Truncation toward zero; the unsigned form lands on the same 32 bits.
_define(_unary("i", "f", lambda x: _s32(int(x))), "cvt.di", "cvt.du")


def _branch(test: Callable[[object, object], bool], imm: bool = False,
            file: str = "i") -> Factory:
    """Fused compare-and-branch: returns the target when ``test`` holds."""
    def factory(vm, ops, nxt):
        a, b, target = ops
        regs = vm.fregs if file == "f" else vm.iregs
        if imm:
            def run():
                return target if test(regs[a], b) else nxt
        else:
            def run():
                return target if test(regs[a], regs[b]) else nxt
        return run
    return factory


_SIGNED = {"beq": operator.eq, "bne": operator.ne, "blt": operator.lt,
           "ble": operator.le, "bgt": operator.gt, "bge": operator.ge}
_UNSIGNED = {
    "bltu": lambda a, b: a & _U32 < b & _U32,
    "bleu": lambda a, b: a & _U32 <= b & _U32,
    "bgtu": lambda a, b: a & _U32 > b & _U32,
    "bgeu": lambda a, b: a & _U32 >= b & _U32,
}
for _name, _test in {**_SIGNED, **_UNSIGNED}.items():
    _define(_branch(_test), f"{_name}.i")
    _define(_branch(_test, imm=True), f"{_name}i.i")
for _name, _test in _SIGNED.items():
    _define(_branch(_test, file="f"), f"{_name}.d")


def _jmp(vm, ops, nxt):
    (target,) = ops
    return lambda: target


def _call(vm, ops, nxt):
    (address,) = ops
    index = address - FUNC_ADDR_BASE
    if not 0 <= index < len(vm._bases):
        def fault():
            raise VMError("call target is not a function")
        return fault
    regs, entry, ret = vm.iregs, vm._bases[index], vm._return_word(nxt)

    def run():
        regs[REG_RA] = ret
        return entry
    return run


def _calli(vm, ops, nxt):
    (r,) = ops
    regs, entries, ret = vm.iregs, vm._bases, vm._return_word(nxt)
    count = len(entries)

    def run():
        index = (regs[r] & 0xFFFF_FFFF) - FUNC_ADDR_BASE
        if not 0 <= index < count:
            raise VMError(f"indirect call to non-function "
                          f"{index + FUNC_ADDR_BASE:#x}")
        regs[REG_RA] = ret
        return entries[index]
    return run


def _rjr(vm, ops, nxt):
    (r,) = ops
    regs, landing = vm.iregs, vm._return_index

    def run():
        target = regs[r] & 0xFFFF_FFFF
        if target == HALT_ADDR:
            raise _Halt(_s32(regs[0]))
        return landing(target)
    return run


def _blkcpy(vm, ops, nxt):
    d, s, n = ops
    regs, mem, check = vm.iregs, vm.memory, vm._check

    def run():
        dst = regs[d] & 0xFFFF_FFFF
        src = regs[s] & 0xFFFF_FFFF
        check(dst, n)
        check(src, n)
        mem[dst : dst + n] = mem[src : src + n]
        return nxt
    return run


def _sys(vm, ops, nxt):
    (number,) = ops

    def run():
        raise _Syscall(number, nxt)
    return run


def _hlt(vm, ops, nxt):
    regs = vm.iregs

    def run():
        raise _Halt(_s32(regs[0]))
    return run


_define(_jmp, "jmp")
_define(_call, "call")
_define(_calli, "calli")
_define(_rjr, "rjr")
_define(_blkcpy, "blkcpy")
_define(_sys, "sys")
_define(_hlt, "hlt")


#: Mnemonic -> (position, kind) of each operand :meth:`Interpreter._compile`
#: must resolve (labels, symbols) or check (double registers).
_LINKED: Dict[str, Tuple[Tuple[int, Operand], ...]] = {
    name: tuple((i, kind) for i, kind in enumerate(spec.signature)
                if kind in (Operand.LABEL, Operand.SYM, Operand.FREG))
    for name, spec in SPEC.items()
}


def _fell_off(name: str) -> Op:
    def run():
        raise VMError(f"fell off the end of {name}")
    return run


class Interpreter:
    """Executes a linked VM program."""

    def __init__(
        self,
        program: VMProgram,
        memory_size: int = 1 << 20,
        max_steps: int = 50_000_000,
        stdin: str = "",
    ) -> None:
        self.program = program
        self.memory = bytearray(memory_size)
        self.max_steps = max_steps
        self.iregs = [0] * NUM_IREGS
        self.fregs = [0.0] * NUM_FREGS
        self.steps = 0
        self.output: List[str] = []
        self._stdin = stdin
        self._stdin_pos = 0
        self.exit_code: Optional[int] = None
        self._func_index = {fn.name: i for i, fn in enumerate(program.functions)}
        self.symbols: Dict[str, int] = {}
        self._load_globals()
        self._link()

    # -- loading -----------------------------------------------------------

    def _load_globals(self) -> None:
        address = GLOBAL_BASE
        for g in self.program.globals:
            address = (address + g.align - 1) // g.align * g.align
            self.symbols[g.name] = address
            address += max(1, g.size)
        self.heap_base = (address + 7) // 8 * 8
        self.heap_ptr = self.heap_base
        # Function "addresses" for function pointers.
        for i, fn in enumerate(self.program.functions):
            self.symbols[fn.name] = FUNC_ADDR_BASE + i
        # Apply initializers (after all symbols exist, for PtrInit).
        for g in self.program.globals:
            base = self.symbols[g.name]
            for item in g.items:
                if isinstance(item, ScalarInit):
                    if isinstance(item.value, float) or item.size == 8:
                        self.memory[base + item.offset : base + item.offset + 8] = (
                            struct.pack("<d", float(item.value))
                        )
                    else:
                        raw = int(item.value) & ((1 << (item.size * 8)) - 1)
                        self.memory[base + item.offset : base + item.offset + item.size] = (
                            raw.to_bytes(item.size, "little")
                        )
                else:
                    assert isinstance(item, PtrInit)
                    target = self.symbols.get(item.symbol)
                    if target is None:
                        raise VMError(f"undefined symbol {item.symbol!r} in "
                                      f"initializer of {g.name}")
                    self.memory[base + item.offset : base + item.offset + 4] = (
                        target.to_bytes(4, "little")
                    )

    def _link(self) -> None:
        self._layout([len(fn.code) for fn in self.program.functions])

    def _layout(self, lengths: Sequence[int]) -> None:
        """Build the dispatch table: compiled ops (``_code``) and the VM
        steps each one counts (``_sizes``).  Function ``f`` owns indices
        ``_bases[f]`` to ``_bases[f] + lengths[f]``; the last one faults
        ("fell off the end").  Entries start uncompiled."""
        self._bases: List[int] = []
        self._code: List[Op] = []
        for func, length in enumerate(lengths):
            self._bases.append(len(self._code))
            self._code.extend([_miss] * length)
            self._code.append(_fell_off(self.program.functions[func].name))
        self._lengths = list(lengths)
        self._sizes = [0] * len(self._code)

    def _locate(self, index: int) -> Tuple[int, int]:
        """(function, position within it) of table ``index``."""
        func = bisect_right(self._bases, index) - 1
        return func, index - self._bases[func]

    def _fill(self, index: int) -> None:
        """Compile the instruction at table ``index`` on its first visit,
        so memory goes only to code that runs."""
        func, position = self._locate(index)
        instr = self.program.functions[func].code[position]
        self._code[index] = self._compile(instr, func, position + 1)
        self._sizes[index] = 1

    def _compile(self, instr: Instr, func: int, nxt: int) -> Op:
        """Bind ``instr``'s semantics to its resolved operands; ``nxt`` is
        the fall-through position within function ``func``."""
        ops = instr.operands
        linked = _LINKED[instr.name]
        if linked:
            resolved = list(ops)
            for i, kind in linked:
                value = ops[i]
                if kind is Operand.LABEL:
                    resolved[i] = self._label(func, value)
                elif kind is Operand.SYM:
                    resolved[i] = self._symbol(func, value)
                elif not 0 <= value < NUM_FREGS:
                    raise VMError(f"{instr.name}: no double register {value}")
            ops = tuple(resolved)
        return SEMANTICS[instr.name](self, ops, self._bases[func] + nxt)

    def _label(self, func: int, label) -> int:
        fn = self.program.functions[func]
        if label not in fn.labels:
            raise VMError(f"undefined label {label!r} in {fn.name}")
        return self._landing(func, fn.labels[label])

    def _symbol(self, func: int, name) -> int:
        address = self.symbols.get(name)
        if address is None:
            raise VMError(f"undefined symbol {name!r} in "
                          f"{self.program.functions[func].name}")
        return address

    def _landing(self, func: int, position: int) -> int:
        """Table index of a control transfer to ``position`` in ``func``;
        past the end it lands on the function's fault entry."""
        return self._bases[func] + min(position, self._lengths[func])

    def _return_word(self, index: int) -> int:
        """The ``ra`` value of a call that returns to table ``index``."""
        func, position = self._locate(index)
        return _s32(RET_ADDR_BASE | (func << 16) | position)

    def _return_index(self, target: int) -> int:
        """Table index named by a return address (``rjr``)."""
        func = (target - RET_ADDR_BASE) >> 16
        if (not RET_ADDR_BASE <= target < RET_ADDR_BASE + 0x0FFF_0000
                or func >= len(self._bases)):
            raise VMError(f"return to non-return address {target:#x}")
        return self._landing(func, target & 0xFFFF)

    # -- memory helpers ------------------------------------------------------

    def _check(self, address: int, size: int) -> None:
        if address < GLOBAL_BASE or address + size > len(self.memory):
            raise VMError(f"memory access out of range: {address:#x}+{size}")

    def load(self, address: int, size: int, signed: bool) -> int:
        self._check(address, size)
        return int.from_bytes(self.memory[address : address + size], "little",
                              signed=signed)

    def store(self, address: int, size: int, value: int) -> None:
        self._check(address, size)
        raw = value & ((1 << (size * 8)) - 1)
        self.memory[address : address + size] = raw.to_bytes(size, "little")

    def load_double(self, address: int) -> float:
        self._check(address, 8)
        return struct.unpack("<d", self.memory[address : address + 8])[0]

    def read_cstring(self, address: int) -> str:
        out = []
        while True:
            byte = self.load(address, 1, signed=False)
            if byte == 0:
                return "".join(out)
            out.append(chr(byte))
            address += 1
            if len(out) > 1 << 20:
                raise VMError("unterminated string")

    # -- syscalls ----------------------------------------------------------

    def _syscall(self, number: int) -> None:
        try:
            name, argsig, ret = SYSCALLS[number]
        except KeyError:
            raise VMError(f"unknown syscall {number}") from None
        sp = _u32(self.iregs[REG_SP])
        total = sum(8 if c == "d" else 4 for c in argsig)
        args: List[object] = []
        offset = sp - total
        for c in argsig:
            if c == "d":
                args.append(self.load_double(offset))
                offset += 8
            else:
                signed = c == "i"
                args.append(self.load(offset, 4, signed=signed))
                offset += 4
        result: object = 0
        if name == "exit":
            self.exit_code = int(args[0])  # type: ignore[arg-type]
        elif name == "abort":
            raise VMError("abort() called")
        elif name == "putchar":
            self.output.append(chr(int(args[0]) & 0xFF))  # type: ignore[arg-type]
            result = args[0]
        elif name == "getchar":
            if self._stdin_pos < len(self._stdin):
                result = ord(self._stdin[self._stdin_pos])
                self._stdin_pos += 1
            else:
                result = -1
        elif name == "malloc":
            size = max(1, int(args[0]))  # type: ignore[arg-type]
            aligned = (size + 7) // 8 * 8
            address = self.heap_ptr
            if address + aligned > len(self.memory) - (1 << 16):
                raise VMError("out of heap memory")
            self.heap_ptr += aligned
            result = address
        elif name == "free":
            result = 0
        elif name == "print_int":
            self.output.append(str(_s32(int(args[0]))))  # type: ignore[arg-type]
        elif name == "print_str":
            self.output.append(self.read_cstring(int(args[0])))  # type: ignore[arg-type]
        elif name == "print_double":
            self.output.append(f"{args[0]:.6g}")
        elif name == "clock":
            result = self.steps & 0x7FFF_FFFF
        if ret == "d":
            self.fregs[0] = float(result)  # pragma: no cover - no d syscalls yet
        elif ret != "v":
            self.iregs[0] = _s32(int(result))  # type: ignore[arg-type]

    # -- execution ---------------------------------------------------------

    def run(self, entry: Optional[str] = None, args: Tuple[int, ...] = ()) -> ExecutionResult:
        """Execute from ``entry`` (default the program's entry) to halt."""
        entry = entry or self.program.entry
        if entry not in self._func_index:
            raise VMError(f"no entry function {entry!r}")
        func = self._func_index[entry]
        sp = len(self.memory) - 16
        # Push integer arguments for the entry function, mirroring the
        # caller convention (args stored immediately below sp).
        total = 4 * len(args)
        for i, arg in enumerate(args):
            self.store(sp - total + 4 * i, 4, arg)
        self.iregs[REG_SP] = sp
        self.iregs[REG_RA] = _s32(HALT_ADDR)
        try:
            exit_code = self._loop(self._bases[func])
        finally:
            # Compiled ops close over this interpreter (``rjr`` binds
            # ``_return_index``), a cycle that would keep the memory image
            # alive until the cycle collector runs.  A fresh, uncompiled
            # table breaks it; a later run recompiles on first visit.
            self._link()
        return ExecutionResult(
            exit_code=exit_code,
            output="".join(self.output),
            steps=self.steps,
        )

    def _loop(self, pc: int) -> int:
        """Dispatch from table index ``pc`` until the program halts.

        The step count lives in a local; it is stored back to
        ``self.steps`` before every syscall (``clock`` reads it) and on
        every way out, so faults and results see the exact count.
        """
        if self.exit_code is not None:
            return self.exit_code
        code, sizes = self._code, self._sizes
        limit = self.max_steps
        steps = self.steps
        try:
            while True:
                try:
                    while True:
                        steps += sizes[pc]
                        if steps > limit:
                            # The instruction that overran is step limit+1,
                            # wherever it sits inside the entry.
                            steps = limit + 1
                            raise VMError(f"exceeded {limit} steps")
                        pc = code[pc]()
                except _Syscall as trap:
                    self.steps = steps
                    self._syscall(trap.number)
                    if self.exit_code is not None:
                        return self.exit_code
                    pc = trap.resume
                except _Miss:
                    self._fill(pc)
        except _Halt as halt:
            return halt.value
        finally:
            self.steps = steps


def run_program(
    program: VMProgram,
    entry: Optional[str] = None,
    args: Tuple[int, ...] = (),
    max_steps: int = 50_000_000,
    stdin: str = "",
) -> ExecutionResult:
    """Convenience wrapper: build an interpreter and run to completion."""
    interp = Interpreter(program, max_steps=max_steps, stdin=stdin)
    return interp.run(entry, args)
