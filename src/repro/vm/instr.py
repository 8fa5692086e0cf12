"""VM instructions, functions, and linked programs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from ..ir.tree import GlobalData
from .isa import Operand, SPEC, InsnSpec

__all__ = ["Instr", "VMFunction", "VMProgram"]

OperandValue = Union[int, float, str]


#: Mnemonic -> the type each operand must be an instance of: ints for
#: registers and immediates, numbers for double immediates, strings for
#: labels and symbols.
_OPERAND_TYPES: Dict[str, Tuple[Union[type, Tuple[type, ...]], ...]] = {
    name: tuple(
        int if kind in (Operand.REG, Operand.FREG, Operand.IMM)
        else (int, float) if kind is Operand.DIMM
        else str
        for kind in spec.signature)
    for name, spec in SPEC.items()
}


@dataclass(frozen=True)
class Instr:
    """One VM instruction: mnemonic plus operand values.

    Operand values follow the mnemonic's signature: ints for registers and
    immediates, floats for double immediates, strings for labels and
    symbols.
    """

    name: str
    operands: Tuple[OperandValue, ...] = ()

    def __post_init__(self) -> None:
        types = _OPERAND_TYPES[self.name]  # KeyError for unknown mnemonics
        if (len(self.operands) != len(types)
                or not all(map(isinstance, self.operands, types))):
            self._reject()

    def _reject(self) -> None:
        """Raise the ``ValueError`` naming the first operand that does not
        fit the mnemonic's signature."""
        spec = self.spec
        if len(self.operands) != len(spec.signature):
            raise ValueError(
                f"{self.name} takes {len(spec.signature)} operands, "
                f"got {len(self.operands)}"
            )
        for kind, value in zip(spec.signature, self.operands):
            if kind in (Operand.REG, Operand.FREG, Operand.IMM):
                if not isinstance(value, int):
                    raise ValueError(f"{self.name}: {kind.value} operand must be int")
            elif kind is Operand.DIMM:
                if not isinstance(value, (int, float)):
                    raise ValueError(f"{self.name}: dimm operand must be a number")
            else:  # LABEL, SYM
                if not isinstance(value, str):
                    raise ValueError(f"{self.name}: {kind.value} operand must be str")

    @property
    def spec(self) -> InsnSpec:
        return SPEC[self.name]

    def __str__(self) -> str:
        from .asm import format_instr  # local import to avoid a cycle

        return format_instr(self)


@dataclass
class VMFunction:
    """A function's instruction list plus its label map.

    ``labels`` maps label name -> instruction index within ``code``.
    """

    name: str
    code: List[Instr] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)
    frame_size: int = 0
    param_bytes: int = 0

    def define_label(self, label: str) -> None:
        """Attach ``label`` to the next emitted instruction."""
        if label in self.labels:
            raise ValueError(f"duplicate label {label!r} in {self.name}")
        self.labels[label] = len(self.code)

    def emit(self, instr: Instr) -> None:
        self.code.append(instr)

    def __len__(self) -> int:
        return len(self.code)


@dataclass
class VMProgram:
    """A linked program: functions, global data, and an entry point."""

    name: str
    functions: List[VMFunction] = field(default_factory=list)
    globals: List[GlobalData] = field(default_factory=list)
    entry: str = "main"

    def function(self, name: str) -> VMFunction:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r}")

    def function_index(self, name: str) -> int:
        for i, fn in enumerate(self.functions):
            if fn.name == name:
                return i
        raise KeyError(f"no function named {name!r}")

    def instruction_count(self) -> int:
        return sum(len(fn.code) for fn in self.functions)
