"""MIPS-subset backend: codegen, assembly text and a word-accurate simulator."""

from .asm import AsmError, emit_asm, parse_asm
from .codegen import (
    MulNotSupported,
    STRATEGIES,
    codegen,
    emit_mul_emulation,
    load_imm,
)
from .isa import (
    Ins,
    LabelDef,
    Mem,
    MipsInstr,
    MipsProgram,
    REGISTERS,
    SHAPES,
    ins,
    well_formed,
)
from .sim import (
    BudgetExhausted,
    DATA_BASE,
    Halted,
    STACK_TOP,
    Trap,
    simulate,
)

__all__ = [
    "AsmError",
    "BudgetExhausted",
    "DATA_BASE",
    "Halted",
    "Ins",
    "LabelDef",
    "Mem",
    "MipsInstr",
    "MipsProgram",
    "MulNotSupported",
    "REGISTERS",
    "SHAPES",
    "STACK_TOP",
    "STRATEGIES",
    "Trap",
    "codegen",
    "emit_asm",
    "emit_mul_emulation",
    "ins",
    "load_imm",
    "parse_asm",
    "simulate",
    "well_formed",
]
