"""Instruction set for the MIPS-subset backend.

Instructions are kept symbolic: register operands are names like "$t0",
memory operands are either a data label or offset($base), and branch
targets are label names.  Label definitions live in the text stream as
their own entries; the simulator resolves them to instruction indices.

``ins`` decides whether one instruction fits its shape, and ``check``
whether a whole program can run: the simulator loads a program only
after ``check``, and ``well_formed`` is ``check`` plus codegen's layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

REGISTERS = (
    "$zero",
    "$at",
    "$v0",
    "$t0",
    "$t1",
    "$t2",
    "$t3",
    "$t4",
    "$t5",
    "$t6",
    "$t7",
    "$t8",
    "$t9",
    "$s0",
    "$s1",
    "$s2",
    "$s3",
    "$s4",
    "$s5",
    "$s6",
    "$s7",
    "$sp",
    "$ra",
)

_REGSET = frozenset(REGISTERS)


@dataclass(frozen=True)
class Mem:
    """offset($base) addressing."""

    offset: int
    base: str


@dataclass(frozen=True)
class Ins:
    op: str
    args: tuple = ()


@dataclass(frozen=True)
class LabelDef:
    name: str


MipsInstr = Union[Ins, LabelDef]


@dataclass(frozen=True)
class MipsProgram:
    data: tuple[tuple[str, int], ...] = ()
    text: tuple[MipsInstr, ...] = ()


# operand shapes per mnemonic: reg, imm16u, imm16s, shamt, addr, label
SHAPES = {
    "li": ("reg", "imm16u"),
    "lui": ("reg", "imm16u"),
    "ori": ("reg", "reg", "imm16u"),
    "addiu": ("reg", "reg", "imm16s"),
    "lw": ("reg", "addr"),
    "sw": ("reg", "addr"),
    "addu": ("reg", "reg", "reg"),
    "subu": ("reg", "reg", "reg"),
    "and": ("reg", "reg", "reg"),
    "or": ("reg", "reg", "reg"),
    "xor": ("reg", "reg", "reg"),
    "nor": ("reg", "reg", "reg"),
    "sllv": ("reg", "reg", "reg"),
    "srlv": ("reg", "reg", "reg"),
    "slt": ("reg", "reg", "reg"),
    "sltu": ("reg", "reg", "reg"),
    "sll": ("reg", "reg", "shamt"),
    "srl": ("reg", "reg", "shamt"),
    "beq": ("reg", "reg", "label"),
    "bne": ("reg", "reg", "label"),
    "j": ("label",),
    "break": (),
}

_IMM_RANGE = {
    "imm16u": (0, 0xFFFF),
    "imm16s": (-0x8000, 0x7FFF),
    "shamt": (0, 31),
}


def operand_ok(kind: str, arg) -> bool:
    if kind == "reg":
        return isinstance(arg, str) and arg in _REGSET
    if kind in _IMM_RANGE:
        lo, hi = _IMM_RANGE[kind]
        return isinstance(arg, int) and lo <= arg <= hi
    if kind == "addr":
        if isinstance(arg, Mem):
            return arg.base in _REGSET and -0x8000 <= arg.offset <= 0x7FFF
        return isinstance(arg, str) and not arg.startswith("$")
    assert kind == "label"
    return isinstance(arg, str) and not arg.startswith("$")


def _check_shape(op: str, args: tuple) -> tuple:
    """op's operand shape; ValueError unless args fit it."""
    shape = SHAPES.get(op)
    if shape is None:
        raise ValueError(f"unknown mnemonic {op!r}")
    if len(args) != len(shape):
        raise ValueError(f"{op} takes {len(shape)} operands, got {len(args)}")
    for kind, arg in zip(shape, args):
        if not operand_ok(kind, arg):
            raise ValueError(f"bad {kind} operand {arg!r} for {op}")
    return shape


def ins(op: str, *args) -> Ins:
    """Build an instruction, checking the operand shape.

    Every instruction codegen emits comes from here.  The ones whose
    operands never change (stack pushes and pops, fixed ALU forms,
    comparison tests, the register-only lines of the multiplication
    loop) are built once when codegen is imported and then shared; the
    ones with a varying operand (constants, variable loads and stores,
    branches to fresh labels) are built, and checked, at each use.
    """
    _check_shape(op, args)
    return Ins(op, args)


def check(prog: MipsProgram) -> dict[str, int]:
    """Each text label's instruction index; ValueError if prog cannot run.

    prog cannot run when main is missing, a text label is defined twice,
    an instruction does not fit its shape (the test ``ins`` applies), or
    a branch target or data label is undefined.  Each distinct
    instruction object is checked once: codegen shares the ones whose
    operands never change.
    """
    target: dict[str, int] = {}
    n_ins = 0
    for item in prog.text:
        if isinstance(item, LabelDef):
            if item.name in target:
                raise ValueError(f"duplicate label {item.name!r}")
            target[item.name] = n_ins
        else:
            n_ins += 1
    if "main" not in target:
        raise ValueError("no main label")
    data = {name for name, _ in prog.data}
    seen: set[int] = set()
    for item in prog.text:
        if isinstance(item, LabelDef) or id(item) in seen:
            continue
        seen.add(id(item))
        for kind, arg in zip(_check_shape(item.op, item.args), item.args):
            if kind == "label" and arg not in target:
                raise ValueError(f"undefined branch target {arg!r}")
            if kind == "addr" and isinstance(arg, str) and arg not in data:
                raise ValueError(f"undefined data label {arg!r}")
    return target


def well_formed(prog: MipsProgram) -> bool:
    """``check`` passes, text starts at main and ends in break, labels
    are unique across both sections and data words fit 32 bits."""
    try:
        target = check(prog)
    except ValueError:
        return False
    labels = {name for name, _ in prog.data} | set(target)
    return (
        prog.text[0] == LabelDef("main")
        and prog.text[-1] == Ins("break")
        and len(labels) == len(prog.data) + len(target)
        and all(w == w & 0xFFFFFFFF for _, w in prog.data)
    )
