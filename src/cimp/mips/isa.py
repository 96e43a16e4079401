"""Instruction set for the MIPS-subset backend.

Instructions are kept symbolic: register operands are names like "$t0",
memory operands are either a data label or offset($base), and branch
targets are label names.  Label definitions live in the text stream as
their own entries; the simulator resolves them to instruction indices.

An ``Ins`` checks its operand shape when it is built, so no instruction
that misfits its shape exists, and equal instructions of a ``codegen``
result are one object, so memos per object work once per distinct
instruction.  ``check`` adds the program-level rules (main present, text
labels unique, every branch target and data label defined): the
simulator loads a program only after ``check``, and ``well_formed`` is
``check`` plus codegen's layout.
"""

from __future__ import annotations

from typing import Union

from ..syntax import frozen

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


@frozen
class Mem:
    """offset($base) addressing."""

    offset: int
    base: str


@frozen
class Ins:
    """One instruction; building it raises ValueError unless the
    operands fit the shape ``SHAPES`` gives op."""

    op: str
    args: tuple = ()

    def __post_init__(self):
        _check_shape(self.op, self.args)


@frozen
class LabelDef:
    name: str


MipsInstr = Union[Ins, LabelDef]


@frozen
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
        return type(arg) is int and lo <= arg <= hi  # a bool is no operand
    if kind == "addr":
        if type(arg) is Mem:
            return arg.base in _REGSET and operand_ok("imm16s", arg.offset)
        return isinstance(arg, str) and not arg.startswith("$")
    assert kind == "label"
    return isinstance(arg, str) and not arg.startswith("$")


def _check_shape(op: str, args: tuple) -> None:
    """ValueError unless args is a tuple that fits op's operand shape."""
    shape = SHAPES.get(op)
    if shape is None:
        raise ValueError(f"unknown mnemonic {op!r}")
    if type(args) is not tuple:
        raise ValueError(f"{op} operands must be a tuple, got {type(args).__name__}")
    if len(args) != len(shape):
        raise ValueError(f"{op} takes {len(shape)} operands, got {len(args)}")
    for kind, arg in zip(shape, args):
        if not operand_ok(kind, arg):
            raise ValueError(f"bad {kind} operand {arg!r} for {op}")


def ins(op: str, *args) -> Ins:
    """``Ins(op, args)``, with the operands spread out."""
    return Ins(op, args)


# (index, kind) of the operand that names a label, for each mnemonic that
# has one: kind "label" names a text label, kind "addr" a data label
# unless it is an offset($base)
_REF = {
    op: (i, kind)
    for op, shape in SHAPES.items()
    for i, kind in enumerate(shape)
    if kind in ("label", "addr")
}


def check(prog: MipsProgram) -> dict[str, int]:
    """Each text label's instruction index; ValueError if prog cannot run.

    prog cannot run when main is missing, a text label is defined twice,
    or a branch target or data label is undefined.  Shapes need no test
    here, as every ``Ins`` passed its own when it was built.  Each
    distinct instruction object is checked once, and in a codegen
    result equal instructions are one object.
    """
    target: dict[str, int] = {}
    for i, item in enumerate(prog.text):
        if type(item) is LabelDef:
            if item.name in target:
                raise ValueError(f"duplicate label {item.name!r}")
            target[item.name] = i - len(target)  # the labels before take no index
    if "main" not in target:
        raise ValueError("no main label")
    data = {name for name, _ in prog.data}
    for item in {id(item): item for item in prog.text}.values():
        ref = None if type(item) is LabelDef else _REF.get(item.op)
        if ref is None:
            continue
        arg = item.args[ref[0]]
        if ref[1] == "label":
            if arg not in target:
                raise ValueError(f"undefined branch target {arg!r}")
        elif isinstance(arg, str) and arg not in data:
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
