"""Compilation from source programs to the MIPS subset.

Two strategies share all control-flow lowering and differ only in how
an arithmetic expression reaches $t0:

* naive is the stack machine's code (``stack_machine.emit``) expanded
  one instruction at a time onto $sp: an operand is loaded into $t0 and
  pushed, an operator pops $t1 and $t0 and pushes its result.
* regalloc runs the tree register allocator over $t0..$t7 and lowers
  its register code directly, spilling through $sp only when a subtree
  needs more than eight registers.  The allocator covers every
  arithmetic node, so typed bit code gets registers too: ``~`` is a
  ``nor`` in its operand's register and a cast generates no code.

Both evaluate a comparison's operands in the stack machine's order
(``stack_machine.compare``: ``<`` takes its right operand first) into
$t0 and $t1, then test and branch as the stack machine's branch class
does, with slt or sltu from a typed program's comparison type; untyped
programs are core-only and compare signed.  Variables live in the data
segment under ``var_<name>``.  Multiplication has no hardware
instruction here: with emulate_mul a shift-and-add loop is inlined,
otherwise MulNotSupported reports every ``*`` position.

Statements and conditions are laid out by ``stack_machine.lower``; this
module supplies the labels, jumps, assignments and compare-and-branch
sequences.  Every ``Ins`` checks its shape when it is built, and each
distinct value is built once, the fixed ones at import and the rest
when a program first emits them, so equal instructions of one program
are one object.  Lowering appends to one list, so a long sequence costs
no recursion.

``codegen`` takes a typed program already checked, as a
``TypedProgram``, so a caller that needs the typing too checks once.
"""

from __future__ import annotations

import itertools

from ..errors import CimpError, UnsupportedNode
from ..regalloc import OP_KINDS, LoadConst, LoadVar, Reload, Spill, alloc_codegen
from ..stack_machine import (
    ARITH_INSTR,
    Ibeq,
    Ible,
    Ibgt,
    Ibne,
    Iconst,
    Imul,
    Isetvar,
    Ivar,
    compare,
    emit,
    lower,
)
from ..syntax import AExpr, BinOp, BitNot, BitOp, Cast, Cmp, Program, Ty, program_vars, walk
from ..typecheck import TypedProgram, typing, word32
from .isa import Ins, LabelDef, Mem, MipsInstr, MipsProgram, ins

STRATEGIES = ("naive", "regalloc")

_MUL_CLOBBERS = ("$t8", "$t9", "$at")

# Instructions whose operands never change are built here, once per
# value, and shared by every program that uses them.  The rest (an
# li/lui/ori constant, an lw/sw of var_<name>, a branch to a label, a
# register chosen by a caller of emit_mul_emulation) go through
# ``_Codegen.ins``, whose table starts from these, so within one program
# equal instructions are one object.
_FIXED: dict[tuple, Ins] = {}  # (op, args) -> the one instruction of that value
_fixed = lambda op, *args: _FIXED.setdefault((op, args), ins(op, *args))  # noqa: E731
_SP0 = Mem(0, "$sp")
_T = tuple(f"$t{i}" for i in range(8))  # the registers regalloc hands out
_PUSH = tuple((_fixed("addiu", "$sp", "$sp", -4), _fixed("sw", r, _SP0)) for r in _T)
_POP = tuple((_fixed("lw", r, _SP0), _fixed("addiu", "$sp", "$sp", 4)) for r in _T)
_FROM_V0 = tuple(_fixed("addu", r, "$v0", "$zero") for r in _T)
_MUL_LOW_BIT = _fixed("sll", "$at", "$t9", 31)
_MUL_SHIFT_LHS = _fixed("sll", "$t8", "$t8", 1)
_MUL_SHIFT_RHS = _fixed("srl", "$t9", "$t9", 1)
_T1_FROM_T0 = _fixed("addu", "$t1", "$t0", "$zero")
# the instruction for each regalloc Op kind but mul, which is emulated
_MNEMONIC = {
    "add": "addu", "sub": "subu", "and": "and", "or": "or", "xor": "xor",
    "sll": "sllv", "srl": "srlv", "not": "nor",
}
# regalloc's Op(kind, lo, lo, lo + 1), Op(kind, lo, lo + 1, lo) and
# Op("not", lo, lo, lo)
_REG_OP = {
    (kind, lo, a, b): _fixed(mnemonic, _T[lo], _T[a], _T[b])
    for kind, mnemonic in _MNEMONIC.items()
    for lo in range(8)
    for a, b in ((lo, lo + 1), (lo + 1, lo), (lo, lo))
    if max(a, b) < 8
}
# naive lowering: the stack machine's operators, on the two values pushed
_OPERANDS_TO_T0_T1 = _POP[1] + _POP[0]
_NAIVE_OP = {
    type(instr): _OPERANDS_TO_T0_T1
    + (_fixed(_MNEMONIC[OP_KINDS[op]], "$t0", "$t0", "$t1"),) + _PUSH[0]
    for op, instr in ARITH_INSTR.items()
    if op != "*"
}
# each stack branch class as a test of $t0 (pushed first) against $t1
# (pushed second) into $at, then a branch on $at
_CMP_AND_BRANCH = {
    (cls, ty): (_fixed(mnemonic, "$at", *regs), branch)
    for ty, slt in ((Ty.I32, "slt"), (Ty.U32, "sltu"))
    for cls, mnemonic, regs, branch in (
        (Ibeq, "subu", ("$t0", "$t1"), "beq"),
        (Ibne, "subu", ("$t0", "$t1"), "bne"),
        (Ible, slt, ("$t1", "$t0"), "beq"),
        (Ibgt, slt, ("$t1", "$t0"), "bne"),
    )
}


class MulNotSupported(CimpError):
    """Multiplication reached the backend without --emulate-mul."""

    def __init__(self, positions):
        self.positions = tuple(positions)
        where = ", ".join(
            f"{p.line}:{p.col}" if p is not None else "?" for p in self.positions
        )
        first = next((p for p in self.positions if p is not None), None)
        super().__init__(f"multiplication requires --emulate-mul (at {where})", first)


def load_imm(reg: str, value: int, ins=ins) -> list[Ins]:
    """Load value mod 2**32 into reg, built by ins: li if it fits, else lui/ori."""
    v = word32(value)
    if v <= 0xFFFF:
        return [ins("li", reg, v)]
    out = [ins("lui", reg, v >> 16)]
    if v & 0xFFFF:
        out.append(ins("ori", reg, reg, v & 0xFFFF))
    return out


def emit_mul_emulation(dst: str, lhs: str, rhs: str, tag: int = 0, ins=ins) -> list[MipsInstr]:
    """Shift-and-add product: dst := lhs * rhs mod 2**32, built by ins.

    dst, lhs, rhs must be pairwise distinct and none may be $t8, $t9 or
    $at, which the loop clobbers along with dst.  At most 32 iterations.
    """
    if len({dst, lhs, rhs}) != 3:
        raise ValueError("dst, lhs and rhs must be distinct")
    for reg in (dst, lhs, rhs):
        if reg in _MUL_CLOBBERS:
            raise ValueError(f"{reg} is clobbered by the emulation loop")
    if dst == "$zero":
        raise ValueError("dst must be writable")
    loop, skip, done = (f"mul_{part}_{tag}" for part in ("loop", "skip", "done"))
    return [
        ins("addu", "$t8", lhs, "$zero"),
        ins("addu", "$t9", rhs, "$zero"),
        ins("addu", dst, "$zero", "$zero"),
        LabelDef(loop),
        ins("beq", "$t9", "$zero", done),
        _MUL_LOW_BIT,
        ins("beq", "$at", "$zero", skip),
        ins("addu", dst, dst, "$t8"),
        LabelDef(skip),
        _MUL_SHIFT_LHS,
        _MUL_SHIFT_RHS,
        ins("j", loop),
        LabelDef(done),
    ]


class _Codegen:
    """``stack_machine.lower``'s target for MIPS, appending to ``out``.

    Labels are fresh names (``else_3``), placed as label definitions.
    """

    def __init__(self, ty_of, words: bool, strategy: str):
        self.ty_of, self.words, self.strategy = ty_of, words, strategy
        self.out: list[MipsInstr] = []
        self._counter = itertools.count()  # numbers labels and multiplications
        self.made = dict(_FIXED)  # (op, args) -> this program's instruction

    def ins(self, op: str, *args) -> Ins:
        """``ins(op, *args)``, built once per distinct value in this program."""
        made = self.made.get((op, args))
        if made is None:
            made = self.made[op, args] = ins(op, *args)
        return made

    def label(self, kind: str) -> str:
        return f"{kind}_{next(self._counter)}"

    def mul_into(self, dst: int, lhs: str, rhs: str) -> None:
        """$t<dst> := lhs * rhs, through $v0."""
        self.out += emit_mul_emulation("$v0", lhs, rhs, tag=next(self._counter), ins=self.ins)
        self.out.append(_FROM_V0[dst])

    def naive(self, code: list) -> None:
        """Stack code expanded one instruction at a time onto $sp."""
        out = self.out
        for instr in code:
            t = type(instr)
            if t is Iconst:
                out += load_imm("$t0", instr.n, self.ins)
                out += _PUSH[0]
            elif t is Ivar:
                out.append(self.ins("lw", "$t0", f"var_{instr.x}"))
                out += _PUSH[0]
            elif t is Isetvar:
                out += _POP[0]
                out.append(self.ins("sw", "$t0", f"var_{instr.x}"))
            elif t is Imul:
                out += _OPERANDS_TO_T0_T1
                self.mul_into(0, "$t0", "$t1")
                out += _PUSH[0]
            else:
                out += _NAIVE_OP[t]

    def tree_aexp(self, e: AExpr) -> None:
        """Register-allocated lowering; the value ends up in $t0."""
        out = self.out
        for instr in alloc_codegen(e, 8):
            t = type(instr)
            if t is LoadConst:
                out += load_imm(_T[instr.dst], instr.value, self.ins)
            elif t is LoadVar:
                out.append(self.ins("lw", _T[instr.dst], f"var_{instr.name}"))
            elif t is Spill:
                out += _PUSH[instr.src]
            elif t is Reload:
                out += _POP[instr.dst]
            elif instr.kind == "mul":
                self.mul_into(instr.dst, _T[instr.lhs], _T[instr.rhs])
            else:
                out.append(_REG_OP[instr.kind, instr.dst, instr.lhs, instr.rhs])

    def place(self, label: str) -> None:
        self.out.append(LabelDef(label))

    def jump(self, label: str) -> None:
        self.out.append(self.ins("j", label))

    def assign(self, var: str, rhs: AExpr) -> None:
        if self.strategy == "regalloc":
            self.tree_aexp(rhs)
            self.out.append(self.ins("sw", "$t0", f"var_{var}"))
        else:
            self.naive(emit(rhs, [Isetvar(var), rhs], self.words))

    def branch(self, b: Cmp, cond: bool, target: str) -> None:
        """Branch to target when (left op right) == cond."""
        out = self.out
        first, second, cls = compare(b, cond)
        # the operands end up first in $t0, second in $t1
        if self.strategy == "regalloc":
            self.tree_aexp(first)
            out += _PUSH[0]
            self.tree_aexp(second)
            out.append(_T1_FROM_T0)
            out += _POP[0]
        else:
            self.naive(emit(b, [second, first], self.words))
            out += _OPERANDS_TO_T0_T1
        test, branch = _CMP_AND_BRANCH[cls, self.ty_of(b)]
        out += (test, self.ins(branch, "$at", "$zero", target))


def codegen(
    p: Program | TypedProgram, strategy: str = "naive", emulate_mul: bool = False
) -> MipsProgram:
    """Compile a program; a typed ``Program`` is typechecked first.

    A typed program's data segment holds its declared names, which are
    all the names it uses (``typecheck`` rejects any other); an untyped
    program's holds every name it mentions, in sorted order.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    p, tp = typing(p)
    if tp is None or not emulate_mul:
        # one walk: an untyped program's bit node is reported before
        # any multiplication
        positions = []
        for n in walk(p.body, code_only=True):
            t = type(n)
            if t is BinOp:
                if n.op == "*":
                    positions.append(n.pos)
            elif tp is None and (t is BitOp or t is BitNot or t is Cast):
                raise UnsupportedNode.at(n, "is only available in typed programs")
        if positions and not emulate_mul:
            raise MulNotSupported(positions)
    gen = _Codegen(tp.ty_of if tp else lambda node: Ty.I32, tp is not None, strategy)
    names = [name for name, _ in p.decls] if tp else sorted(program_vars(p))
    lower(p.body, gen)
    data = tuple((f"var_{name}", 0) for name in names)
    text = (LabelDef("main"), *gen.out, ins("break"))
    return MipsProgram(data=data, text=text)
