"""Compilation from source programs to the MIPS subset.

Two strategies share all control-flow lowering and the one expression
compiler, ``stack_machine.emit``, and differ only in where its operand
stack lives:

* naive keeps it on $sp, expanding the stack machine's code within
  emit's own walk: an operand is loaded into $t0 and pushed, an
  operator pops $t1 and $t0 and pushes its result.
* regalloc keeps depth d in $t<d>, through ``regalloc.alloc_codegen``,
  spilling through $sp only when a subtree needs more than the free
  registers.  ``~`` is a ``nor`` in its operand's register and a cast
  generates no code.

Both evaluate a comparison's operands in the stack machine's order
(``stack_machine.compare``: ``<`` takes its right operand first) into
$t0 and $t1, regalloc with no memory traffic, then test and branch as
the stack machine's branch class does, with slt or sltu from a typed
program's comparison type; untyped programs are core-only and compare
signed.  Variables live in the data segment under ``var_<name>``.
Multiplication has no hardware instruction here: with emulate_mul a
shift-and-add loop is inlined, otherwise MulNotSupported reports every
``*`` position.  An untyped program's bit node is an error, reported
before any multiplication.

Statements and conditions are laid out by ``stack_machine.lower``; this
module supplies the labels, jumps, assignments and compare-and-branch
sequences.  Every ``Ins`` checks its shape when it is built, and each
distinct value is built once, the fixed ones at import and the rest
when a program first emits them, so equal instructions of one program
are one object.  Lowering appends to one list, so a long sequence costs
no recursion.  The data segment's names are read off the loads and
stores lowering made, and the whole program is searched for the errors
above only once lowering meets one; regalloc checks each untyped
expression for a bit node first, as ``alloc_codegen`` has no word mode
and compiles every fixed-width node.

``codegen`` takes a typed program already checked, as a
``TypedProgram``, so a caller that needs the typing too checks once.
"""

from __future__ import annotations

import itertools

from ..errors import CimpError
from ..regalloc import OP_KINDS, LoadConst, LoadVar, Reload, Spill, alloc_codegen
from ..stack_machine import Ibeq, Ible, Ibgt, Ibne, compare, emit, lower, reject_bit_nodes
from ..syntax import AExpr, BinOp, Cmp, Program, Ty, com_vars, walk
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
# naive lowering: the stack machine's operators, on the two values pushed;
# "*" is the shift-and-add loop, built afresh each time for fresh labels
_OPERANDS_TO_T0_T1 = _POP[1] + _POP[0]
_MUL = object()
_NAIVE_OP = {
    op: _MUL if kind == "mul" else
    _OPERANDS_TO_T0_T1 + (_fixed(_MNEMONIC[kind], "$t0", "$t0", "$t1"),) + _PUSH[0]
    for op, kind in OP_KINDS.items()
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
    For naive code it also supplies ``stack_machine.emit``'s
    instructions: ``const``, ``var``, the ``_NAIVE_OP`` entries and
    ``put``, so each stack instruction is expanded as the walk makes it.
    """

    def __init__(self, p: Program, ty_of, strategy: str, emulate_mul: bool):
        self.body, self.words, self.ty_of = p.body, p.typed, ty_of
        self.strategy, self.emulate_mul = strategy, emulate_mul
        self.out: list[MipsInstr] = []
        self._counter = itertools.count()  # numbers labels and multiplications
        self.made = dict(_FIXED)  # (op, args) -> this program's instruction
        self.spec_names: set[str] = set()  # the names loop invariants read

    def ins(self, op: str, *args) -> Ins:
        """``ins(op, *args)``, built once per distinct value in this program."""
        made = self.made.get((op, args))
        if made is None:
            made = self.made[op, args] = ins(op, *args)
        return made

    def label(self, kind: str) -> str:
        return f"{kind}_{next(self._counter)}"

    def invariant(self, formula) -> None:
        if formula is not None:
            self.spec_names |= com_vars(formula)

    def mul_into(self, dst: int, lhs: str, rhs: str) -> None:
        """$t<dst> := lhs * rhs, through $v0."""
        if not self.emulate_mul:
            # an untyped program's bit node is reported before any multiplication
            if not self.words:
                reject_bit_nodes(self.body)
            raise MulNotSupported(
                n.pos for n in walk(self.body, code_only=True) if type(n) is BinOp and n.op == "*")
        self.out += emit_mul_emulation("$v0", lhs, rhs, tag=next(self._counter), ins=self.ins)
        self.out.append(_FROM_V0[dst])

    def const(self, k: int) -> tuple:
        return (*load_imm("$t0", k, self.ins), *_PUSH[0])

    def var(self, x: str) -> tuple:
        return (self.ins("lw", "$t0", f"var_{x}"), *_PUSH[0])

    def put(self, code) -> None:
        """A stack instruction's naive code onto ``out``."""
        if code is _MUL:
            self.out += _OPERANDS_TO_T0_T1
            self.mul_into(0, "$t0", "$t1")
            code = _PUSH[0]
        self.out += code

    def naive(self, root, todo: list) -> None:
        emit(root, todo, self.words, self.put, self.const, self.var, _NAIVE_OP)

    def tree_aexp(self, e: AExpr | Cmp) -> None:
        """Register-allocated lowering: e's value ends up in $t0, or a
        comparison's operands in $t0 and $t1."""
        if not self.words:
            reject_bit_nodes(e)
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
        store = self.ins("sw", "$t0", f"var_{var}")
        if self.strategy == "naive":
            return self.naive(rhs, [(*_POP[0], store), rhs])
        self.tree_aexp(rhs)
        self.out.append(store)

    def branch(self, b: Cmp, cond: bool, target: str) -> None:
        """Branch to target when (left op right) == cond."""
        out = self.out
        first, second, cls = compare(b, cond)
        # the operands end up first in $t0, second in $t1
        if self.strategy == "naive":
            self.naive(b, [second, first])
            out += _OPERANDS_TO_T0_T1
        else:
            self.tree_aexp(b)
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
    gen = _Codegen(p, tp.ty_of if tp else lambda node: Ty.I32, strategy, emulate_mul)
    lower(p.body, gen)
    names = [name for name, _ in p.decls] if tp else sorted(gen.spec_names.union(
        a[1][4:] for op, a in gen.made if op in ("lw", "sw") and type(a[1]) is str))
    data = tuple((f"var_{name}", 0) for name in names)
    text = (LabelDef("main"), *gen.out, ins("break"))
    return MipsProgram(data=data, text=text)
