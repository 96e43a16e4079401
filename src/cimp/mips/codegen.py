"""Compilation from source programs to the MIPS subset.

Two strategies share all control-flow lowering and differ only in how
an arithmetic expression reaches $t0:

* naive mirrors the operand-stack compiler onto $sp: every operand is
  pushed, every operator pops twice and pushes once.
* regalloc runs the tree register allocator over $t0..$t7 and lowers
  its register code directly, spilling through $sp only when a subtree
  needs more than eight registers.

Variables live in the data segment under ``var_<name>``.  Typed
programs pick slt or sltu from the declared comparison type; untyped
programs are core-only and compare signed.  Multiplication has no
hardware instruction here: with emulate_mul a shift-and-add loop is
inlined, otherwise MulNotSupported reports every ``*`` position.
"""

from __future__ import annotations

from ..errors import CimpError, UnsupportedNode
from ..regalloc import LoadConst, LoadVar, Op, Reload, Spill, alloc_codegen
from ..syntax import (
    AExpr,
    Assign,
    BExpr,
    BinOp,
    BitNot,
    BitOp,
    BoolLit,
    Cast,
    Cmp,
    Com,
    If,
    IntLit,
    Neg,
    Not,
    And,
    Or,
    Program,
    Seq,
    Skip,
    Ty,
    Var,
    While,
    children,
    program_vars,
    transform,
    walk,
)
from ..typecheck import typecheck, word32
from .isa import Ins, LabelDef, Mem, MipsInstr, MipsProgram, ins

_SP0 = Mem(0, "$sp")

STRATEGIES = ("naive", "regalloc")

_MUL_CLOBBERS = ("$t8", "$t9", "$at")


class MulNotSupported(CimpError):
    """Multiplication reached the backend without --emulate-mul."""

    def __init__(self, positions):
        self.positions = tuple(positions)
        where = ", ".join(
            f"{p.line}:{p.col}" if p is not None else "?" for p in self.positions
        )
        first = next((p for p in self.positions if p is not None), None)
        super().__init__(f"multiplication requires --emulate-mul (at {where})", first)


def load_imm(reg: str, value: int) -> list[Ins]:
    """Load value mod 2**32 into reg: li when it fits, else lui/ori."""
    v = word32(value)
    if v <= 0xFFFF:
        return [ins("li", reg, v)]
    out = [ins("lui", reg, v >> 16)]
    if v & 0xFFFF:
        out.append(ins("ori", reg, reg, v & 0xFFFF))
    return out


def emit_mul_emulation(dst: str, lhs: str, rhs: str, tag: int = 0) -> list[MipsInstr]:
    """Shift-and-add product: dst := lhs * rhs mod 2**32.

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
        ins("sll", "$at", "$t9", 31),
        ins("beq", "$at", "$zero", skip),
        ins("addu", dst, dst, "$t8"),
        LabelDef(skip),
        ins("sll", "$t8", "$t8", 1),
        ins("srl", "$t9", "$t9", 1),
        ins("j", loop),
        LabelDef(done),
    ]


def _push(reg: str) -> list[Ins]:
    return [ins("addiu", "$sp", "$sp", -4), ins("sw", reg, _SP0)]


def _pop(reg: str) -> list[Ins]:
    return [ins("lw", reg, _SP0), ins("addiu", "$sp", "$sp", 4)]


def _lowered_nodes(c: Com) -> list:
    """Every node of the expressions codegen lowers, in program order.

    Loop invariants are annotations that generate no code, so only the
    operands of assignments and comparisons count.
    """
    return [
        n
        for stmt in walk(c)
        if type(stmt) is Assign or type(stmt) is Cmp
        for e in children(stmt)
        for n in walk(e)
    ]


_BINOP_INS = {"+": "addu", "-": "subu"}
_BITOP_INS = {"&": "and", "|": "or", "^": "xor", "<<": "sllv", ">>": "srlv"}


class _Codegen:
    def __init__(self, ty_of, strategy: str, emulate_mul: bool):
        self.ty_of = ty_of
        self.strategy = strategy
        self.emulate_mul = emulate_mul
        self._counter = 0

    def fresh(self, kind: str) -> str:
        name = f"{kind}_{self._counter}"
        self._counter += 1
        return name

    def mul_into(self, dst: str, lhs: str, rhs: str) -> list[MipsInstr]:
        return emit_mul_emulation(dst, lhs, rhs, tag=self._next_tag())

    def _next_tag(self) -> int:
        tag = self._counter
        self._counter += 1
        return tag

    # expression lowering: value ends up pushed on the operand stack
    def naive_aexp(self, e: AExpr) -> list[MipsInstr]:
        if isinstance(e, IntLit):
            return load_imm("$t0", e.value) + _push("$t0")
        if isinstance(e, Var):
            return [ins("lw", "$t0", f"var_{e.name}")] + _push("$t0")
        if isinstance(e, Cast):
            return self.naive_aexp(e.operand)
        if isinstance(e, Neg):
            code = self.naive_aexp(e.operand) + _pop("$t0")
            return code + [ins("subu", "$t0", "$zero", "$t0")] + _push("$t0")
        if isinstance(e, BitNot):
            code = self.naive_aexp(e.operand) + _pop("$t0")
            return code + [ins("nor", "$t0", "$t0", "$zero")] + _push("$t0")
        assert isinstance(e, (BinOp, BitOp))
        code = self.naive_aexp(e.left) + self.naive_aexp(e.right)
        code += _pop("$t1") + _pop("$t0")
        if isinstance(e, BitOp):
            code.append(ins(_BITOP_INS[e.op], "$t0", "$t0", "$t1"))
        elif e.op == "*":
            code += self.mul_into("$v0", "$t0", "$t1")
            code.append(ins("addu", "$t0", "$v0", "$zero"))
        else:
            code.append(ins(_BINOP_INS[e.op], "$t0", "$t0", "$t1"))
        return code + _push("$t0")

    def tree_aexp(self, e: AExpr) -> list[MipsInstr]:
        """Register-allocated lowering; the value ends up in $t0."""
        # casts reinterpret bits and generate no code
        stripped = transform(e, lambda n: n.operand if type(n) is Cast else n)
        if any(type(n) is BitOp or type(n) is BitNot for n in walk(stripped)):
            # the tree allocator covers core operators only
            return self.naive_aexp(stripped) + _pop("$t0")
        out: list[MipsInstr] = []
        for instr in alloc_codegen(stripped, 8):
            if isinstance(instr, LoadConst):
                out += load_imm(f"$t{instr.dst}", instr.value)
            elif isinstance(instr, LoadVar):
                out.append(ins("lw", f"$t{instr.dst}", f"var_{instr.name}"))
            elif isinstance(instr, Spill):
                out += _push(f"$t{instr.src}")
            elif isinstance(instr, Reload):
                out += _pop(f"$t{instr.dst}")
            else:
                assert isinstance(instr, Op)
                dst, lhs, rhs = (f"$t{r}" for r in (instr.dst, instr.lhs, instr.rhs))
                if instr.kind == "mul":
                    out += self.mul_into("$v0", lhs, rhs)
                    out.append(ins("addu", dst, "$v0", "$zero"))
                else:
                    mnemonic = "addu" if instr.kind == "add" else "subu"
                    out.append(ins(mnemonic, dst, lhs, rhs))
        return out

    def value_to_t0(self, e: AExpr) -> list[MipsInstr]:
        if self.strategy == "regalloc":
            return self.tree_aexp(e)
        return self.naive_aexp(e) + _pop("$t0")

    # comparison operands end up left in $t0, right in $t1
    def cmp_operands(self, b: Cmp) -> list[MipsInstr]:
        if self.strategy == "regalloc":
            code = self.value_to_t0(b.left) + _push("$t0")
            code += self.value_to_t0(b.right)
            code.append(ins("addu", "$t1", "$t0", "$zero"))
            return code + _pop("$t0")
        return (
            self.naive_aexp(b.left)
            + self.naive_aexp(b.right)
            + _pop("$t1")
            + _pop("$t0")
        )

    def cmp_branch(self, b: Cmp, cond: bool, target: str) -> list[MipsInstr]:
        """Branch to target when (left op right) == cond."""
        slt_op = "slt" if self.ty_of(b) is Ty.I32 else "sltu"
        if b.op == "=":
            branch = "beq" if cond else "bne"
            return [ins("subu", "$at", "$t0", "$t1"), ins(branch, "$at", "$zero", target)]
        if b.op == "<=":
            # left <= right iff not (right < left)
            branch = "beq" if cond else "bne"
            return [ins(slt_op, "$at", "$t1", "$t0"), ins(branch, "$at", "$zero", target)]
        assert b.op == "<"
        branch = "bne" if cond else "beq"
        return [ins(slt_op, "$at", "$t0", "$t1"), ins(branch, "$at", "$zero", target)]

    def bexp(self, b: BExpr, cond: bool, target: str) -> list[MipsInstr]:
        """Branch to target exactly when b evaluates to cond."""
        if isinstance(b, BoolLit):
            return [ins("j", target)] if b.value == cond else []
        if isinstance(b, Not):
            return self.bexp(b.operand, not cond, target)
        if isinstance(b, And):
            if cond:
                skip = self.fresh("skip")
                code = self.bexp(b.left, False, skip)
                code += self.bexp(b.right, True, target)
                return code + [LabelDef(skip)]
            return self.bexp(b.left, False, target) + self.bexp(b.right, False, target)
        if isinstance(b, Or):
            if cond:
                return self.bexp(b.left, True, target) + self.bexp(b.right, True, target)
            skip = self.fresh("skip")
            code = self.bexp(b.left, True, skip)
            code += self.bexp(b.right, False, target)
            return code + [LabelDef(skip)]
        assert isinstance(b, Cmp)
        return self.cmp_operands(b) + self.cmp_branch(b, cond, target)

    def com(self, c: Com) -> list[MipsInstr]:
        if isinstance(c, Skip):
            return []
        if isinstance(c, Assign):
            return self.value_to_t0(c.rhs) + [ins("sw", "$t0", f"var_{c.var}")]
        if isinstance(c, Seq):
            return self.com(c.first) + self.com(c.second)
        if isinstance(c, If):
            else_l, end_l = self.fresh("else"), self.fresh("endif")
            code = self.bexp(c.cond, False, else_l)
            code += self.com(c.then_branch)
            code += [ins("j", end_l), LabelDef(else_l)]
            code += self.com(c.else_branch)
            return code + [LabelDef(end_l)]
        assert isinstance(c, While)
        loop_l, end_l = self.fresh("loop"), self.fresh("endloop")
        code = [LabelDef(loop_l)]
        code += self.bexp(c.cond, False, end_l)
        code += self.com(c.body)
        return code + [ins("j", loop_l), LabelDef(end_l)]


def codegen(
    p: Program, strategy: str = "naive", emulate_mul: bool = False
) -> MipsProgram:
    """Compile a program; typed programs are typechecked first."""
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    if p.typed:
        tp = typecheck(p)
        ty_of = tp.ty_of
    else:
        for n in _lowered_nodes(p.body):
            if type(n) in (BitOp, BitNot, Cast):
                raise UnsupportedNode(
                    "bit operations and casts need a typed program", n.pos
                )
        ty_of = lambda node: Ty.I32  # noqa: E731
    if not emulate_mul:
        positions = [
            n.pos for n in _lowered_nodes(p.body) if type(n) is BinOp and n.op == "*"
        ]
        if positions:
            raise MulNotSupported(positions)
    gen = _Codegen(ty_of, strategy, emulate_mul)
    body = gen.com(p.body)
    declared = [name for name, _ in p.decls]
    extras = sorted(program_vars(p) - set(declared))
    data = tuple((f"var_{name}", 0) for name in declared + extras)
    text = (LabelDef("main"), *body, ins("break"))
    return MipsProgram(data=data, text=text)
