"""Register allocation for expression trees.

``alloc_codegen`` is ``stack_machine.emit`` with its operand stack in k
registers: stack depth d lives in register d (static stack caching;
Ertl, PLDI 1995).  Ershov (Sethi-Ullman) numbers, the registers each
node needs without touching memory, are computed once per node,
bottom-up.  ``_Registers.order`` visits the heavier operand of each
binary node first, so the peak depth is the Ershov number, and parks a
value on a LIFO spill stack only when both operands need every free
register (Sethi and Ullman, JACM 1970).

Leaves are labeled 1, and a binary node, core or bitwise, by the join
rule.  ``emit`` reads negation as ``0 - e``, so its labels and code are
those of a subtraction from a literal zero.  ``~e`` is computed in e's
register and a cast generates no code, so each is labeled as its
operand.
"""

from __future__ import annotations

from typing import Union

from .stack_machine import ZERO, compare, emit
from .syntax import AExpr, BinOp, BitNot, BitOp, Cast, Cmp, IntLit, Neg, Var, record, walk

LoadConst = record("LoadConst", dst=int, value=int)
LoadVar = record("LoadVar", dst=int, name=str)
# kind is an OP_KINDS value, or "not" with lhs = rhs = dst
Op = record("Op", kind=str, dst=int, lhs=int, rhs=int)
Spill = record("Spill", src=int)
Reload = record("Reload", dst=int)
RegInstr = Union[LoadConst, LoadVar, Op, Spill, Reload]
RegCode = tuple[RegInstr, ...]

OP_KINDS = {
    "+": "add", "-": "sub", "*": "mul",
    "&": "and", "|": "or", "^": "xor", "<<": "sll", ">>": "srl",
}
_KINDS = {**OP_KINDS, "~": "not"}  # emit's operator table: ~ is unary
_HEIGHT = {LoadConst: 1, LoadVar: 1, Reload: 1, Spill: -1, Op: -1}  # each instruction's push


def _join(left: int, right: int) -> int:
    return max(left, right) if left != right else left + 1


def _labels(e: AExpr | Cmp) -> dict[int, int]:
    """Ershov number of every node of e, keyed by id, in one bottom-up pass."""
    labels = {id(ZERO): 1}
    for n in reversed(list(walk(e))):  # every node after its subtrees
        t = type(n)
        if t is IntLit or t is Var:
            labels[id(n)] = 1
        elif t is BinOp or t is BitOp or t is Cmp:
            labels[id(n)] = _join(labels[id(n.left)], labels[id(n.right)])
        elif t is Neg:
            labels[id(n)] = _join(1, labels[id(n.operand)])
        elif t is BitNot or t is Cast:
            labels[id(n)] = labels[id(n.operand)]
        else:
            raise TypeError(f"not an arithmetic expression: {n!r}")
    return labels


class _Registers:
    """``emit``'s target: the operand stack in registers 0..k-1, the
    register code so far in ``code`` and the stack's height in ``depth``."""

    def __init__(self, e: AExpr | Cmp, k: int):
        self.labels, self.k, self.code, self.depth = _labels(e), k, [], 0

    def const(self, value: int) -> LoadConst:
        return LoadConst(self.depth, value)

    def var(self, name: str) -> LoadVar:
        return LoadVar(self.depth, name)

    def put(self, instr) -> None:
        if type(instr) is str:  # a unary kind, computed in the top register
            top = self.depth - 1
            instr = Op(instr, top, top, top)
        else:
            self.depth += _HEIGHT[type(instr)]
        self.code.append(instr)

    def order(self, kind: str, left: AExpr, right: AExpr) -> tuple:
        """A binary node's tasks, last first, with registers lo..k-1 free."""
        lo = self.depth
        ll, lr = self.labels[id(left)], self.labels[id(right)]
        if ll >= self.k - lo and lr >= self.k - lo:
            # Neither side fits while the other's value is pinned: compute
            # the right operand, park it on the spill stack, then redo the
            # left with every register free and bring the right back.
            return Op(kind, lo, lo, lo + 1), Reload(lo + 1), left, Spill(lo), right
        if lr > ll:
            return Op(kind, lo, lo + 1, lo), left, right
        return Op(kind, lo, lo, lo + 1), right, left


def alloc_codegen(e: AExpr | Cmp, k: int) -> RegCode:
    """Register code for e, whose value lands in register 0; a
    comparison's operands land in registers 0 and 1, in the order of
    ``stack_machine.compare``."""
    if k < 2 + (type(e) is Cmp):
        raise ValueError("need at least 2 registers, 3 for a comparison")
    regs = _Registers(e, k)
    if type(e) is Cmp:
        first, second, _ = compare(e, True)
        todo = [second, first]
    else:
        todo = [e]
    emit(e, todo, True, regs.put, regs.const, regs.var, _KINDS, regs.order)
    return tuple(regs.code)
