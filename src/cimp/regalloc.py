"""Register allocation for expression trees.

Ershov (Sethi-Ullman) numbering assigns each tree node the number of
registers needed to evaluate it without touching memory; the labels are
computed once per node, bottom-up, before code generation.  `alloc_codegen`
turns every arithmetic expression into straight-line register code for a
machine with k general registers, evaluating the heavier subtree first and
spilling to a LIFO stack only when both subtrees need every available
register.

Leaves are labeled 1, and a binary node, core or bitwise, by the join
rule.  Negation is read as ``0 - e``, so its labels and code are those of
a subtraction from a literal zero.  ``~e`` is computed in e's register
and a cast generates no code, so each is labeled as its operand.
"""

from __future__ import annotations

from typing import Union

from .syntax import AExpr, BinOp, BitNot, BitOp, Cast, IntLit, Neg, Var, frozen, walk


@frozen
class LoadConst:
    dst: int
    value: int


@frozen
class LoadVar:
    dst: int
    name: str


@frozen
class Op:
    kind: str  # an OP_KINDS value, or "not" with lhs = rhs = dst
    dst: int
    lhs: int
    rhs: int


@frozen
class Spill:
    src: int


@frozen
class Reload:
    dst: int


RegInstr = Union[LoadConst, LoadVar, Op, Spill, Reload]
RegCode = tuple[RegInstr, ...]

OP_KINDS = {
    "+": "add", "-": "sub", "*": "mul",
    "&": "and", "|": "or", "^": "xor", "<<": "sll", ">>": "srl",
}
_ZERO = IntLit(0)  # the left operand every Neg is read with


def _join(left: int, right: int) -> int:
    return max(left, right) if left != right else left + 1


def _labels(e: AExpr) -> dict[int, int]:
    """Ershov number of every node of e, keyed by id, in one bottom-up pass."""
    labels = {id(_ZERO): 1}
    for n in reversed(list(walk(e))):  # every node after its subtrees
        t = type(n)
        if t is IntLit or t is Var:
            labels[id(n)] = 1
        elif t is BinOp or t is BitOp:
            labels[id(n)] = _join(labels[id(n.left)], labels[id(n.right)])
        elif t is Neg:
            labels[id(n)] = _join(1, labels[id(n.operand)])
        elif t is BitNot or t is Cast:
            labels[id(n)] = labels[id(n.operand)]
        else:
            raise TypeError(f"not an arithmetic expression: {n!r}")
    return labels


def alloc_codegen(e: AExpr, k: int) -> RegCode:
    """Compile `e` to register code; the result lands in register 0."""
    if k < 2:
        raise ValueError("need at least 2 registers")
    return tuple(_gen(e, _labels(e), k))


def _gen(e: AExpr, labels: dict[int, int], k: int) -> list[RegInstr]:
    # A work stack of instructions to emit and (subtree, lo) pairs to
    # compile, where lo is the register that receives the subtree's value
    # and registers lo..k-1 are free.  Each case pushes its steps last
    # first.
    out: list[RegInstr] = []
    todo: list = [(e, 0)]
    while todo:
        item = todo.pop()
        if type(item) is not tuple:
            out.append(item)
            continue
        e, lo = item
        t = type(e)
        if t is IntLit:
            out.append(LoadConst(lo, e.value))
        elif t is Var:
            out.append(LoadVar(lo, e.name))
        elif t is Cast:
            todo.append((e.operand, lo))
        elif t is BitNot:
            todo += (Op("not", lo, lo, lo), (e.operand, lo))
        else:
            if t is Neg:
                kind, left, right = "sub", _ZERO, e.operand
            else:
                kind, left, right = OP_KINDS[e.op], e.left, e.right
            ll, lr = labels[id(left)], labels[id(right)]
            avail = k - lo
            if ll >= avail and lr >= avail:
                # Neither side fits while the other's value is pinned:
                # evaluate the right operand, park it on the spill stack,
                # then redo the left with every register free and bring the
                # right back into a scratch.
                todo += (Op(kind, lo, lo, lo + 1), Reload(lo + 1), (left, lo),
                         Spill(lo), (right, lo))
            elif lr > ll:
                todo += (Op(kind, lo, lo + 1, lo), (left, lo + 1), (right, lo))
            else:
                todo += (Op(kind, lo, lo, lo + 1), (right, lo + 1), (left, lo))
    return out
