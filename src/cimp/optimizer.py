"""Semantics-preserving AST rewrites, organized into -O levels.

Level 0 is the identity.  Level 1 rewrites expressions with one fused
fold, which re-associates constants over additive spines and applies
the structural laws (``e - e -> 0`` and the 0/1 unit and zero laws) as
it rebuilds each node, and formulas by boolean dominance.  Level 2 adds
trivial dead-code removal on commands (decided conditionals,
never-entered loops, Skip elimination in sequences).

Loop invariants are specification, not code: the -O pass skips them
(``transform`` with ``code_only``), so they stay as written.

A loop whose guard is literally ``true`` is never removed even though
its continuation is unreachable: divergence is an observable outcome
(OutOfFuel) that optimization must not erase.

For typed programs the same rewrites run in wrapping mode: literal
arithmetic folds modulo 2^32 (exact for the fixed-width evaluator,
since + - * are ring homomorphisms), while literal comparisons fold
only when both constants lie below 2^31, where the signed and unsigned
orders agree.  Bit operations and casts are never folded; rewriting
recurses through them untouched.  In an untyped program they raise when
evaluated, so no law drops a subtree that holds one: ``0 * (a & b)``
keeps its error at every level.
"""

from __future__ import annotations

from .semantics import MASK, SIGN, compile_expr
from .syntax import (
    AExpr,
    And,
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
    Or,
    Program,
    Seq,
    Skip,
    Var,
    While,
    equal,
    literal_value,
    map_children,
    transform,
    walk,
)

OPT_LEVELS = (0, 1, 2)
_ZERO, _ONE, _TRUE, _FALSE = IntLit(0), IntLit(1), BoolLit(True), BoolLit(False)  # built once

def _make_lit(k: int, wrap: bool) -> AExpr:
    if wrap:
        return IntLit(k & MASK)
    return IntLit(k) if k >= 0 else Neg(IntLit(-k))


def _droppable(e, wrap: bool) -> bool:
    """Whether a law may drop e unevaluated: not if e holds a fixed-width
    node of an untyped program, whose evaluation raises."""
    return wrap or not any(type(n) in (BitOp, BitNot, Cast) for n in walk(e))


def _sum_law(op: str, l: AExpr, r: AExpr, wrap: bool, fired: list) -> AExpr:
    """l op r for + and -, by the laws e - e = 0, e - 0 = e and 0 + e = e + 0 = e."""
    if op == "-" and type(l) is type(r) and equal(l, r) and _droppable(l, wrap):
        out = _ZERO
    elif op == "+" and type(l) is IntLit and l.value == 0:
        out = r
    elif type(r) is IntLit and r.value == 0:
        out = l
    else:
        return BinOp(op, l, r)
    fired[0] = True
    return out


def _fold(e: AExpr, wrap: bool, fired: list) -> tuple[AExpr, object]:
    """One round: constants folded, then the unit and zero laws applied
    bottom-up, rebuilding each node once.  Also returns the value of e's
    constant-folded form when that is a literal (the laws only ever see
    that form, so the next node up folds by it, not by the laws' result);
    fired[0] is set when a law rewrote something.
    """
    t = type(e)
    if t is IntLit:
        return e, e.value
    if t is Var:
        return e, None
    if (t is BinOp and e.op != "*") or t is Neg:
        # The additive spine (nested +, -, unary -) is flattened into
        # signed terms, leftmost first; literal terms are summed and
        # re-attached last, so a + 1 + 2 becomes a + 3.
        terms, todo = [], [(e, 1)]
        while todo:
            x, sign = todo.pop()
            tx = type(x)
            if tx is BinOp and x.op != "*":
                todo += ((x.right, sign if x.op == "+" else -sign), (x.left, sign))
            elif tx is Neg:
                todo.append((x.operand, -sign))
            else:
                terms.append((sign, x))
        total, rest = 0, []
        for sign, x in terms:
            g, v = _fold(x, wrap, fired)
            if v is None:
                rest.append((sign, g))
            else:
                total += sign * v
        if wrap:  # the smaller magnitude: x + (2^32 - 5) reads as x - 5
            total &= MASK
            total -= (MASK + 1) * (-total & MASK < total)
        if not rest:
            out = _make_lit(total, wrap)
            return (e if equal(out, e) else out), literal_value(out)
        # A negative leading term with a positive constant rebuilds as
        # "k - ..." rather than "-t + k", which would add a node.
        if rest[0][0] < 0 and (total != 0 if wrap else total > 0):
            out, total = IntLit(total & MASK if wrap else total), 0
        else:
            sign, g = rest.pop(0)
            out = g if sign > 0 else Neg(g)
        if total:
            rest.append((1 if total > 0 else -1, IntLit(abs(total))))
        for sign, g in rest:
            out = _sum_law("+" if sign > 0 else "-", out, g, wrap, fired)
        return (e if equal(out, e) else out), None
    # the left spine of "*" and the bit operators folds bottom-up in a
    # loop, so a long chain does not recurse once per operator
    spine = []
    while (type(e) is BinOp and e.op == "*") or type(e) is BitOp:
        spine.append(e)
        e = e.left
    if not spine:
        return map_children(e, lambda k: _fold(k, wrap, fired)[0]), None
    out, v = _fold(e, wrap, fired)
    for node in reversed(spine):
        right, rv = _fold(node.right, wrap, fired)
        if type(node) is BinOp and v is not None and rv is not None:
            out = _make_lit(v * rv, wrap)  # "*", folded only between literals
            v = literal_value(out)
            continue
        if out is not node.left or right is not node.right:
            node = type(node)(node.op, out, right, node.pos)
        out, v = node, None
        if type(node) is BinOp:  # the laws of "*"
            law = _ZERO if (node.left == _ZERO and _droppable(right, wrap)) or (
                right == _ZERO and _droppable(node.left, wrap)) else (
                right if node.left == _ONE else node.left if right == _ONE else None)
            if law is not None:
                out, fired[0] = law, True
    return out, v


def fold(e: AExpr, *, wrap: bool = False) -> AExpr:
    """The -O rewrite of an arithmetic expression, to its fixed point.

    Constants fold modulo 2^32 under wrap; the result never has a core
    operator node with two literal operands, and an expression needing no
    rewrite is returned as it was given.  A pass that applied no law is a
    fixed point, so another runs only after one that did (as in ``1 * (10
    - d) + 27``, whose product becomes a spine to flatten into its parent).
    """
    while True:
        fired = [False]
        out = _fold(e, wrap, fired)[0]
        if not fired[0] or out is e:
            return out
        e = out


def _bool_step(b: BExpr, wrap: bool) -> BExpr:
    t = type(b)
    if t is Not:
        if type(b.operand) is BoolLit:
            return _FALSE if b.operand.value else _TRUE
    elif t is And:
        l, r = b.left, b.right
        if l == _FALSE or (r == _FALSE and _droppable(l, wrap)):
            return _FALSE
        if l == _TRUE:
            return r
        if r == _TRUE:
            return l
    elif t is Or:
        l, r = b.left, b.right
        if l == _TRUE or (r == _TRUE and _droppable(l, wrap)):
            return _TRUE
        if l == _FALSE:
            return r
        if r == _FALSE:
            return l
    elif t is Cmp:
        lv, rv = literal_value(b.left), literal_value(b.right)
        if lv is not None and rv is not None:
            # In wrapping mode the outcome depends on the operands'
            # signedness unless both constants sit where the signed
            # and unsigned orders coincide.
            if not wrap or (0 <= lv < SIGN and 0 <= rv < SIGN):
                return BoolLit(compile_expr(b)({}))
    return b


def _dead_step(c: Com) -> Com:
    t = type(c)
    if t is Seq:
        if isinstance(c.first, Skip):
            return c.second
        if isinstance(c.second, Skip):
            return c.first
    elif t is If:
        if c.cond == _TRUE:
            return c.then_branch
        if c.cond == _FALSE:
            return c.else_branch
    elif t is While and c.cond == _FALSE:
        return Skip()
    return c


# ---------------------------------------------------------------------------
# The -O pipeline


def optimize(p: Program, level: int) -> Program:
    """Apply the level's rewrites in one pass; level 0 is identity.

    The pass is bottom-up and optimizes each assignment's and
    comparison's arithmetic to its own fixed point before the nodes
    above see it, so its result is a fixed point: optimizing it again
    returns the same body.
    """
    if level not in OPT_LEVELS:
        raise ValueError(f"optimization level must be one of {OPT_LEVELS}")
    if level == 0:
        return p
    wrap = p.typed
    opt_aexp = lambda e: fold(e, wrap=wrap)  # noqa: E731

    def step(n):
        # Arithmetic is optimized whole where code consumes it, at
        # assignments and comparisons, so the walk stops there.
        t = type(n)
        if t is Assign:
            return map_children(n, opt_aexp)
        if t is Cmp:
            return _bool_step(map_children(n, opt_aexp), wrap)
        if t is Not or t is And or t is Or:
            return _bool_step(n, wrap)
        if level >= 2 and (t is Seq or t is If or t is While):
            return _dead_step(n)
        return n

    return Program(p.decls, transform(p.body, step, code_only=True, stop_at=(Assign, Cmp)))
