"""Semantics-preserving AST rewrites, organized into -O levels.

Level 0 is the identity.  Level 1 rewrites expressions: constant
folding with re-association over additive spines, structural identities
(``e - e -> 0`` and the 0/1 unit laws), and boolean dominance.  Level 2
adds trivial dead-code removal on commands (decided conditionals,
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
recurses through them untouched.
"""

from __future__ import annotations

from .semantics import MASK, SIGN, compile_expr
from .syntax import (
    AExpr,
    And,
    Assign,
    BExpr,
    BinOp,
    BitOp,
    BoolLit,
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
    While,
    equal,
    literal_value,
    map_children,
    transform,
)

OPT_LEVELS = (0, 1, 2)
_ZERO, _ONE, _TRUE, _FALSE = IntLit(0), IntLit(1), BoolLit(True), BoolLit(False)  # built once

def _make_lit(k: int, wrap: bool) -> AExpr:
    if wrap:
        return IntLit(k & MASK)
    return IntLit(k) if k >= 0 else Neg(IntLit(-k))


def _append_const(acc: AExpr, k: int, wrap: bool) -> AExpr:
    if wrap:
        k &= MASK
        if k == 0:
            return acc
        # prefer the smaller magnitude: x + (2^32 - 5) reads as x - 5
        if -k & MASK < k:
            return BinOp("-", acc, IntLit(-k & MASK))
        return BinOp("+", acc, IntLit(k))
    if k == 0:
        return acc
    if k > 0:
        return BinOp("+", acc, IntLit(k))
    return BinOp("-", acc, IntLit(-k))


def const_fold(e: AExpr, *, wrap: bool = False) -> AExpr:
    """Fold literal operations, gathering constants across + and - chains.

    The additive spine (nested +, -, unary -) is flattened into signed
    terms; literal terms are summed and re-attached last, so
    ``a + 1 + 2`` becomes ``a + 3``.  Non-additive operators fold only
    when both operands are literal.  The result never contains a core
    operator node with two literal operands.  A spine that rebuilds into
    an equal tree is returned as it was given, like every other rewrite.
    """
    if (type(e) is BinOp and e.op != "*") or type(e) is Neg:
        # the signed terms of the spine, leftmost first
        terms: list[tuple[int, AExpr]] = []
        todo = [(e, 1)]
        while todo:
            x, sign = todo.pop()
            t = type(x)
            if t is BinOp and x.op != "*":
                todo += ((x.right, sign if x.op == "+" else -sign), (x.left, sign))
            elif t is Neg:
                todo.append((x.operand, -sign))
            else:
                terms.append((sign, const_fold(x, wrap=wrap)))
        total = 0
        rest: list[tuple[int, AExpr]] = []
        for sign, t in terms:
            v = literal_value(t)
            if v is not None:
                total += sign * v
            else:
                rest.append((sign, t))
        if not rest:
            out = _make_lit(total, wrap)
        # A negative leading term with a positive constant rebuilds
        # as "k - ..." rather than "-t + k", which would add a node.
        elif rest[0][0] < 0 and ((total & MASK) != 0 if wrap else total > 0):
            out = IntLit(total & MASK if wrap else total)
            for sign, t in rest:
                out = BinOp("+" if sign > 0 else "-", out, t)
        else:
            out = rest[0][1] if rest[0][0] > 0 else Neg(rest[0][1])
            for sign, t in rest[1:]:
                out = BinOp("+" if sign > 0 else "-", out, t)
            out = _append_const(out, total, wrap)
        return e if equal(out, e) else out
    # the left spine of "*" and the bit operators folds bottom-up in a
    # loop, so a long chain does not recurse once per operator
    spine = []
    while (type(e) is BinOp and e.op == "*") or type(e) is BitOp:
        spine.append(e)
        e = e.left
    if not spine:
        return map_children(e, lambda k: const_fold(k, wrap=wrap))
    out = const_fold(e, wrap=wrap)
    for node in reversed(spine):
        right = const_fold(node.right, wrap=wrap)
        if out is not node.left or right is not node.right:
            node = type(node)(node.op, out, right, node.pos)
        out = node
        if type(out) is BinOp:  # "*", folded only between literals
            lv, rv = literal_value(out.left), literal_value(out.right)
            if lv is not None and rv is not None:
                out = _make_lit(lv * rv, wrap)
    return out


def _structural_step(e: AExpr) -> AExpr:
    if type(e) is not BinOp:
        return e
    op, l, r = e.op, e.left, e.right
    if op == "-":
        if equal(l, r):
            return _ZERO
        if r == _ZERO:
            return l
    elif op == "+":
        if l == _ZERO:
            return r
        if r == _ZERO:
            return l
    else:  # "*"
        if l == _ZERO or r == _ZERO:
            return _ZERO
        if l == _ONE:
            return r
        if r == _ONE:
            return l
    return e


def simplify_structural(e: AExpr) -> AExpr:
    """Structural identity and unit laws; every rule is wrap-safe."""
    return transform(e, _structural_step)


def _bool_step(b: BExpr, wrap: bool) -> BExpr:
    t = type(b)
    if t is Not:
        if type(b.operand) is BoolLit:
            return _FALSE if b.operand.value else _TRUE
    elif t is And:
        l, r = b.left, b.right
        if l == _FALSE or r == _FALSE:
            return _FALSE
        if l == _TRUE:
            return r
        if r == _TRUE:
            return l
    elif t is Or:
        l, r = b.left, b.right
        if l == _TRUE or r == _TRUE:
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


def _opt_aexp(e: AExpr, wrap: bool) -> AExpr:
    while True:
        out = simplify_structural(const_fold(e, wrap=wrap))
        if out is e:
            return e
        e = out


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
    opt_aexp = lambda e: _opt_aexp(e, wrap)  # noqa: E731

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
