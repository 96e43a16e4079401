"""Semantics-preserving AST rewrites, organized into -O levels.

Level 0 is the identity.  Level 1 folds each expression in one pass to
its linear form: a constant plus signed occurrences of opaque terms (any
node but ``+``, ``-`` and unary ``-``), so equal terms cancel by value
wherever they stand in a sum (``x + y - x`` and ``1 * (x + y) - x`` are
both ``y``).  It rewrites formulas by boolean dominance.  Level 2 adds
trivial dead-code removal on commands (decided conditionals,
never-entered loops, Skip elimination in sequences).

Loop invariants are specification, not code: the -O pass skips them
(``transform`` with ``code_only``), so they stay as written.

A loop whose guard is literally ``true`` is never removed even though
its continuation is unreachable: divergence is an observable outcome
(OutOfFuel) that optimization must not erase.

For typed programs the same rewrites run in wrapping mode: arithmetic
folds and cancels modulo 2^32 (exact for the fixed-width evaluator,
since + - * are ring homomorphisms), while literal comparisons fold
only when both constants lie below 2^31, where the signed and unsigned
orders agree.  Bit operations and casts are never folded.  In an
untyped program they raise when evaluated, so nothing drops a subtree
that holds one: ``0 * (a & b)`` and ``(a & b) - (a & b)`` keep their
error at every level.  A typed program must typecheck before it is
optimized: wrapping mode drops any term, a term with a type error too.
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
_ZERO, _TRUE, _FALSE = IntLit(0), BoolLit(True), BoolLit(False)  # built once
# The fixed-width nodes: evaluating one in an untyped program raises, so
# no rewrite of an untyped program drops a subtree that holds one.
_WORD_NODES = (BitOp, BitNot, Cast)


def _make_lit(k: int, wrap: bool) -> AExpr:
    if wrap:
        return IntLit(k & MASK)
    return IntLit(k) if k >= 0 else Neg(IntLit(-k))


def _droppable(e, wrap: bool) -> bool:
    """Whether a law may drop e unevaluated: not if e holds a fixed-width
    node of an untyped program, whose evaluation raises."""
    return wrap or not any(type(n) in _WORD_NODES for n in walk(e))


def _cancel(terms: list) -> list:
    """terms with equal droppable terms of opposite signs cancelled: read
    in order, an occurrence cancels the latest standing one of the other
    sign, so ``t - t`` at the head of ``t - t - u - t`` goes, as it would if
    spelled ``(t - t) - u - t``."""
    if len({t[2] for t in terms}) == len(terms):  # no term occurs twice
        return terms
    kept, standing = [], {}  # key: positions in kept of its standing occurrences
    for term in terms:
        sign, _, key, drop = term
        at = standing.setdefault(key, [])
        if drop and at and kept[at[-1]][0] == -sign:
            kept[at.pop()] = None
        else:
            at.append(len(kept))
            kept.append(term)
    return [t for t in kept if t is not None]


def fold(e: AExpr, *, wrap: bool = False) -> AExpr:
    """The -O rewrite of an arithmetic expression, in one bottom-up pass.

    Each node folds to its linear form, which a sum joins into its own
    and ``1 * e`` hands on.  A form becomes a node only where a product,
    a bit operator, a cast or the caller reads it: occurrences of opposite
    signs of one droppable term cancel (an untyped fixed-width node is
    never dropped), and the constant goes last.  The result is a fixed
    point; an expression needing no rewrite is returned as it was given.
    """
    if type(e) is IntLit or type(e) is Var:  # a leaf is its own normal form
        return e
    # (class, leaf fields, child keys) to a small int: terms compare
    # without recursion; a variable's key is its name
    keys: dict = {}

    def build(f):
        """Form f = (k, terms, node folded from) as a node, key, droppable."""
        k, terms, orig = f
        if not terms and type(orig) is IntLit:  # a literal stands as written
            return orig, keys.setdefault((IntLit, orig.value), len(keys)), True
        if wrap:  # the smaller magnitude: x + (2^32 - 5) reads as x - 5
            k &= MASK
            k -= (MASK + 1) * (-k & MASK < k)
        if k == 0 and len(terms) == 1 and terms[0][0] > 0:
            return terms[0][1:]
        terms = _cancel(terms)
        if not terms:
            out = _make_lit(k, wrap)
            key = IntLit, literal_value(out)
        else:
            key = "+", k, tuple(t[0] * (t[2] + 1) for t in terms)
            # A negative leading term with a positive constant rebuilds
            # as "k - ..." rather than "-t + k", which would add a node.
            if terms[0][0] < 0 and (k != 0 if wrap else k > 0):
                out, rest, k = IntLit(k & MASK if wrap else k), terms, 0
            else:
                out, rest = terms[0][1] if terms[0][0] > 0 else Neg(terms[0][1]), terms[1:]
            for sign, g, _, _ in rest:
                out = BinOp("+" if sign > 0 else "-", out, g)
            if k:
                out = BinOp("+" if k > 0 else "-", out, IntLit(abs(k)))
        drop = wrap or all(t[3] for t in terms)
        return (orig if equal(out, orig) else out), keys.setdefault(key, len(keys)), drop

    def term(node, key, drop):
        """The form of an opaque node, by its interned key; drop says
        whether its operands may be dropped (``_droppable``'s rule)."""
        drop = wrap or (type(node) not in _WORD_NODES and drop)
        return 0, [(1, node, keys.setdefault(key, len(keys)), drop)], node

    def lin(e):
        """e's form: (constant, [(sign, term, key, droppable)...], e)."""
        t = type(e)
        if t is IntLit:
            return e.value, [], e
        if t is Var:
            return 0, [(1, e, keys.setdefault(e.name, len(keys)), True)], e
        if (t is BinOp and e.op != "*") or t is Neg:
            # a sum (nested +, -, unary -) joins its operands' forms in order
            k, terms, todo = 0, [], [(e, 1)]
            while todo:
                x, sign = todo.pop()
                tx = type(x)
                if tx is BinOp and x.op != "*":
                    todo += ((x.right, sign if x.op == "+" else -sign), (x.left, sign))
                elif tx is Neg:
                    todo.append((x.operand, -sign))
                elif tx is Var:
                    terms.append((sign, x, keys.setdefault(x.name, len(keys)), True))
                elif tx is IntLit:
                    k += sign * x.value
                else:
                    xk, xterms, _ = lin(x)
                    k += sign * xk
                    terms.extend((sign * s, g, key, d) for s, g, key, d in xterms)
            return k, terms, e
        if t is BitNot or t is Cast:
            g, key, drop = build(lin(e.operand))
            e = map_children(e, lambda _: g)
            return term(e, (t, getattr(e, "target", None), key), drop)
        # the left spine of "*" and the bit operators folds bottom-up in a
        # loop, so a long chain does not recurse once per operator
        spine = []
        while (type(e) is BinOp and e.op == "*") or type(e) is BitOp:
            spine.append(e)
            e = e.left
        f = lin(e)
        for node in reversed(spine):
            rf = lin(node.right)
            (l, lkey, ldrop), (r, rkey, rdrop) = build(f), build(rf)
            if type(node) is BinOp:  # "*": literals fold, then the zero and unit laws
                lv, rv = literal_value(l), literal_value(r)
                if lv is not None and rv is not None:
                    f = lv * rv, [], _make_lit(lv * rv, wrap)
                    continue
                if (lv == 0 and rdrop) or (rv == 0 and ldrop):
                    f = 0, [], _ZERO
                    continue
                if lv == 1:
                    f = rf
                    continue
                if rv == 1:
                    continue  # f, the left operand's form, stands
            if l is not node.left or r is not node.right:
                node = type(node)(node.op, l, r, node.pos)
            f = term(node, (type(node), node.op, lkey, rkey), ldrop and rdrop)
        return f

    return build(lin(e))[0]


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

    The pass is bottom-up and folds each assignment's and comparison's
    arithmetic to its normal form before the nodes above see it, so its
    result is a fixed point: optimizing it again returns the same body.
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
