"""Semantics-preserving AST rewrites, organized into -O levels.

Level 0 is the identity.  Level 1 rewrites expressions: constant
folding with re-association over additive spines, structural identities
(``e - e -> 0`` and the 0/1 unit laws), and boolean dominance.  Level 2
adds trivial dead-code removal on commands (decided conditionals,
never-entered loops, Skip elimination in sequences).

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

from dataclasses import fields, is_dataclass

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
)

OPT_LEVELS = (0, 1, 2)

_MOD = 1 << 32
_HALF = 1 << 31


def _lit_value(e: AExpr):
    """Constant value of a folded literal (IntLit or Neg of one)."""
    match e:
        case IntLit(v):
            return v
        case Neg(IntLit(v)):
            return -v
    return None


def _make_lit(k: int, wrap: bool) -> AExpr:
    if wrap:
        return IntLit(k % _MOD)
    return IntLit(k) if k >= 0 else Neg(IntLit(-k))


def _append_const(acc: AExpr, k: int, wrap: bool) -> AExpr:
    if wrap:
        k %= _MOD
        if k == 0:
            return acc
        # prefer the smaller magnitude: x + (2^32 - 5) reads as x - 5
        if _MOD - k < k:
            return BinOp("-", acc, IntLit(_MOD - k))
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
    operator node with two literal operands.
    """
    match e:
        case IntLit() | Var():
            return e
        case BinOp("+" | "-", _, _) | Neg(_):
            terms: list[tuple[int, AExpr]] = []

            def flatten(x: AExpr, sign: int) -> None:
                match x:
                    case BinOp("+", left, right):
                        flatten(left, sign)
                        flatten(right, sign)
                    case BinOp("-", left, right):
                        flatten(left, sign)
                        flatten(right, -sign)
                    case Neg(operand):
                        flatten(operand, -sign)
                    case _:
                        terms.append((sign, const_fold(x, wrap=wrap)))

            flatten(e, 1)
            total = 0
            rest: list[tuple[int, AExpr]] = []
            for sign, t in terms:
                v = _lit_value(t)
                if v is not None:
                    total += sign * v
                else:
                    rest.append((sign, t))
            if not rest:
                return _make_lit(total, wrap)
            # A negative leading term with a positive constant rebuilds
            # as "k - ..." rather than "-t + k", which would add a node.
            lead_const = rest[0][0] < 0 and (
                total % _MOD != 0 if wrap else total > 0
            )
            if lead_const:
                acc: AExpr = IntLit(total % _MOD if wrap else total)
                tail = rest
            else:
                acc = rest[0][1] if rest[0][0] > 0 else Neg(rest[0][1])
                tail = rest[1:]
            for sign, t in tail:
                acc = BinOp("+" if sign > 0 else "-", acc, t)
            return acc if lead_const else _append_const(acc, total, wrap)
        case BinOp("*", left, right):
            lf = const_fold(left, wrap=wrap)
            rf = const_fold(right, wrap=wrap)
            lv, rv = _lit_value(lf), _lit_value(rf)
            if lv is not None and rv is not None:
                return _make_lit(lv * rv, wrap)
            return BinOp("*", lf, rf)
        case BitOp(op, left, right):
            return BitOp(op, const_fold(left, wrap=wrap), const_fold(right, wrap=wrap))
        case BitNot(operand):
            return BitNot(const_fold(operand, wrap=wrap))
        case Cast(target, operand):
            return Cast(target, const_fold(operand, wrap=wrap))
    raise TypeError(f"not an AExpr: {e!r}")


def simplify_structural(e: AExpr) -> AExpr:
    """Structural identity and unit laws; every rule is wrap-safe."""
    match e:
        case IntLit() | Var():
            return e
        case Neg(operand):
            return Neg(simplify_structural(operand))
        case BitNot(operand):
            return BitNot(simplify_structural(operand))
        case Cast(target, operand):
            return Cast(target, simplify_structural(operand))
        case BitOp(op, left, right):
            return BitOp(op, simplify_structural(left), simplify_structural(right))
        case BinOp(op, left, right):
            l = simplify_structural(left)
            r = simplify_structural(right)
            zero, one = IntLit(0), IntLit(1)
            if op == "-":
                if l == r:
                    return zero
                if r == zero:
                    return l
            elif op == "+":
                if l == zero:
                    return r
                if r == zero:
                    return l
            else:  # "*"
                if l == zero or r == zero:
                    return zero
                if l == one:
                    return r
                if r == one:
                    return l
            return BinOp(op, l, r)
    raise TypeError(f"not an AExpr: {e!r}")


def _cmp_holds(op: str, a: int, b: int) -> bool:
    return {"=": a == b, "<=": a <= b, "<": a < b}[op]


def simplify_bool(b: BExpr, *, wrap: bool = False) -> BExpr:
    """Dominance and unit laws for the connectives; fold literal tests.

    Arithmetic operands are expected to be pre-simplified; this pass
    only inspects them for literal-vs-literal comparisons.
    """
    match b:
        case BoolLit():
            return b
        case Not(operand):
            inner = simplify_bool(operand, wrap=wrap)
            if isinstance(inner, BoolLit):
                return BoolLit(not inner.value)
            return Not(inner)
        case And(left, right):
            l = simplify_bool(left, wrap=wrap)
            r = simplify_bool(right, wrap=wrap)
            if l == BoolLit(False) or r == BoolLit(False):
                return BoolLit(False)
            if l == BoolLit(True):
                return r
            if r == BoolLit(True):
                return l
            return And(l, r)
        case Or(left, right):
            l = simplify_bool(left, wrap=wrap)
            r = simplify_bool(right, wrap=wrap)
            if l == BoolLit(True) or r == BoolLit(True):
                return BoolLit(True)
            if l == BoolLit(False):
                return r
            if r == BoolLit(False):
                return l
            return Or(l, r)
        case Cmp(op, left, right):
            lv, rv = _lit_value(left), _lit_value(right)
            if lv is not None and rv is not None:
                # In wrapping mode the outcome depends on the operands'
                # signedness unless both constants sit where the signed
                # and unsigned orders coincide.
                if not wrap or (0 <= lv < _HALF and 0 <= rv < _HALF):
                    return BoolLit(_cmp_holds(op, lv, rv))
            return b
    raise TypeError(f"not a BExpr: {b!r}")


def dead_code(c: Com) -> Com:
    """Remove decided conditionals, never-entered loops, and Skips."""
    match c:
        case Skip() | Assign():
            return c
        case Seq(first, second):
            f = dead_code(first)
            s = dead_code(second)
            if isinstance(f, Skip):
                return s
            if isinstance(s, Skip):
                return f
            return Seq(f, s)
        case If(cond, then_branch, else_branch):
            if cond == BoolLit(True):
                return dead_code(then_branch)
            if cond == BoolLit(False):
                return dead_code(else_branch)
            return If(cond, dead_code(then_branch), dead_code(else_branch))
        case While(cond, invariant, body):
            if cond == BoolLit(False):
                return Skip()
            return While(cond, invariant, dead_code(body))
    raise TypeError(f"not a Com: {c!r}")


# ---------------------------------------------------------------------------
# The -O pipeline


def _opt_aexp(e: AExpr, wrap: bool) -> AExpr:
    while True:
        out = simplify_structural(const_fold(e, wrap=wrap))
        if out == e:
            return out
        e = out


def _opt_bexp(b: BExpr, wrap: bool) -> BExpr:
    match b:
        case BoolLit():
            mapped = b
        case Cmp(op, left, right):
            mapped = Cmp(op, _opt_aexp(left, wrap), _opt_aexp(right, wrap))
        case Not(operand):
            mapped = Not(_opt_bexp(operand, wrap))
        case And(left, right):
            mapped = And(_opt_bexp(left, wrap), _opt_bexp(right, wrap))
        case Or(left, right):
            mapped = Or(_opt_bexp(left, wrap), _opt_bexp(right, wrap))
        case _:
            raise TypeError(f"not a BExpr: {b!r}")
    return simplify_bool(mapped, wrap=wrap)


def _opt_com(c: Com, wrap: bool) -> Com:
    match c:
        case Skip():
            return c
        case Assign(var, rhs):
            return Assign(var, _opt_aexp(rhs, wrap))
        case Seq(first, second):
            return Seq(_opt_com(first, wrap), _opt_com(second, wrap))
        case If(cond, then_branch, else_branch):
            return If(
                _opt_bexp(cond, wrap),
                _opt_com(then_branch, wrap),
                _opt_com(else_branch, wrap),
            )
        case While(cond, invariant, body):
            # invariants are specification text, not executed code
            return While(_opt_bexp(cond, wrap), invariant, _opt_com(body, wrap))
    raise TypeError(f"not a Com: {c!r}")


def _same_tree(a, b) -> bool:
    """Structural equality of two ASTs, as dataclass ``==`` defines it.

    Walks an explicit stack instead of recursing through ``__eq__``, so
    long statement sequences cannot exhaust the recursion limit.  Shared
    subtrees (``a is b``) are skipped without descending.
    """
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if not is_dataclass(x):
            if x != y:
                return False
            continue
        for f in fields(x):
            if f.compare:
                todo.append((getattr(x, f.name), getattr(y, f.name)))
    return True


def optimize(p: Program, level: int) -> Program:
    """Apply the level's rewrites to a fixed point; level 0 is identity."""
    if level not in OPT_LEVELS:
        raise ValueError(f"optimization level must be one of {OPT_LEVELS}")
    if level == 0:
        return p
    wrap = p.typed
    body = p.body
    while True:
        out = _opt_com(body, wrap)
        if level >= 2:
            out = dead_code(out)
        if _same_tree(out, body):
            return Program(p.decls, out)
        body = out
