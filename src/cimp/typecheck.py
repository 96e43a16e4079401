"""Fixed-width types: i32/u32 checking and the wrapping 32-bit evaluator.

Programs with a declaration section run in typed mode.  Variables carry
their declared type, integer literals are polymorphic and adopt the type
of their context (defaulting to i32), and the only bridge between signed
and unsigned is an explicit cast, which reinterprets bits.  Arithmetic
wraps modulo 2^32 for both types; signedness only changes how comparisons
order words.

``typecheck`` is one pre-order pass over the program that types the
right-hand side of every assignment and the operands of every comparison,
in loop conditions and invariants alike, and then in any formulas passed
with the program, such as a Hoare triple's pre- and postcondition.
``ceval_fixed`` is ``semantics.run_fueled`` with the 32-bit evaluators
``eval_fixed`` and ``beval_fixed``.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Mapping, Optional, Union

from .errors import CimpError
from .semantics import Outcome, Store, run_fueled
from .syntax import (
    AExpr,
    And,
    Assertion,
    Assign,
    BinOp,
    BitNot,
    BitOp,
    BoolLit,
    Cast,
    Cmp,
    Implies,
    IntLit,
    Neg,
    Not,
    Or,
    Program,
    SrcPos,
    Ty,
    Var,
    walk,
)

MASK = 0xFFFFFFFF
_MOD = 1 << 32
_SIGN = 1 << 31


class TypeMismatch(CimpError):
    """Two sides of an operation disagree, with no implicit coercion."""

    def __init__(self, expected: str, found: str, pos: Optional[SrcPos] = None):
        super().__init__(f"found {found} where {expected} expected", pos)
        self.expected = expected
        self.found = found


class UndeclaredVariable(CimpError):
    def __init__(self, name: str, pos: Optional[SrcPos] = None):
        super().__init__(f"undeclared variable {name}", pos)
        self.name = name


class TypedProgram:
    """A checked program plus the type assigned to every value node.

    `ty_of` answers for arithmetic expressions and for comparison nodes
    (where it reports the common operand type, which is what a backend
    needs to pick signed or unsigned ordering).
    """

    def __init__(self, program: Program, env: dict[str, Ty], types: dict[int, Ty]):
        self.program = program
        self.env = env
        self._types = types

    def ty_of(self, node: Union[AExpr, Cmp]) -> Ty:
        return self._types[id(node)]


def word32(v: int) -> int:
    return v & MASK


def to_signed(w: int) -> int:
    return w - _MOD if w & _SIGN else w


def _fmt(t: Ty) -> str:
    return str(t)


class _Checker:
    def __init__(self, env: dict[str, Ty]):
        self.env = env
        self.types: dict[int, Ty] = {}

    # -- arithmetic -------------------------------------------------------

    def synth(self, e: AExpr) -> Optional[Ty]:
        """Type of e, or None when e is a literal-only (polymorphic) tree."""
        if isinstance(e, IntLit):
            return None
        if isinstance(e, Var):
            t = self.env.get(e.name)
            if t is None:
                raise UndeclaredVariable(e.name, e.pos)
            self.types[id(e)] = t
            return t
        if isinstance(e, Neg):
            t = self.synth(e.operand)
            if t is not None:
                self.types[id(e)] = t
            return t
        if isinstance(e, BinOp):
            tl = self.synth(e.left)
            tr = self.synth(e.right)
            if tl is None and tr is None:
                return None
            if tl is None:
                self._adopt(e.left, tr)
                t = tr
            elif tr is None:
                self._adopt(e.right, tl)
                t = tl
            elif tl is not tr:
                raise TypeMismatch(_fmt(tl), _fmt(tr), e.right.pos)
            else:
                t = tl
            self.types[id(e)] = t
            return t
        if isinstance(e, BitOp):
            self.check(e.left, Ty.U32)
            self.check(e.right, Ty.U32)
            self.types[id(e)] = Ty.U32
            return Ty.U32
        if isinstance(e, BitNot):
            self.check(e.operand, Ty.U32)
            self.types[id(e)] = Ty.U32
            return Ty.U32
        assert isinstance(e, Cast)
        if self.synth(e.operand) is None:
            # a cast imposes no context on its operand
            self._adopt(e.operand, Ty.I32)
        self.types[id(e)] = e.target
        return e.target

    def check(self, e: AExpr, t: Ty) -> None:
        s = self.synth(e)
        if s is None:
            self._adopt(e, t)
        elif s is not t:
            raise TypeMismatch(_fmt(t), _fmt(s), e.pos)

    def _adopt(self, e: AExpr, t: Ty) -> None:
        # e synthesized as polymorphic, so it is built solely from
        # IntLit, Neg and BinOp; stamp the whole spine with t
        for n in walk(e):
            self.types[id(n)] = t

    def common(self, left: AExpr, right: AExpr) -> Ty:
        tl = self.synth(left)
        tr = self.synth(right)
        if tl is None and tr is None:
            tl = tr = Ty.I32
            self._adopt(left, tl)
            self._adopt(right, tr)
        elif tl is None:
            self._adopt(left, tr)
            tl = tr
        elif tr is None:
            self._adopt(right, tl)
            tr = tl
        elif tl is not tr:
            raise TypeMismatch(_fmt(tl), _fmt(tr), right.pos)
        return tl


def typecheck(p: Program, *formulas: Assertion) -> TypedProgram:
    """Check a declared program, then formulas over its declarations.

    The formulas are typed like invariants (a triple's pre- and
    postcondition, say); errors surface in leftmost-innermost order.
    """
    if not p.decls:
        raise ValueError("typecheck needs a program with declarations")
    env = {name: ty if ty is not None else Ty.I32 for name, ty in p.decls}
    checker = _Checker(env)
    for n in chain(walk(p.body), *map(walk, formulas)):
        if type(n) is Assign:
            declared = env.get(n.var)
            if declared is None:
                raise UndeclaredVariable(n.var, n.pos)
            checker.check(n.rhs, declared)
        elif type(n) is Cmp:
            checker.types[id(n)] = checker.common(n.left, n.right)
    return TypedProgram(p, env, checker.types)


# ---------------------------------------------------------------------------
# Fixed-width evaluation


def eval_fixed(env: Mapping[str, Ty], s32: Store, e: AExpr) -> int:
    """Value of e as a 32-bit word.

    Evaluation is type-blind: +, -, * and the bit operations act on the
    word representation the same way for both types, casts are the
    identity, and shift amounts are taken mod 32.  `env` documents the
    typing context; it plays no role at run time.
    """
    if isinstance(e, IntLit):
        return word32(e.value)
    if isinstance(e, Var):
        return word32(s32.get(e.name))
    if isinstance(e, Neg):
        return word32(-eval_fixed(env, s32, e.operand))
    if isinstance(e, BinOp):
        l = eval_fixed(env, s32, e.left)
        r = eval_fixed(env, s32, e.right)
        if e.op == "+":
            return word32(l + r)
        if e.op == "-":
            return word32(l - r)
        return word32(l * r)
    if isinstance(e, BitOp):
        l = eval_fixed(env, s32, e.left)
        r = eval_fixed(env, s32, e.right)
        if e.op == "&":
            return l & r
        if e.op == "|":
            return l | r
        if e.op == "^":
            return l ^ r
        if e.op == "<<":
            return word32(l << (r % 32))
        return l >> (r % 32)
    if isinstance(e, BitNot):
        return eval_fixed(env, s32, e.operand) ^ MASK
    assert isinstance(e, Cast)
    return eval_fixed(env, s32, e.operand)


def beval_fixed(tp: TypedProgram, s32: Store, b: Assertion) -> bool:
    """Truth of formula b under 32-bit semantics; tp must have typed b."""
    if isinstance(b, BoolLit):
        return b.value
    if isinstance(b, Cmp):
        l = eval_fixed(tp.env, s32, b.left)
        r = eval_fixed(tp.env, s32, b.right)
        if tp.ty_of(b) is Ty.I32:
            l, r = to_signed(l), to_signed(r)
        if b.op == "=":
            return l == r
        if b.op == "<=":
            return l <= r
        return l < r
    if isinstance(b, Not):
        return not beval_fixed(tp, s32, b.operand)
    if isinstance(b, And):
        return beval_fixed(tp, s32, b.left) and beval_fixed(tp, s32, b.right)
    if isinstance(b, Or):
        return beval_fixed(tp, s32, b.left) or beval_fixed(tp, s32, b.right)
    assert isinstance(b, Implies)
    return not beval_fixed(tp, s32, b.left) or beval_fixed(tp, s32, b.right)


def ceval_fixed(fuel: int, tp: TypedProgram, s32: Store) -> Outcome:
    """Run a typed program's body with the fueled 32-bit semantics.

    This is ``run_fueled`` with the 32-bit evaluators, so the fuel
    discipline is the unbounded evaluator's: only loop unfoldings
    consume fuel, and a loop checks fuel before its guard.
    """
    return run_fueled(
        fuel, tp.program.body, s32, partial(eval_fixed, tp.env), partial(beval_fixed, tp)
    )
