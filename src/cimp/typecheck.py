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
with the program, such as a Hoare triple's pre- and postcondition.  It
loops along left spines, so operator chains of any length typecheck.  It
records one type per comparison, the common type of its operands, as
that is all the engines read: ``TypedProgram.ty_of`` answers for
comparisons only.
``ceval_fixed`` is ``semantics.run_fueled`` over 32-bit words: the type
table it passes picks signed or unsigned order once per comparison.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional

from .errors import CimpError
from .semantics import MASK, SIGN, Outcome, Store, run_fueled
from .syntax import (
    AExpr,
    Assertion,
    Assign,
    BinOp,
    BitNot,
    BitOp,
    Cast,
    Cmp,
    IntLit,
    Neg,
    Program,
    SrcPos,
    Ty,
    Var,
    walk,
)

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
    """A checked program plus the operand type of every comparison.

    `ty_of` answers for comparison nodes only: their common operand type
    is all an engine reads, to order words signed or unsigned.
    """

    def __init__(self, program: Program, env: dict[str, Ty], types: dict[int, Ty]):
        self.program = program
        self.env = env
        self._types = types

    def ty_of(self, node: Cmp) -> Ty:
        return self._types[id(node)]


def word32(v: int) -> int:
    return v & MASK


def to_signed(w: int) -> int:
    return (w ^ SIGN) - SIGN


class _Checker:
    def __init__(self, env: dict[str, Ty]):
        self.env = env

    def synth(self, e: AExpr) -> Optional[Ty]:
        """Type of e, or None when e is a literal-only (polymorphic) tree.

        The left spine of binary operators is typed bottom-up in a loop,
        in the order recursion would take, so chains need no recursion.
        """
        spine = []
        while isinstance(e, (BinOp, BitOp)):
            spine.append(e)
            e = e.left
        t = self._synth_operand(e)
        for e in reversed(spine):
            if isinstance(e, BitOp):
                self._meet(e.left, Ty.U32, t)
                self.check(e.right, Ty.U32)
                t = Ty.U32
            else:
                t = self._meet(e.right, t, self.synth(e.right))
        return t

    def _synth_operand(self, e: AExpr) -> Optional[Ty]:
        if isinstance(e, IntLit):
            return None
        if isinstance(e, Var):
            t = self.env.get(e.name)
            if t is None:
                raise UndeclaredVariable(e.name, e.pos)
            return t
        if isinstance(e, Neg):
            return self.synth(e.operand)
        if isinstance(e, BitNot):
            self.check(e.operand, Ty.U32)
            return Ty.U32
        assert isinstance(e, Cast)
        self.synth(e.operand)  # a cast imposes no context on its operand
        return e.target

    def _meet(self, e: AExpr, t: Optional[Ty], s: Optional[Ty]) -> Optional[Ty]:
        """Common type of a context of type t and e, which synthesized s;
        None stands for a literal-only type on either side."""
        if t is not None and s is not None and s is not t:
            raise TypeMismatch(str(t), str(s), e.pos)
        return t or s

    def check(self, e: AExpr, t: Ty) -> None:
        self._meet(e, t, self.synth(e))

    def common(self, left: AExpr, right: AExpr) -> Ty:
        # two literal-only operands default to i32
        return self._meet(right, self.synth(left), self.synth(right)) or Ty.I32


def typing(p: Program | TypedProgram) -> tuple[Program, Optional[TypedProgram]]:
    """p's program and typing (None if untyped), checking a typed ``Program``;
    a caller that needs the typing too passes the ``TypedProgram``."""
    if isinstance(p, TypedProgram):
        return p.program, p
    return p, typecheck(p) if p.typed else None


def typecheck(p: Program, *formulas: Assertion) -> TypedProgram:
    """Check a declared program, then formulas over its declarations.

    The formulas are typed like invariants (a triple's pre- and
    postcondition, say); errors surface in leftmost-innermost order.
    """
    if not p.decls:
        raise ValueError("typecheck needs a program with declarations")
    env = {name: ty if ty is not None else Ty.I32 for name, ty in p.decls}
    checker = _Checker(env)
    types: dict[int, Ty] = {}
    for n in chain(*(walk(a, stop_at=(Assign, Cmp)) for a in (p.body, *formulas))):
        if type(n) is Assign:
            declared = env.get(n.var)
            if declared is None:
                raise UndeclaredVariable(n.var, n.pos)
            checker.check(n.rhs, declared)
        elif type(n) is Cmp:
            types[id(n)] = checker.common(n.left, n.right)
    return TypedProgram(p, env, types)


# ---------------------------------------------------------------------------
# Fixed-width evaluation


def ceval_fixed(fuel: int, tp: TypedProgram, s32: Store) -> Outcome:
    """Run a typed program's body with the fueled 32-bit semantics.

    This is ``run_fueled`` over 32-bit words, so the fuel discipline is
    the unbounded evaluator's: only loop unfoldings consume fuel, and a
    loop checks fuel before its guard.
    """
    return run_fueled(fuel, tp.program.body, s32, tp._types)
