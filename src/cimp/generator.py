"""Seeded random program generator for the differential harness.

Programs are structurally valid by construction and every loop is
bounded: a While only appears as

    i := 0; while i <= K do body; i := i + 1 done

where K never exceeds the configured bound and body never writes i.
Termination under fuel_bound(spec) therefore needs no post-hoc
filtering.  Typed mode declares every variable, draws expressions
type-directed, and bridges between i32 and u32 with casts; untyped mode
sticks to the core operators the exact evaluators support.

Identical GenSpec values always yield the identical Program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .syntax import (
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
)


@dataclass(frozen=True)
class GenSpec:
    seed: int
    max_depth: int = 3
    max_loop_bound: int = 8
    pool_size: int = 4
    typed: bool = False


def fuel_bound(spec: GenSpec) -> int:
    """Fuel under which every program from spec terminates.

    A block holds at most 3 statements, a full loop run consumes at most
    max_loop_bound + 2 fuel per arrival, and nesting multiplies.
    """
    return 2 * (3 * (spec.max_loop_bound + 2)) ** spec.max_depth + 16


def _pool_names(n: int) -> list[str]:
    base = list("abcdefgh")
    if n <= len(base):
        return base[:n]
    return base + [f"x{i}" for i in range(n - len(base))]


_CORE_OPS = ("+", "-", "*")
_BIT_OPS = ("&", "|", "^", "<<", ">>")
_CMP_OPS = ("=", "<=", "<")


class _Gen:
    def __init__(self, spec: GenSpec):
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.names = _pool_names(spec.pool_size)
        self.counters: list[tuple[str, Ty]] = []
        self.active: list[str] = []
        self.env: dict[str, Ty] = {}
        if spec.typed:
            for name in self.names:
                self.env[name] = self.rng.choice((Ty.I32, Ty.U32))

    # ------------------------------------------------------------------
    # expressions

    def _literal(self) -> int:
        r = self.rng.random()
        if self.spec.typed and r < 0.15:
            return self.rng.getrandbits(32)
        if r < 0.3:
            return self.rng.randint(0, 99)
        return self.rng.randint(0, 12)

    def _readable(self) -> list[str]:
        return self.names + self.active

    def _vars_of(self, t: Ty) -> list[str]:
        return [n for n in self._readable() if self.env[n] is t]

    def aexp(self, depth: int, t: Ty | None = None, in_loop: bool = False) -> AExpr:
        if t is not None:
            return self._typed_aexp(depth, t, in_loop)
        rng = self.rng
        if depth <= 0 or rng.random() < 0.4:
            if rng.random() < 0.5:
                return IntLit(self._literal())
            return Var(rng.choice(self._readable()))
        roll = rng.random()
        if roll < 0.15:
            return Neg(self.aexp(depth - 1, None, in_loop))
        op = rng.choice(_CORE_OPS)
        left = self.aexp(depth - 1, None, in_loop)
        right = self.aexp(depth - 1, None, in_loop)
        if op == "*" and in_loop:
            # keep loop-carried growth linear: one factor is a literal
            right = IntLit(self._literal())
        return BinOp(op, left, right)

    def _typed_aexp(self, depth: int, t: Ty, in_loop: bool) -> AExpr:
        rng = self.rng
        other = Ty.U32 if t is Ty.I32 else Ty.I32
        if depth <= 0 or rng.random() < 0.35:
            roll = rng.random()
            same = self._vars_of(t)
            bridged = self._vars_of(other)
            if roll < 0.45 and same:
                return Var(rng.choice(same))
            if roll < 0.6 and bridged:
                return Cast(t, Var(rng.choice(bridged)))
            return IntLit(self._literal())
        roll = rng.random()
        if roll < 0.1:
            return Neg(self._typed_aexp(depth - 1, t, in_loop))
        if roll < 0.2:
            return Cast(t, self._typed_aexp(depth - 1, other, in_loop))
        if t is Ty.U32 and roll < 0.4:
            if roll < 0.25:
                return BitNot(self._typed_aexp(depth - 1, t, in_loop))
            op = rng.choice(_BIT_OPS)
            return BitOp(
                op,
                self._typed_aexp(depth - 1, t, in_loop),
                self._typed_aexp(depth - 1, t, in_loop),
            )
        op = rng.choice(_CORE_OPS)
        return BinOp(
            op,
            self._typed_aexp(depth - 1, t, in_loop),
            self._typed_aexp(depth - 1, t, in_loop),
        )

    def bexp(self, depth: int, in_loop: bool) -> BExpr:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.6:
            if rng.random() < 0.08:
                return BoolLit(rng.random() < 0.5)
            t = rng.choice((Ty.I32, Ty.U32)) if self.spec.typed else None
            op = rng.choice(_CMP_OPS)
            return Cmp(op, self.aexp(1, t, in_loop), self.aexp(1, t, in_loop))
        roll = rng.random()
        if roll < 0.3:
            return Not(self.bexp(depth - 1, in_loop))
        node = And if roll < 0.65 else Or
        return node(self.bexp(depth - 1, in_loop), self.bexp(depth - 1, in_loop))

    # ------------------------------------------------------------------
    # commands

    def _assign(self, depth: int, in_loop: bool) -> Com:
        name = self.rng.choice(self.names)
        t = self.env[name] if self.spec.typed else None
        return Assign(name, self.aexp(min(depth, 3), t, in_loop))

    def _atom(self, depth: int, in_loop: bool) -> list[Com]:
        if self.rng.random() < 0.08:
            return [Skip()]
        return [self._assign(depth, in_loop)]

    def _while(self, depth: int, in_loop: bool) -> list[Com]:
        counter = f"i{len(self.counters)}"
        ty = self.rng.choice((Ty.I32, Ty.U32)) if self.spec.typed else None
        if self.spec.typed:
            self.env[counter] = ty
        self.counters.append((counter, ty))
        bound = self.rng.randint(0, self.spec.max_loop_bound)
        self.active.append(counter)
        body = self.block(depth - 1, True)
        self.active.pop()
        step = Assign(counter, BinOp("+", Var(counter), IntLit(1)))
        loop = While(Cmp("<=", Var(counter), IntLit(bound)), None, _seq(body + [step]))
        return [Assign(counter, IntLit(0)), loop]

    def stmt(self, depth: int, in_loop: bool) -> list[Com]:
        """One statement, or a loop's two: its counter reset and the while."""
        if depth <= 1:
            return self._atom(depth, in_loop)
        roll = self.rng.random()
        if roll < 0.5:
            return self._atom(depth, in_loop)
        if roll < 0.75:
            cond = self.bexp(2, in_loop)
            then_branch = _seq(self.block(depth - 1, in_loop))
            return [If(cond, then_branch, _seq(self.block(depth - 1, in_loop)))]
        return self._while(depth, in_loop)

    def block(self, depth: int, in_loop: bool) -> list[Com]:
        return [s for _ in range(self.rng.randint(1, 3)) for s in self.stmt(depth, in_loop)]


def _seq(stmts: list[Com]) -> Com:
    """The statements right-nested, the parser's canonical shape."""
    out = stmts[-1]
    for s in reversed(stmts[:-1]):
        out = Seq(s, out)
    return out


def gen_program(spec: GenSpec) -> Program:
    """Deterministically generate one program from spec."""
    if spec.max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    if spec.pool_size < 1:
        raise ValueError("pool_size must be at least 1")
    if spec.max_loop_bound < 0:
        raise ValueError("max_loop_bound must be nonnegative")
    g = _Gen(spec)
    body = _seq(g.block(spec.max_depth, False))
    if spec.typed:
        decls = tuple((n, g.env[n]) for n in g.names) + tuple(g.counters)
    else:
        decls = ()
    return Program(decls=decls, body=body)
