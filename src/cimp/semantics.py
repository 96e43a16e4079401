"""Reference semantics for imp over unbounded integers.

Three executions are provided:

* ``run_fueled``: big-step evaluation with a fuel budget, taking the
  expression semantics as parameters.  ``ceval_fuel`` runs it with
  ``aeval``/``beval``; ``typecheck.ceval_fixed`` runs it with the 32-bit
  evaluators.  Fuel is an iteration budget: only loop unfoldings
  consume it (one unit each), straight-line code is free.  A loop
  entered with zero fuel reports ``OutOfFuel`` before even testing its
  guard, so ``ceval_fuel(0, c, s)`` can complete only for loop-free
  ``c``.  It keeps an explicit stack of pending commands, so long
  sequences need no recursion.
* ``step``: a small-step transition relation over (command, store)
  configurations, with expressions evaluated atomically.
* ``run_small``: a continuation-stack driver for that relation.  It
  never builds intermediate terms, yet it takes exactly the transitions
  ``step`` would (Assign 1, ``Seq(Skip, c)`` 1, If 1, 2 per While guard
  test), so a budget of max_steps yields the same outcome as iterating
  ``step`` max_steps times.  ``step`` is kept as the textbook relation
  and the tests use it as the oracle for ``run_small``.

The big-step and small-step executions agree on ``Done`` results; the
property tests and the differential harness lean on that.

Stores are immutable total maps: absent names read as 0, and equality
compares the induced function (an explicit ``x = 0`` binding equals no
binding at all).  There are no runtime errors in the core language:
evaluation of a core expression always yields an integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Union

from .errors import UnsupportedNode
from .syntax import (
    Assertion,
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
    Implies,
    IntLit,
    Neg,
    Not,
    And,
    Or,
    AExpr,
    Seq,
    Skip,
    Var,
    While,
)


class Store:
    """Immutable total map from variable names to unbounded integers.

    Lookup never fails: unbound names read as 0.  Two stores are equal
    when they denote the same total function, so explicitly binding a
    name to 0 is indistinguishable from not binding it.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Optional[Mapping[str, int]] = None):
        self._bindings: dict[str, int] = dict(bindings) if bindings else {}

    def get(self, name: str) -> int:
        return self._bindings.get(name, 0)

    def set(self, name: str, value: int) -> "Store":
        out = Store(self._bindings)
        out._bindings[name] = value
        return out

    def items(self) -> Iterable[tuple[str, int]]:
        return self._bindings.items()

    def domain(self) -> frozenset[str]:
        return frozenset(self._bindings)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Store):
            return NotImplemented
        for name in self._bindings.keys() | other._bindings.keys():
            if self.get(name) != other.get(name):
                return False
        return True

    def __hash__(self) -> int:
        return hash(frozenset((k, v) for k, v in self._bindings.items() if v != 0))

    def __repr__(self) -> str:
        inside = ", ".join(f"{k}={v}" for k, v in sorted(self._bindings.items()))
        return f"Store({{{inside}}})"


def format_store(s: Store) -> str:
    """One ``name=value`` line per explicit binding, names sorted."""
    return "".join(f"{k}={v}\n" for k, v in sorted(s.items()))


def parse_store(text: str) -> Store:
    """Inverse of format_store; blank lines are ignored."""
    bindings: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        name, sep, value = line.partition("=")
        name = name.strip()
        value = value.strip()
        if not sep or not name:
            raise ValueError(f"store line {lineno}: expected name=value, got {raw!r}")
        try:
            bindings[name] = int(value)
        except ValueError:
            raise ValueError(
                f"store line {lineno}: {value!r} is not a decimal integer"
            ) from None
    return Store(bindings)


# ---------------------------------------------------------------------------
# Outcomes and step results


@dataclass(frozen=True)
class Done:
    store: Store


@dataclass(frozen=True)
class OutOfFuel:
    pass


Outcome = Union[Done, OutOfFuel]

OUT_OF_FUEL = OutOfFuel()


@dataclass(frozen=True)
class Next:
    com: Com
    store: Store


@dataclass(frozen=True)
class Terminal:
    pass


StepResult = Union[Next, Terminal]

TERMINAL = Terminal()


# ---------------------------------------------------------------------------
# Expression evaluation


def aeval(s: Store, e: AExpr) -> int:
    match e:
        case IntLit(v):
            return v
        case Var(name):
            return s.get(name)
        case Neg(operand):
            return -aeval(s, operand)
        case BinOp("+", left, right):
            return aeval(s, left) + aeval(s, right)
        case BinOp("-", left, right):
            return aeval(s, left) - aeval(s, right)
        case BinOp("*", left, right):
            return aeval(s, left) * aeval(s, right)
        case BitOp(op, _, _):
            raise UnsupportedNode(
                f"bit operator '{op}' is only available in typed programs", e.pos
            )
        case BitNot():
            raise UnsupportedNode(
                "bit complement '~' is only available in typed programs", e.pos
            )
        case Cast(target, _):
            raise UnsupportedNode(
                f"cast '{target}(...)' is only available in typed programs", e.pos
            )
    raise TypeError(f"not an AExpr: {e!r}")


def beval(s: Store, b: Assertion) -> bool:
    """Truth of a condition, or of any formula such as a VC, in s."""
    match b:
        case BoolLit(v):
            return v
        case Cmp("=", left, right):
            return aeval(s, left) == aeval(s, right)
        case Cmp("<=", left, right):
            return aeval(s, left) <= aeval(s, right)
        case Cmp("<", left, right):
            return aeval(s, left) < aeval(s, right)
        case Not(operand):
            return not beval(s, operand)
        case And(left, right):
            return beval(s, left) and beval(s, right)
        case Or(left, right):
            return beval(s, left) or beval(s, right)
        case Implies(left, right):
            return not beval(s, left) or beval(s, right)
    raise TypeError(f"not a formula: {b!r}")


# ---------------------------------------------------------------------------
# Big-step evaluation with fuel


def run_fueled(
    fuel: int,
    c: Com,
    s: Store,
    aeval: Callable[[Store, AExpr], int],
    beval: Callable[[Store, BExpr], bool],
) -> Outcome:
    """Big-step execution of c under the given expression semantics.

    Fuel bounds the number of loop unfoldings: a loop checks its fuel
    before testing its guard and spends one unit per entry into its
    body; straight-line code is free.  The loop keeps an explicit
    stack of the commands still to run and updates a private copy of
    the store in place, so neither sequence length nor iteration count
    deepens the Python stack.
    """
    if fuel < 0:
        raise ValueError("fuel must be nonnegative")
    rest: list[Com] = []
    s = Store(s._bindings)
    env = s._bindings
    while True:
        t = type(c)
        if t is Seq:
            rest.append(c.second)
            c = c.first
            continue
        if t is Assign:
            env[c.var] = aeval(s, c.rhs)
        elif t is If:
            c = c.then_branch if beval(s, c.cond) else c.else_branch
            continue
        elif t is While:
            if not fuel:
                return OUT_OF_FUEL
            if beval(s, c.cond):
                fuel -= 1
                rest.append(c)
                c = c.body
                continue
        elif t is not Skip:
            raise TypeError(f"not a Com: {c!r}")
        if not rest:
            return Done(s)
        c = rest.pop()


def ceval_fuel(fuel: int, c: Com, s: Store) -> Outcome:
    """Big-step evaluation; fuel bounds the number of loop unfoldings."""
    return run_fueled(fuel, c, s, aeval, beval)


# ---------------------------------------------------------------------------
# Small-step relation


def step(c: Com, s: Store) -> StepResult:
    """One transition of the command-level small-step relation.

    Expressions are evaluated atomically; a While unfolds to its
    conditional form in a single step, keeping its invariant annotation.
    """
    match c:
        case Skip():
            return TERMINAL
        case Assign(var, rhs):
            return Next(Skip(), s.set(var, aeval(s, rhs)))
        case Seq(Skip(), second):
            return Next(second, s)
        case Seq(first, second):
            r = step(first, s)
            assert isinstance(r, Next)  # only Skip is terminal, handled above
            return Next(Seq(r.com, second), r.store)
        case If(cond, then_branch, else_branch):
            return Next(then_branch if beval(s, cond) else else_branch, s)
        case While(cond, _, body):
            return Next(If(cond, Seq(body, c), Skip()), s)
    raise TypeError(f"not a Com: {c!r}")


def run_small(max_steps: int, c: Com, s: Store) -> Outcome:
    """Run c for at most max_steps transitions of ``step``.

    Done is returned when the configuration reaches Skip after T
    transitions with T < max_steps (the check that finds Skip terminal
    is itself one of the budgeted calls); otherwise OutOfFuel.  The
    minimal sufficient budget for a terminating program is therefore
    observable by bisection.

    Instead of rebuilding the term at every transition, the driver keeps
    an explicit continuation stack of the commands still to run (a CEK
    machine without environments).  Each stack entry stands for the
    ``Seq(Skip, rest)`` transition that resumes it, and a While guard
    test is the relation's two transitions (unfold, then If), so the
    count matches ``step`` exactly, as do the points where expression
    evaluation happens.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    fuel = max_steps
    rest: list[Com] = []
    s = Store(s._bindings)  # private copy, updated in place
    env = s._bindings
    while True:
        t = type(c)
        if t is Seq:
            rest.append(c.second)
            c = c.first
            continue
        if t is Assign:
            if not fuel:
                return OUT_OF_FUEL
            fuel -= 1
            env[c.var] = aeval(s, c.rhs)
        elif t is While:
            if fuel < 2:
                return OUT_OF_FUEL
            fuel -= 2
            if beval(s, c.cond):
                rest.append(c)
                c = c.body
                continue
        elif t is If:
            if not fuel:
                return OUT_OF_FUEL
            fuel -= 1
            c = c.then_branch if beval(s, c.cond) else c.else_branch
            continue
        elif t is not Skip:
            raise TypeError(f"not a Com: {c!r}")
        # c has reduced to Skip: resume the innermost pending command
        if not fuel:
            return OUT_OF_FUEL
        if not rest:
            return Done(s)
        fuel -= 1
        c = rest.pop()
