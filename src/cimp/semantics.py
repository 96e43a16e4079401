"""Reference semantics for imp over unbounded integers.

``compile_expr`` turns an expression or formula into nested Python
closures over a store's dict, once, and the engines apply them (Feeley
and Lapalme, "Using closures for code generation", 1987).  It serves
both word semantics: unbounded integers here, 32-bit words for
``typecheck.ceval_fixed``.  ``aeval`` and ``beval`` compile and apply.

One command loop serves every execution: ``run_fueled`` takes the word
semantics and a cost table as parameters.  It keeps an explicit stack
of pending commands, so long sequences need no recursion.

* ``BIG_STEP``: fuel is an iteration budget.  Only loop unfoldings
  consume it (one unit each) and straight-line code is free.  A loop
  entered with zero fuel reports ``OutOfFuel`` before even testing its
  guard, so ``ceval_fuel(0, c, s)`` can complete only for loop-free
  ``c``.  ``ceval_fuel`` runs it over unbounded integers,
  ``typecheck.ceval_fixed`` over 32-bit words.
* ``SMALL_STEP``: fuel counts the transitions of ``step``, a
  small-step relation over (command, store) configurations with
  expressions evaluated atomically (Assign 1, ``Seq(Skip, c)`` 1, If
  1, 2 per While guard test, and finding Skip terminal needs one
  more).  ``run_small`` runs it, so a budget of max_steps yields the
  same outcome as iterating ``step`` max_steps times without building
  intermediate terms.  ``step`` is kept as the textbook relation and
  the tests use it as the oracle for ``run_small``.

The big-step and small-step executions agree on ``Done`` results; the
property tests and the differential harness lean on that.

Stores are immutable total maps: absent names read as 0, and equality
compares the induced function (an explicit ``x = 0`` binding equals no
binding at all).  There are no runtime errors in the core language:
evaluation of a core expression always yields an integer.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Mapping, Optional, Union

from .errors import UnsupportedNode
from .syntax import (
    Assertion,
    Assign,
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
    Ty,
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
# Expression compilation

MASK = 0xFFFFFFFF  # the bits of a 32-bit word
SIGN = 1 << 31  # its sign bit

# Binary operators and comparisons.  A 32-bit chain masks its value at its
# end only, which every operator but >> commutes with; >> masks its own.
_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
    "<<": lambda v, k: (v << (k & 31)) & MASK,
    ">>": lambda v, k: (v & MASK) >> (k & 31),
    "=": operator.eq,
    "<=": operator.le,
    "<": operator.lt,
}


_JOIN = {
    And: lambda f, g: lambda env: f(env) and g(env),
    Or: lambda f, g: lambda env: f(env) or g(env),
}


def compile_expr(e, word: Optional[dict[int, Ty]] = None, memo: Optional[dict] = None):
    """Compile an arithmetic expression or a formula to a closure.

    The closure maps a store's dict (absent names read as 0) to the value
    of e.  ``word`` is None for unbounded integers; for 32-bit words it is
    the type table ``typecheck`` builds, which picks signed or unsigned
    order once per comparison.  On words + - * neg << wrap, casts are the
    identity and shifts are taken mod 32.  On unbounded integers a bit
    operator or cast compiles to a closure that raises UnsupportedNode at
    its position when called, so an unreached one is harmless.  ``memo``
    maps id(node) to its closure: a subtree shared by several parents
    (as in a VC) compiles once.  The left spine of binary operators
    compiles to one closure that loops over its operands, and that of
    ``&&`` or ``||`` to a balanced tree of two-operand closures, and the
    right spine of ``->`` to one closure that loops over its premises, so
    chains of any length compile and run without deep recursion.
    """
    memo = {} if memo is None else memo
    f = memo.get(id(e))
    if f is None:
        f = memo[id(e)] = _compile_node(e, word, memo)
    return f


def _compile_node(n, word: Optional[dict[int, Ty]], memo: dict):
    sub = partial(compile_expr, word=word, memo=memo)
    t = type(n)
    wrap = word is not None
    m = MASK if wrap else -1
    if not wrap and (t is BitOp or t is BitNot or t is Cast):
        err = UnsupportedNode.at(n, "is only available in typed programs")

        def unsupported(env):
            raise err

        return unsupported
    if t is IntLit or t is BoolLit:
        v = n.value & m if t is IntLit else n.value
        return lambda env: v
    if t is Var:
        name = n.name
        if wrap:
            return lambda env: env.get(name, 0) & MASK
        return lambda env: env.get(name, 0)
    if t is Neg:
        f = sub(n.operand)
        return lambda env: -f(env) & m
    if t is BinOp or t is BitOp:
        steps = []
        while type(n) is BinOp or (wrap and type(n) is BitOp):
            steps.append((_OPS[n.op], sub(n.right)))
            n = n.left
        steps.reverse()
        f = sub(n)

        def chain(env):
            v = f(env)
            for op, g in steps:
                v = op(v, g(env))
            return v & m

        return chain
    if t is BitNot:
        f = sub(n.operand)
        return lambda env: f(env) ^ MASK
    if t is Cast:
        return sub(n.operand)
    if t is Cmp:
        test, f, g = _OPS[n.op], sub(n.left), sub(n.right)
        if wrap and word[id(n)] is Ty.I32:
            # i32 order on words: flipping the sign bit maps it onto u32 order
            return lambda env: test(f(env) ^ SIGN, g(env) ^ SIGN)
        return lambda env: test(f(env), g(env))
    if t is Not:
        f = sub(n.operand)
        return lambda env: not f(env)
    if t is And or t is Or:
        # the left spine of && (or of ||) folds pairwise into a balanced
        # tree of two-operand closures: still left to right and short
        # circuit, but only log2(terms) calls deep
        fs = []
        while type(n) is t:
            fs.append(sub(n.right))
            n = n.left
        fs.append(sub(n))
        fs.reverse()
        join = _JOIN[t]
        while len(fs) > 1:
            pairs = [join(f, g) for f, g in zip(fs[0::2], fs[1::2])]
            fs = pairs + fs[2 * len(pairs) :]
        return fs[0]
    if t is Implies:
        # the right spine of -> compiles to one loop over its premises:
        # the first false one makes the chain true
        premises = []
        while type(n) is Implies:
            premises.append(sub(n.left))
            n = n.right
        g = sub(n)

        def implies(env):
            for f in premises:
                if not f(env):
                    return True
            return g(env)

        return implies
    raise TypeError(f"not an expression or formula: {n!r}")


def aeval(s: Store, e: AExpr) -> int:
    return compile_expr(e)(s._bindings)


def beval(s: Store, b: Assertion) -> bool:
    """Truth of a condition, or of any formula such as a VC, in s."""
    return compile_expr(b)(s._bindings)


# ---------------------------------------------------------------------------
# Fueled execution

# Fuel per transition.  An assignment, an if and resuming a pending
# command each need what they spend (and Done needs what a resume does);
# a loop-guard test needs the fourth entry, then spends the fifth when it
# leaves the loop and the sixth when it enters the body.
BIG_STEP = (0, 0, 0, 1, 0, 1)
SMALL_STEP = (1, 1, 1, 2, 2, 2)


def run_fueled(
    fuel: int,
    c: Com,
    s: Store,
    word: Optional[dict[int, Ty]] = None,
    cost=BIG_STEP,
) -> Outcome:
    """Execute c under the given word semantics and cost table.

    ``word`` is ``compile_expr``'s, and each right-hand side and
    condition compiles once per run, when first reached.  ``cost`` says
    what each transition needs and spends (``BIG_STEP`` or
    ``SMALL_STEP``); a transition whose need exceeds the fuel left
    reports ``OutOfFuel`` before it evaluates anything.  An explicit
    stack of the commands still to run and a private store dict updated
    in place keep the Python stack flat.
    """
    if fuel < 0:
        raise ValueError("fuel must be nonnegative")
    # a zero charge costs one truth test, so BIG_STEP's free transitions
    # stay almost free
    assign, branch, resume, test, leave, enter = cost
    rest: list[Com] = []
    s = Store(s._bindings)
    env = s._bindings
    memo: dict = {}
    while True:
        t = type(c)
        if t is Seq:
            rest.append(c.second)
            c = c.first
            continue
        if t is Assign:
            if assign:
                if fuel < assign:
                    return OUT_OF_FUEL
                fuel -= assign
            env[c.var] = (memo.get(id(c.rhs)) or compile_expr(c.rhs, word, memo))(env)
        elif t is If:
            if branch:
                if fuel < branch:
                    return OUT_OF_FUEL
                fuel -= branch
            f = memo.get(id(c.cond)) or compile_expr(c.cond, word, memo)
            c = c.then_branch if f(env) else c.else_branch
            continue
        elif t is While:
            if fuel < test:
                return OUT_OF_FUEL
            if (memo.get(id(c.cond)) or compile_expr(c.cond, word, memo))(env):
                fuel -= enter
                rest.append(c)
                c = c.body
                continue
            fuel -= leave
        elif t is not Skip:
            raise TypeError(f"not a Com: {c!r}")
        # c has reduced to Skip: resume the innermost pending command
        if resume:
            if fuel < resume:
                return OUT_OF_FUEL
            fuel -= resume
        if not rest:
            return Done(s)
        c = rest.pop()


def ceval_fuel(fuel: int, c: Com, s: Store) -> Outcome:
    """Big-step evaluation; fuel bounds the number of loop unfoldings."""
    return run_fueled(fuel, c, s)


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
    is itself one of the budgeted calls); otherwise OutOfFuel, so the
    minimal sufficient budget is observable by bisection.  Each pending
    command on ``run_fueled``'s stack stands for the ``Seq(Skip, rest)``
    transition that resumes it.
    """
    return run_fueled(max_steps, c, s, cost=SMALL_STEP)
