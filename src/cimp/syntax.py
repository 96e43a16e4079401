"""Abstract syntax for the imp language.

Three syntactic layers share these nodes:

* arithmetic expressions (``AExpr``): unbounded-integer core operators
  ``+ - *`` and unary negation, plus the fixed-width extension (bitwise
  operators, bit complement, and explicit ``i32``/``u32`` casts);
* formulas (``Assertion``): comparisons over arithmetic expressions,
  the usual connectives and implication; booleans are not values and
  never appear inside an ``AExpr``;
* commands (``Com``) and whole programs (``Program``).

One formula type serves code and specification.  An ``if``/``while``
condition is a formula without ``Implies`` (``BExpr``); a loop
invariant or a Hoare triple's pre- and postcondition may use all of
it, and a verification condition holds the program's own condition
nodes.  Formulas are quantifier-free and range over program variables
only.  Invariants are specification: no engine runs them and no
backend compiles them, and traversals called with ``code_only=True``
pass them by.

All nodes are records made by ``frozen``, the one way src/cimp makes a
record class: instructions and result classes elsewhere use it too.  A record
behaves as a frozen dataclass with slots, so structural equality and
hashing come for free, but it is cheaper to build.  ``dataclass`` supplies
its fields, slots and ``__match_args__``; ``frozen`` generates
``__init__``, ``__eq__``, ``__hash__`` and ``__repr__`` with one ``exec``
per class, as every command pays for building each class at import.
Source positions are carried in a ``pos`` field that is excluded from
comparison: two trees that differ only in positions are equal, which is
what round-trip and optimizer tests rely on.

Analyses that only need to reach every node use the generic traversal defined
below instead of a walker per node class.  At import,
each class's subtree fields are read off its dataclass fields (those
whose annotation names a node type), and ``children``, ``map_children``,
``walk``, ``distinct_nodes`` and ``transform`` are driven by that table, so
a new node class needs no edit to any of them or to the folds built on them
(``com_vars``, ``node_count``, substitution, the optimizer's passes).
``walk`` visits a shared subtree at each occurrence; ``distinct_nodes`` and
``transform`` visit it once, so on a DAG such as a verification condition
they cost its distinct nodes.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from inspect import formatannotation
from reprlib import recursive_repr
from typing import Iterator, Optional, Union, get_args, get_type_hints


def _frozen_write(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


# copy and pickle restore a record's slots through these, as dataclass's
# own frozen slotted classes do; ``__setattr__`` refuses every write
def _getstate(self):
    return [getattr(self, f.name) for f in fields(self)]


def _setstate(self, state):
    for f, value in zip(fields(self), state):
        object.__setattr__(self, f.name, value)


def _tuple(obj: str, names) -> str:
    return "(" + "".join(f"{obj}.{name}," for name in names) + ")"


def frozen(cls):
    """Make cls a record, the one kind of record class in src/cimp: a
    class that behaves as ``dataclass(frozen=True, slots=True)`` does,
    made with one ``exec``.

    ``dataclass`` supplies only what needs no generated code: the fields,
    the slots and ``__match_args__``.  This function generates
    ``__init__``, ``__eq__``, ``__hash__`` and ``__repr__`` from one source
    string, each as dataclass would write it, except that ``__init__``
    writes each slot through its member descriptor and then calls
    ``__post_init__`` if the class has one.  A method the class body
    defines is kept.  Writing or deleting any attribute raises
    FrozenInstanceError; ``__getstate__``/``__setstate__`` let copy and
    pickle rebuild an instance all the same.  A class without a docstring
    gets its constructor's signature, as dataclass would give it.
    """
    doc = cls.__dict__.get("__doc__")
    cls.__doc__ = doc or cls.__name__  # a docstring spares dataclass an inspect.signature
    cls = dataclass(slots=True, init=False, repr=False, eq=False)(cls)
    flds = fields(cls)
    env, params, body = {}, [], []
    for f in flds:
        env["set_" + f.name], env["default_" + f.name] = getattr(cls, f.name).__set__, f.default
        params.append(f.name if f.default is MISSING else f"{f.name}=default_{f.name}")
        body.append(f"set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    compared = [f.name for f in flds if f.compare]
    hashed = [f.name for f in flds if (f.compare if f.hash is None else f.hash)]
    shown = ", ".join(f"{f.name}={{self.{f.name}!r}}" for f in flds if f.repr)
    exec(
        f"def __init__(self, {', '.join(params)}):\n  " + ("\n  ".join(body) or "pass") + "\n"
        "def __eq__(self, other):\n"
        "  if other.__class__ is self.__class__:\n"
        f"    return {_tuple('self', compared)}=={_tuple('other', compared)}\n"
        "  return NotImplemented\n"
        f"def __hash__(self):\n  return hash({_tuple('self', hashed)})\n"
        f'def __repr__(self):\n  return self.__class__.__qualname__ + f"({shown})"\n',
        env,
    )
    env["__repr__"] = recursive_repr()(env["__repr__"])
    for name in ("__init__", "__eq__", "__hash__", "__repr__"):
        if name not in cls.__dict__:
            env[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, env[name])
    cls.__setattr__ = cls.__delattr__ = _frozen_write
    cls.__getstate__, cls.__setstate__ = _getstate, _setstate
    if not doc:
        cls.__doc__ = f"{cls.__name__}({', '.join(_param_text(f) for f in flds)})"
    return cls


def _param_text(f) -> str:
    text = f"{f.name}: {formatannotation(f.type)}"
    return text if f.default is MISSING else f"{text} = {f.default!r}"


def record(name: str, /, **fields) -> type:
    """A ``frozen`` class named name with the given fields, such as an
    instruction of a compiler's target.  It names the calling module as
    its own, so pickle finds it there."""
    module = sys._getframe(1).f_globals["__name__"]
    return frozen(type(name, (), {"__annotations__": fields, "__module__": module}))


@frozen
class SrcPos:
    """1-based line/column of a token in the source text."""

    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class Ty(enum.Enum):
    """Declared variable types of the fixed-width extension."""

    I32 = "i32"
    U32 = "u32"

    def __str__(self) -> str:
        return self.value


# ---------------------------------------------------------------------------
# Arithmetic expressions


@frozen
class IntLit:
    """Integer literal; nonnegative as parsed (negation is a Neg node)."""

    value: int
    pos: Optional[SrcPos] = field(default=None, compare=False, repr=False)


@frozen
class Var:
    name: str
    pos: Optional[SrcPos] = field(default=None, compare=False, repr=False)


@frozen
class Neg:
    operand: "AExpr"
    pos: Optional[SrcPos] = field(default=None, compare=False, repr=False)


@frozen
class BinOp:
    """Core arithmetic: op is one of '+', '-', '*'."""

    op: str
    left: "AExpr"
    right: "AExpr"
    pos: Optional[SrcPos] = field(default=None, compare=False, repr=False)


@frozen
class BitOp:
    """Fixed-width bit operation: op is one of '&', '|', '^', '<<', '>>'."""

    op: str
    left: "AExpr"
    right: "AExpr"
    pos: Optional[SrcPos] = field(default=None, compare=False, repr=False)


@frozen
class BitNot:
    operand: "AExpr"
    pos: Optional[SrcPos] = field(default=None, compare=False, repr=False)


@frozen
class Cast:
    """Explicit reinterpreting cast, the only signed/unsigned bridge."""

    target: Ty
    operand: "AExpr"
    pos: Optional[SrcPos] = field(default=None, compare=False, repr=False)


AExpr = Union[IntLit, Var, Neg, BinOp, BitOp, BitNot, Cast]


# ---------------------------------------------------------------------------
# Formulas


@frozen
class BoolLit:
    value: bool
    pos: Optional[SrcPos] = field(default=None, compare=False, repr=False)


@frozen
class Cmp:
    """Comparison: op is one of '=', '<=', '<'."""

    op: str
    left: AExpr
    right: AExpr
    pos: Optional[SrcPos] = field(default=None, compare=False, repr=False)


@frozen
class Not:
    operand: "Assertion"
    pos: Optional[SrcPos] = field(default=None, compare=False, repr=False)


@frozen
class And:
    left: "Assertion"
    right: "Assertion"
    pos: Optional[SrcPos] = field(default=None, compare=False, repr=False)


@frozen
class Or:
    left: "Assertion"
    right: "Assertion"
    pos: Optional[SrcPos] = field(default=None, compare=False, repr=False)


BExpr = Union[BoolLit, Cmp, Not, And, Or]


@frozen
class Implies:
    """Implication, the one connective only specifications may use."""

    left: "Assertion"
    right: "Assertion"
    pos: Optional[SrcPos] = field(default=None, compare=False, repr=False)


Assertion = Union[BoolLit, Cmp, Not, And, Or, Implies]


def ATrue() -> BoolLit:
    """The formula ``true``, the default precondition."""
    return BoolLit(True)


# ---------------------------------------------------------------------------
# Commands and programs


@frozen
class Skip:
    pos: Optional[SrcPos] = field(default=None, compare=False, repr=False)


@frozen
class Assign:
    var: str
    rhs: AExpr
    pos: Optional[SrcPos] = field(default=None, compare=False, repr=False)


@frozen
class Seq:
    first: "Com"
    second: "Com"
    pos: Optional[SrcPos] = field(default=None, compare=False, repr=False)


@frozen
class If:
    cond: BExpr
    then_branch: "Com"
    else_branch: "Com"
    pos: Optional[SrcPos] = field(default=None, compare=False, repr=False)


@frozen
class While:
    cond: BExpr
    invariant: Optional[Assertion]
    body: "Com"
    pos: Optional[SrcPos] = field(default=None, compare=False, repr=False)


Com = Union[Skip, Assign, Seq, If, While]


@frozen
class Program:
    """Optional variable declarations followed by the program body.

    ``decls`` maps each declared name to its annotation: a ``Ty`` or
    ``None`` for a bare ``var x;`` (treated as ``i32`` by the type
    checker).  Declared names are pairwise distinct.  A program with an
    empty ``decls`` is untyped and runs under the unbounded semantics.
    """

    decls: tuple[tuple[str, Optional[Ty]], ...]
    body: Com

    @property
    def typed(self) -> bool:
        return bool(self.decls)


def program(body: Com) -> Program:
    """Untyped program wrapper, the common case in tests."""
    return Program((), body)


# ---------------------------------------------------------------------------
# Generic traversal


def _subtree_fields(cls: type) -> tuple[str, ...]:
    hints = get_type_hints(cls)
    return tuple(
        f.name
        for f in fields(cls)
        if f.compare and _NODE_CLASSES & {hints[f.name], *get_args(hints[f.name])}
    )


_NODE_CLASSES = frozenset(get_args(AExpr) + get_args(Assertion) + get_args(Com))
# the fields of each class that hold subtrees, in declaration order
_SUBTREES = {cls: _subtree_fields(cls) for cls in (*_NODE_CLASSES, Program)}
# the same, minus loop invariants, for traversals of executed code only
_CODE_SUBTREES = {**_SUBTREES, While: ("cond", "body")}
# the compared fields that hold no subtree (operators, names, values)
_LEAVES = {
    cls: tuple(f.name for f in fields(cls) if f.compare and f.name not in subtrees)
    for cls, subtrees in _SUBTREES.items()
}
# every field in constructor order, and where each subtree field sits in it,
# so a rebuild is one positional constructor call
_ARGS = {cls: tuple(f.name for f in fields(cls)) for cls in _SUBTREES}
_SLOTS = {
    cls: tuple((_ARGS[cls].index(name), name) for name in subtrees)
    for cls, subtrees in _SUBTREES.items()
}
_READY = object()


def children(node) -> tuple:
    """The subtrees of node in field order (an absent invariant is skipped)."""
    kids = []
    for name in _SUBTREES[type(node)]:
        k = getattr(node, name)
        if k is not None:
            kids.append(k)
    return tuple(kids)


def map_children(node, f):
    """node with f applied to each subtree; node itself when f changed none."""
    t = type(node)
    args = None
    for i, name in _SLOTS[t]:
        old = getattr(node, name)
        if old is not None:
            new = f(old)
            if new is not old:
                if args is None:
                    args = [getattr(node, a) for a in _ARGS[t]]
                args[i] = new
    return node if args is None else t(*args)


def walk(node, *, code_only: bool = False, stop_at: tuple[type, ...] = ()) -> Iterator:
    """node and every node below it in pre-order, leftmost subtree first.

    Iterative, so depth is not limited by recursion; a subtree shared by
    several parents is visited once per occurrence.  With code_only,
    loop invariants and the nodes below them are skipped; nothing below
    a node of a class in stop_at is visited.
    """
    subtrees = _CODE_SUBTREES if code_only else _SUBTREES
    subtrees = {**subtrees, **dict.fromkeys(stop_at, ())} if stop_at else subtrees
    todo = [node]
    while todo:
        n = todo.pop()
        yield n
        for name in reversed(subtrees[type(n)]):
            k = getattr(n, name)
            if k is not None:
                todo.append(k)


def distinct_nodes(node) -> Iterator:
    """Each distinct node of node (by identity) once, in ``walk`` order.

    A subtree shared by several parents is visited at its first
    occurrence only, so a fold over a DAG such as a verification
    condition costs its distinct nodes, not its occurrences.
    """
    seen = set()
    todo = [node]
    while todo:
        n = todo.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        yield n
        for name in reversed(_SUBTREES[type(n)]):
            k = getattr(n, name)
            if k is not None and id(k) not in seen:
                todo.append(k)


def statements(c) -> list:
    """The commands of a ``Seq`` chain in program order, however it nests."""
    out = []
    todo = [c]
    while todo:
        c = todo.pop()
        if type(c) is Seq:
            todo += (c.second, c.first)
        else:
            out.append(c)
    return out


def transform(node, f, *, code_only: bool = False, stop_at: tuple[type, ...] = ()):
    """Bottom-up rewrite: f gets each node once its subtrees are rewritten.

    Iterative like ``walk``.  f must depend on the node alone, not on its
    context: a subtree shared by several parents is rewritten once and
    the result is shared in turn, and ``map_children`` keeps every
    unchanged node, so rewriting touches only the paths that change.
    With code_only, loop invariants are kept as they are; a node of a
    class in stop_at goes to f as it is, with nothing below it visited.
    """
    subtrees = _CODE_SUBTREES if code_only else _SUBTREES
    subtrees = {**subtrees, **dict.fromkeys(stop_at, ())} if stop_at else subtrees
    done: dict[int, object] = {}
    lookup = lambda k: done.get(id(k), k)  # noqa: E731  (skipped invariants stay)
    todo = [node]
    while todo:
        n = todo.pop()
        if n is _READY:  # every subtree of the node below is rewritten
            n = todo.pop()
            done[id(n)] = f(map_children(n, lookup))
        elif id(n) not in done:
            todo += (n, _READY)
            for name in reversed(subtrees[type(n)]):
                k = getattr(n, name)
                if k is not None and id(k) not in done:
                    todo.append(k)
    return done[id(node)]


def equal(a, b) -> bool:
    """a == b, positions ignored, without recursion.

    Subtrees that are the same object are not looked into, so comparing
    a rewrite with its input costs only the paths the rewrite changed.
    """
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        t = type(a)
        if t is not type(b):
            return False
        for name in _LEAVES[t]:
            if getattr(a, name) != getattr(b, name):
                return False
        for name in _SUBTREES[t]:
            todo.append((getattr(a, name), getattr(b, name)))
    return True


# ---------------------------------------------------------------------------
# Structural helpers


def com_vars(node) -> frozenset[str]:
    """Variables read or written anywhere in a node, invariants included."""
    names = set()
    for n in distinct_nodes(node):
        if type(n) is Var:
            names.add(n.name)
        elif type(n) is Assign:
            names.add(n.var)
    return frozenset(names)


assertion_vars = com_vars  # the name bench/cimp_calls.py calls


def program_vars(p: Program) -> frozenset[str]:
    return frozenset(name for name, _ in p.decls) | com_vars(p.body)


def literal_value(e) -> Optional[int]:
    """The value of a folded literal (an IntLit or a Neg of one), else None."""
    if type(e) is IntLit:
        return e.value
    if type(e) is Neg and type(e.operand) is IntLit:
        return -e.operand.value
    return None


def node_count(node) -> int:
    """Number of AST nodes in node; a shared subtree counts at each occurrence."""
    return sum(1 for _ in walk(node))
