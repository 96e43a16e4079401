import copy
import pickle
import sys
from dataclasses import FrozenInstanceError, field, fields, make_dataclass, replace
from typing import get_args

import pytest
from hypothesis import given, settings

import strategies as gen
import cimp.cli  # noqa: F401  (loads every module, for the record census)
from cimp import difftest, generator, hoare, regalloc, semantics
from cimp import stack_machine as sm
from cimp import syntax as sx
from cimp.mips import codegen, isa, sim, simulate
from cimp.optimizer import optimize
from cimp.semantics import Done, Store, ceval_fuel
from cimp.stack_machine import Ihalt
from cimp.syntax import (
    And,
    Assign,
    BinOp,
    BitNot,
    BitOp,
    BoolLit,
    Cast,
    Cmp,
    If,
    Implies,
    IntLit,
    Neg,
    Not,
    Or,
    Program,
    Seq,
    Skip,
    SrcPos,
    Ty,
    Var,
    While,
    children,
    equal,
    map_children,
    transform,
    walk,
)
from cimp.typecheck import ceval_fixed, typecheck

# The subtree fields of every AST class, written out by hand.
SUBTREES = {
    IntLit: (),
    Var: (),
    Neg: ("operand",),
    BinOp: ("left", "right"),
    BitOp: ("left", "right"),
    BitNot: ("operand",),
    Cast: ("operand",),
    BoolLit: (),
    Cmp: ("left", "right"),
    Not: ("operand",),
    And: ("left", "right"),
    Or: ("left", "right"),
    Implies: ("left", "right"),
    Skip: (),
    Assign: ("rhs",),
    Seq: ("first", "second"),
    If: ("cond", "then_branch", "else_branch"),
    While: ("cond", "invariant", "body"),
    Program: ("body",),
}

# One node of every class whose subtrees are distinct leaves.
SAMPLES = [
    IntLit(1),
    Var("x"),
    Neg(Var("a")),
    BinOp("+", Var("a"), IntLit(2)),
    BitOp("&", Var("a"), IntLit(2)),
    BitNot(Var("a")),
    Cast(Ty.U32, Var("a")),
    BoolLit(True),
    Cmp("<", Var("a"), IntLit(2)),
    Not(BoolLit(True)),
    And(BoolLit(True), BoolLit(False)),
    Or(BoolLit(True), BoolLit(False)),
    Implies(BoolLit(True), BoolLit(False)),
    Skip(),
    Assign("x", IntLit(1)),
    Seq(Skip(), Skip()),
    If(BoolLit(True), Skip(), Skip()),
    While(BoolLit(True), BoolLit(True), Skip()),
    Program((("x", Ty.I32),), Skip()),
]

# Formulas as a loop invariant or a Hoare triple would hold them, by id
# ("A" for assertion, then the class); they share the classes above.
ASSERTION_SAMPLES = {
    "ATrue": BoolLit(True),
    "AFalse": BoolLit(False),
    "ACmp": Cmp("=", Var("a"), IntLit(2)),
    "ANot": Not(BoolLit(True)),
    "AAnd": And(BoolLit(True), BoolLit(False)),
    "AOr": Or(BoolLit(True), BoolLit(False)),
    "AImplies": Implies(BoolLit(True), BoolLit(False)),
}


def test_samples_cover_every_ast_class():
    classes = {Program}
    for union in (sx.AExpr, sx.BExpr, sx.Assertion, sx.Com):
        classes |= set(get_args(union))
    assert {type(n) for n in SAMPLES} == classes == set(SUBTREES)


def _same_objects(xs, ys):
    xs, ys = list(xs), list(ys)
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


@pytest.mark.parametrize(
    "node",
    SAMPLES + list(ASSERTION_SAMPLES.values()),
    ids=[type(n).__name__ for n in SAMPLES] + list(ASSERTION_SAMPLES),
)
def test_traversal_yields_exactly_the_subtree_fields(node):
    kids = [getattr(node, name) for name in SUBTREES[type(node)]]
    assert _same_objects(children(node), kids)
    assert _same_objects(walk(node), [node] + kids)
    assert map_children(node, lambda k: k) is node


@pytest.mark.parametrize("node", SAMPLES + [SrcPos(1, 2)], ids=lambda n: type(n).__name__)
def test_nodes_are_frozen_and_hash_without_positions(node):
    for f in fields(node):
        with pytest.raises(FrozenInstanceError):
            setattr(node, f.name, getattr(node, f.name))
    if "pos" in {f.name for f in fields(node)}:
        moved = replace(node, pos=SrcPos(9, 9))
        assert moved.pos == SrcPos(9, 9) and moved == node and hash(moved) == hash(node)


def test_frozen_builds_a_class_with_no_fields():
    @sx.frozen
    class Halt:
        pass

    assert Halt() == Halt() and hash(Halt()) == hash(Halt())
    assert Halt.__slots__ == () and not hasattr(Halt(), "__dict__")


@pytest.mark.parametrize("node, name", [(Ihalt(), "x"), (Var("a"), "zzz")], ids=["Ihalt", "Var"])
def test_frozen_refuses_an_attribute_that_is_not_a_field(node, name):
    # as writing a field does, on a class with fields and on one without
    with pytest.raises(FrozenInstanceError):
        setattr(node, name, 1)
    with pytest.raises(FrozenInstanceError):
        delattr(node, name)


# ---------------------------------------------------------------------------
# frozen against dataclass: one sample of every record class in src/cimp

_STORE = Store({"x": 3, "y": -1})
_RECORD_SAMPLES = SAMPLES + [
    SrcPos(1, 2),
    *(cls(*({int: 4, str: "x"}[f.type] for f in fields(cls))) for cls in get_args(sm.Instr)),
    sm.StackProgram((sm.Iconst(1), sm.Isetvar("x"), Ihalt()), words=True),
    sm.VmState(2, (1, 5), _STORE),
    sm.MachineError("stack underflow"),
    regalloc.LoadConst(0, 7),
    regalloc.LoadVar(1, "x"),
    regalloc.Op("+", 0, 0, 1),
    regalloc.Spill(2),
    regalloc.Reload(2),
    isa.Mem(-4, "$sp"),
    isa.Ins("addu", ("$t0", "$t1", "$t2")),
    isa.LabelDef("loop"),
    isa.MipsProgram((("var_x", 0),), (isa.LabelDef("main"), isa.Ins("lw", ("$t0", isa.Mem(0, "$sp"))))),
    Done(_STORE),
    semantics.OutOfFuel(),
    semantics.Next(Skip(), _STORE),
    semantics.Terminal(),
    hoare.HoareTriple(BoolLit(True), Assign("x", IntLit(1)), Cmp("=", Var("x"), IntLit(1))),
    hoare.VerificationCondition("top", BoolLit(True)),
    hoare.Valid(),
    hoare.Counterexample(_STORE),
    sim.Halted({"x": 3}),
    sim.BudgetExhausted(),
    sim.Trap("division by zero"),
    difftest.Divergence(0, "x := 1\n", _STORE, {"bigstep": ("done", 1), "stackvm": ("error", "r")}),
    difftest.DiffReport(1, 1, 0, 0, {"bigstep": {"done": 1}}, None),
    generator.GenSpec(seed=5, typed=True),
]


def _record_classes():
    return {
        value
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "cimp"
        for value in vars(module).values()
        if isinstance(value, type) and "__dataclass_fields__" in value.__dict__
    }


def _twin(cls):
    """The class ``dataclass(frozen=True, slots=True)`` makes of cls's fields."""
    specs = [
        (f.name, f.type, field(default=f.default, repr=f.repr, hash=f.hash, compare=f.compare))
        for f in fields(cls)
    ]
    twin = make_dataclass(cls.__name__, specs, frozen=True, slots=True)
    twin.__qualname__ = cls.__qualname__
    return twin


def test_frozen_gives_a_class_without_docstring_its_signature():
    @sx.frozen
    class Pair:
        left: int
        right: "Optional[Pair]" = None

    twin = _twin(Pair)
    assert Pair.__doc__ == twin.__doc__ == "Pair(left: int, right: 'Optional[Pair]' = None)"
    assert repr(Pair(1, Pair(2))) == repr(twin(1, twin(2)))
    assert sx.record("Cell", n=int).__doc__ == "Cell(n: int)"


def test_record_samples_cover_every_record_class():
    assert {type(r) for r in _RECORD_SAMPLES} == _record_classes()


def _field_table(cls):
    return [(f.name, f.type, f.default, f.repr, f.hash, f.compare, f.init) for f in fields(cls)]


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as err:
        return type(err)


@pytest.mark.parametrize("sample", _RECORD_SAMPLES, ids=lambda r: type(r).__name__)
def test_frozen_matches_a_frozen_slotted_dataclass(sample):
    cls = type(sample)
    twin_cls = _twin(cls)
    values = {f.name: getattr(sample, f.name) for f in fields(cls)}
    twin = twin_cls(**values)
    other = SrcPos(7, 7) if cls is not SrcPos else IntLit(7)
    assert _field_table(cls) == _field_table(twin_cls)
    assert cls.__match_args__ == twin_cls.__match_args__
    assert cls.__slots__ == twin_cls.__slots__ and not hasattr(sample, "__dict__")
    if cls.__doc__.startswith(f"{cls.__name__}("):  # no docstring of its own
        assert cls.__doc__ == twin_cls.__doc__
    assert repr(sample) == repr(twin)
    assert _hash_or_error(sample) == _hash_or_error(twin)
    again = cls(**values)
    twin_again = twin_cls(**values)
    assert (sample == again, sample != again) == (twin == twin_again, twin != twin_again) == (True, False)
    assert (sample == other, sample != other) == (twin == other, twin != other) == (False, True)
    assert sample.__eq__(twin) is NotImplemented
    for f in fields(cls):
        moved = replace(sample, **{f.name: values[f.name]})
        assert type(moved) is cls and moved is not sample and moved == sample
    for name in [f.name for f in fields(cls)] or ["x"]:
        with pytest.raises(FrozenInstanceError):
            setattr(sample, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(sample, name)
    for clone in (copy.copy(sample), copy.deepcopy(sample), pickle.loads(pickle.dumps(sample))):
        assert type(clone) is cls and clone == sample and repr(clone) == repr(sample)


def test_absent_invariant_is_not_a_child():
    loop = While(BoolLit(True), None, Skip())
    assert _same_objects(children(loop), [loop.cond, loop.body])
    assert map_children(loop, lambda k: k) is loop


def test_map_children_rebuilds_only_what_changed():
    e = BinOp("*", Var("a"), Var("b"), pos=SrcPos(1, 2))
    out = map_children(e, lambda k: IntLit(7) if k == Var("b") else k)
    assert out == BinOp("*", Var("a"), IntLit(7))
    assert out.pos == SrcPos(1, 2)
    assert out.left is e.left


def test_walk_is_preorder_leftmost_first():
    c = sx.Seq(Assign("x", BinOp("-", Var("a"), IntLit(1))), Skip())
    names = [type(n).__name__ for n in walk(c)]
    assert names == ["Seq", "Assign", "BinOp", "Var", "IntLit", "Skip"]


def test_transform_rewrites_a_shared_subtree_once():
    shared = BinOp("+", Var("x"), IntLit(1))
    e = BinOp("*", shared, shared)
    seen = []

    def f(n):
        seen.append(n)
        return IntLit(2) if n == Var("x") else n

    out = transform(e, f)
    assert out == BinOp("*", BinOp("+", IntLit(2), IntLit(1)), BinOp("+", IntLit(2), IntLit(1)))
    assert out.left is out.right
    assert len(seen) == 4  # x, 1, the shared sum, the product
    assert sx.node_count(e) == 7  # counted at each occurrence


def test_distinct_nodes_visit_a_shared_subtree_once():
    shared = BinOp("+", Var("x"), IntLit(1))
    e = BinOp("*", shared, Neg(shared))
    assert _same_objects(sx.distinct_nodes(e), [e, shared, shared.left, shared.right, e.right])


def test_statements_flatten_any_nesting():
    a, b, c, d = (Assign(v, IntLit(1)) for v in "abcd")
    assert _same_objects(sx.statements(Seq(Seq(a, b), Seq(c, d))), [a, b, c, d])
    assert _same_objects(sx.statements(a), [a])


# ---------------------------------------------------------------------------
# equal


@settings(max_examples=100)
@given(gen.programs(bits=True, invariants=True), gen.programs(bits=True, invariants=True))
def test_equal_agrees_with_dataclass_equality(p, q):
    assert equal(p, q) == (p == q)
    assert equal(p, p) and equal(p.body, sx.map_children(p.body, lambda k: k))


def test_equal_ignores_positions_and_looks_at_every_field():
    a = BinOp("+", Var("x", pos=SrcPos(1, 1)), IntLit(1), pos=SrcPos(1, 3))
    assert equal(a, BinOp("+", Var("x"), IntLit(1)))
    assert not equal(a, BinOp("-", Var("x"), IntLit(1)))
    assert not equal(a, BinOp("+", Var("y"), IntLit(1)))
    assert not equal(a, BitOp("+", Var("x"), IntLit(1)))
    assert not equal(While(BoolLit(True), None, Skip()), While(BoolLit(True), BoolLit(True), Skip()))


def test_equal_on_deep_trees():
    a = b = Var("x")
    for _ in range(10_000):
        a, b = BinOp("+", a, IntLit(1)), BinOp("+", b, IntLit(1))
    assert equal(a, b)
    assert not equal(a, BinOp("+", a.left, IntLit(2)))


# ---------------------------------------------------------------------------
# 10^4-statement sequences: no tool may recurse once per statement

N = 10_000


def _increment():
    return Assign("x", BinOp("+", Var("x"), IntLit(1)))


def _right_nested():
    c = _increment()
    for _ in range(N - 1):
        c = Seq(_increment(), c)
    return c


def _left_nested():
    c = _increment()
    for _ in range(N - 1):
        c = Seq(c, _increment())
    return c


@pytest.mark.parametrize("build", [_right_nested, _left_nested])
def test_long_sequences_finish(build):
    c = build()
    assert sx.node_count(c) == 4 * N + N - 1
    assert sx.com_vars(c) == frozenset({"x"})
    assert ceval_fuel(0, c, Store()) == Done(Store({"x": N}))
    tp = typecheck(Program((("x", Ty.I32),), c))
    assert ceval_fixed(0, tp, Store()) == Done(Store({"x": N}))
    assert optimize(sx.program(c), 2).body is c


@pytest.mark.parametrize("build", [_right_nested, _left_nested])
@pytest.mark.parametrize("strategy", ["naive", "regalloc"])
def test_long_sequences_compile_to_mips(build, strategy):
    prog = codegen(sx.program(build()), strategy=strategy)
    assert simulate(prog, budget=10**6)["x"] == N
