from dataclasses import FrozenInstanceError, fields, replace
from typing import get_args

import pytest
from hypothesis import given, settings

import strategies as gen
from cimp import syntax as sx
from cimp.mips import codegen, simulate
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
