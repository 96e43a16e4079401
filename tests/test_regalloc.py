from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as gen
from cimp import regalloc
from oracles import min_registers
from reference import MalformedCode, ershov, eval_fixed, listing, max_live, reg_exec
from cimp.regalloc import (
    LoadConst,
    LoadVar,
    Op,
    Reload,
    Spill,
    alloc_codegen,
)
from cimp.semantics import MASK, Store, aeval
from cimp.syntax import BinOp, BitNot, BitOp, Cast, Cmp, IntLit, Neg, Ty, Var, node_count, transform, walk


def V(n):
    return Var(n)


def add(l, r):
    return BinOp("+", l, r)


def shapes(depth):
    """Every tree shape of depth <= depth, canonically labeled, each once."""
    if depth == 0:
        return [V("a")]
    smaller = shapes(depth - 1)
    return [V("a")] + [add(l, r) for l in smaller for r in smaller]


# ---------------------------------------------------------------------------
# ershov


def test_ershov_leaves():
    assert ershov(V("a")) == 1
    assert ershov(IntLit(7)) == 1


def test_ershov_balanced_product():
    e = BinOp("*", add(V("a"), V("b")), add(V("c"), V("d")))
    assert ershov(e) == 3


def test_ershov_left_chain_stays_flat():
    e = add(add(add(V("a"), V("b")), V("c")), V("d"))
    assert ershov(e) == 2


def test_ershov_neg_counts_as_binary():
    assert ershov(Neg(V("a"))) == 2
    assert ershov(Neg(add(V("a"), V("b")))) == 2


# each core operator and the bit operator that stands in for it
_AS_BITS = {"+": "^", "-": "<<", "*": "&"}
_KIND_AS_BITS = {"add": "xor", "sub": "sll", "mul": "and"}


def _as_bits(e):
    """e with each core operator replaced, and each -e read as 0 << e."""
    def f(n):
        if type(n) is BinOp:
            return BitOp(_AS_BITS[n.op], n.left, n.right)
        return BitOp("<<", IntLit(0), n.operand) if type(n) is Neg else n

    return transform(e, f)


def _kinds_as_bits(code):
    return tuple(replace(i, kind=_KIND_AS_BITS[i.kind]) if isinstance(i, Op) else i for i in code)


@settings(max_examples=200, deadline=None)
@given(gen.aexprs(), st.sampled_from([2, 3, 4]))
def test_bit_operations_allocate_like_core(e, k):
    # the same registers, spills and reloads; only the operation differs
    assert alloc_codegen(_as_bits(e), k) == _kinds_as_bits(alloc_codegen(e, k))


def test_ershov_matches_oracle_exhaustively_depth3():
    for t in shapes(3):
        assert ershov(t) == min_registers(t)


@settings(max_examples=200, deadline=None)
@given(gen.aexprs(max_depth=3))
def test_ershov_matches_oracle_random(e):
    assert ershov(e) == min_registers(e)


@settings(max_examples=200, deadline=None)
@given(gen.aexprs())
def test_ershov_label_monotone(e):
    def subtrees(t):
        yield t
        if isinstance(t, Neg):
            yield from subtrees(t.operand)
        elif isinstance(t, BinOp):
            yield from subtrees(t.left)
            yield from subtrees(t.right)

    top = ershov(e)
    assert all(ershov(t) <= top for t in subtrees(e))


@settings(max_examples=150, deadline=None)
@given(gen.aexprs(), st.integers(min_value=2, max_value=4))
def test_neg_compiles_like_zero_minus(e, k):
    assert alloc_codegen(Neg(e), k) == alloc_codegen(BinOp("-", IntLit(0), e), k)


# ---------------------------------------------------------------------------
# alloc_codegen shapes


def test_codegen_two_leaves():
    assert alloc_codegen(add(V("a"), V("b")), 2) == (
        LoadVar(0, "a"),
        LoadVar(1, "b"),
        Op("add", 0, 0, 1),
    )


def test_codegen_single_leaf():
    assert alloc_codegen(V("a"), 8) == (LoadVar(0, "a"),)


def test_codegen_heavier_right_first():
    e = add(V("a"), BinOp("*", V("b"), V("c")))
    assert alloc_codegen(e, 2) == (
        LoadVar(0, "b"),
        LoadVar(1, "c"),
        Op("mul", 0, 0, 1),
        LoadVar(1, "a"),
        Op("add", 0, 1, 0),
    )


def test_codegen_spill_shape():
    e = add(add(V("a"), V("b")), add(V("c"), V("d")))
    assert alloc_codegen(e, 2) == (
        LoadVar(0, "c"),
        LoadVar(1, "d"),
        Op("add", 0, 0, 1),
        Spill(0),
        LoadVar(0, "a"),
        LoadVar(1, "b"),
        Op("add", 0, 0, 1),
        Reload(1),
        Op("add", 0, 0, 1),
    )


def test_codegen_requires_two_registers():
    with pytest.raises(ValueError):
        alloc_codegen(V("a"), 1)


def test_codegen_comparison_operands_in_r0_and_r1():
    # in compare's order: "<" takes its right operand first
    b = Cmp("<", V("a"), add(V("b"), V("c")))
    assert alloc_codegen(b, 3) == (
        LoadVar(0, "b"),
        LoadVar(1, "c"),
        Op("add", 0, 0, 1),
        LoadVar(1, "a"),
    )
    with pytest.raises(ValueError):
        alloc_codegen(b, 2)


def _without_nots(code):
    return tuple(i for i in code if not (isinstance(i, Op) and i.kind == "not"))


@settings(max_examples=200, deadline=None)
@given(gen.aexprs(bits=True), st.sampled_from([2, 3, 4]))
def test_complement_and_casts_add_no_register(e, k):
    # wrapping every node in a cast of a complement leaves the code as it
    # was, plus one "not" per node, computed in the node's own register
    code = alloc_codegen(transform(e, lambda n: Cast(Ty.U32, BitNot(n))), k)
    nots = [i for i in code if isinstance(i, Op) and i.kind == "not"]
    assert len(nots) == node_count(e) + sum(type(n) is BitNot for n in walk(e))
    assert all(i.lhs == i.rhs == i.dst for i in nots)
    assert _without_nots(code) == _without_nots(alloc_codegen(e, k))


@settings(max_examples=300, deadline=None)
@given(gen.aexprs(bits=True), gen.word_stores(), st.sampled_from([2, 3, 4]))
def test_bit_code_computes_the_word(e, s, k):
    # the allocator's bit code, spills included, has the 32-bit value of e
    assert reg_exec(alloc_codegen(e, k), s, k) & MASK == eval_fixed(s, e)


@pytest.mark.parametrize("k", [2, 3])
def test_bit_code_spills_keep_the_word(k):
    # a complete tree one level deeper than k registers allow, over every
    # bit operator, ~ and a cast, with words that stress sign and shifts
    ops = ("&", "|", "^", "<<", ">>")
    leaves = iter([0, 1, 2**31 - 1, 2**31, 2**32 - 1, 5, 31, 33] * 8)

    def build(d):
        if d == 0:
            return Cast(Ty.I32, BitNot(IntLit(next(leaves))))
        return BitOp(ops[d % len(ops)], build(d - 1), BitOp("^", V(f"x{d}"), build(d - 1)))

    e = build(k)
    code = alloc_codegen(e, k)
    assert any(isinstance(i, Spill) for i in code)
    s = Store({f"x{d}": 2**32 - d for d in range(k + 1)})
    assert reg_exec(code, s, k) & MASK == eval_fixed(s, e)


@settings(max_examples=500, deadline=None)
@given(gen.aexprs(), gen.stores(), st.sampled_from([2, 3, 4]))
def test_codegen_differential(e, s, k):
    code = alloc_codegen(e, k)
    assert reg_exec(code, s, k) == aeval(s, e)
    spills = sum(isinstance(i, Spill) for i in code)
    assert (spills == 0) == (ershov(e) <= k)


@settings(max_examples=300, deadline=None)
@given(gen.aexprs(), st.sampled_from([2, 3, 4]))
def test_codegen_peak_usage_is_optimal(e, k):
    code = alloc_codegen(e, k)
    assert max_live(code) == min(ershov(e), k)


def test_codegen_peak_matches_oracle_exhaustively():
    for t in shapes(3):
        need = min_registers(t)
        for k in (2, 3, 4):
            code = alloc_codegen(t, k)
            assert max_live(code) == min(need, k)
            assert any(isinstance(i, Spill) for i in code) == (need > k)


# ---------------------------------------------------------------------------
# reg_exec


def test_exec_const():
    assert reg_exec((LoadConst(0, 7),), Store()) == 7


def test_exec_var_minus_itself():
    code = (LoadVar(0, "a"), LoadVar(1, "a"), Op("sub", 0, 0, 1))
    assert reg_exec(code, Store({"a": 9})) == 0


def test_exec_rejects_out_of_range_register():
    with pytest.raises(MalformedCode):
        reg_exec((LoadConst(5, 1),), Store(), k=4)
    with pytest.raises(MalformedCode):
        reg_exec((LoadConst(-1, 1),), Store())


def test_exec_rejects_reload_from_empty_stack():
    with pytest.raises(MalformedCode):
        reg_exec((Reload(0),), Store())


def test_exec_rejects_unwritten_reads():
    with pytest.raises(MalformedCode):
        reg_exec((Op("add", 0, 0, 1),), Store())
    with pytest.raises(MalformedCode):
        reg_exec((), Store())


def _complete_tree(depth, values, ops=("+", "-")):
    def build(d):
        if d == 0:
            return IntLit(next(values))
        return BinOp(ops[d % 2], build(d - 1), build(d - 1))

    return build(depth)


@pytest.mark.parametrize("k", [2, 3])
def test_spill_roundtrip_complete_tree(k):
    # depth k+1 forces ershov k+2 > k; distinct leaves and mixed +/- make
    # any spill-stack ordering mistake change the value
    vals = iter(range(3, 300, 7))
    e = _complete_tree(k + 1, vals)
    assert ershov(e) == k + 2
    code = alloc_codegen(e, k)
    assert any(isinstance(i, Spill) for i in code)
    assert reg_exec(code, Store(), k) == aeval(Store(), e)


def test_nested_spills_respect_lifo():
    vals = iter([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53])
    e = _complete_tree(4, vals)
    code = alloc_codegen(e, 2)
    assert sum(isinstance(i, Spill) for i in code) >= 2
    assert reg_exec(code, Store(), 2) == aeval(Store(), e)


def test_each_node_is_labeled_once(monkeypatch):
    # one label per node keeps allocation linear in the chain length
    e = V("x0")
    for i in range(1, 400):
        e = add(e, V(f"x{i}"))
    labels = []
    join = regalloc._join
    monkeypatch.setattr(regalloc, "_join", lambda l, r: labels.append(1) or join(l, r))
    code = alloc_codegen(e, 8)
    assert len(labels) <= node_count(e)
    assert reg_exec(code, Store({f"x{i}": i for i in range(400)})) == sum(range(400))


@pytest.mark.parametrize("side", ["left", "right"])
def test_codegen_long_chain(side):
    e = V("x0")
    for i in range(1, 10_000):
        e = add(e, V(f"x{i}")) if side == "left" else add(V(f"x{i}"), e)
    code = alloc_codegen(e, 8)
    assert reg_exec(code, Store({f"x{i}": i for i in range(10_000)})) == sum(range(10_000))


# ---------------------------------------------------------------------------
# listing


def test_listing_spill_example():
    e = add(add(V("a"), V("b")), add(V("c"), V("d")))
    assert listing(alloc_codegen(e, 2)) == (
        "LOADVAR r0 c\n"
        "LOADVAR r1 d\n"
        "OP ADD r0 r0 r1\n"
        "SPILL r0\n"
        "LOADVAR r0 a\n"
        "LOADVAR r1 b\n"
        "OP ADD r0 r0 r1\n"
        "RELOAD r1\n"
        "OP ADD r0 r0 r1\n"
    )


def test_listing_const_and_empty():
    assert listing((LoadConst(0, 42),)) == "LOADCONST r0 42\n"
    assert listing(()) == ""
