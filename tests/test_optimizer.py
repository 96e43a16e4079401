import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as gen
from cimp import syntax as sx
from cimp.frontend import parse_program, pretty
from cimp.generator import GenSpec, gen_program
from cimp.optimizer import fold, optimize
from cimp.semantics import Done, OutOfFuel, aeval, beval, ceval_fuel
from cimp.stack_machine import compile_program
from reference import dead_code, ref_fold, ref_optimize, simplify_bool, simplify_structural


def rhs(src):
    return parse_program(f"x := {src}").body.rhs


def cond(src):
    return parse_program(f"if {src} then skip else skip end").body.cond


# ---------------------------------------------------------------------------
# fold: constant folding with the unit and zero laws, to the fixed point


def test_const_fold_additive_spine():
    assert fold(rhs("a + 1 + 2")) == sx.BinOp("+", sx.Var("a"), sx.IntLit(3))


def test_const_fold_literal_product():
    assert fold(rhs("2 * 3")) == sx.IntLit(6)


def test_const_fold_through_subtraction():
    assert fold(rhs("a + 5 - 2")) == sx.BinOp("+", sx.Var("a"), sx.IntLit(3))
    assert fold(rhs("a + 2 - 5")) == sx.BinOp("-", sx.Var("a"), sx.IntLit(3))
    assert fold(rhs("1 + a - 1")) == sx.Var("a")


def test_const_fold_negative_result_is_neg_literal():
    assert fold(rhs("2 - 5")) == sx.Neg(sx.IntLit(3))
    assert fold(rhs("-2 * 3")) == sx.Neg(sx.IntLit(6))


def test_const_fold_leading_negative_term():
    assert fold(rhs("5 - a + 1")) == sx.BinOp(
        "-", sx.IntLit(6), sx.Var("a")
    )
    assert fold(rhs("0 - a")) == sx.Neg(sx.Var("a"))


def test_const_fold_keeps_nonliteral_order():
    e = fold(rhs("1 + a + 2 + b + 3"))
    assert e == sx.BinOp(
        "+", sx.BinOp("+", sx.Var("a"), sx.Var("b")), sx.IntLit(6)
    )


def test_const_fold_folds_inside_mul_operands():
    assert fold(rhs("(1 + 2) * a")) == sx.BinOp("*", sx.IntLit(3), sx.Var("a"))


def test_const_fold_wrap_mode_modulo():
    e = sx.BinOp("+", sx.IntLit(0xFFFFFFFF), sx.IntLit(1))
    assert fold(e, wrap=True) == sx.IntLit(0)
    assert fold(sx.Neg(sx.IntLit(5)), wrap=True) == sx.IntLit(2**32 - 5)


def test_const_fold_wrap_mode_prefers_small_subtrahend():
    e = sx.BinOp("-", sx.Var("a"), sx.IntLit(5))
    assert fold(e, wrap=True) == e


def _no_two_literal_children(e):
    match e:
        case sx.IntLit() | sx.Var():
            return True
        case sx.Neg(x) | sx.BitNot(x) | sx.Cast(_, x):
            return _no_two_literal_children(x)
        case sx.BinOp(_, l, r):
            def isl(n):
                return isinstance(n, sx.IntLit) or (
                    isinstance(n, sx.Neg) and isinstance(n.operand, sx.IntLit)
                )
            if isl(l) and isl(r):
                return False
            return _no_two_literal_children(l) and _no_two_literal_children(r)
        case sx.BitOp(_, l, r):
            return _no_two_literal_children(l) and _no_two_literal_children(r)
    raise TypeError(e)


@settings(max_examples=400)
@given(gen.aexprs(), gen.stores())
def test_const_fold_preserves_aeval(e, s):
    assert aeval(s, fold(e)) == aeval(s, e)


@settings(max_examples=300)
@given(gen.aexprs())
def test_const_fold_no_foldable_residue(e):
    assert _no_two_literal_children(fold(e))


@settings(max_examples=300)
@given(gen.aexprs())
def test_const_fold_idempotent_and_nonincreasing(e):
    folded = fold(e)
    assert fold(folded) == folded
    assert sx.node_count(folded) <= sx.node_count(e)


@settings(max_examples=300)
@given(gen.aexprs(), st.booleans())
def test_rewrites_return_their_input_exactly_when_nothing_changes(e, wrap):
    # the -O fixed point is an identity test, so a rewrite that finds
    # nothing to do must hand back the very node it was given
    folded = fold(e, wrap=wrap)
    assert (folded is e) == (folded == e)
    assert fold(folded, wrap=wrap) is folded
    out = simplify_structural(e)
    assert (out is e) == (out == e)


def _deep_chain(n):
    e = sx.Var("y")
    for _ in range(n - 1):
        e = sx.BinOp("+", e, sx.Var("y"))
    return e


def test_deep_expressions_optimize_without_recursion():
    t = _deep_chain(2000)
    p = sx.program(sx.Assign("x", sx.BinOp("-", t, _deep_chain(2000))))
    for level in (1, 2):
        assert optimize(sx.program(sx.Assign("x", t)), level).body.rhs is t
        out = optimize(p, level).body.rhs  # flattened into one 4,000-term chain
        assert sx.node_count(out) == 2 * 4000 - 1
    assert simplify_structural(sx.BinOp("-", t, _deep_chain(2000))) == sx.IntLit(0)


# ---------------------------------------------------------------------------
# fold against the reference: const_fold, then simplify_structural's
# generic transform, until a round changes nothing


@pytest.mark.parametrize("src, want", [
    ("1 * (10 - d) + 27", "37 - d"),
    ("c - 1 * (i32(d) - b)", "c - i32(d) + b"),
    ("c + d - 1 * (c + d)", "0"),  # the product is dropped before the spine is flattened
])
def test_fold_flattens_a_spine_that_a_unit_law_exposes(src, want):
    e = rhs(src)
    assert fold(e) == ref_fold(e) == rhs(want)


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("typed", [False, True], ids=["untyped", "typed"])
def test_optimize_is_the_reference_fixed_point_on_generated_programs(typed, level):
    for seed in range(1000):
        p = gen_program(GenSpec(seed=seed, typed=typed))
        got, want = optimize(p, level), ref_optimize(p, level)
        assert got == want and pretty(got) == pretty(want), seed
        assert optimize(got, level).body is got.body, seed


@settings(max_examples=300)
@given(gen.coms(bits=True), st.booleans(), st.sampled_from([1, 2]))
def test_optimize_is_the_reference_fixed_point_on_bit_code(c, typed, level):
    p = sx.Program((("a", sx.Ty.U32),) if typed else (), c)  # declarations set wrap mode
    got, want = optimize(p, level), ref_optimize(p, level)
    assert got == want and pretty(got) == pretty(want)
    assert optimize(got, level).body is got.body


# ---------------------------------------------------------------------------
# simplify_structural, the reference's second pass


def test_structural_sub_self():
    assert simplify_structural(rhs("a - a")) == sx.IntLit(0)


def test_structural_compound_sub_self():
    assert simplify_structural(rhs("(x + y) - (x + y)")) == sx.IntLit(0)


def test_structural_units():
    assert simplify_structural(rhs("a + 0")) == sx.Var("a")
    assert simplify_structural(rhs("0 + a")) == sx.Var("a")
    assert simplify_structural(rhs("a - 0")) == sx.Var("a")
    assert simplify_structural(rhs("a * 1")) == sx.Var("a")
    assert simplify_structural(rhs("1 * a")) == sx.Var("a")
    assert simplify_structural(rhs("a * 0")) == sx.IntLit(0)
    assert simplify_structural(rhs("0 * a")) == sx.IntLit(0)


@settings(max_examples=400)
@given(gen.aexprs(), gen.stores())
def test_structural_preserves_aeval(e, s):
    assert aeval(s, simplify_structural(e)) == aeval(s, e)


@settings(max_examples=200)
@given(gen.aexprs())
def test_structural_idempotent_nonincreasing(e):
    out = simplify_structural(e)
    assert simplify_structural(out) == out
    assert sx.node_count(out) <= sx.node_count(e)


# ---------------------------------------------------------------------------
# simplify_bool


def test_bool_dominance():
    assert simplify_bool(cond("true || x < 1")) == sx.BoolLit(True)
    assert simplify_bool(cond("x < 1 || true")) == sx.BoolLit(True)
    assert simplify_bool(cond("false && x < 1")) == sx.BoolLit(False)
    assert simplify_bool(cond("x < 1 && false")) == sx.BoolLit(False)


def test_bool_units():
    c = cond("x < 1")
    assert simplify_bool(sx.Or(sx.BoolLit(False), c)) == c
    assert simplify_bool(sx.Or(c, sx.BoolLit(False))) == c
    assert simplify_bool(sx.And(sx.BoolLit(True), c)) == c
    assert simplify_bool(sx.And(c, sx.BoolLit(True))) == c


def test_bool_not_literal():
    assert simplify_bool(cond("!false")) == sx.BoolLit(True)
    assert simplify_bool(cond("!(true && false)")) == sx.BoolLit(True)


def test_bool_literal_comparison_folds():
    assert simplify_bool(cond("1 <= 2")) == sx.BoolLit(True)
    assert simplify_bool(cond("2 < 2")) == sx.BoolLit(False)
    assert simplify_bool(cond("-1 < 0")) == sx.BoolLit(True)


def test_bool_wrap_mode_guards_large_literals():
    big = sx.Cmp("<=", sx.IntLit(0xFFFFFFFF), sx.IntLit(0))
    assert simplify_bool(big, wrap=True) == big
    assert simplify_bool(big) == sx.BoolLit(False)
    neg = sx.Cmp("<", sx.Neg(sx.IntLit(1)), sx.IntLit(0))
    assert simplify_bool(neg, wrap=True) == neg
    small = sx.Cmp("<", sx.IntLit(3), sx.IntLit(4))
    assert simplify_bool(small, wrap=True) == sx.BoolLit(True)


@settings(max_examples=400)
@given(gen.bexprs(), gen.stores())
def test_bool_preserves_beval(b, s):
    assert beval(s, simplify_bool(b)) == beval(s, b)


# ---------------------------------------------------------------------------
# dead_code


def test_dead_code_taken_branch():
    c = parse_program("if true then x := 1 else x := 2 end").body
    assert dead_code(c) == sx.Assign("x", sx.IntLit(1))
    c2 = parse_program("if false then x := 1 else x := 2 end").body
    assert dead_code(c2) == sx.Assign("x", sx.IntLit(2))


def test_dead_code_never_entered_loop():
    c = parse_program("while false do x := 1 done").body
    assert dead_code(c) == sx.Skip()


def test_dead_code_skip_elimination():
    c = parse_program("skip; x := 1; skip").body
    assert dead_code(c) == sx.Assign("x", sx.IntLit(1))


def test_dead_code_keeps_while_true():
    c = parse_program("while true do skip done").body
    assert dead_code(c) == c


@settings(max_examples=300, deadline=None)
@given(gen.coms(), gen.stores(), st.integers(0, 20))
def test_dead_code_outcome_agreement(c, s, fuel):
    before = ceval_fuel(fuel, c, s)
    after = ceval_fuel(fuel, dead_code(c), s)
    if isinstance(before, Done):
        assert after == before
    else:
        assert isinstance(after, (Done, OutOfFuel))


# ---------------------------------------------------------------------------
# optimize


def test_optimize_level_zero_is_identity():
    p = parse_program("x := a + 1 + 2; if true then skip else x := 0 end")
    assert optimize(p, 0) is p


def test_optimize_rejects_bad_level():
    with pytest.raises(ValueError):
        optimize(parse_program("skip"), 3)


def test_optimize_combined_example():
    p = parse_program("x := a + 1 + 2; if true then skip else x := 0 end")
    out = optimize(p, 2)
    assert out.body == sx.Assign("x", sx.BinOp("+", sx.Var("a"), sx.IntLit(3)))


def test_optimize_level_one_keeps_control_structure():
    p = parse_program("if true then x := 1 + 1 else skip end")
    out = optimize(p, 1)
    assert out.body == sx.If(
        sx.BoolLit(True), sx.Assign("x", sx.IntLit(2)), sx.Skip()
    )


def test_optimize_cleans_guards_then_code():
    p = parse_program("while 1 < 1 do x := 1 done; y := 2 * 2")
    out = optimize(p, 2)
    assert out.body == sx.Assign("y", sx.IntLit(4))


def test_optimize_preserves_decls():
    p = parse_program("var x: u32; x := x + 0")
    out = optimize(p, 1)
    assert out.decls == p.decls
    assert out.body == sx.Assign("x", sx.Var("x"))


@pytest.mark.parametrize("level", [1, 2])
@settings(max_examples=250, deadline=None)
@given(c=gen.coms(), s=gen.stores(), fuel=st.integers(0, 25))
def test_optimize_preservation(level, c, s, fuel):
    p = sx.program(c)
    before = ceval_fuel(fuel, p.body, s)
    after = ceval_fuel(fuel, optimize(p, level).body, s)
    if isinstance(before, Done):
        assert after == before
    else:
        assert isinstance(after, (Done, OutOfFuel))


@pytest.mark.parametrize("level", [1, 2])
@settings(max_examples=150, deadline=None)
@given(c=gen.coms())
def test_optimize_idempotent(level, c):
    p = sx.program(c)
    once = optimize(p, level)
    assert optimize(once, level) == once


@pytest.mark.parametrize("level", [1, 2])
@settings(max_examples=150, deadline=None)
@given(c=gen.coms())
def test_optimize_size_nonincreasing(level, c):
    p = sx.program(c)
    assert sx.node_count(optimize(p, level)) <= sx.node_count(p)


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("typed", [False, True])
def test_one_pass_reaches_the_fixed_point_on_generated_programs(level, typed):
    for seed in range(300):
        q = optimize(gen_program(GenSpec(seed=seed, typed=typed)), level)
        assert optimize(q, level).body is q.body, seed


@pytest.mark.parametrize("level", [1, 2])
@settings(max_examples=150, deadline=None)
@given(c=gen.coms(bits=True, invariants=True), wrap=st.booleans())
def test_one_pass_reaches_the_fixed_point(level, c, wrap):
    q = optimize(sx.Program((("a", sx.Ty.U32),) if wrap else (), c), level)
    assert optimize(q, level).body is q.body


@pytest.mark.parametrize("level", [1, 2])
def test_optimize_keeps_invariants_as_written(level):
    p = parse_program(
        "x := 0; while x < 9 invariant { x * x <= 81 && x + 0 <= 9 && true } do "
        "x := x + 1 done"
    )
    assert optimize(p, level).body.second.invariant is p.body.second.invariant


@settings(max_examples=150, deadline=None)
@given(c=gen.coms())
def test_optimize_shrinks_stack_code(c):
    p = sx.program(c)
    before = len(compile_program(p).code)
    after = len(compile_program(optimize(p, 2)).code)
    assert after <= before
