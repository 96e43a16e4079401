import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as gen
from cimp import syntax as sx
from cimp.frontend import parse_assertion_text as A
from cimp.frontend import parse_program
from cimp.hoare import HoareTriple, vcgen
from cimp.semantics import OUT_OF_FUEL, Done, Store, aeval, beval
from reference import beval_fixed, eval_fixed
from cimp.typecheck import (
    MASK,
    TypeMismatch,
    UndeclaredVariable,
    ceval_fixed,
    to_signed,
    typecheck,
    word32,
)


def check(src):
    return typecheck(parse_program(src))


# ---------------------------------------------------------------------------
# typecheck: acceptance of well-typed programs


def test_u32_arithmetic_with_casts():
    check("var x: u32; x := u32(1) + u32(2)")


def test_plain_literals_adopt_declared_type():
    # 0 - 1 adopts u32 from x, so it is the largest word, not -1
    tp = check("var x: u32; if 0 - 1 < x then skip else skip end")
    cond = tp.program.body.cond
    assert tp.ty_of(cond) is sx.Ty.U32
    assert beval_fixed(tp, Store({"x": 5}), cond) is False


def test_cast_bridges_signedness():
    check("var x: u32; var y: i32; x := u32(y)")


def test_undecorated_declaration_defaults_to_i32():
    tp = check("var x; if x < 0 then skip else skip end")
    assert tp.env == {"x": sx.Ty.I32}
    cond = tp.program.body.cond
    assert tp.ty_of(cond) is sx.Ty.I32
    assert beval_fixed(tp, Store({"x": 2**31}), cond) is True  # the word of -2^31


def test_literal_comparison_defaults_to_i32():
    tp = check("var x; if 1 < 2 then skip else skip end")
    assert tp.ty_of(tp.program.body.cond) is sx.Ty.I32


def test_comparison_reports_operand_type():
    tp = check("var x: u32; while x < 10 do x := x + 1 done")
    assert tp.ty_of(tp.program.body.cond) is sx.Ty.U32


def test_bit_operations_on_u32():
    check("var x: u32; x := x & 3; x := ~x; x := x << 2; x := x >> 1")


def test_invariant_assertions_are_checked():
    tp = check("var x: i32; while x < 9 invariant { 0 <= x } do x := x + 1 done")
    inv = tp.program.body.invariant
    assert tp.ty_of(inv) is sx.Ty.I32


def test_vcs_typecheck_and_evaluate_in_32_bits():
    src = "var x: i32; while x <= 9 invariant { 0 <= x && x <= 10 } do x := x + 1 done"
    p = parse_program(src)
    vcs = vcgen(HoareTriple(A("x = 0"), p.body, A("x = 10")))
    tp = typecheck(p, *(vc.formula for vc in vcs))
    for x in range(-3, 13):
        for vc in vcs:
            s = Store({"x": x})
            assert beval_fixed(tp, Store({"x": word32(x)}), vc.formula) == beval(s, vc.formula)


def test_formulas_are_checked_in_the_declarations():
    p = parse_program("var x: i32; x := 1")
    with pytest.raises(UndeclaredVariable) as ei:
        typecheck(p, A("x = 1"), A("q = 0"))
    assert ei.value.name == "q"


# ---------------------------------------------------------------------------
# typecheck: rejections


def test_assignment_needs_matching_type():
    with pytest.raises(TypeMismatch) as exc:
        check("var x: u32; var y: i32; x := y")
    assert exc.value.expected == "u32"
    assert exc.value.found == "i32"
    assert exc.value.pos == sx.SrcPos(1, 30)


def test_mixed_binop_rejected():
    with pytest.raises(TypeMismatch) as exc:
        check("var x: u32; var y: i32; x := x + y")
    assert exc.value.expected == "u32"
    assert exc.value.found == "i32"


def test_mixed_comparison_rejected():
    with pytest.raises(TypeMismatch):
        check("var x: u32; var y: i32; while x < y do skip done")


def test_bit_operation_needs_u32():
    with pytest.raises(TypeMismatch) as exc:
        check("var x: i32; x := x & 1")
    assert exc.value.expected == "u32"
    assert exc.value.found == "i32"


def test_shift_amount_must_be_u32():
    with pytest.raises(TypeMismatch):
        check("var x: u32; var i: i32; x := x << i")


def test_bitnot_needs_u32():
    with pytest.raises(TypeMismatch):
        check("var x: i32; x := ~x")


def test_undeclared_assignment_target():
    with pytest.raises(UndeclaredVariable) as exc:
        check("var x; y := 1")
    assert exc.value.name == "y"


def test_undeclared_read():
    with pytest.raises(UndeclaredVariable) as exc:
        check("var x; x := y + 1")
    assert exc.value.name == "y"


def test_undeclared_in_invariant():
    with pytest.raises(UndeclaredVariable) as exc:
        check("var x: i32; while x < 10 invariant { 0 <= q } do x := x + 1 done")
    assert exc.value.name == "q"


def test_first_error_wins():
    # both statements are ill-typed; the earlier one is reported
    with pytest.raises(TypeMismatch) as exc:
        check("var x: u32; var y: i32; x := y; y := x")
    assert exc.value.found == "i32"
    assert exc.value.pos == sx.SrcPos(1, 30)


def test_untyped_program_is_a_precondition_violation():
    with pytest.raises(ValueError):
        typecheck(parse_program("x := 1"))


# ---------------------------------------------------------------------------
# comparison types


_ORDER = {"=": lambda l, r: l == r, "<": lambda l, r: l < r, "<=": lambda l, r: l <= r}


@settings(max_examples=100, deadline=None)
@given(gen.typed_programs(), gen.word_stores())
def test_every_comparison_orders_by_its_type(p, s):
    # i32 comparisons order words as signed integers, u32 ones as unsigned
    tp = typecheck(p)
    for node in sx.walk(p.body):
        if type(node) is sx.Cmp:
            left, right = eval_fixed(s, node.left), eval_fixed(s, node.right)
            if tp.ty_of(node) is sx.Ty.I32:
                left, right = to_signed(left), to_signed(right)
            assert beval_fixed(tp, s, node) == _ORDER[node.op](left, right)


@settings(max_examples=100, deadline=None)
@given(gen.typed_programs())
def test_generated_typed_programs_check(p):
    assert typecheck(p).program is p


# ---------------------------------------------------------------------------
# eval_fixed


def test_u32_wraparound():
    e = sx.BinOp("+", sx.IntLit(0xFFFFFFFF), sx.IntLit(1))
    assert eval_fixed(Store(), e) == 0


def test_cast_is_bit_reinterpretation():
    e = sx.Cast(sx.Ty.I32, sx.IntLit(0xFFFFFFFF))
    w = eval_fixed(Store(), e)
    assert w == 0xFFFFFFFF
    assert to_signed(w) == -1


def test_neg_is_twos_complement():
    assert eval_fixed(Store(), sx.Neg(sx.IntLit(1))) == 0xFFFFFFFF


def test_logical_shift_right():
    e = sx.BitOp(">>", sx.IntLit(0x80000000), sx.IntLit(1))
    assert eval_fixed(Store(), e) == 0x40000000


@settings(max_examples=300, deadline=None)
@given(gen.aexprs(), gen.stores())
def test_ring_homomorphism_on_core_expressions(e, s):
    s32 = Store({n: word32(v) for n, v in s.items()})
    assert eval_fixed(s32, e) == word32(aeval(s, e))


@settings(max_examples=300, deadline=None)
@given(gen.aexprs(max_depth=2), gen.stores())
def test_small_values_agree_exactly(e, s):
    v = aeval(s, e)
    if 0 <= v < 2**16 and all(0 <= x < 2**16 for _, x in s.items()):
        assert eval_fixed(Store(dict(s.items())), e) == v


@settings(max_examples=200, deadline=None)
@given(gen.word_stores(), gen.WORDS, st.integers(min_value=0, max_value=40))
def test_shift_normalization(s, w, k):
    a = sx.BitOp("<<", sx.IntLit(w), sx.IntLit(k))
    b = sx.BitOp("<<", sx.IntLit(w), sx.IntLit(k + 32))
    assert eval_fixed(s, a) == eval_fixed(s, b)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([sx.Ty.I32, sx.Ty.U32]), gen.WORDS)
def test_cast_involution(t, w):
    other = sx.Ty.U32 if t is sx.Ty.I32 else sx.Ty.I32
    e = sx.Cast(t, sx.Cast(other, sx.IntLit(w)))
    assert eval_fixed(Store(), e) == w


@settings(max_examples=100, deadline=None)
@given(gen.typed_programs(), gen.word_stores())
def test_well_typed_never_gets_stuck(p, s32):
    # executable progress/preservation: no UnsupportedNode, no crashes
    tp = typecheck(p)
    out = ceval_fixed(40, tp, s32)
    assert isinstance(out, Done) or out is OUT_OF_FUEL


# ---------------------------------------------------------------------------
# ceval_fixed


def test_signed_comparison_takes_branch():
    tp = check("var x: i32; if 0 - 1 <= 0 then x := 1 else x := 2 end")
    assert ceval_fixed(9, tp, Store()) == Done(Store({"x": 1}))


def test_unsigned_comparison_skips_branch():
    tp = check(
        "var x: u32; var y: u32;"
        " y := 4294967295;"
        " if y <= 0 then x := 1 else x := 2 end"
    )
    out = ceval_fixed(9, tp, Store())
    assert out == Done(Store({"x": 2, "y": 0xFFFFFFFF}))


def test_same_word_flips_under_signed_view():
    tp = check(
        "var x: u32; var y: u32;"
        " y := 4294967295;"
        " if i32(y) <= i32(0) then x := 1 else x := 2 end"
    )
    out = ceval_fixed(9, tp, Store())
    assert out == Done(Store({"x": 1, "y": 0xFFFFFFFF}))


def test_wraparound_assignment():
    tp = check("var x: u32; x := u32(4294967295) + u32(1)")
    assert ceval_fixed(1, tp, Store()) == Done(Store({"x": 0}))


def test_fuel_checked_before_guard():
    tp = check("var x; while false do skip done")
    assert ceval_fixed(0, tp, Store()) is OUT_OF_FUEL


def test_while_true_runs_out_of_fuel():
    tp = check("var x; while true do x := x + 1 done")
    for fuel in (0, 1, 10, 1000):
        assert ceval_fixed(fuel, tp, Store()) is OUT_OF_FUEL


def test_unsigned_countdown_terminates():
    # u32 loop crossing what would be a signed boundary
    tp = check(
        "var x: u32; var n: u32;"
        " x := 2147483650;"
        " while 2147483648 <= x do x := x - 1; n := n + 1 done"
    )
    out = ceval_fixed(9, tp, Store())
    assert out == Done(Store({"x": 2147483647, "n": 3}))


def test_rejects_negative_fuel():
    tp = check("var x; skip")
    with pytest.raises(ValueError):
        ceval_fixed(-1, tp, Store())


def test_beval_fixed_uses_annotations():
    tp = check("var x: u32; while x < 4294967295 do skip done")
    cond = tp.program.body.cond
    assert beval_fixed(tp, Store({"x": 0xFFFFFFFE}), cond) is True
    assert beval_fixed(tp, Store({"x": 0xFFFFFFFF}), cond) is False


def test_word32_and_to_signed():
    assert word32(-1) == MASK
    assert word32(1 << 32) == 0
    assert to_signed(0x80000000) == -(1 << 31)
    assert to_signed(0x7FFFFFFF) == (1 << 31) - 1
