import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as gen
from cimp import syntax as sx
from cimp.frontend import parse_program
from cimp.generator import GenSpec, gen_program
from cimp.typecheck import typecheck
from reference import ref_eval
from cimp.semantics import (
    Done,
    Next,
    OutOfFuel,
    Store,
    Terminal,
    UnsupportedNode,
    aeval,
    beval,
    ceval_fuel,
    compile_expr,
    format_store,
    parse_store,
    run_small,
    step,
)


def prog(src):
    return parse_program(src).body


# ---------------------------------------------------------------------------
# Store


def test_store_default_zero():
    assert Store().get("x") == 0
    assert Store({"x": 3}).get("y") == 0


def test_store_set_is_persistent():
    s0 = Store({"x": 1})
    s1 = s0.set("x", 2)
    assert s0.get("x") == 1 and s1.get("x") == 2


def test_store_equality_ignores_explicit_zeros():
    assert Store({"x": 0}) == Store()
    assert Store({"x": 0, "y": 2}) == Store({"y": 2})
    assert Store({"x": 1}) != Store()
    assert hash(Store({"x": 0})) == hash(Store())


def test_format_store_sorted_lines():
    s = Store({"b": 2, "a": -1, "c": 0})
    assert format_store(s) == "a=-1\nb=2\nc=0\n"


def test_parse_store_roundtrip():
    s = Store({"x": 10, "y": -3})
    assert parse_store(format_store(s)) == s
    assert parse_store("") == Store()
    assert parse_store("  x = 5 \n\n") == Store({"x": 5})


def test_parse_store_rejects_garbage():
    with pytest.raises(ValueError):
        parse_store("x")
    with pytest.raises(ValueError):
        parse_store("x=ten")


# ---------------------------------------------------------------------------
# Expression evaluation


def test_aeval_direct_arithmetic():
    e = sx.BinOp("+", sx.BinOp("+", sx.Var("a"), sx.IntLit(1)), sx.IntLit(2))
    assert aeval(Store({"a": 5}), e) == 8


def test_aeval_unbound_reads_zero():
    assert aeval(Store(), sx.Var("x")) == 0


def test_aeval_sub_self_is_zero():
    e = sx.BinOp("-", sx.Var("a"), sx.Var("a"))
    assert aeval(Store({"a": 3}), e) == 0


def test_aeval_unbounded_and_negative():
    e = sx.BinOp("*", sx.Var("a"), sx.Var("a"))
    assert aeval(Store({"a": 2**40}), e) == 2**80
    assert aeval(Store({"a": 7}), sx.Neg(sx.Var("a"))) == -7


def test_aeval_rejects_fixed_width_nodes():
    for e in (
        sx.BitOp("&", sx.IntLit(1), sx.IntLit(2)),
        sx.BitNot(sx.IntLit(0)),
        sx.Cast(sx.Ty.U32, sx.IntLit(1)),
    ):
        with pytest.raises(UnsupportedNode):
            aeval(Store(), e)


def test_beval_examples():
    assert beval(Store(), sx.Or(sx.BoolLit(True), sx.BoolLit(False))) is True
    assert beval(Store({"x": 1}), sx.Cmp("<=", sx.Var("x"), sx.IntLit(0))) is False
    both = sx.And(
        sx.Cmp("=", sx.Var("x"), sx.Var("y")),
        sx.Not(sx.Cmp("<", sx.Var("x"), sx.Var("y"))),
    )
    assert beval(Store({"x": 2, "y": 2}), both) is True


@settings(max_examples=100)
@given(gen.aexprs(), gen.stores(), st.integers(-9, 9))
def test_aeval_depends_only_on_free_vars(e, s, extra):
    free = sx.com_vars(e)
    fresh = next(n for n in ("q0", "q1", "q2") if n not in free)
    assert aeval(s, e) == aeval(s.set(fresh, extra), e)


# ---------------------------------------------------------------------------
# compile_expr against the node-by-node reference evaluator

# the words where wrapping and signed/unsigned order disagree
EDGES = (0, 1, 2**31 - 1, 2**31, 2**32 - 1)
edge_envs = st.dictionaries(gen.NAMES, st.sampled_from(EDGES), max_size=4)
int_envs = st.one_of(gen.stores().map(lambda s: dict(s.items())), edge_envs)
word_envs = st.one_of(gen.word_stores().map(lambda s: dict(s.items())), edge_envs)


def _agree(n, env, types=None):
    """compile_expr and ref_eval give the same value, or the same error."""
    try:
        want = ref_eval(n, env, types)
    except UnsupportedNode as err:
        with pytest.raises(UnsupportedNode) as got:
            compile_expr(n, types)(env)
        assert got.value.pos == err.pos
        return
    got = compile_expr(n, types)(env)
    assert got == want and type(got) is type(want)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(gen.aexprs(bits=True), gen.bexprs(bits=True), gen.assertions()),
    int_envs,
)
def test_compile_expr_matches_reference_unbounded(n, env):
    _agree(n, env)


@settings(max_examples=300, deadline=None)
@given(gen.aexprs(bits=True), word_envs)
def test_compile_expr_matches_reference_on_words(e, env):
    # arithmetic needs no types: an empty table selects 32-bit words
    _agree(e, env, {})


def _code_expressions(p):
    for n in sx.walk(p.body, code_only=True):
        if type(n) is sx.Assign:
            yield n.rhs
        elif type(n) in (sx.If, sx.While):
            yield n.cond


@settings(max_examples=100, deadline=None)
@given(gen.typed_programs(), word_envs)
def test_compile_expr_matches_reference_typed(p, env):
    types = typecheck(p)._types
    for n in _code_expressions(p):
        _agree(n, env, types)


def test_compile_expr_matches_reference_on_generated_programs():
    for seed in range(300):
        for typed in (False, True):
            p = gen_program(GenSpec(seed=seed, typed=typed))
            types = typecheck(p)._types if typed else None
            rng = random.Random(seed)
            names = sorted(sx.com_vars(p.body))
            envs = [{x: rng.choice(EDGES) for x in names}]
            envs.append({x: rng.randint(-20, 40) for x in names})
            for n in _code_expressions(p):
                for env in envs:
                    _agree(n, env, types)


@pytest.mark.parametrize("ty", [sx.Ty.I32, sx.Ty.U32])
@pytest.mark.parametrize("op", ["=", "<=", "<"])
def test_compile_expr_comparison_order_at_the_edges(ty, op):
    c = sx.Cmp(op, sx.Var("a"), sx.Var("b"))
    for a in EDGES:
        for b in EDGES:
            _agree(c, {"a": a, "b": b}, {id(c): ty})
    # 2^31 is the least i32 and the middle of u32
    assert compile_expr(c, {id(c): ty})({"a": 2**31, "b": 0}) is (
        op != "=" and ty is sx.Ty.I32
    )


@pytest.mark.parametrize("terms", [2, 10**4])
def test_compile_expr_folds_long_chains(terms):
    # '+'/'-' alternate on a left spine; 10^4 terms would overflow the
    # Python stack if compiled or evaluated one closure per operator
    e = sx.Var("x")
    for i in range(1, terms):
        e = sx.BinOp("+" if i % 2 else "-", e, sx.IntLit(i))
    env = {"x": 2**32 - 1}
    want = 2**32 - 1 + sum(i if i % 2 else -i for i in range(1, terms))
    assert compile_expr(e)(env) == want
    assert compile_expr(e, {})(env) == want % 2**32


@pytest.mark.parametrize("terms", [2, 3, 10**4])
def test_compile_expr_runs_implication_chains_in_order(terms):
    # the right spine of -> runs as one loop: the first false premise
    # makes the chain true, and the bit operator after it is never reached
    x = sx.Var("x")
    holds, fails = sx.Cmp("=", x, sx.IntLit(0)), sx.Cmp("=", x, sx.IntLit(1))
    unreached = sx.Cmp("<", sx.BitNot(x), x)

    def chain(items):
        e = items[-1]
        for item in reversed(items[:-1]):
            e = sx.Implies(item, e)
        return e

    for k in sorted({0, (terms - 2) // 2, terms - 2}):
        items = [holds] * k + [fails, unreached] + [holds] * (terms - k - 2)
        assert compile_expr(chain(items))({}) is True
    assert compile_expr(chain([holds] * (terms - 1) + [fails]))({}) is False
    with pytest.raises(UnsupportedNode):
        compile_expr(chain([holds] * (terms - 1) + [unreached]))({})


@pytest.mark.parametrize("terms", [2, 3, 7, 10**4])
@pytest.mark.parametrize("op", [sx.And, sx.Or])
def test_compile_expr_folds_condition_chains_in_order(op, terms):
    # a left spine of && (or ||) evaluates left to right and stops at the
    # first term that decides it: the bit operator after it is never reached
    x = sx.Var("x")
    undecided = sx.Cmp("<", x, sx.IntLit(1)) if op is sx.And else sx.Cmp("=", x, sx.IntLit(1))
    decides = sx.Not(undecided)
    unreached = sx.Cmp("<", sx.BitNot(x), x)

    def chain(items):
        e = items[0]
        for item in items[1:]:
            e = op(e, item)
        return e

    for k in sorted({0, terms // 2, terms - 2}):
        items = [undecided] * k + [decides, unreached] + [undecided] * (terms - k - 2)
        assert compile_expr(chain(items))({}) is (op is sx.Or)
    assert compile_expr(chain([undecided] * terms))({}) is (op is sx.And)
    with pytest.raises(UnsupportedNode):
        compile_expr(chain([undecided] * (terms - 1) + [unreached]))({})


CHAIN_OPS = {"+": sx.BinOp, "-": sx.BinOp, "*": sx.BinOp, "&": sx.BitOp,
             "|": sx.BitOp, "^": sx.BitOp, "<<": sx.BitOp, ">>": sx.BitOp}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(sorted(CHAIN_OPS)), gen.aexprs(max_depth=1, bits=True)),
        min_size=1,
        max_size=12,
    ),
    word_envs,
)
def test_compile_expr_matches_reference_on_operator_chains(steps, env):
    e = sx.Var("x")
    for op, right in steps:
        e = CHAIN_OPS[op](op, e, right)
    _agree(e, env)
    _agree(e, env, {})


def test_compile_expr_chain_of_shifts_masks_before_shifting_right():
    # (x << 4) >> 4 on words drops the high bits the left shift pushed out
    e = sx.Var("x")
    for op, k in [("<<", 4), (">>", 4)] * 3:
        e = sx.BitOp(op, e, sx.IntLit(k))
    assert compile_expr(e, {})({"x": 0xFFFFFFFF}) == 0x0FFFFFFF
    assert compile_expr(e, {})({"x": 0xFFFFFFFF}) == ref_eval(e, {"x": 0xFFFFFFFF}, {})


def test_untyped_bit_operator_raises_only_when_reached():
    src = "if 1 < 0 then x := 1 & 2 else skip end; y := 3"
    body = prog(src)
    assert ceval_fuel(10, body, Store()) == Done(Store({"y": 3}))
    assert run_small(100, body, Store()) == Done(Store({"y": 3}))
    reached = prog("y := 3; x := 1 & 2")
    for run, fuel in ((ceval_fuel, 10), (run_small, 100)):
        with pytest.raises(UnsupportedNode) as err:
            run(fuel, reached, Store())
        assert (err.value.pos.line, err.value.pos.col) == (1, 16)


# ---------------------------------------------------------------------------
# Big-step with fuel


def test_ceval_straight_line():
    assert ceval_fuel(10, prog("x := 1; x := x + 1"), Store()) == Done(
        Store({"x": 2})
    )


def test_ceval_divergent_loop_all_fuels():
    w = prog("while true do skip done")
    for n in (0, 1, 2, 10, 100):
        assert ceval_fuel(n, w, Store()) == OutOfFuel()


def test_ceval_countdown_fuel_boundary():
    w = prog("while 1 <= x do x := x - 1 done")
    s = Store({"x": 3})
    assert ceval_fuel(5, w, s) == Done(Store({"x": 0}))
    assert ceval_fuel(4, w, s) == Done(Store({"x": 0}))
    assert ceval_fuel(3, w, s) == OutOfFuel()


def test_ceval_zero_fuel_loop_is_out_of_fuel_even_if_guard_false():
    w = prog("while 1 <= x do x := x - 1 done")
    assert ceval_fuel(0, w, Store({"x": 0})) == OutOfFuel()
    assert ceval_fuel(1, w, Store({"x": 0})) == Done(Store({"x": 0}))


def test_ceval_zero_fuel_loop_free_code_completes():
    c = prog("x := 2; if x < 3 then y := x * x else skip end")
    assert ceval_fuel(0, c, Store()) == Done(Store({"x": 2, "y": 4}))


def test_ceval_fuel_shared_across_sequenced_loops():
    c = prog(
        "while 1 <= x do x := x - 1 done; while 1 <= y do y := y - 1 done"
    )
    s = Store({"x": 2, "y": 2})
    # each loop needs its iterations plus the exit test
    assert ceval_fuel(6, c, s) == Done(Store({"x": 0, "y": 0}))
    assert ceval_fuel(4, c, s) == OutOfFuel()


def test_ceval_nested_loop_fuel():
    c = prog(
        "i := 0;"
        "while i < 2 do"
        "  j := 0;"
        "  while j < 3 do j := j + 1; acc := acc + 1 done;"
        "  i := i + 1 "
        "done"
    )
    out = ceval_fuel(1000, c, Store())
    assert out == Done(Store({"i": 2, "j": 3, "acc": 6}))


def test_ceval_large_fuel_iterative():
    w = prog("while 1 <= x do x := x - 1 done")
    assert ceval_fuel(10**5 + 1, w, Store({"x": 10**5})) == Done(Store({"x": 0}))


def test_ceval_rejects_negative_fuel():
    with pytest.raises(ValueError):
        ceval_fuel(-1, sx.Skip(), Store())


# ---------------------------------------------------------------------------
# Small-step


def test_step_skip_terminal():
    assert step(sx.Skip(), Store()) == Terminal()


def test_step_assign():
    assert step(prog("x := 1"), Store()) == Next(sx.Skip(), Store({"x": 1}))


def test_step_seq_discharges_skip():
    c = prog("skip; x := 1")
    assert step(c, Store()) == Next(prog("x := 1"), Store())


def test_step_while_unfolds_preserving_invariant():
    w = prog("while x < 3 invariant { 0 <= x } do x := x + 1 done")
    r = step(w, Store())
    assert isinstance(r, Next)
    unfolded = r.com
    assert unfolded == sx.If(w.cond, sx.Seq(w.body, w), sx.Skip())
    assert unfolded.then_branch.second.invariant == w.invariant


def test_step_is_deterministic():
    c = prog("if x < 1 then x := x + 1 else skip end")
    s = Store({"x": 0})
    assert step(c, s) == step(c, s)


def test_run_small_examples():
    assert run_small(100, prog("x := 1; x := x + 1"), Store()) == Done(
        Store({"x": 2})
    )
    assert run_small(3, prog("while true do skip done"), Store()) == OutOfFuel()


def test_run_small_minimal_steps_observable():
    c = prog("x := 1; x := x + 1")
    s = Store()
    need = next(k for k in range(50) if run_small(k, c, s) == Done(Store({"x": 2})))
    assert run_small(need - 1, c, s) == OutOfFuel()


def _iterate_step(max_steps, c, s):
    """The textbook driver: call step at most max_steps times."""
    for _ in range(max_steps):
        r = step(c, s)
        if isinstance(r, Terminal):
            return Done(s)
        c, s = r.com, r.store
    return OutOfFuel()


def _min_budget(run, c, s, hi):
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if isinstance(run(mid, c, s), Done):
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_run_small_budget_matches_iterated_step():
    rng = random.Random(11)
    for _ in range(80):
        spec = GenSpec(seed=rng.getrandbits(64), max_depth=rng.choice([1, 2, 3]))
        c = gen_program(spec).body
        s = Store({"a": rng.randint(-9, 9), "b": rng.randint(-9, 9)})
        hi = 10**5
        assert isinstance(run_small(hi, c, s), Done)
        need = _min_budget(run_small, c, s, hi)
        assert need == _min_budget(_iterate_step, c, s, hi)
        for k in range(max(need - 3, 0), need + 3):
            assert run_small(k, c, s) == _iterate_step(k, c, s), k


def test_run_small_counts_each_transition_kind():
    # Assign 1 + Skip test 1; Seq(Skip, c) 1; If 1; a While guard test 2
    assert _min_budget(run_small, prog("x := 1"), Store(), 50) == 2
    assert _min_budget(run_small, prog("skip; x := 1"), Store(), 50) == 3
    assert _min_budget(run_small, prog("if true then skip else skip end"), Store(), 50) == 2
    assert _min_budget(run_small, prog("while false do skip done"), Store(), 50) == 3
    # one iteration: 2 (test) + 1 (x := 1) + 1 (Seq(Skip, loop)) + 2 (test) + 1
    loop = prog("while x < 1 do x := 1 done")
    assert _min_budget(run_small, loop, Store(), 50) == 7


def test_run_small_evaluates_only_within_budget():
    # the failing assignment is the third transition: a budget of two
    # stops before it, three performs it
    c = sx.Seq(sx.Assign("x", sx.IntLit(1)), sx.Assign("y", sx.BitNot(sx.Var("x"))))
    assert run_small(2, c, Store()) == OutOfFuel()
    with pytest.raises(UnsupportedNode):
        run_small(3, c, Store())


# ---------------------------------------------------------------------------
# Properties


@settings(max_examples=120, deadline=None)
@given(gen.coms(), gen.stores(), st.integers(0, 12), st.integers(0, 12))
def test_fuel_monotonicity(c, s, f, extra):
    first = ceval_fuel(f, c, s)
    if isinstance(first, Done):
        assert ceval_fuel(f + extra, c, s) == first


@settings(max_examples=120, deadline=None)
@given(gen.coms(), gen.stores())
def test_big_small_agreement(c, s):
    big = ceval_fuel(30, c, s)
    small = run_small(3000, c, s)
    if isinstance(big, Done) and isinstance(small, Done):
        assert big.store == small.store


@settings(max_examples=120, deadline=None)
@given(gen.coms(), gen.coms(), gen.coms(), gen.stores(), st.integers(0, 10))
def test_seq_reassociation_inert(a, b, c, s, fuel):
    left = ceval_fuel(fuel, sx.Seq(sx.Seq(a, b), c), s)
    right = ceval_fuel(fuel, sx.Seq(a, sx.Seq(b, c)), s)
    assert left == right


@settings(max_examples=80, deadline=None)
@given(gen.coms(), gen.stores())
def test_small_step_terminating_runs_match_big(c, s):
    small = run_small(500, c, s)
    if isinstance(small, Done):
        big = ceval_fuel(500, c, s)
        assert big == small
