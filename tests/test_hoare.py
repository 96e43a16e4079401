import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import strategies as gen
from cimp import hoare
from cimp import syntax as sx
from cimp.errors import UnsupportedNode
from cimp.frontend import parse_assertion_text, parse_program
from cimp.generator import GenSpec, gen_program
from cimp.hoare import (
    BudgetExceeded,
    Counterexample,
    HoareTriple,
    MissingInvariant,
    Valid,
    VerificationCondition,
    bounded_check,
    emit_smtlib,
    subst_all,
    vcgen,
    wlp,
)
from cimp.semantics import Done, Store, aeval, beval, ceval_fuel, compile_expr
from reference import ref_emit_smtlib, ref_vcgen


def A(src):
    return parse_assertion_text(src)


def C(src):
    return parse_program(src).body


def vc(formula_src, origin="top"):
    return VerificationCondition(origin, A(formula_src))


COUNTING = "while x <= 9 invariant { 0 <= x && x <= 10 } do x := x + 1 done"


# ---------------------------------------------------------------------------
# substitution


def test_subst_in_negated_comparison():
    a = A("!(x <= 0)")
    assert subst_all(a, {"x": C("y := x + 1").rhs}) == A("!(x + 1 <= 0)")


def test_subst_ignores_other_vars():
    a = A("y = 2")
    assert subst_all(a, {"x": sx.IntLit(7)}) == a


def test_subst_hits_all_occurrences():
    a = A("x < x + x")
    assert subst_all(a, {"x": sx.IntLit(1)}) == A("1 < 1 + 1")


@settings(max_examples=300)
@given(gen.assertions(), st.sampled_from(["a", "b", "x", "y"]), gen.aexprs(), gen.stores())
def test_substitution_lemma(a, x, e, s):
    lhs = beval(s, subst_all(a, {x: e}))
    rhs = beval(s.set(x, aeval(s, e)), a)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# wlp


def test_wlp_skip():
    q = A("x = 1")
    assert wlp(sx.Skip(), q) == (q, [])


def test_wlp_assign_schema():
    w, sides = wlp(C("x := x + 1"), A("!(x <= 0)"))
    assert w == A("!(x + 1 <= 0)")
    assert sides == []


def test_wlp_if_splits_on_guard():
    w, sides = wlp(C("if x < 0 then y := 1 else y := 2 end"), A("y = 1"))
    assert sides == []
    assert w == A("(x < 0 -> 1 = 1) && (!x < 0 -> 2 = 1)")


def test_wlp_counting_loop_exact_vcs():
    w, sides = wlp(C(COUNTING), A("x = 10"))
    assert w == A("0 <= x && x <= 10")
    assert [s.origin for s in sides] == ["preservation", "exit"]
    assert sides[0].formula == A(
        "(0 <= x && x <= 10) && x <= 9 -> 0 <= x + 1 && x + 1 <= 10"
    )
    assert sides[1].formula == A("(0 <= x && x <= 10) && !x <= 9 -> x = 10")


def test_vcs_hold_the_programs_own_conditions():
    loop = C(COUNTING)
    _, preservation, exit_vc = vcgen(HoareTriple(A("x = 0"), loop, A("x = 10")))
    assert preservation.formula.left.right is loop.cond
    assert exit_vc.formula.left.right.operand is loop.cond
    branch = C("if x < 0 then y := 1 else y := 2 end")
    w, _ = wlp(branch, A("y = 1"))
    assert w.left.left is branch.cond and w.right.left.operand is branch.cond


def test_wlp_missing_invariant():
    c = C("while x <= 9 do x := x + 1 done")
    with pytest.raises(MissingInvariant) as ei:
        wlp(c, A("true"))
    assert ei.value.pos is not None


def test_wlp_seq_threads_postcondition():
    w, sides = wlp(C("x := y; y := x + 1"), A("y = 3"))
    assert sides == []
    assert w == A("y + 1 = 3")


# ---------------------------------------------------------------------------
# vcgen


def test_vcgen_skip_triple():
    got = vcgen(HoareTriple(A("true"), sx.Skip(), A("true")))
    assert got == [VerificationCondition("top", A("true -> true"))]


def test_vcgen_assign_triple():
    got = vcgen(HoareTriple(A("x = 0"), C("x := x + 1"), A("x = 1")))
    assert got == [VerificationCondition("top", A("x = 0 -> x + 1 = 1"))]


def test_vcgen_counting_triple_three_valid_vcs():
    t = HoareTriple(A("x = 0"), C(COUNTING), A("x = 10"))
    vcs = vcgen(t)
    assert [v.origin for v in vcs] == ["top", "preservation", "exit"]
    for v in vcs:
        assert bounded_check(v, 16) == Valid()


def test_vcgen_weakened_invariant_fails_on_exit():
    weak = "while x <= 9 invariant { 0 <= x } do x := x + 1 done"
    t = HoareTriple(A("x = 0"), C(weak), A("x = 10"))
    vcs = vcgen(t)
    results = {v.origin: bounded_check(v, 16) for v in vcs}
    assert results["top"] == Valid()
    assert results["preservation"] == Valid()
    # x = 11 satisfies the weak invariant and the negated guard but not
    # the postcondition; x = 10 still satisfies the consequent.
    assert results["exit"] == Counterexample(Store({"x": 11}))


def _with_default_invariants(c):
    match c:
        case sx.Skip() | sx.Assign():
            return c
        case sx.Seq(a, b):
            return sx.Seq(_with_default_invariants(a), _with_default_invariants(b))
        case sx.If(b, t, e):
            return sx.If(b, _with_default_invariants(t), _with_default_invariants(e))
        case sx.While(b, inv, body):
            return sx.While(
                b, inv if inv is not None else sx.BoolLit(True), _with_default_invariants(body)
            )


def _count_whiles(c):
    match c:
        case sx.Skip() | sx.Assign():
            return 0
        case sx.Seq(a, b):
            return _count_whiles(a) + _count_whiles(b)
        case sx.If(_, t, e):
            return _count_whiles(t) + _count_whiles(e)
        case sx.While(_, _, body):
            return 1 + _count_whiles(body)


@settings(max_examples=200)
@given(gen.coms(invariants=True), gen.assertions())
def test_vcgen_vc_count(c, q):
    c = _with_default_invariants(c)
    vcs = vcgen(HoareTriple(sx.BoolLit(True), c, q))
    assert len(vcs) == 1 + 2 * _count_whiles(c)
    assert vcs[0].origin == "top"


# ---------------------------------------------------------------------------
# emit_smtlib


def test_smtlib_trivial_implication():
    assert emit_smtlib(vc("true -> true")) == (
        "(set-logic QF_LIA)\n"
        "(assert (not (=> true true)))\n"
        "(check-sat)\n"
    )


def test_smtlib_assign_vc():
    assert emit_smtlib(vc("x = 0 -> x + 1 = 1")) == (
        "(set-logic QF_LIA)\n"
        "(declare-const x Int)\n"
        "(assert (not (=> (= x 0) (= (+ x 1) 1))))\n"
        "(check-sat)\n"
    )


def test_smtlib_declares_sorted_vars():
    script = emit_smtlib(vc("b + a <= c"))
    decls = [l for l in script.splitlines() if l.startswith("(declare")]
    assert decls == [
        "(declare-const a Int)",
        "(declare-const b Int)",
        "(declare-const c Int)",
    ]


def test_smtlib_logic_selection():
    assert "(set-logic QF_LIA)" in emit_smtlib(vc("2 * x <= 4"))
    assert "(set-logic QF_LIA)" in emit_smtlib(vc("x * 3 <= 4"))
    assert "(set-logic QF_NIA)" in emit_smtlib(vc("x * y <= 4"))
    assert "(set-logic QF_NIA)" in emit_smtlib(vc("x * (y + 1) <= 4"))


def test_smtlib_negation_rendering():
    script = emit_smtlib(vc("-x <= 0 -> !(x - 1 < -2)"))
    assert "(<= (- x) 0)" in script
    assert "(not (< (- x 1) (- 2)))" in script


def test_counting_vcs_render_cleanly():
    t = HoareTriple(A("x = 0"), C(COUNTING), A("x = 10"))
    for v in vcgen(t):
        script = emit_smtlib(v)
        assert script.startswith("(set-logic QF_LIA)\n")
        assert script.endswith("(check-sat)\n")
        assert "(declare-const x Int)" in script


# ---------------------------------------------------------------------------
# bounded_check


def test_bounded_check_valid():
    assert bounded_check(vc("true -> true"), 4) == Valid()


def test_bounded_check_first_counterexample_ascending():
    assert bounded_check(vc("x <= 0"), 4) == Counterexample(Store({"x": 1}))


def test_bounded_check_lexicographic_tiebreak():
    got = bounded_check(vc("!(x = y)"), 2)
    assert got == Counterexample(Store({"x": -2, "y": -2}))


def test_bounded_check_no_vars():
    assert bounded_check(vc("false"), 1) == Counterexample(Store())


def test_bounded_check_budget():
    wide = vc("a + b + c + x + y + z <= 100")
    with pytest.raises(BudgetExceeded):
        bounded_check(wide, 16, budget=1000)


def test_shared_vc_subtrees_compile_to_one_closure():
    c = A("x < 3")
    memo = {}
    both = compile_expr(sx.And(c, c), None, memo)
    assert {cell.cell_contents for cell in both.__closure__} == {memo[id(c)]}
    # k sequential ifs: substitution shares subtrees, so the VC tree is far
    # larger than its set of distinct nodes, and only those compile
    src = ";\n".join(f"if x < {i} then x := x + 1 else x := x - 1 end" for i in range(10))
    (top,) = vcgen(HoareTriple(A("true"), C(src), A("x < 100")))
    memo = {}
    compile_expr(top.formula, None, memo)
    distinct = {id(n) for n in sx.walk(top.formula)}
    assert len(memo) <= len(distinct) < sx.node_count(top.formula) // 5


def test_bounded_check_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        bounded_check(vc("true"), 0)


# ---------------------------------------------------------------------------
# Semantic properties


def loop_free_coms():
    return gen.coms(max_depth=2).filter(lambda c: _count_whiles(c) == 0)


@settings(max_examples=150, deadline=None)
@given(loop_free_coms(), gen.assertions(), gen.stores())
def test_wlp_loop_free_soundness(c, q, s):
    w, sides = wlp(c, q)
    assert sides == []
    if beval(s, w):
        out = ceval_fuel(0, c, s)
        assert isinstance(out, Done)
        assert beval(out.store, q)


@settings(max_examples=150, deadline=None)
@given(loop_free_coms(), gen.assertions(), gen.stores())
def test_wlp_loop_free_exactness(c, q, s):
    # for loop-free commands wlp is exact, not just sufficient
    w, _ = wlp(c, q)
    out = ceval_fuel(0, c, s)
    assert isinstance(out, Done)
    assert beval(s, w) == beval(out.store, q)


@settings(max_examples=60, deadline=None)
@given(loop_free_coms(), gen.assertions(max_depth=2), gen.assertions(max_depth=2))
def test_wlp_monotone_in_postcondition(c, q1, r):
    # q1 -> q2 must hold on every store, not only on the checked box, as
    # c can move a store off the box
    q2 = sx.Or(q1, r)
    # cap the enumeration grid: 5 values per variable, at most 4 variables
    names = sx.com_vars(c) | sx.com_vars(q1) | sx.com_vars(q2)
    assume(len(names) <= 4)
    w1, _ = wlp(c, q1)
    w2, _ = wlp(c, q2)
    lifted = VerificationCondition("top", sx.Implies(w1, w2))
    assert isinstance(bounded_check(lifted, 2, budget=10**6), Valid)


# ---------------------------------------------------------------------------
# The rewrite against the textbook generator and printer kept as oracles


def _same_as_reference(t):
    got, want = vcgen(t), ref_vcgen(t)
    assert [v.origin for v in got] == [v.origin for v in want]
    for g, w in zip(got, want):
        assert sx.equal(g.formula, w.formula)
        try:
            script = ref_emit_smtlib(w)
        except UnsupportedNode as e:
            with pytest.raises(UnsupportedNode) as ei:
                emit_smtlib(g)
            assert (str(ei.value), ei.value.pos) == (str(e), e.pos)
        else:
            assert emit_smtlib(g) == script


@settings(max_examples=200, deadline=None)
@given(gen.assertions(), gen.coms(invariants=True), gen.assertions())
def test_vcgen_and_smt_match_reference_on_random_triples(pre, c, post):
    _same_as_reference(HoareTriple(pre, _with_default_invariants(c), post))


def test_vcgen_and_smt_match_reference_on_generated_programs():
    for seed in range(300):
        p = gen_program(GenSpec(seed=seed, typed=seed % 2 == 1))
        names = sorted(sx.program_vars(p)) or ["x"]
        bound = sx.Cmp("<=", sx.Var(names[seed % len(names)]), sx.IntLit(seed % 5))
        body = sx.transform(
            p.body,
            lambda n: sx.While(n.cond, sx.Or(sx.Not(n.cond), bound), n.body)
            if type(n) is sx.While
            else n,
        )
        post = sx.BoolLit(True)
        for name in names:
            post = sx.And(post, sx.Cmp("<", sx.IntLit(-seed), sx.Var(name)))
        _same_as_reference(HoareTriple(bound, body, post))


def test_assignment_runs_compose_into_one_substitution():
    w, _ = wlp(C("x := x + 1; y := x * y; x := y - x"), A("x < y"))
    assert w == A("(x + 1) * y - (x + 1) < (x + 1) * y")


def _chain(k):
    return ";\n".join(
        f"if x <= {i} then x := x + 1; y := y + 1 else x := x - 1; y := y + 2 end"
        for i in range(k)
    )


def test_vc_folds_cost_distinct_nodes(monkeypatch):
    # an 8-if chain like the benchmark's: the VC tree repeats shared subtrees
    (top,) = vcgen(HoareTriple(A("y = 0"), C(_chain(8)), A("8 <= y && y <= 16")))
    distinct = len({id(n) for n in sx.walk(top.formula)})
    assert distinct * 5 < sx.node_count(top.formula)
    formatted, visited = [], []
    fmt, nodes = hoare._smt_node, sx.distinct_nodes
    monkeypatch.setattr(hoare, "_smt_node", lambda n, text: formatted.append(n) or fmt(n, text))

    def counted(node):
        for n in nodes(node):
            visited.append(n)
            yield n

    monkeypatch.setattr(sx, "distinct_nodes", counted)
    assert emit_smtlib(top) == ref_emit_smtlib(top)
    assert len(formatted) == len({id(n) for n in formatted}) == distinct
    visited.clear()
    assert sx.com_vars(top.formula) == {"x", "y"}
    assert len(visited) == len({id(n) for n in visited}) == distinct


LONG = 10_000


@pytest.mark.parametrize("nest", ["right", "left"])
def test_long_sequences_have_vcs(nest):
    def step():
        return sx.Assign("x", sx.BinOp("+", sx.Var("x"), sx.IntLit(1)))

    c = step()
    for _ in range(LONG - 1):
        c = sx.Seq(step(), c) if nest == "right" else sx.Seq(c, step())
    (top,) = vcgen(HoareTriple(A("x = 0"), c, A(f"x = {LONG}")))
    script = emit_smtlib(top)
    assert script.count("(+ ") == LONG and script.endswith(f" {LONG}))))\n(check-sat)\n")
    assert bounded_check(top, 2) == Valid()
