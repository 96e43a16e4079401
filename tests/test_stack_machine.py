import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as gen
from cimp import syntax as sx
from cimp.errors import UnsupportedNode
from cimp.frontend import parse_program
from cimp.generator import GenSpec, gen_program
from cimp.semantics import Done, OutOfFuel, Store, aeval, beval, ceval_fuel
from cimp.stack_machine import (
    Iadd,
    Ibeq,
    Ibgt,
    Ible,
    Ibne,
    Ibranch,
    Iconst,
    Ihalt,
    Imul,
    Isetvar,
    Isub,
    Ivar,
    MachineError,
    StackProgram,
    VmState,
    branch_targets,
    compile_com,
    compile_program,
    listing,
    run_fragment,
    vm_exec,
    well_formed,
)
from reference import compile_aexp, compile_bexp, ref_run_fragment


def prog(src):
    return parse_program(src)


def exec_fragment(code, store, stack=()):
    return run_fragment(100000, code, VmState(0, tuple(stack), store))


# ---------------------------------------------------------------------------
# compile_aexp


def test_compile_aexp_postorder():
    e = sx.BinOp("+", sx.IntLit(1), sx.IntLit(2))
    assert compile_aexp(e) == (Iconst(1), Iconst(2), Iadd())


def test_compile_aexp_var():
    assert compile_aexp(sx.Var("a")) == (Ivar("a"),)


def test_compile_aexp_neg_via_zero_sub():
    assert compile_aexp(sx.Neg(sx.Var("a"))) == (Iconst(0), Ivar("a"), Isub())


def test_operator_instructions_are_built_once():
    # each operator's instruction is one shared record, and records of
    # equal fields are equal and hash alike
    code = compile_aexp(parse_program("x := -(a - b) - c").body.rhs)
    subs = [i for i in code if type(i) is Isub]
    assert len(subs) == 3 and all(i is subs[0] for i in subs)
    assert Iconst(7) == Iconst(7) and hash(Ivar("a")) == hash(Ivar("a"))
    assert Iconst.__slots__ == ("n",) and Isub.__slots__ == ()


def test_compile_aexp_rejects_fixed_width():
    with pytest.raises(UnsupportedNode):
        compile_aexp(sx.BitOp("^", sx.IntLit(1), sx.IntLit(2)))


@settings(max_examples=500)
@given(gen.aexprs(), gen.stores())
def test_compile_aexp_pushes_aeval(e, s):
    code = compile_aexp(e)
    status, end = exec_fragment(code, s)
    assert status == "exit"
    assert end.pc == len(code)
    assert end.stack == (aeval(s, e),)
    assert end.store == s


@settings(max_examples=100)
@given(gen.aexprs(), gen.stores(), st.lists(st.integers(), max_size=3))
def test_compile_aexp_stack_delta_plus_one(e, s, junk):
    code = compile_aexp(e)
    status, end = exec_fragment(code, s, stack=tuple(junk))
    assert status == "exit"
    assert list(end.stack) == junk + [aeval(s, e)]


# ---------------------------------------------------------------------------
# compile_bexp


def test_compile_bexp_true_matching():
    assert compile_bexp(sx.BoolLit(True), True, 3) == (Ibranch(3),)


def test_compile_bexp_true_nonmatching():
    assert compile_bexp(sx.BoolLit(True), False, 3) == ()


def test_compile_bexp_lt_swaps_operands():
    b = sx.Cmp("<", sx.Var("x"), sx.Var("y"))
    assert compile_bexp(b, True, 2) == (Ivar("y"), Ivar("x"), Ibgt(2))
    assert compile_bexp(b, False, 2) == (Ivar("y"), Ivar("x"), Ible(2))


def test_compile_bexp_eq_and_le():
    b = sx.Cmp("=", sx.Var("x"), sx.IntLit(1))
    assert compile_bexp(b, True, 1) == (Ivar("x"), Iconst(1), Ibeq(1))
    assert compile_bexp(b, False, 1) == (Ivar("x"), Iconst(1), Ibne(1))
    le = sx.Cmp("<=", sx.Var("x"), sx.IntLit(1))
    assert compile_bexp(le, False, 4)[-1] == Ibgt(4)


def test_compile_bexp_rejects_negative_ofs():
    with pytest.raises(ValueError):
        compile_bexp(sx.BoolLit(True), True, -1)


@settings(max_examples=500, deadline=None)
@given(gen.bexprs(), gen.stores(), st.booleans(), st.integers(1, 7))
def test_compile_bexp_branch_contract(b, s, cond, ofs):
    code = compile_bexp(b, cond, ofs)
    status, end = exec_fragment(code, s)
    assert status == "exit"
    expected_pc = len(code) + ofs if beval(s, b) == cond else len(code)
    assert end.pc == expected_pc
    assert end.stack == ()
    assert end.store == s


# ---------------------------------------------------------------------------
# compile_com / compile_program


def test_compile_skip_empty():
    assert compile_com(sx.Skip()) == ()


def test_compile_assign():
    assert compile_com(sx.Assign("x", sx.IntLit(1))) == (Iconst(1), Isetvar("x"))


def test_compile_while_runs():
    p = prog("x := 0; while x <= 1 do x := x + 1 done")
    assert vm_exec(100, compile_program(p), Store()) == Done(Store({"x": 2}))


def test_compile_while_backward_branch_lands_on_loop_start():
    p = prog("while 1 <= x do x := x - 1 done")
    code = compile_com(p.body)
    last = code[-1]
    assert isinstance(last, Ibranch)
    assert (len(code) - 1) + 1 + last.delta == 0


def test_compile_if_shape():
    p = prog("if x = 0 then y := 1 else y := 2 end")
    code = compile_com(p.body)
    # guard (3) + then (2) + skip-over-else + else (2)
    assert code == (
        Ivar("x"),
        Iconst(0),
        Ibne(3),
        Iconst(1),
        Isetvar("y"),
        Ibranch(2),
        Iconst(2),
        Isetvar("y"),
    )


def test_compile_program_trivial():
    assert compile_program(prog("skip")).code == (Ihalt(),)
    assert compile_program(prog("x := 1")).code == (
        Iconst(1),
        Isetvar("x"),
        Ihalt(),
    )


# ---------------------------------------------------------------------------
# vm_exec


def test_vm_exec_halt_preserves_store():
    assert vm_exec(10, StackProgram((Ihalt(),)), Store({"a": 1})) == Done(
        Store({"a": 1})
    )


def test_vm_exec_out_of_fuel():
    p = StackProgram((Iconst(1), Iconst(2), Iadd(), Ihalt()))
    assert vm_exec(2, p, Store()) == OutOfFuel()
    assert vm_exec(4, p, Store()) != OutOfFuel()


def test_vm_exec_stack_underflow():
    r = vm_exec(1, StackProgram((Iadd(), Ihalt())), Store())
    assert isinstance(r, MachineError)
    assert "underflow" in r.reason


def test_vm_exec_pc_out_of_bounds():
    r = vm_exec(10, StackProgram((Ibranch(5), Ihalt())), Store())
    assert isinstance(r, MachineError)
    assert "out of bounds" in r.reason


def test_vm_exec_rejects_negative_fuel():
    with pytest.raises(ValueError):
        vm_exec(-1, StackProgram((Ihalt(),)), Store())


def test_vm_fuel_counts_every_instruction():
    p = compile_program(prog("x := 1"))  # Iconst, Isetvar, Ihalt
    assert vm_exec(2, p, Store()) == OutOfFuel()
    assert vm_exec(3, p, Store()) == Done(Store({"x": 1}))


# ---------------------------------------------------------------------------
# run_fragment against the former instruction loop


def _same_as_reference(fuel, code, state):
    got = run_fragment(fuel, code, state)
    want = ref_run_fragment(fuel, code, state)
    assert got[0] == want[0]
    assert (got[1].pc, got[1].stack) == (want[1].pc, want[1].stack)
    assert sorted(got[1].store.items()) == sorted(want[1].store.items())
    return want


def _least_fuel(code, state):
    lo, hi = 0, 10**6
    assert ref_run_fragment(hi, code, state)[0] != "outoffuel"
    while lo < hi:
        mid = (lo + hi) // 2
        if ref_run_fragment(mid, code, state)[0] == "outoffuel":
            lo = mid + 1
        else:
            hi = mid
    return lo


def test_run_fragment_matches_reference_on_generated_programs():
    for seed in range(300):
        p = gen_program(GenSpec(seed=seed))
        code = compile_program(p).code
        rng = random.Random(seed)
        store = Store({x: rng.randint(-20, 40) for x in "abcd"})
        middle = VmState(rng.randrange(len(code)), (7, -1), store)
        for state in (VmState(0, (), store), middle):
            least = _least_fuel(code, state)
            for fuel in {0, 1, least // 2, least - 1, least, least + 1}:
                _same_as_reference(max(fuel, 0), code, state)


@pytest.mark.parametrize(
    "code, stack, status",
    [
        ((Iadd(),), (), "error"),
        ((Iconst(1), Isub()), (), "error"),
        ((Imul(), Ihalt()), (5,), "error"),
        ((Isetvar("x"),), (), "error"),
        ((Iconst(1), Ibeq(0)), (), "error"),
        ((Ible(2),), (3,), "error"),
        ((Ibranch(5), Ihalt()), (), "exit"),
        ((Ibranch(-2), Ihalt()), (), "exit"),
        ((Iconst(2), Iconst(3), Ibgt(-3), Ihalt()), (), "halt"),
        ((Iconst(3), Iconst(2), Ibgt(-3), Ihalt()), (), "outoffuel"),
        ((Ivar("y"), Isetvar("x")), (4,), "exit"),
    ],
)
def test_run_fragment_matches_reference_on_hand_made_fragments(code, stack, status):
    store = Store({"y": 9})
    for pc in range(-1, len(code) + 1):
        for fuel in range(0, 12):
            _same_as_reference(fuel, code, VmState(pc, stack, store))
    assert _same_as_reference(50, code, VmState(0, stack, store))[0] == status


# ---------------------------------------------------------------------------
# Properties


def _search_fuel(p, s):
    fuel = 32
    while fuel <= 2**22:
        r = vm_exec(fuel, p, s)
        if not isinstance(r, OutOfFuel):
            return r
        fuel *= 2
    raise AssertionError("no fuel sufficed")


@settings(max_examples=200, deadline=None)
@given(gen.coms(), gen.stores())
def test_semantic_preservation(c, s):
    big = ceval_fuel(25, c, s)
    compiled = compile_program(sx.program(c))
    if isinstance(big, Done):
        got = _search_fuel(compiled, s)
        assert got == big


@settings(max_examples=200, deadline=None)
@given(gen.coms(), gen.stores(), st.integers(0, 300))
def test_compiled_code_never_machine_errors(c, s, fuel):
    assert not isinstance(
        vm_exec(fuel, compile_program(sx.program(c)), s), MachineError
    )


@settings(max_examples=200)
@given(gen.coms())
def test_compiled_programs_well_formed(c):
    assert well_formed(compile_program(sx.program(c)))


def _run_while_small(fuel, code, state, step=20, max_bits=4096):
    """run_fragment with `fuel`, cut early once a value passes `max_bits`.

    A generated loop may square a variable on every iteration, and a few
    thousand instructions of that build integers of astronomic size.  The
    run goes in slices of `step` instructions (a slice resumes where the
    last one ran out of fuel) and a run whose values outgrow `max_bits`
    counts as out of fuel.
    """
    status, end = "outoffuel", state
    while status == "outoffuel" and fuel > 0:
        values = (*end.stack, *(v for _, v in end.store.items()))
        if any(v.bit_length() > max_bits for v in values):
            break
        status, end = run_fragment(min(step, fuel), code, end)
        fuel -= step
    return status, end


def test_sliced_run_matches_one_run():
    code = compile_com(prog("while 1 <= x do y := y + x; x := x - 1 done").body)
    start = VmState(0, (7,), Store({"x": 30}))
    for fuel in (0, 1, 19, 20, 21, 200, 3000):
        assert _run_while_small(fuel, code, start) == run_fragment(fuel, code, start)


def test_sliced_run_stops_on_runaway_values():
    code = compile_com(prog("x := 3; while true do x := x * x done").body)
    status, end = _run_while_small(3000, code, VmState(0, (7,), Store()))
    assert status == "outoffuel"
    widest = max(v.bit_length() for v in (*end.stack, end.store.get("x")))
    assert 4096 < widest < 4096 * 2**20


@settings(max_examples=100, deadline=None)
@given(gen.coms(), gen.stores())
def test_compile_com_zero_stack_delta(c, s):
    code = compile_com(c)
    status, end = _run_while_small(3000, code, VmState(0, (7,), s))
    if status == "exit":
        assert end.stack == (7,)
        assert end.pc == len(code)


@settings(max_examples=100, deadline=None)
@given(gen.coms(), gen.stores(), st.integers(0, 60), st.integers(0, 60))
def test_vm_fuel_monotonicity(c, s, f, extra):
    p = compile_program(sx.program(c))
    first = vm_exec(f, p, s)
    if isinstance(first, Done):
        assert vm_exec(f + extra, p, s) == first


def test_branch_targets_helper():
    code = compile_com(prog("while 1 <= x do x := x - 1 done").body)
    assert branch_targets(code) == [len(code), 0]


# ---------------------------------------------------------------------------
# Listing


def test_listing_format():
    p = compile_program(prog("x := 5; while 1 <= x do x := x - 1 done"))
    lines = listing(p).splitlines()
    assert lines[0] == "ICONST 5"
    assert lines[1] == "ISETVAR x"
    assert any(line.startswith("IBRANCH -") for line in lines)
    assert lines[-1] == "IHALT"
    assert len(lines) == len(p.code)


def test_listing_exact_countdown():
    p = compile_program(prog("x := 5; while 1 <= x do x := x - 1 done"))
    assert listing(p) == (
        "ICONST 5\n"
        "ISETVAR x\n"
        "ICONST 1\n"
        "IVAR x\n"
        "IBGT 5\n"
        "IVAR x\n"
        "ICONST 1\n"
        "ISUB\n"
        "ISETVAR x\n"
        "IBRANCH -8\n"
        "IHALT\n"
    )
