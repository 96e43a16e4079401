import functools
import importlib
import random
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as gen
from reference import ref_simulate, ref_vm_stores
from cimp.errors import UnsupportedNode
from cimp.frontend import parse_program
from cimp.generator import GenSpec, fuel_bound, gen_program
from cimp.optimizer import optimize
from cimp import regalloc
from cimp.regalloc import Spill, alloc_codegen
from cimp.semantics import Done, Store, ceval_fuel
from cimp.stack_machine import ARITH_INSTR, CMP_BRANCH, compile_program
from cimp.stack_machine import listing as stack_listing
from cimp.syntax import Assign, BinOp, BitOp, IntLit, Program, SrcPos, Ty, Var
from cimp.typecheck import ceval_fixed, typecheck, word32
from cimp.mips.isa import check
from cimp.mips import (
    AsmError,
    BudgetExhausted,
    DATA_BASE,
    Halted,
    Ins,
    LabelDef,
    Mem,
    MipsProgram,
    MulNotSupported,
    STACK_TOP,
    Trap,
    codegen,
    emit_asm,
    emit_mul_emulation,
    ins,
    load_imm,
    parse_asm,
    simulate,
    well_formed,
)


# the modules, not the functions of the same name that cimp.mips exports
mips_asm = importlib.import_module("cimp.mips.asm")
mips_codegen = importlib.import_module("cimp.mips.codegen")
mips_sim = importlib.import_module("cimp.mips.sim")


def compile_run(src, init=None, strategy="naive", emulate_mul=False, budget=10**6):
    prog = codegen(parse_program(src), strategy=strategy, emulate_mul=emulate_mul)
    return simulate(prog, init=init, budget=budget)


# ---------------------------------------------------------------------------
# instruction constructors


def test_ins_checks_shape():
    assert ins("addu", "$t0", "$t1", "$t2") == Ins("addu", ("$t0", "$t1", "$t2"))
    with pytest.raises(ValueError):
        ins("addu", "$t0", "$t1")
    with pytest.raises(ValueError):
        ins("mult", "$t0", "$t1")
    with pytest.raises(ValueError):
        ins("li", "$t0", 70000)
    with pytest.raises(ValueError):
        ins("sll", "$t0", "$t1", 32)
    with pytest.raises(ValueError):
        ins("lw", "$t0", Mem(0, "$k0"))


@pytest.mark.parametrize("op, args", [
    ("li", ("$t0", True)),
    ("addiu", ("$t0", "$t0", False)),
    ("sll", ("$t0", "$t0", True)),
    ("lw", ("$t0", Mem(True, "$sp"))),
])
def test_a_bool_is_no_operand(op, args):
    # an int-valued bool would print as True, which parse_asm rejects
    with pytest.raises(ValueError, match="bad"):
        Ins(op, args)
    with pytest.raises(ValueError, match="bad"):
        ins(op, *args)


def test_instructions_are_frozen():
    for item in (ins("sw", "$t0", Mem(0, "$sp")), Mem(0, "$sp"), LabelDef("main")):
        for f in fields(item):
            with pytest.raises(FrozenInstanceError):
                setattr(item, f.name, getattr(item, f.name))


def test_load_imm_small_uses_li():
    assert load_imm("$t0", 65535) == [ins("li", "$t0", 65535)]


def test_load_imm_large_uses_lui_ori():
    assert load_imm("$t0", 70000) == [
        ins("lui", "$t0", 1),
        ins("ori", "$t0", "$t0", 4464),
    ]


def test_load_imm_wraps_to_word():
    assert load_imm("$t0", -1) == [
        ins("lui", "$t0", 0xFFFF),
        ins("ori", "$t0", "$t0", 0xFFFF),
    ]
    assert load_imm("$t0", 2**32) == [ins("li", "$t0", 0)]


def test_load_imm_aligned_high_half_skips_ori():
    assert load_imm("$t0", 0x10000) == [ins("lui", "$t0", 1)]


# ---------------------------------------------------------------------------
# assembly text


def test_parse_single_instruction():
    prog = parse_asm("addu $t0, $t1, $t2")
    assert prog == MipsProgram(text=(Ins("addu", ("$t0", "$t1", "$t2")),))


def test_parse_memory_operand():
    prog = parse_asm("lw $t0, -4($sp)")
    assert prog.text == (Ins("lw", ("$t0", Mem(-4, "$sp"))),)


def test_parse_comments_and_blank_lines():
    prog = parse_asm("# program\n\n  addu $t0, $t1, $t2  # add\n")
    assert len(prog.text) == 1


def test_parse_unknown_mnemonic():
    with pytest.raises(AsmError) as err:
        parse_asm("addu $t0, $t1, $t2\nmult $t0, $t1")
    assert err.value.line == 2
    assert "mult" in err.value.reason


def test_parse_unknown_register():
    with pytest.raises(AsmError) as err:
        parse_asm("addu $t0, $k0, $t2")
    assert err.value.line == 1


def test_parse_immediate_out_of_range():
    with pytest.raises(AsmError) as err:
        parse_asm("li $t0, 70000")
    assert "70000" in err.value.reason


def test_parse_operand_count():
    with pytest.raises(AsmError):
        parse_asm("addu $t0, $t1")


def test_parse_undefined_branch_target():
    with pytest.raises(AsmError) as err:
        parse_asm("main:\n\tbeq $t0, $zero, nowhere\n\tbreak")
    assert err.value.line == 2
    assert "nowhere" in err.value.reason


def test_parse_undefined_data_label():
    with pytest.raises(AsmError) as err:
        parse_asm("main:\n\tlw $t0, var_x\n\tbreak")
    assert "var_x" in err.value.reason


def test_parse_duplicate_label():
    with pytest.raises(AsmError) as err:
        parse_asm("main:\nmain:\n\tbreak")
    assert err.value.line == 2


def test_parse_data_section():
    prog = parse_asm("\t.data\nvar_x: .word 7\n\t.text\nmain:\n\tbreak")
    assert prog.data == (("var_x", 7),)
    assert prog.text == (LabelDef("main"), Ins("break"))


def test_parse_bad_data_line():
    with pytest.raises(AsmError) as err:
        parse_asm(".data\nvar_x .word 7")
    assert err.value.line == 2


def test_asm_error_is_positioned():
    with pytest.raises(AsmError) as err:
        parse_asm("nop")
    assert err.value.pos == SrcPos(1, 1)
    assert str(err.value).startswith("1:1:")


def test_emit_layout():
    prog = codegen(parse_program("x := 1"))
    text = emit_asm(prog)
    lines = text.splitlines()
    assert lines[0] == "\t.data"
    assert "var_x: .word 0" in lines
    assert "\t.text" in lines
    assert "\t.globl main" in lines
    assert "main:" in lines
    assert "\tli $t0, 1" in lines
    assert lines[-1] == "\tbreak"
    assert text.endswith("\n")


def test_roundtrip_handwritten():
    src = (
        "\t.data\n"
        "var_x: .word 0\n"
        "\t.text\n"
        "\t.globl main\n"
        "main:\n"
        "\tli $t0, 9\n"
        "loop_0:\n"
        "\tbeq $t0, $zero, endloop_0\n"
        "\taddiu $t0, $t0, -1\n"
        "\tj loop_0\n"
        "endloop_0:\n"
        "\tsw $t0, var_x\n"
        "\tbreak\n"
    )
    prog = parse_asm(src)
    assert emit_asm(prog) == src
    assert parse_asm(emit_asm(prog)) == prog


@settings(max_examples=100, deadline=None)
@given(gen.programs(), st.sampled_from(["naive", "regalloc"]))
def test_roundtrip_codegen_untyped(p, strategy):
    try:
        prog = codegen(p, strategy=strategy, emulate_mul=True)
    except UnsupportedNode:
        return
    assert parse_asm(emit_asm(prog)) == prog


@settings(max_examples=100, deadline=None)
@given(gen.typed_programs(), st.sampled_from(["naive", "regalloc"]))
def test_roundtrip_codegen_typed(p, strategy):
    prog = codegen(p, strategy=strategy, emulate_mul=True)
    assert parse_asm(emit_asm(prog)) == prog
    assert well_formed(prog)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.booleans())
def test_codegen_of_generated_programs_is_well_formed(seed, typed):
    p = gen_program(GenSpec(seed=seed, typed=typed))
    for level in (0, 2):
        q = optimize(p, level)
        for strategy in ("naive", "regalloc"):
            prog = codegen(q, strategy=strategy, emulate_mul=True)
            assert well_formed(prog)
            assert parse_asm(emit_asm(prog)) == prog


def test_codegen_of_a_typing_is_codegen_of_the_program():
    # the parsed program shares no instruction objects, so it runs the
    # simulator's per-object decode on a text with no repeats
    finished = 0
    for seed in range(300):
        spec = GenSpec(seed=seed, typed=True)
        p = gen_program(spec)
        tp = typecheck(p)
        ref = ceval_fixed(fuel_bound(spec), tp, Store())
        for strategy in ("naive", "regalloc"):
            prog = codegen(p, strategy=strategy, emulate_mul=True)
            assert codegen(tp, strategy=strategy, emulate_mul=True) == prog
            assert [label for label, _ in prog.data] == [f"var_{n}" for n, _ in p.decls]
            out = simulate(prog, budget=10**5)
            assert simulate(parse_asm(emit_asm(prog)), budget=10**5) == out
            if isinstance(out, Halted) and isinstance(ref, Done):
                finished += 1
                assert out.words == {n: word32(ref.store.get(n)) for n, _ in p.decls}
    assert finished > 300


def test_fixed_instructions_are_built_once(monkeypatch):
    # a program builds each distinct instruction once: the fixed ones are
    # built at import, and the lw, li and sw that every statement repeats
    # and the final break once each
    built = []
    monkeypatch.setattr(mips_codegen, "ins", lambda *a: built.append(a) or ins(*a))
    n = 50
    p = parse_program("x := x + 1;\n" * (n - 1) + "x := x + 1")
    for strategy in ("naive", "regalloc"):
        built.clear()
        prog = codegen(p, strategy=strategy)
        assert len(built) == 4
        assert simulate(prog)["x"] == n


def test_emit_asm_formats_each_instruction_object_once(monkeypatch):
    prog = codegen(parse_program("x := 1 + 2;\ny := x - 3"))
    calls = []
    real = mips_asm._line
    monkeypatch.setattr(mips_asm, "_line", lambda item: calls.append(item) or real(item))
    text = emit_asm(prog)
    assert len(calls) == len({id(i) for i in prog.text}) < len(prog.text)
    assert text.splitlines()[-len(prog.text):] == [real(i) for i in prog.text]


@pytest.mark.parametrize("typed", [False, True], ids=["untyped", "typed"])
@pytest.mark.parametrize("strategy", ["naive", "regalloc"])
def test_equal_instructions_of_a_program_are_one_object(strategy, typed):
    for seed in range(100):
        p = gen_program(GenSpec(seed=seed, typed=typed))
        text = codegen(p, strategy=strategy, emulate_mul=True).text
        assert len({id(i) for i in text}) == len(set(text))


def test_parse_asm_parses_each_distinct_line_once(monkeypatch):
    prog = codegen(parse_program("x := 1 + 2;\ny := x - 3"))
    calls = []
    monkeypatch.setattr(mips_asm, "ins", lambda *a: calls.append(a) or ins(*a))
    back = parse_asm(emit_asm(prog))
    assert back == prog
    assert len(calls) == len({i for i in prog.text if type(i) is Ins}) < len(prog.text)
    assert len({id(i) for i in back.text}) == len(set(back.text))


def test_parse_asm_reports_a_repeated_line_where_it_first_occurs():
    lines = ["main:", "\tj end", "\tbeq $t0, $t0, nowhere", "\tj end",
             "\tbeq $t0, $t0, nowhere", "end:", "\tli $t0, 70000", "\tli $t0, 70000"]
    with pytest.raises(AsmError) as ei:
        parse_asm("\n".join(lines[:6]))
    assert (ei.value.line, ei.value.reason) == (3, "undefined branch target 'nowhere'")
    with pytest.raises(AsmError) as ei:
        parse_asm("\n".join(lines[:2] + lines[5:]))
    assert ei.value.line == 4


# ---------------------------------------------------------------------------
# simulator


def test_simulate_assign():
    assert compile_run("x := 1 + 2") == Halted({"x": 3})


def test_simulate_budget_exhausted():
    assert compile_run("while 0 <= 0 do skip done", budget=10**4) == BudgetExhausted()


def test_simulate_u32_wraparound():
    out = compile_run("var x: u32; x := 4294967295 + 1")
    assert out == Halted({"x": 0})


def test_simulate_init_words():
    prog = codegen(parse_program("x := x + 1"))
    assert simulate(prog, init={"x": 41}) == Halted({"x": 42})


def test_simulate_ignores_unknown_init_names():
    prog = codegen(parse_program("x := x + 1"))
    assert simulate(prog, init={"x": 1, "ghost": 5}) == Halted({"x": 2})


def test_simulate_zero_register_is_immutable():
    prog = parse_asm(
        "\t.data\nvar_x: .word 7\n\t.text\nmain:\n"
        "\tli $zero, 5\n\taddiu $zero, $zero, 3\n\tsw $zero, var_x\n\tbreak"
    )
    assert simulate(prog) == Halted({"x": 0})


def test_simulate_trap_unaligned_load():
    prog = parse_asm("main:\n\tli $t0, 3\n\tlw $t1, 0($t0)\n\tbreak")
    out = simulate(prog)
    assert isinstance(out, Trap)
    assert "unaligned" in out.reason


def test_simulate_trap_unaligned_store():
    prog = parse_asm("main:\n\tli $t0, 2\n\tsw $t1, 0($t0)\n\tbreak")
    assert isinstance(simulate(prog), Trap)


def test_simulate_trap_pc_escape():
    prog = MipsProgram(text=(LabelDef("main"), ins("addu", "$t0", "$t0", "$t0")))
    out = simulate(prog)
    assert isinstance(out, Trap)
    assert "text segment" in out.reason


def test_simulate_budget_counts_instructions_not_labels():
    prog = parse_asm("main:\nl1:\n\tli $t0, 1\nl2:\n\tsw $t0, var_x\n\tbreak\n.data\nvar_x: .word 0")
    assert simulate(prog, budget=3) == Halted({"x": 1})
    assert simulate(prog, budget=2) == BudgetExhausted()


def test_simulate_loop_budget_is_exact():
    # 2 setup instructions, 3 per trip, then the exit test and break
    trips = 5
    prog = parse_asm(
        f"main:\n\tli $t0, {trips}\n\tli $t1, 0\n"
        "loop:\n\tbeq $t0, $zero, done\n\taddiu $t0, $t0, -1\n"
        "\tj loop\ndone:\n\tsw $t0, var_x\n\tbreak\n"
        ".data\nvar_x: .word 9"
    )
    need = 2 + 3 * trips + 1 + 2
    assert simulate(prog, budget=need) == Halted({"x": 0})
    assert simulate(prog, budget=need - 1) == BudgetExhausted()


def test_simulate_trap_branch_to_end_of_text():
    prog = MipsProgram(
        text=(LabelDef("main"), ins("beq", "$zero", "$zero", "end"), LabelDef("end"))
    )
    out = simulate(prog)
    assert isinstance(out, Trap)
    assert "text segment" in out.reason
    # leaving the text traps even when the budget ran out on the branch
    assert simulate(prog, budget=1) == out


def test_simulate_rejects_malformed_instructions():
    # a malformed instruction cannot be built, so no program handed to
    # simulate or check can hold one
    for op, args, reason in (
        ("mult", ("$t0", "$t1"), "unknown mnemonic 'mult'"),
        ("addu", ("$t0",), "addu takes 3 operands, got 1"),
        ("li", ("$k0", 1), "bad reg operand '$k0' for li"),
        ("li", ("$t0", 70000), "bad imm16u operand 70000 for li"),
        ("lw", ("$t0", Mem(0x8000, "$sp")),
         "bad addr operand Mem(offset=32768, base='$sp') for lw"),
    ):
        for build in (lambda: Ins(op, args), lambda: ins(op, *args)):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == reason
    # a list of operands could change after the check
    with pytest.raises(ValueError, match="operands must be a tuple"):
        Ins("addu", ["$t0", "$t1", "$t2"])


def test_check_gives_label_indices_and_names_each_fault():
    prog = parse_asm(
        "\t.data\nvar_x: .word 0\n\t.text\nmain:\n\tlw $t0, var_x\nloop:\n\tj loop\nend:\n\tbreak"
    )
    assert check(prog) == {"main": 0, "loop": 1, "end": 2}
    main, stop = LabelDef("main"), ins("break")
    for text, reason in (
        ((stop,), "no main label"),
        ((main, main, stop), "duplicate label 'main'"),
        ((main, ins("j", "off")), "undefined branch target 'off'"),
        ((main, ins("lw", "$t0", "var_x")), "undefined data label 'var_x'"),
    ):
        with pytest.raises(ValueError) as err:
            check(MipsProgram(text=text))
        assert str(err.value) == reason
    # an instruction that misfits its shape fails as it is built, before
    # any program holds it
    with pytest.raises(ValueError) as err:
        Ins("li", ("$t0", 70000))
    assert str(err.value) == "bad imm16u operand 70000 for li"


def test_well_formed_is_check_plus_layout():
    good = MipsProgram(data=(("var_x", 0),), text=(LabelDef("main"), ins("break")))
    assert well_formed(good)
    for bad in (
        MipsProgram(text=(LabelDef("main"), ins("j", "off"), ins("break"))),
        MipsProgram(text=(ins("break"), LabelDef("main"), ins("break"))),
        MipsProgram(text=(LabelDef("main"), ins("li", "$t0", 1))),
        MipsProgram(data=(("main", 0),), text=good.text),
        MipsProgram(data=(("var_x", 0), ("var_x", 0)), text=good.text),
        MipsProgram(data=(("var_x", 2**32),), text=good.text),
    ):
        assert not well_formed(bad), bad


def test_simulate_requires_main():
    with pytest.raises(ValueError):
        simulate(MipsProgram(text=(ins("break"),)))


def test_simulate_rejects_unresolved_labels():
    with pytest.raises(ValueError):
        simulate(MipsProgram(text=(LabelDef("main"), ins("j", "off"), ins("break"))))


def test_simulate_negative_budget():
    prog = codegen(parse_program("skip"))
    with pytest.raises(ValueError):
        simulate(prog, budget=-1)


def test_simulate_data_words_preloaded():
    prog = parse_asm(
        "\t.data\nvar_x: .word 11\nvar_y: .word 0\n\t.text\nmain:\n"
        "\tlw $t0, var_x\n\tsw $t0, var_y\n\tbreak"
    )
    assert simulate(prog) == Halted({"x": 11, "y": 11})


def test_simulate_memory_layout_constants():
    assert DATA_BASE == 0x10000000
    assert STACK_TOP == 0x7FFFF000
    # first data word sits at DATA_BASE: loading 0($t0) with $t0 = DATA_BASE
    # reads var_x
    prog = parse_asm(
        "\t.data\nvar_x: .word 5\nvar_y: .word 0\n\t.text\nmain:\n"
        "\tlui $t0, 4096\n\tlw $t1, 0($t0)\n\tlw $t2, 4($t0)\n"
        "\taddu $t1, $t1, $t2\n\tsw $t1, var_y\n\tbreak"
    )
    out = simulate(prog, init={"y": 2})
    assert out == Halted({"x": 5, "y": 7})


# ---------------------------------------------------------------------------
# translated blocks, checked against the flat loop in tests/reference.py


def _at_every_budget(prog, init=None):
    """simulate equals ref_simulate at every budget up to the least
    sufficient one and two past it."""
    out, least = ref_simulate(prog, init, 10**6)
    for budget in range(least + 3):
        assert simulate(prog, init, budget) == ref_simulate(prog, init, budget)[0], budget
    return out


@functools.lru_cache(maxsize=None)
def _generated_cases(typed: bool) -> list:
    """Seeds 0-299, naive and su, at -O0 and -O2: each program, its
    initial words, and the reference outcome at full budget, at the least
    sufficient budget, one below it and at half of it."""
    cases = []
    for seed in range(300):
        p = gen_program(GenSpec(seed=seed, typed=typed))
        rng = random.Random(seed)
        names = [name for name, _ in p.decls] or list("abcd")
        init = {n: rng.getrandbits(32) if typed else rng.randint(-20, 40) for n in names}
        for level in (0, 2):
            for strategy in ("naive", "regalloc"):
                prog = codegen(optimize(p, level), strategy=strategy, emulate_mul=True)
                out, least = ref_simulate(prog, init, 10**6)
                assert out != BudgetExhausted()
                budgets = (10**6, least, least - 1, least // 2)
                cases.append((prog, init, [(b, ref_simulate(prog, init, b)[0]) for b in budgets]))
    return cases


@pytest.mark.parametrize("hot", [1, mips_sim._HOT])
@pytest.mark.parametrize("typed", [False, True])
def test_blocks_match_the_flat_loop_on_generated_programs(typed, hot, monkeypatch):
    """The outcomes equal at every budget of _generated_cases, so the
    least sufficient budgets agree too."""
    monkeypatch.setattr(mips_sim, "_HOT", hot)
    for prog, init, expected in _generated_cases(typed):
        for budget, out in expected:
            assert simulate(prog, init, budget) == out


# enough trips that the loop's blocks get hot at the default threshold
_TRIPS = mips_sim._HOT + 5


def _hot_loop(body, before="", after="", data="var_x: .word 0\nvar_y: .word 0"):
    """A program that runs body _TRIPS times: before, then the loop, then after."""
    return parse_asm(
        f"\t.data\n{data}\n\t.text\nmain:\n\tli $t9, {_TRIPS}\n{before}"
        f"loop:\n{body}\taddiu $t9, $t9, -1\n\tbne $t9, $zero, loop\n{after}\tbreak"
    )


_PUSH_POP = "\taddiu $sp, $sp, -8\n\tsw $t9, 4($sp)\n\tsw $t9, 0($sp)\n" \
    "\tlw $t0, 4($sp)\n\tlw $t1, 0($sp)\n\taddiu $sp, $sp, 8\n"
_POP_PUSH = "\taddiu $sp, $sp, 8\n\tsw $t9, -4($sp)\n\tsw $t9, 0($sp)\n" \
    "\tlw $t0, -4($sp)\n\tlw $t1, 0($sp)\n\taddiu $sp, $sp, -8\n"


@pytest.mark.parametrize("hot", [1, 2, mips_sim._HOT])
def test_blocks_keep_budget_and_traps_of_hand_made_loops(hot, monkeypatch):
    monkeypatch.setattr(mips_sim, "_HOT", hot)
    # $sp misaligned once the loop is hot: the same trap, at the same pc
    prog = _hot_loop(_PUSH_POP, after="\taddiu $sp, $sp, 2\n\tli $t9, 3\n\tj loop\n")
    out = _at_every_budget(prog)
    assert out == Trap("unaligned store at 0x7fffeffe")
    # $sp near 0 and near 2^32: the pushes wrap, and cold code after the
    # loop reads back the wrapped words
    for sp, body, k in (("\tli $sp, 4\n", _PUSH_POP, -4),
                        ("\tlui $sp, 65535\n\tori $sp, $sp, 65532\n", _POP_PUSH, 4)):
        read_back = f"\tlw $t2, {k}($sp)\n\tsw $t2, var_x\n\tlw $t2, {2 * k}($sp)\n\tsw $t2, var_y\n"
        out = _at_every_budget(_hot_loop(body, before=sp, after=read_back))
        assert out == Halted({"x": 1, "y": 1})
    # $sp inside the data segment: stack slots are the data words, so a
    # load of var_x must see the store through 0($sp)
    alias = "\tlw $t0, var_x\n\taddiu $t0, $t0, 1\n\tsw $t0, 0($sp)\n" \
        "\tlw $t1, var_x\n\taddu $t1, $t1, $t1\n\tsw $t1, var_y\n"
    out = _at_every_budget(_hot_loop(alias, before="\tlui $sp, 4096\n"))
    assert out == Halted({"x": _TRIPS, "y": 2 * _TRIPS})
    # break right after a hot block, and at the end of a block of its own
    _at_every_budget(_hot_loop("\tsw $t9, var_x\n"))
    stop = parse_asm(
        f"\t.data\nvar_x: .word 0\n\t.text\nmain:\n\tli $t9, {_TRIPS}\nloop:\n"
        "\taddiu $t9, $t9, -1\n\tbeq $t9, $zero, out\n\tj loop\n"
        "out:\n\tsw $t9, var_x\n\tli $t0, 7\n\tbreak"
    )
    assert _at_every_budget(stop) == Halted({"x": 0})
    # a hot loop that leaves by a branch to the end of the text; at the
    # least budget that branch is the last instruction paid for
    escape = MipsProgram(text=(
        LabelDef("main"), ins("li", "$t9", _TRIPS), LabelDef("loop"),
        ins("addiu", "$t9", "$t9", -1), ins("beq", "$t9", "$zero", "end"),
        ins("j", "loop"), LabelDef("end"),
    ))
    assert _at_every_budget(escape) == Trap("pc 7 outside the text segment")


def test_hot_blocks_are_translated_once_per_shape():
    mips_sim._translate.cache_clear()
    # two products per trip, each a multiplication loop of 17 iterations
    prog = codegen(parse_program(
        "var x: u32; var y: u32; var i: u32;\n"
        "while i < 4 do x := x * 100000; y := y * 70000; i := i + 1 done"
    ), emulate_mul=True)
    init = {"x": 3, "y": 5}
    assert simulate(prog, init) == ref_simulate(prog, init)[0]
    info = mips_sim._translate.cache_info()
    # both products run the same loop, at other labels and on other words
    assert info.currsize > 0 and info.hits > 0
    assert info.maxsize == 512


@pytest.mark.parametrize("line", [
    "addu $sp, $sp, $t0",       # $sp written other than by addiu $sp, $sp, k
    "addiu $t0, $sp, 4",        # $sp read as a value
    "lw $t0, 0($t1)",           # a base other than $sp
    "sw $t0, 2($sp)",           # an offset that cannot be aligned
])
def test_translator_declines_blocks_it_cannot_keep_exact(line):
    text = parse_asm(f"main:\n\tli $t0, 4\n\t{line}\n\tj main\n").text
    code = mips_sim._decode(text, {"main": 0}, {})
    for start in (0, 1):
        shape, _ = mips_sim._block(code, start)
        assert mips_sim._translate(shape) is None


def test_blocks_of_one_shape_share_one_source():
    # the same loop at another place, over other words and constants
    a = parse_asm("\t.data\nvar_x: .word 0\nvar_y: .word 0\n\t.text\nmain:\n\tj far\n"
                  "far:\n\tlw $t0, var_y\n\tli $t1, 7\n\taddiu $sp, $sp, -4\n\tsw $t0, 0($sp)\n"
                  "\tlw $t1, 0($sp)\n\taddiu $sp, $sp, 4\n\tbne $t1, $zero, far\n\tbreak")
    b = parse_asm("\t.data\nvar_x: .word 0\n\t.text\nmain:\n"
                  "\tlw $t0, var_x\n\tli $t1, 9\n\taddiu $sp, $sp, -4\n\tsw $t0, 0($sp)\n"
                  "\tlw $t1, 0($sp)\n\taddiu $sp, $sp, 4\n\tbne $t1, $zero, main\n\tbreak")
    blocks = []
    for prog, start in ((a, 1), (b, 0)):
        addr_of = {label: DATA_BASE + 4 * i for i, (label, _) in enumerate(prog.data)}
        blocks.append(mips_sim._block(mips_sim._decode(prog.text, check(prog), addr_of), start))
    assert blocks[0][0] == blocks[1][0]
    assert blocks[0][1] == (DATA_BASE + 4, 7, 0) and blocks[1][1] == (DATA_BASE, 9, 0)
    src = mips_sim._source(blocks[0][0])
    # no label, address or constant is in the source; the pushed word is
    # reused from its local, not loaded back, and $sp ends where it began
    assert "var_" not in src and "far" not in src and str(DATA_BASE) not in src
    assert "mem.get" not in src and "regs[21] =" not in src


# ---------------------------------------------------------------------------
# codegen basics


def test_codegen_assign_shape():
    prog = codegen(parse_program("x := 1"))
    assert Ins("li", ("$t0", 1)) in prog.text
    assert Ins("sw", ("$t0", "var_x")) in prog.text
    assert prog.text[-1] == Ins("break")
    assert prog.text[0] == LabelDef("main")
    assert prog.data == (("var_x", 0),)


def test_codegen_large_literal():
    prog = codegen(parse_program("x := 70000"))
    assert Ins("lui", ("$t0", 1)) in prog.text
    assert Ins("ori", ("$t0", "$t0", 4464)) in prog.text


def test_codegen_data_order_declared_then_extras():
    prog = codegen(parse_program("var x: i32; var b: i32; x := b"))
    assert prog.data == (("var_x", 0), ("var_b", 0))
    untyped = codegen(parse_program("z := 1; a := z"))
    assert untyped.data == (("var_a", 0), ("var_z", 0))


def test_codegen_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        codegen(parse_program("skip"), strategy="greedy")


def test_codegen_untyped_rejects_bit_ops():
    # on both strategies, before any multiplication, at the first one in
    # source order (the right operand of '<' is compiled first)
    for src, col in [("x := 1 & 2", 8), ("x := u32(1)", 6),
                     ("x := 2 * y; if y * 3 < (x & 1) + ~y then skip else skip end", 27)]:
        for strategy in ("naive", "regalloc"):
            for emulate_mul in (False, True):
                with pytest.raises(UnsupportedNode) as err:
                    codegen(parse_program(src), strategy=strategy, emulate_mul=emulate_mul)
                assert err.value.pos == SrcPos(1, col), (src, strategy, emulate_mul)


def test_untyped_data_segment_holds_every_name_mentioned():
    # an invariant's names get a slot too, though no code reads them
    p = parse_program("b := a; while b < 3 invariant { zz < 1 } do b := b + 1 done")
    for strategy in ("naive", "regalloc"):
        assert [label for label, _ in codegen(p, strategy).data] == ["var_a", "var_b", "var_zz"]


def test_codegen_signed_vs_unsigned_compare():
    signed = emit_asm(codegen(parse_program("var x: i32; if x <= 0 then x := 1 else x := 2 end")))
    unsigned = emit_asm(codegen(parse_program("var x: u32; if x <= 0 then x := 1 else x := 2 end")))
    assert "\tslt $at" in signed and "sltu" not in signed
    assert "\tsltu $at" in unsigned


def test_codegen_equality_does_not_need_slt():
    text = emit_asm(codegen(parse_program("if x = 0 then y := 1 else y := 2 end")))
    assert "slt" not in text
    assert "\tsubu $at, $t0, $t1" in text


def test_codegen_well_formed():
    for src in ("skip", "x := 1", "while x <= 9 do x := x + 1 done"):
        for strategy in ("naive", "regalloc"):
            assert well_formed(codegen(parse_program(src), strategy=strategy))


def test_codegen_conditionals_and_loops():
    src = "if 1 <= x && x <= 5 then y := 1 else y := 2 end"
    prog = codegen(parse_program(src))
    assert simulate(prog, init={"x": 3}) == Halted({"x": 3, "y": 1})
    assert simulate(prog, init={"x": 9}) == Halted({"x": 9, "y": 2})
    assert simulate(prog, init={"x": 0}) == Halted({"x": 0, "y": 2})


def test_codegen_or_and_not():
    src = "if !(x = 1) || x = 2 then y := 1 else y := 2 end"
    prog = codegen(parse_program(src))
    assert simulate(prog, init={"x": 1}) == Halted({"x": 1, "y": 2})
    assert simulate(prog, init={"x": 2}) == Halted({"x": 2, "y": 1})
    assert simulate(prog, init={"x": 3}) == Halted({"x": 3, "y": 1})


def test_codegen_bool_literals():
    assert compile_run("if true then x := 1 else x := 2 end") == Halted({"x": 1})
    assert compile_run("if false then x := 1 else x := 2 end") == Halted({"x": 2})
    assert compile_run("while false do x := 1 done") == Halted({"x": 0})


def test_codegen_counting_loop():
    out = compile_run("s := 0; i := 1; while i <= 5 do s := s + i; i := i + 1 done")
    assert out == Halted({"i": 6, "s": 15})


def test_codegen_negation():
    out = compile_run("var x: i32; x := -(3 + 4)")
    assert out == Halted({"x": word32(-7)})


def test_codegen_typed_bit_ops():
    src = "var x: u32; var y: u32; x := (1 << 4) | 3; y := ~x & 255"
    for strategy in ("naive", "regalloc"):
        out = compile_run(src, strategy=strategy)
        assert out == Halted({"x": 19, "y": (~19) & 255})


def test_codegen_shift_amount_masked():
    out = compile_run("var x: u32; x := 1 << 33")
    assert out == Halted({"x": 2})


def test_codegen_cast_generates_no_code():
    typed = "var x: u32; var y: i32; y := i32(x) + 1"
    prog = codegen(parse_program(typed))
    assert simulate(prog, init={"x": 2**32 - 1}) == Halted({"x": 2**32 - 1, "y": 0})


# ---------------------------------------------------------------------------
# comparisons at the signedness boundary


def test_unsigned_compare_on_mips():
    src = "var x: u32; var y: i32; x := 4294967295 - 0; if x <= 0 then y := 1 else y := 2 end"
    out = compile_run(src)
    assert out.words["y"] == 2


def test_signed_compare_via_cast_on_mips():
    src = (
        "var x: u32; var y: i32; x := 4294967295 - 0; "
        "if i32(x) <= 0 then y := 1 else y := 2 end"
    )
    out = compile_run(src)
    assert out.words["y"] == 1


def test_signed_less_than_crossing_zero():
    src = "var x: i32; var y: i32; if x < 1 then y := 1 else y := 2 end"
    prog = codegen(parse_program(src))
    assert simulate(prog, init={"x": word32(-5)}).words["y"] == 1
    assert simulate(prog, init={"x": 5}).words["y"] == 2


# ---------------------------------------------------------------------------
# multiplication


def test_mul_not_supported_lists_positions():
    src = "x := 2 * 3; y := x * x"
    with pytest.raises(MulNotSupported) as err:
        codegen(parse_program(src))
    assert len(err.value.positions) == 2
    assert err.value.positions[0] == SrcPos(1, 8)
    assert "--emulate-mul" in str(err.value)


def test_mul_in_condition_detected():
    with pytest.raises(MulNotSupported):
        codegen(parse_program("if x * x <= 9 then skip else skip end"))


def test_mul_emulation_basic():
    assert compile_run("x := 3 * 4", emulate_mul=True) == Halted({"x": 12})
    assert compile_run("x := 0 * 9", emulate_mul=True) == Halted({"x": 0})
    assert compile_run("x := 9 * 0", emulate_mul=True) == Halted({"x": 0})
    assert compile_run("x := 1 * 55", emulate_mul=True) == Halted({"x": 55})


def test_mul_emulation_wraps():
    out = compile_run("var x: u32; x := 65536 * 65536", emulate_mul=True)
    assert out == Halted({"x": 0})
    out = compile_run("var x: u32; x := 65537 * 65535", emulate_mul=True)
    assert out == Halted({"x": word32(65537 * 65535)})


def test_mul_emulation_register_contract():
    with pytest.raises(ValueError):
        emit_mul_emulation("$t0", "$t0", "$t1")
    with pytest.raises(ValueError):
        emit_mul_emulation("$t8", "$t0", "$t1")
    with pytest.raises(ValueError):
        emit_mul_emulation("$v0", "$at", "$t1")
    with pytest.raises(ValueError):
        emit_mul_emulation("$zero", "$t0", "$t1")


def test_mul_emulation_label_tags():
    a = emit_mul_emulation("$v0", "$t0", "$t1", tag=0)
    b = emit_mul_emulation("$v0", "$t0", "$t1", tag=1)
    labels_a = {i.name for i in a if isinstance(i, LabelDef)}
    labels_b = {i.name for i in b if isinstance(i, LabelDef)}
    assert labels_a.isdisjoint(labels_b)


def _mul_harness(a, b):
    """Run the emulation loop in isolation and capture every register."""
    regs = [r for r in ("$v0", "$t0", "$t1", "$t2", "$t8", "$t9", "$s0", "$ra")]
    text = [LabelDef("main")]
    text += load_imm("$t0", a)
    text += load_imm("$t1", b)
    # sentinels in registers the loop must not touch
    text += load_imm("$t2", 111)
    text += load_imm("$s0", 222)
    text += load_imm("$ra", 333)
    text += emit_mul_emulation("$v0", "$t0", "$t1", tag=7)
    data = []
    for i, reg in enumerate(regs):
        data.append((f"var_r{i}", 0))
        text.append(ins("sw", reg, f"var_r{i}"))
    text.append(ins("break"))
    out = simulate(MipsProgram(data=tuple(data), text=tuple(text)))
    assert isinstance(out, Halted)
    return {reg: out.words[f"r{i}"] for i, reg in enumerate(regs)}


def test_mul_emulation_product_and_clobbers():
    snap = _mul_harness(1234567, 89012)
    assert snap["$v0"] == word32(1234567 * 89012)
    # operands survive: the loop works on copies in $t8/$t9
    assert snap["$t0"] == 1234567
    assert snap["$t1"] == 89012
    # untouched registers keep their sentinels
    assert snap["$t2"] == 111
    assert snap["$s0"] == 222
    assert snap["$ra"] == 333


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_mul_emulation_random_products(a, b):
    snap = _mul_harness(a, b)
    assert snap["$v0"] == (a * b) % 2**32
    assert snap["$t0"] == a
    assert snap["$t1"] == b


def test_mul_emulation_iteration_bound():
    # worst case operand: all 32 bits set; generous budget still small
    prog = codegen(parse_program("var x: u32; x := 4294967295 * 4294967295"), emulate_mul=True)
    n_instr = sum(isinstance(i, Ins) for i in prog.text)
    out = simulate(prog, budget=n_instr + 8 * 32 + 32)
    assert out == Halted({"x": word32((2**32 - 1) ** 2)})


def test_mul_inside_loop():
    src = "f := 1; i := 1; while i <= 6 do f := f * i; i := i + 1 done"
    for strategy in ("naive", "regalloc"):
        out = compile_run(src, strategy=strategy, emulate_mul=True)
        assert out.words["f"] == 720


# ---------------------------------------------------------------------------
# naive: the stack code expanded one instruction at a time


def _naive_expansion(step):
    typed = Program((("x", Ty.I32), ("y", Ty.I32)), Assign("x", Var("y")))
    gen = mips_codegen._Codegen(typed, lambda node: Ty.I32, "naive", True)
    step(gen)
    return gen.out


_SP_DOWN, _SP_UP = ins("addiu", "$sp", "$sp", -4), ins("addiu", "$sp", "$sp", 4)


def _sp_delta(text):
    return sum(i.args[2] for i in text if i in (_SP_DOWN, _SP_UP))


def test_every_stack_instruction_has_a_naive_expansion():
    # what stack_machine.emit makes: constants and variables, which push,
    # every operator of its table, which pops two values and pushes one,
    # and the branch classes of comparisons
    for push in (lambda g: g.put(g.const(1)), lambda g: g.put(g.var("x"))):
        assert _sp_delta(_naive_expansion(push)) == -4
    for op in ARITH_INSTR:
        assert _sp_delta(_naive_expansion(lambda g: g.put(mips_codegen._NAIVE_OP[op]))) == 4, op
    # an assignment pushes its value and pops it into the variable
    assert _sp_delta(_naive_expansion(lambda g: g.assign("x", Var("y")))) == 0
    branches = {cls for pair in CMP_BRANCH.values() for cls in pair}
    assert {(cls, ty) for cls in branches for ty in Ty} <= set(mips_codegen._CMP_AND_BRANCH)


def _li_t0(k):
    if k <= 0xFFFF:
        return [f"li $t0, {k}"]
    return [f"lui $t0, {k >> 16}"] + ([f"ori $t0, $t0, {k & 0xFFFF}"] if k & 0xFFFF else [])


_PUSH_T0 = ["addiu $sp, $sp, -4", "sw $t0, 0($sp)"]
_POP_T1_T0 = ["lw $t1, 0($sp)", "addiu $sp, $sp, 4", "lw $t0, 0($sp)", "addiu $sp, $sp, 4"]
# each line of a stack listing as naive MIPS, stated apart from codegen
_EXPAND = {
    "ICONST": lambda k: _li_t0(int(k)) + _PUSH_T0,
    "IVAR": lambda x: [f"lw $t0, var_{x}"] + _PUSH_T0,
    "ISETVAR": lambda x: ["lw $t0, 0($sp)", "addiu $sp, $sp, 4", f"sw $t0, var_{x}"],
    **{
        name: lambda op=op: _POP_T1_T0 + [f"{op} $t0, $t0, $t1"] + _PUSH_T0
        for name, op in (("IADD", "addu"), ("ISUB", "subu"), ("IAND", "and"), ("IOR", "or"),
                         ("IXOR", "xor"), ("ISHL", "sllv"), ("ISHR", "srlv"))
    },
    "IHALT": lambda: ["break"],
}


@pytest.mark.parametrize("src", [
    "x := -y",
    "var x: u32; var y: u32; x := ~y",
    "var x: u32; var y: i32; x := (u32(-y) >> 3) - ~(70000 & x | 65536 ^ x << 2) + x",
])
def test_naive_code_is_the_expanded_stack_listing(src):
    p = parse_program(src)
    want = []
    for line in stack_listing(compile_program(p)).splitlines():
        name, *field = line.split()
        want += _EXPAND[name](*field)
    got = emit_asm(codegen(p)).split("main:\n")[1]
    assert [line.strip() for line in got.splitlines()] == want


@pytest.mark.parametrize("level", [0, 2])
@pytest.mark.parametrize("typed", [False, True], ids=["untyped", "typed"])
@pytest.mark.parametrize("strategy", ["naive", "regalloc"])
def test_mips_stores_in_lockstep_with_the_stack_vm(strategy, typed, level):
    # both machines make the same variable stores in the same order, and
    # MIPS code stores a variable only with its operand stack empty
    for seed in range(300):
        p = optimize(gen_program(GenSpec(seed=seed, typed=typed)), level)
        status, vm_stores = ref_vm_stores(compile_program(p), 10**7)
        mips_stores = []
        out, _ = ref_simulate(
            codegen(p, strategy, emulate_mul=True), budget=10**7,
            on_store=lambda name, word, sp: mips_stores.append((name, word, sp)),
        )
        assert status == "halt" and isinstance(out, Halted), seed
        assert [(name, word) for name, word, _ in mips_stores] == vm_stores, seed
        assert all(sp == STACK_TOP for *_, sp in mips_stores), seed


# ---------------------------------------------------------------------------
# register-allocated strategy


def _wide_sum(depth):
    """Complete addition tree; ershov = depth + 1."""
    leaves = iter(range(1, 2**depth + 1))

    def build(d):
        if d == 0:
            return IntLit(next(leaves))
        return BinOp("+", build(d - 1), build(d - 1))

    return build(depth)


def test_regalloc_spills_on_mips():
    e = _wide_sum(8)
    assert any(isinstance(i, Spill) for i in alloc_codegen(e, 8))
    prog = codegen(Program(decls=(), body=Assign("x", e)), strategy="regalloc")
    out = simulate(prog, budget=10**5)
    assert out == Halted({"x": sum(range(1, 257))})


def test_regalloc_no_stack_traffic_for_shallow_trees():
    # a comparison's operands both go straight to registers
    for src in ("x := (1 + 2) + (3 + 4)", "while x < (a + b) * (c + d) do x := x + 1 done"):
        text = emit_asm(codegen(parse_program(src), strategy="regalloc", emulate_mul=True))
        assert "$sp" not in text, src


def test_regalloc_calls_the_allocator_through_its_module_global(monkeypatch):
    # the benchmark's traced run replaces codegen.alloc_codegen with an
    # (e, k) wrapper and counts regalloc.Spill in each result
    calls = []

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return alloc_codegen(*args, **kwargs)

    monkeypatch.setattr(importlib.import_module("cimp.mips.codegen"), "alloc_codegen", wrapper)
    p = parse_program("x := a + 1; if x < a - b then y := 2 else skip end")
    codegen(p, strategy="regalloc")
    cond = p.body.second.cond
    want = [p.body.first.rhs, cond, p.body.second.then_branch.rhs]
    assert calls == [((e, 8), {}) for e in want]
    assert Spill is regalloc.Spill


def test_regalloc_typed_bit_code_stays_in_registers():
    src = "var x: u32; var a: u32; var b: u32; var c: i32; x := (a ^ b) & ~u32(c) << 3"
    text = emit_asm(codegen(parse_program(src), strategy="regalloc"))
    assert "$sp" not in text


_WORDS = (0, 1, 2**31 - 1, 2**31, 2**32 - 1)


@pytest.mark.parametrize("ops", [("^", "^"), ("^", "-")])
def test_regalloc_spills_typed_bit_tree(ops):
    # 256 leaves, each a distinct u32 variable; ershov 9 > 8 registers
    leaves = iter(range(256))

    def build(d):
        if d == 0:
            return Var(f"v{next(leaves)}")
        op = ops[d % 2]
        return (BitOp if op == "^" else BinOp)(op, build(d - 1), build(d - 1))

    e = build(8)
    assert any(isinstance(i, Spill) for i in alloc_codegen(e, 8))
    names = [f"v{i}" for i in range(256)]
    p = Program(decls=tuple((n, Ty.U32) for n in ("x", *names)), body=Assign("x", e))
    tp = typecheck(p)
    prog = codegen(tp, strategy="regalloc")
    for r in range(len(_WORDS)):
        init = {n: _WORDS[(i + r) % len(_WORDS)] for i, n in enumerate(names)}
        expect = _final_words(p, ceval_fixed(1, tp, Store(init)))
        assert simulate(prog, init=init, budget=10**5) == Halted(expect)


def test_naive_uses_stack_for_every_operand():
    text = emit_asm(codegen(parse_program("x := 1 + 2")))
    assert "\taddiu $sp, $sp, -4" in text
    assert "\tlw $t0, 0($sp)" in text


def test_strategies_agree_on_examples():
    cases = [
        ("x := (1 + 2) * (3 + 4)", {}),
        ("s := 0; i := 1; while i <= 9 do s := s + i * i; i := i + 1 done", {}),
        ("var x: u32; var y: u32; y := (x >> 3) ^ (x << 2) & 4095", {"x": 0xDEADBEEF}),
        ("if x * x <= y then z := 1 else z := 2 end", {"x": 4, "y": 17}),
    ]
    for src, init in cases:
        a = compile_run(src, init=init, strategy="naive", emulate_mul=True)
        b = compile_run(src, init=init, strategy="regalloc", emulate_mul=True)
        assert a == b, src


# ---------------------------------------------------------------------------
# differential against the reference evaluators


def _final_words(p, out):
    assert isinstance(out, Done)
    return {name: word32(out.store.get(name)) for name, _ in p.decls}


@settings(max_examples=120, deadline=None)
@given(gen.typed_programs(), gen.word_stores(), st.sampled_from(["naive", "regalloc"]))
def test_typed_differential(p, init, strategy):
    tp = typecheck(p)
    out = ceval_fixed(64, tp, init)
    if not isinstance(out, Done):
        return
    prog = codegen(p, strategy=strategy, emulate_mul=True)
    got = simulate(prog, init=dict(init.items()), budget=10**6)
    assert got == Halted(_final_words(p, out))


@settings(max_examples=60, deadline=None)
@given(gen.typed_programs(), gen.word_stores())
def test_strategies_agree_generated(p, init):
    words = dict(init.items())
    a = simulate(codegen(p, emulate_mul=True), init=words, budget=10**5)
    b = simulate(
        codegen(p, strategy="regalloc", emulate_mul=True), init=words, budget=10**5
    )
    if isinstance(a, Halted) or isinstance(b, Halted):
        assert a == b


def test_untyped_differential_small_values():
    rng = random.Random(11)
    src = (
        "q := 0; r := n; while d <= r do r := r - d; q := q + 1 done"
    )
    p = parse_program(src)
    prog = codegen(p)
    for _ in range(50):
        init = {"n": rng.randrange(0, 500), "d": rng.randrange(1, 30), "q": 0, "r": 0}
        out = ceval_fuel(10**4, p.body, Store(init))
        assert isinstance(out, Done)
        expect = {k: word32(out.store.get(k)) for k in ("q", "r", "n", "d")}
        assert simulate(prog, init=init, budget=10**6) == Halted(expect)
