import stat
from pathlib import Path

import pytest

from cimp import difftest
from cimp.cli import main
from cimp.mips import LabelDef, MipsProgram, parse_asm, simulate
from cimp.stack_machine import Iadd, Iconst, StackProgram

COUNTING = """\
x := 0;
while x <= 9 do
  x := x + 1
done
"""

TYPED_WRAP = """\
var x: i32;
var y: u32;
x := 0 - 1;
y := 0 - 1
"""

SPIN = "x := 0;\nwhile 0 <= x do x := x + 1 done\n"

VERIFIED = """\
x := 0;
while x <= 9 invariant { 0 <= x && x <= 10 } do
  x := x + 1
done
"""

WEAK = """\
x := 0;
while x <= 9 invariant { 0 <= x } do
  x := x + 1
done
"""


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _src(tmp_path, text, name="prog.imp"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# run


def test_run_bigstep(tmp_path, capsys):
    code, out, err = _run(capsys, "run", _src(tmp_path, COUNTING))
    assert code == 0
    assert out == "x=10\n"
    assert err == ""


def test_run_all_untyped_engines_agree(tmp_path, capsys):
    path = _src(tmp_path, COUNTING)
    outs = set()
    for engine in ("bigstep", "smallstep", "stackvm", "mips"):
        code, out, _ = _run(capsys, "run", path, "--engine", engine)
        assert code == 0
        outs.add(out)
    assert outs == {"x=10\n"}


def test_run_untyped_negative_agrees_on_every_engine(tmp_path, capsys):
    path = _src(tmp_path, "x := 0 - 1\n")
    for engine in ("bigstep", "smallstep", "stackvm", "mips"):
        code, out, _ = _run(capsys, "run", path, "--engine", engine)
        assert (code, out) == (0, "x=-1\n"), engine


@pytest.mark.parametrize("level", ["1", "2"])
def test_run_optimized_long_sequence(tmp_path, capsys, level):
    # 600 statements: deep enough that a recursive fixed-point test in
    # the optimizer overflows, well inside the parser's limit
    path = _src(tmp_path, "x := x + 1;\n" * 599 + "x := x + 1\n")
    for engine in ("bigstep", "smallstep", "stackvm", "mips"):
        code, out, _ = _run(capsys, "run", path, "-O", level, "--engine", engine)
        assert (code, out) == (0, "x=600\n"), engine


_CHAIN = " + ".join(["y"] * 400)


@pytest.mark.parametrize(
    "rhs, value",
    [(_CHAIN, 400), (f"({_CHAIN}) - ({_CHAIN})", 0)],
    ids=["chain", "chain-minus-chain"],
)
@pytest.mark.parametrize("level", ["1", "2"])
def test_run_optimized_deep_expression(tmp_path, capsys, rhs, value, level):
    # the optimizer's fixed point and its e - e test compare 400-deep
    # trees; neither may recurse once per level
    path = _src(tmp_path, f"y := 1;\nx := {rhs}\n")
    for engine in ("bigstep", "smallstep", "stackvm", "mips"):
        code, out, _ = _run(capsys, "run", path, "-O", level, "--engine", engine)
        assert (code, out) == (0, f"x={value}\ny=1\n"), engine


def test_long_sequence_on_every_iterative_engine(tmp_path, capsys):
    # 2,000 statements: the parser, both backends and every engine walk
    # sequences in loops
    path = _src(tmp_path, "x := x + 1;\n" * 1999 + "x := x + 1\n")
    for engine in ("bigstep", "smallstep", "stackvm", "mips"):
        code, out, _ = _run(capsys, "run", path, "--engine", engine)
        assert (code, out) == (0, "x=2000\n"), engine
    for regalloc in ("naive", "su"):
        code, out, _ = _run(capsys, "compile", path, "--backend", "mips",
                            "--regalloc", regalloc)
        assert code == 0
        assert simulate(parse_asm(out))["x"] == 2000
    code, out, _ = _run(capsys, "compile", path)
    assert (code, out.count("ISETVAR x\n")) == (0, 2000)
    typed_text = "var x: u32;\n" + "x := x - 1;\n" * 1999 + "x := x - 1\n"
    typed = _src(tmp_path, typed_text, "t.imp")
    assert _run(capsys, "run", typed) == (0, f"x={2**32 - 2000}\n", "")


@pytest.mark.parametrize("terms", [2000, 10**4])
def test_operator_chains_on_every_engine(tmp_path, capsys, terms):
    # the parser builds chains in loops; no later stage may recurse per term
    chain = " - ".join(["x"] + ["1"] * (terms - 1))
    path = _src(tmp_path, f"x := {chain}\n")
    for engine in ("bigstep", "smallstep", "stackvm", "mips"):
        code, out, _ = _run(capsys, "run", path, "--engine", engine)
        assert (code, out) == (0, f"x={1 - terms}\n"), engine
    code, out, _ = _run(capsys, "compile", path)
    assert (code, out.count("ISUB\n")) == (0, terms - 1)
    typed = _src(tmp_path, f"var x: u32;\nx := {chain}\n", "t.imp")
    for engine in ("bigstep", "mips"):
        code, out, _ = _run(capsys, "run", typed, "--engine", engine)
        assert (code, out) == (0, f"x={2**32 + 1 - terms}\n"), engine


@pytest.mark.parametrize("terms", [2000, 10**4])
@pytest.mark.parametrize("op", ["&&", "||"])
def test_condition_chains_on_every_engine(tmp_path, capsys, op, terms):
    # x = 0 makes every term of the && chain true and every term of the
    # || chain false, so each engine evaluates all of them
    atom = "x < {}" if op == "&&" else "x = {}"
    cond = f" {op} ".join(atom.format(i + 1) for i in range(terms))
    y = 1 if op == "&&" else 2
    text = f"x := 0;\nif {cond} then y := 1 else y := 2 end\n"
    path = _src(tmp_path, text)
    for engine in ("bigstep", "smallstep", "stackvm", "mips"):
        code, out, _ = _run(capsys, "run", path, "--engine", engine)
        assert (code, out) == (0, f"x=0\ny={y}\n"), engine
    for backend in ("stack", "mips"):
        assert _run(capsys, "compile", path, "--backend", backend)[0] == 0, backend
    assert _run(capsys, "vc", path, "--post", f"y = {y}", "--bounded-check", "2") == (
        0, "vc_0_top: valid\n", ""
    )
    typed = _src(tmp_path, "var x: u32; var y: u32;\n" + text, "t.imp")
    for engine in ("bigstep", "mips"):
        code, out, _ = _run(capsys, "run", typed, "--engine", engine)
        assert (code, out) == (0, f"x=0\ny={y}\n"), engine


@pytest.mark.parametrize("terms", [2000, 10**4])
@pytest.mark.parametrize(
    "decls, op, y",
    [("", "*", 1), ("var x: u32; var y: u32;\n", "&", 5), ("var x: u32; var y: u32;\n", "<<", 32)],
    ids=["mul", "typed-and", "typed-shl"],
)
def test_multiplicative_chains_under_optimization(tmp_path, capsys, terms, decls, op, y):
    # -O folds the left spine of '*' and of the bit operators in a loop;
    # y << 32 shifts by 0, so the chains keep y's value
    rhs = f" {op} ".join(["y"] * terms)
    path = _src(tmp_path, f"{decls}y := {y};\nx := {rhs}\n")
    engines = ("bigstep", "mips") if decls else ("bigstep", "smallstep", "stackvm", "mips")
    for level in ("1", "2"):
        for engine in engines:
            code, out, _ = _run(capsys, "run", path, "-O", level, "--engine", engine)
            assert (code, out) == (0, f"x={y}\ny={y}\n"), (level, engine)
        code, out, _ = _run(capsys, "compile", path, "-O", level, "--backend", "mips",
                            "--regalloc", "su", "--emulate-mul")
        assert code == 0 and simulate(parse_asm(out))["x"] == y, level
        if not decls:
            code, out, _ = _run(capsys, "compile", path, "-O", level)
            assert (code, out.count("IMUL\n")) == (0, terms - 1), level
    code, out, _ = _run(capsys, "bench", path)
    assert code == 0 and len(out.splitlines()) == 4


@pytest.mark.parametrize(
    "engine, compiler, code, message",
    [
        ("mips", "codegen", MipsProgram(text=(LabelDef("main"),)),
         "trap: pc 1 outside the text segment"),
        ("stackvm", "compile_program", StackProgram((Iadd(),)), "stack underflow at pc 0"),
        ("stackvm", "compile_program", StackProgram((Iconst(1),)), "pc out of bounds: 1"),
    ],
)
def test_run_reports_a_faulty_compilation_as_internal(
    tmp_path, capsys, monkeypatch, engine, compiler, code, message
):
    # compiled code that runs off its end or underflows the stack breaks
    # an invariant of the compiler, not of the input: exit 2
    monkeypatch.setattr(difftest, compiler, lambda *args, **kwargs: code)
    path = _src(tmp_path, "x := 1\n")
    assert _run(capsys, "run", path, "--engine", engine) == (2, "", f"internal error: {message}\n")


def test_unreached_bit_operator_is_harmless_in_untyped_programs(tmp_path, capsys):
    path = _src(tmp_path, "if 1 < 0 then x := 1 & 2 else skip end; y := 3\n")
    for engine in ("bigstep", "smallstep"):
        assert _run(capsys, "run", path, "--engine", engine) == (0, "y=3\n", ""), engine
    reached = _src(tmp_path, "y := 3; x := 1 & 2\n", "reached.imp")
    # the compiling engines reach every node, and say the same
    for engine in ("bigstep", "smallstep", "stackvm", "mips"):
        code, out, err = _run(capsys, "run", reached, "--engine", engine)
        assert (code, out) == (1, ""), engine
        assert err == (
            f"{reached}:1:16: error: bit operator '&' is only available in typed programs\n"
        )


@pytest.mark.parametrize("src, at", [
    ("x := (a & b) - (a & b)\n", "1:9"),
    ("x := 0 * (a & b)\n", "1:13"),
    ("x := (c + (a & b)) - (c + (a & b))\n", "1:14"),
    ("if (a & b) < 1 && false then x := 1 else x := 2 end\n", "1:7"),
])
def test_optimization_keeps_an_untyped_bit_operator_error(tmp_path, capsys, src, at):
    # -O may not drop a subtree whose evaluation raises
    path = _src(tmp_path, src)
    err = f"{path}:{at}: error: bit operator '&' is only available in typed programs\n"
    for level in ("0", "1", "2"):
        for engine in difftest.DEFAULT_ENGINES:
            assert _run(capsys, "run", path, "--engine", engine, "-O", level) == (1, "", err), engine
        for backend in (["--backend", "stack"], ["--backend", "mips", "--regalloc", "naive"],
                        ["--backend", "mips", "--regalloc", "su", "--emulate-mul"]):
            assert _run(capsys, "compile", path, "-O", level, *backend) == (1, "", err), backend


@pytest.mark.parametrize("src, err", [
    ("var x: u32;\nx := x + y - y\n", "2:10: error: undeclared variable y"),
    ("var x: u32;\nvar y: i32;\nx := x + y - y\n", "3:10: error: found i32 where u32 expected"),
])
def test_optimization_keeps_a_type_error(tmp_path, capsys, src, err):
    # a typed program is checked before -O, which would cancel y - y and
    # its type error with it
    path = _src(tmp_path, src)
    for level in ("0", "1", "2"):
        for engine in difftest.DEFAULT_ENGINES:
            assert _run(capsys, "run", path, "--engine", engine, "-O", level) == (
                1, "", f"{path}:{err}\n"), engine
        for backend in ("stack", "mips"):
            assert _run(capsys, "compile", path, "-O", level, "--backend", backend) == (
                1, "", f"{path}:{err}\n"), backend
    assert _run(capsys, "bench", path) == (1, "", f"{path}:{err}\n")


def test_commands_in_one_process_match_fresh_processes(tmp_path, capsys):
    # the parser is built once per process: no command may see the
    # options of the one before it
    import subprocess
    import sys

    path = _src(tmp_path, COUNTING)
    for argv in (
        ["run", path, "--engine", "stackvm", "--fuel", "5"],
        ["compile", path, "-O", "2"],
        ["run", path],
        ["compile", path, "--backend", "mips"],
        ["run", path, "--engine", "nope"],
    ):
        fresh = subprocess.run(
            [sys.executable, "-m", "cimp.cli", *argv], capture_output=True, text=True
        )
        assert _run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_nesting_at_and_past_the_limit(tmp_path, capsys):
    at = _src(tmp_path, "x := " + "(" * 100 + "1 + 2" + ")" * 100 + "\n", "at.imp")
    for engine in ("bigstep", "smallstep", "stackvm", "mips"):
        code, out, _ = _run(capsys, "run", at, "--engine", engine)
        assert (code, out) == (0, "x=3\n"), engine
    for backend in (["--backend", "stack"], ["--backend", "mips", "--regalloc", "su"]):
        code, _, _ = _run(capsys, "compile", at, *backend)
        assert code == 0
    past = _src(tmp_path, "x := " + "(" * 500 + "1" + ")" * 500 + "\n", "past.imp")
    for argv in (["run", past, "--engine", "mips"], ["compile", past, "--backend", "mips"]):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"{past}:1:106: error: nesting deeper than 100 levels\n"


def test_run_typed_signed_display(tmp_path, capsys):
    code, out, _ = _run(capsys, "run", _src(tmp_path, TYPED_WRAP))
    assert code == 0
    assert out == "x=-1\ny=4294967295\n"


def test_run_typed_display_matches_on_mips(tmp_path, capsys):
    path = _src(tmp_path, TYPED_WRAP)
    _, ref, _ = _run(capsys, "run", path)
    code, out, _ = _run(capsys, "run", path, "--engine", "mips")
    assert code == 0
    assert out == ref


def test_run_out_of_fuel(tmp_path, capsys):
    code, out, _ = _run(capsys, "run", _src(tmp_path, SPIN), "--fuel", "100")
    assert code == 0
    assert out == "out of fuel\n"


def test_run_budget_exhausted(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "run", _src(tmp_path, SPIN), "--engine", "mips", "--budget", "5000"
    )
    assert code == 0
    assert out == "budget exhausted\n"


def test_run_budget_exhausted_under_su(tmp_path, capsys):
    path = _src(tmp_path, SPIN)
    assert _run(capsys, "run", path, "--engine", "mips-su", "--budget", "5000") == (
        0, "budget exhausted\n", ""
    )


def test_run_store_in(tmp_path, capsys):
    init = tmp_path / "init.store"
    init.write_text("x=5\n")
    prog = _src(tmp_path, "y := x + 1\n")
    code, out, _ = _run(capsys, "run", prog, "--store-in", str(init))
    assert code == 0
    assert out == "x=5\ny=6\n"


def test_run_malformed_store(tmp_path, capsys):
    init = tmp_path / "bad.store"
    init.write_text("x=banana\n")
    code, _, err = _run(capsys, "run", _src(tmp_path, COUNTING), "--store-in", str(init))
    assert code == 1
    assert "error" in err


def test_run_typed_agrees_on_every_engine(tmp_path, capsys):
    # the generator draws neither a literal of 2^32 or more nor a negative
    # initial value; every engine must read both as 32-bit words
    big = _src(tmp_path, "var w: i32; var x: i32; var y: i32; var z: u32;\n"
               "x := 4294967297; if x < 2 then y := 1 else y := 2 end;\n"
               "if z < 4294967297 then w := w - 1 else w := w + 1 end\n", "big.imp")
    init = tmp_path / "init.store"
    init.write_text("w=-5\nz=-5\n")
    for engine in ("bigstep", "smallstep", "stackvm", "mips"):
        out = _run(capsys, "run", _src(tmp_path, TYPED_WRAP), "--engine", engine)
        assert out == (0, "x=-1\ny=4294967295\n", ""), engine
        out = _run(capsys, "run", big, "--engine", engine, "--store-in", str(init))
        assert out == (0, "w=-4\nx=1\ny=1\nz=4294967291\n", ""), engine


def test_run_negative_fuel_rejected(tmp_path, capsys):
    code, _, err = _run(capsys, "run", _src(tmp_path, COUNTING), "--fuel", "-3")
    assert code == 1
    assert "nonnegative" in err


# ---------------------------------------------------------------------------
# compile


def test_compile_stack_listing(tmp_path, capsys):
    code, out, _ = _run(capsys, "compile", _src(tmp_path, "x := 1 + 2\n"))
    assert code == 0
    assert "ICONST 1" in out
    assert "ICONST 2" in out
    assert "IADD" in out
    assert out.rstrip().endswith("IHALT")


def test_compile_mips_stdout(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "compile", _src(tmp_path, "x := 1 + 2\n"), "--backend", "mips"
    )
    assert code == 0
    assert "\t.text" in out
    assert "var_x: .word 0" in out
    assert "break" in out


def test_compile_mul_needs_flag(tmp_path, capsys):
    path = _src(tmp_path, "x := 6 * 7\n")
    code, _, err = _run(capsys, "compile", path, "--backend", "mips")
    assert code == 1
    assert "--emulate-mul" in err
    assert f"{path}:" in err


def test_compile_ignores_multiplication_in_invariants(tmp_path, capsys):
    path = _src(
        tmp_path,
        "x := 0; while x < 9 invariant { x * x <= 81 && x + 0 <= 9 && true } do "
        "x := x + 1 done\n",
    )
    code, out, err = _run(capsys, "compile", path, "--backend", "mips")
    assert (code, err) == (0, "")
    assert "break" in out


def test_compile_emulate_mul_to_file(tmp_path, capsys):
    path = _src(tmp_path, "x := 6 * 7\n")
    out_path = tmp_path / "prog.s"
    code, out, _ = _run(
        capsys,
        "compile",
        path,
        "--backend",
        "mips",
        "--emulate-mul",
        "-o",
        str(out_path),
    )
    assert code == 0
    assert out == ""
    prog = parse_asm(out_path.read_text())
    halted = simulate(prog)
    assert halted["x"] == 42


def test_compile_regalloc_su(tmp_path, capsys):
    path = _src(tmp_path, "x := (1 + 2) + (3 + 4)\n")
    code, out, _ = _run(
        capsys, "compile", path, "--backend", "mips", "--regalloc", "su"
    )
    assert code == 0
    prog = parse_asm(out)
    assert simulate(prog)["x"] == 10


@pytest.mark.parametrize("src, want", [
    ("z := (x + y) - (x + y)", "ICONST 0\nISETVAR z\n"),
    ("w := 1 * (x + y) - 1 * (x + y)", "ICONST 0\nISETVAR w\n"),
    ("v := x + y - x", "IVAR y\nISETVAR v\n"),
])
def test_compile_opt_cancels_equal_terms(tmp_path, capsys, src, want):
    # -O cancels by value, however the terms are spelled
    path = _src(tmp_path, src + "\n")
    for level in ("1", "2"):
        assert _run(capsys, "compile", path, "-O", level) == (0, want + "IHALT\n", ""), level


def test_compile_opt_shrinks_constant_code(tmp_path, capsys):
    path = _src(tmp_path, "x := 1 + 2 + 3; y := x + 0\n")
    _, plain, _ = _run(capsys, "compile", path)
    code, opt, _ = _run(capsys, "compile", path, "-O", "2")
    assert code == 0
    assert len(opt.splitlines()) < len(plain.splitlines())


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "flags, expected",
    [
        ((), "control.stack"),
        (("--backend", "mips", "--emulate-mul"), "control.naive.s"),
        (("--backend", "mips", "--regalloc", "su", "--emulate-mul"), "control.su.s"),
        (("--backend", "mips", "--emulate-mul"), "typed.naive.s"),
        (("--backend", "mips", "--regalloc", "su", "--emulate-mul"), "typed.su.s"),
        ((), "typed.stack"),
    ],
)
def test_compile_output_is_pinned(capsys, flags, expected):
    # control.imp has if, while, &&, ||, !, true, false and *: the jump
    # code layout, the label names and their numbering are all pinned.
    # typed.imp pins the bit operators, ~, casts and signed and unsigned
    # comparisons, and on the stack backend the word-mode encodings.
    source = GOLDEN / (expected.split(".")[0] + ".imp")
    out = _run(capsys, "compile", str(source), *flags)
    assert out == (0, (GOLDEN / expected).read_text(), "")


def test_compile_flags_need_mips_backend(tmp_path, capsys):
    path = _src(tmp_path, COUNTING)
    code, _, err = _run(capsys, "compile", path, "--regalloc", "su")
    assert code == 1
    assert "mips backend" in err
    code, _, err = _run(capsys, "compile", path, "--emulate-mul")
    assert code == 1
    assert "mips backend" in err


# ---------------------------------------------------------------------------
# vc


def test_vc_bounded_all_valid(tmp_path, capsys):
    code, out, _ = _run(
        capsys,
        "vc",
        _src(tmp_path, VERIFIED),
        "--pre",
        "x = 0",
        "--post",
        "x = 10",
        "--bounded-check",
        "16",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all(line.endswith(": valid") for line in lines)
    origins = [line.split(":")[0] for line in lines]
    assert origins == ["vc_0_top", "vc_1_preservation", "vc_2_exit"]


def test_vc_weak_invariant_counterexample(tmp_path, capsys):
    code, out, _ = _run(
        capsys,
        "vc",
        _src(tmp_path, WEAK),
        "--pre",
        "x = 0",
        "--post",
        "x = 10",
        "--bounded-check",
        "16",
    )
    assert code == 1
    lines = out.splitlines()
    assert "vc_2_exit: counterexample x=11" in lines
    assert sum(line.endswith(": valid") for line in lines) == 2


def test_vc_smt2_writes_scripts(tmp_path, capsys):
    out_dir = tmp_path / "smt"
    code, out, _ = _run(
        capsys,
        "vc",
        _src(tmp_path, VERIFIED),
        "--post",
        "x = 10",
        "--smt2",
        str(out_dir),
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "vc_0_top.smt2",
        "vc_1_preservation.smt2",
        "vc_2_exit.smt2",
    ]
    body = (out_dir / "vc_0_top.smt2").read_text()
    assert "(check-sat)" in body
    assert "wrote" in out


# 2,000 statements and a 2,000-term operator chain: no tool may recurse
# once per statement or per operator
LONG_SEQ = "x := x + 1;\n" * 1999 + "x := x + 1\n"
LONG_SUM = "x := " + " + ".join(["1"] * 2000) + "\n"


def test_vc_long_sequence_bounded(tmp_path, capsys):
    path = _src(tmp_path, LONG_SEQ)
    code, out, err = _run(
        capsys, "vc", path, "--pre", "x = 0", "--post", "x = 2000", "--bounded-check", "2"
    )
    assert (code, out, err) == (0, "vc_0_top: valid\n", "")


@pytest.mark.parametrize(
    "text, additions", [(LONG_SEQ, 2000), (LONG_SUM, 1999)], ids=["sequence", "sum"]
)
def test_vc_smt2_long_input(tmp_path, capsys, text, additions):
    out_dir = tmp_path / "smt"
    code, _, err = _run(
        capsys, "vc", _src(tmp_path, text), "--post", "x = 2000", "--smt2", str(out_dir)
    )
    assert (code, err) == (0, "")
    script = (out_dir / "vc_0_top.smt2").read_text()
    assert script.count("(+ ") == additions
    assert script.endswith(" 2000))))\n(check-sat)\n")


@pytest.mark.parametrize("terms", [3000, 10**4])
def test_vc_long_implication_chain(tmp_path, capsys, terms):
    # '->' operands are read in a loop and the right spine of an
    # implication runs as one loop; over x in -1..1 every premise holds
    post = " -> ".join(f"x < {i + 2}" for i in range(terms))
    path = _src(tmp_path, "skip\n")
    assert _run(capsys, "vc", path, "--post", post, "--bounded-check", "1") == (
        0, "vc_0_top: valid\n", ""
    )
    assert _run(capsys, "vc", path, "--post", post + " -> x < 1", "--bounded-check", "1") == (
        1, "vc_0_top: counterexample x=1\n", ""
    )
    out_dir = tmp_path / "smt"
    code, _, err = _run(capsys, "vc", path, "--post", post, "--smt2", str(out_dir))
    assert (code, err) == (0, "")
    # the chain's arrows and the top VC's pre -> post
    assert (out_dir / "vc_0_top.smt2").read_text().count("(=> ") == terms


@pytest.mark.parametrize("lines", [600, 10**4])
def test_right_nested_chains_of_long_sequences(tmp_path, capsys, lines):
    # the VC of x := 1 - x repeated nests 1 - (1 - (...)) one level per
    # statement on the right, and compile_expr folds that spine in a loop
    path = _src(tmp_path, "x := 1 - x;\n" * (lines - 1) + "x := 1 - x\n")
    x = lines % 2
    assert _run(capsys, "vc", path, "--post", "x = x", "--bounded-check", "2") == (
        0, "vc_0_top: valid\n", ""
    )
    assert _run(capsys, "vc", path, "--pre", "x = 0", "--post", f"x = {1 - x}",
                "--bounded-check", "2") == (1, "vc_0_top: counterexample x=0\n", "")
    for engine in difftest.ENGINE_NAMES:
        assert _run(capsys, "run", path, "--engine", engine) == (0, f"x={x}\n", ""), engine


def test_compile_regalloc_su_long_sum(tmp_path, capsys):
    path = _src(tmp_path, LONG_SUM)
    code, out, err = _run(capsys, "compile", path, "--backend", "mips", "--regalloc", "su")
    assert (code, err) == (0, "")
    assert simulate(parse_asm(out))["x"] == 2000


def test_vc_env_solver(tmp_path, capsys, monkeypatch):
    fake = tmp_path / "fakesolver"
    fake.write_text("#!/bin/sh\necho unsat\n")
    fake.chmod(fake.stat().st_mode | stat.S_IEXEC)
    monkeypatch.setenv("CIMP_SMT_SOLVER", str(fake))
    out_dir = tmp_path / "smt"
    code, out, _ = _run(
        capsys,
        "vc",
        _src(tmp_path, VERIFIED),
        "--post",
        "x = 10",
        "--smt2",
        str(out_dir),
    )
    assert code == 0
    assert out.splitlines() == [
        "vc_0_top: unsat",
        "vc_1_preservation: unsat",
        "vc_2_exit: unsat",
    ]


@pytest.mark.parametrize("flag", ["--pre", "--post"])
def test_vc_flag_errors_are_located_in_the_flag(tmp_path, capsys, flag):
    other = "--post" if flag == "--pre" else "--pre"
    path = _src(tmp_path, VERIFIED)
    argv = ["vc", path, flag, "x = = 0", other, "x = 0", "--bounded-check", "4"]
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"{flag}:1:5: error: ")


def test_vc_typed_flags_are_typechecked(tmp_path, capsys):
    path = _src(tmp_path, "var x: i32; x := 1\n")
    argv = ["vc", path, "--post", "q = 0", "--bounded-check", "4"]
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "--post:1:1: error: undeclared variable q\n"
    code, out, _ = _run(capsys, "vc", path, "--pre", "x = 0", "--post", "x = 1",
                        "--bounded-check", "4")
    assert (code, out) == (0, "vc_0_top: valid\n")


def test_vc_typed_program_errors_stay_in_the_file(tmp_path, capsys):
    path = _src(tmp_path, "var x: i32; x := y\n")
    code, _, err = _run(capsys, "vc", path, "--post", "y = 0", "--bounded-check", "4")
    assert code == 1
    assert err == f"{path}:1:18: error: undeclared variable y\n"


def test_vc_requires_mode(tmp_path, capsys):
    code, _, err = _run(capsys, "vc", _src(tmp_path, VERIFIED), "--post", "x = 10")
    assert code == 1
    assert "error" in err


# ---------------------------------------------------------------------------
# typecheck


def test_typecheck_listing(tmp_path, capsys):
    code, out, _ = _run(capsys, "typecheck", _src(tmp_path, TYPED_WRAP))
    assert code == 0
    assert out == "x: i32\ny: u32\n"


def test_typecheck_rejects_untyped(tmp_path, capsys):
    code, _, err = _run(capsys, "typecheck", _src(tmp_path, COUNTING))
    assert code == 1
    assert "annotated" in err


def test_typecheck_reports_type_error(tmp_path, capsys):
    bad = "var x: i32;\nvar y: u32;\nx := y\n"
    code, _, err = _run(capsys, "typecheck", _src(tmp_path, bad))
    assert code == 1
    assert "error" in err


# ---------------------------------------------------------------------------
# fuzz


def test_fuzz_smoke(capsys):
    code, out, _ = _run(capsys, "fuzz", "--seed", "7", "--count", "40")
    assert code == 0
    assert "cases run: 40" in out
    assert "divergences: 0" in out
    assert "bigstep:" in out


def test_fuzz_typed(capsys):
    code, out, _ = _run(capsys, "fuzz", "--seed", "7", "--count", "25", "--typed")
    assert code == 0
    assert "mips:" in out
    assert "mips-su:" in out


def test_fuzz_engine_subset(capsys):
    code, out, _ = _run(
        capsys,
        "fuzz",
        "--seed",
        "3",
        "--count",
        "10",
        "--engines",
        "bigstep,stackvm",
    )
    assert code == 0
    assert "smallstep" not in out


def test_fuzz_bad_engine(capsys):
    code, _, err = _run(
        capsys, "fuzz", "--seed", "1", "--count", "5", "--engines", "warp"
    )
    assert code == 1
    assert "unknown engine" in err


@pytest.mark.parametrize(
    "engines, message",
    [("bigstep,bigstep", "engine bigstep named twice"),
     (",", "--engines names no engine"),
     ("", "--engines names no engine")],
)
def test_fuzz_engine_list_names_each_engine_once(capsys, engines, message):
    # a repeated engine would run twice and double its tally; an empty
    # list would quietly run the default engines
    code, out, err = _run(capsys, "fuzz", "--seed", "1", "--count", "2", "--engines", engines)
    assert (code, out) == (1, "")
    assert message in err


# ---------------------------------------------------------------------------
# bench


def test_bench_table(tmp_path, capsys):
    code, out, _ = _run(capsys, "bench", _src(tmp_path, COUNTING))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["level", "stack", "mips-naive", "mips-su"]
    assert len(lines) == 4
    assert lines[1].split()[0] == "0"


# ---------------------------------------------------------------------------
# diagnostics and plumbing


def test_missing_file(capsys):
    code, _, err = _run(capsys, "run", "/nonexistent/prog.imp")
    assert code == 1
    assert "error" in err


def test_syntax_error_position(tmp_path, capsys):
    path = _src(tmp_path, "x := ;\n")
    code, _, err = _run(capsys, "run", path)
    assert code == 1
    assert err.startswith(f"{path}:1:")
    assert ": error: " in err


@pytest.mark.parametrize(
    "src, where",
    [
        ("if (x = 0 -> y = 0) then skip else skip end\n", "1:11"),
        ("while x = 0 -> y = 0 do skip done\n", "1:13"),
    ],
    ids=["if", "while"],
)
def test_implication_in_a_condition_is_located(tmp_path, capsys, src, where):
    path = _src(tmp_path, src)
    code, _, err = _run(capsys, "run", path)
    assert code == 1
    assert err.startswith(f"{path}:{where}: error: ")


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


def test_no_subcommand(capsys):
    code, _, err = _run(capsys)
    assert code == 1
    assert "error" in err


def test_console_script_installed():
    # the package installs a cimp entry point; exercise the module path
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "cimp.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "compile" in proc.stdout
