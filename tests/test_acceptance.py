"""Release gate: one test per shipped guarantee.

Each test is self-contained, checks one headline property end to end,
and asserts the wall-clock budget the property is documented to meet.
Run with ``pytest tests/test_acceptance.py -v`` for one line per
guarantee.
"""

import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from oracles import min_registers
from reference import dead_code, ershov, simplify_bool
from cimp.difftest import run_diff
from cimp.frontend import parse_assertion_text, parse_program, pretty
from cimp.generator import GenSpec, fuel_bound, gen_program
from cimp.hoare import (
    Counterexample,
    HoareTriple,
    Valid,
    bounded_check,
    emit_smtlib,
    solve_smtlib,
    vcgen,
)
from cimp.mips import (
    Halted,
    LabelDef,
    MipsProgram,
    MulNotSupported,
    codegen,
    emit_asm,
    emit_mul_emulation,
    ins,
    parse_asm,
    simulate,
)
from cimp.optimizer import fold, optimize
from cimp.regalloc import Spill, alloc_codegen
from cimp.semantics import Done, OutOfFuel, Store, ceval_fuel, run_small
from cimp.stack_machine import compile_program, vm_exec
from cimp.syntax import (
    Assign,
    BinOp,
    BoolLit,
    Cmp,
    If,
    IntLit,
    Or,
    Skip,
    Var,
    While,
)
from cimp.typecheck import TypeMismatch, ceval_fixed, typecheck, word32

CORPUS = sorted(Path(__file__).resolve().parent.parent.glob("programs/*.imp"))


@contextmanager
def _within(seconds):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


# ---------------------------------------------------------------------------
# 1. The textbook rewrites, as exact ASTs.


def test_01_rewrite_fidelity():
    with _within(1):
        a, b = Var("a"), Var("b")
        assert fold(
            BinOp("+", BinOp("+", a, IntLit(1)), IntLit(2))
        ) == BinOp("+", a, IntLit(3))
        assert fold(BinOp("-", a, a)) == IntLit(0)
        assert simplify_bool(
            Or(BoolLit(True), Cmp("<=", b, IntLit(0)))
        ) == BoolLit(True)
        then, other = Assign("x", IntLit(1)), Assign("x", IntLit(2))
        assert dead_code(If(BoolLit(True), then, other)) == then
        assert dead_code(If(BoolLit(False), then, other)) == other
        assert dead_code(While(BoolLit(False), None, then)) == Skip()


# ---------------------------------------------------------------------------
# 2. Independent engines agree on generated programs.


def test_02_engine_agreement():
    with _within(120):
        untyped = run_diff(GenSpec(seed=20260101), 1000)
        assert untyped.cases == 1000
        assert untyped.divergences == 0 and untyped.skipped == 0
        assert set(untyped.tallies) == {"bigstep", "smallstep", "stackvm"}

        typed = run_diff(GenSpec(seed=20260102, typed=True), 500)
        assert typed.cases == 500
        assert typed.divergences == 0 and typed.skipped == 0
        assert set(typed.tallies) == {"bigstep", "smallstep", "stackvm", "mips", "mips-su"}


# ---------------------------------------------------------------------------
# 3. Optimization never changes observable outcomes.


def _final(p, store, fuel):
    if p.typed:
        out = ceval_fixed(fuel, typecheck(p), store)
        assert isinstance(out, Done)
        return {name: word32(out.store.get(name)) for name, _ in p.decls}
    out = ceval_fuel(fuel, p.body, store)
    assert isinstance(out, Done)
    return dict(out.store.items())


def test_03_optimizer_preservation():
    with _within(60):
        rng = random.Random(33)
        for case in range(1000):
            spec = GenSpec(seed=rng.getrandbits(64), typed=case % 10 < 3)
            p = gen_program(spec)
            fuel = fuel_bound(spec)
            names = [d[0] for d in p.decls] or list("abcdefgh")
            for _ in range(5):
                store = Store({n: rng.randrange(0, 2**32) for n in names})
                base = _final(optimize(p, 0), store, fuel)
                for level in (1, 2):
                    assert _final(optimize(p, level), store, fuel) == base


# ---------------------------------------------------------------------------
# 4. The tree labeling is register-optimal and spills exactly when it
#    must.  Register need is labeling-invariant (leaves all weigh 1),
#    so the sweep is exhaustive over labeled trees to depth 2, then
#    exhaustive over every deeper shape to depth 4, each shape checked
#    under a canonical and a random labeling.

_OPS = ("+", "-", "*")
_LEAVES = (Var("a"), Var("b"), IntLit(1))


def _shapes(depth):
    if depth == 0:
        return [Var("a")]
    smaller = _shapes(depth - 1)
    return [Var("a")] + [BinOp("+", l, r) for l in smaller for r in smaller]


def _labeled(depth):
    if depth == 0:
        return list(_LEAVES)
    smaller = _labeled(depth - 1)
    return list(_LEAVES) + [
        BinOp(op, l, r) for op in _OPS for l in smaller for r in smaller
    ]


def _relabel(e, rng):
    if not isinstance(e, BinOp):
        return rng.choice(_LEAVES)
    return BinOp(rng.choice(_OPS), _relabel(e.left, rng), _relabel(e.right, rng))


def test_04_register_need_optimality():
    with _within(60):
        rng = random.Random(4)
        shapes = _shapes(4)
        assert len(shapes) == 677
        trees = _labeled(2) + [t for s in shapes for t in (s, _relabel(s, rng))]
        seen = set()
        for e in trees:
            if e in seen:
                continue
            seen.add(e)
            need = ershov(e)
            assert need == min_registers(e)
            for k in (2, 3):
                code = alloc_codegen(e, k)
                spilled = any(isinstance(i, Spill) for i in code)
                assert spilled == (need > k)
        assert len(seen) > 3000


# ---------------------------------------------------------------------------
# 5. Fuel is a total-function discipline, uniform across engines.


def test_05_fuel_discipline():
    with _within(5):
        p = parse_program("while true do skip done")
        vm = compile_program(p)
        for fuel in (0, 1, 10, 10**5):
            assert isinstance(ceval_fuel(fuel, p.body, Store({})), OutOfFuel)
            assert isinstance(run_small(fuel, p.body, Store({})), OutOfFuel)
            assert isinstance(vm_exec(fuel, vm, Store({})), OutOfFuel)

        rng = random.Random(5)
        for _ in range(200):
            spec = GenSpec(seed=rng.getrandbits(64), max_depth=2)
            q = gen_program(spec)
            hi = fuel_bound(spec)
            lo = rng.randrange(0, hi)
            out_lo = ceval_fuel(lo, q.body, Store({}))
            out_hi = ceval_fuel(hi, q.body, Store({}))
            assert isinstance(out_hi, Done)
            if isinstance(out_lo, Done):
                assert out_lo.store == out_hi.store
            code = compile_program(q)
            vm_lo = vm_exec(lo, code, Store({}))
            if isinstance(vm_lo, Done):
                assert vm_lo.store == vm_exec(2 * lo + 1, code, Store({})).store


# ---------------------------------------------------------------------------
# 6. The counting loop verifies; a weakened invariant is refuted.

_COUNTING = (
    "x := 0;\n"
    "while x <= 9 invariant { 0 <= x && x <= 10 } do x := x + 1 done"
)


def test_06_loop_verification():
    with _within(10):
        p = parse_program(_COUNTING)
        triple = HoareTriple(
            parse_assertion_text("x = 0"), p.body, parse_assertion_text("x = 10")
        )
        vcs = vcgen(triple)
        assert len(vcs) == 3
        assert [vc.origin for vc in vcs] == ["top", "preservation", "exit"]
        for vc in vcs:
            assert isinstance(bounded_check(vc, 16), Valid)

        weak = parse_program(_COUNTING.replace("0 <= x && x <= 10", "0 <= x"))
        wtriple = HoareTriple(
            parse_assertion_text("x = 0"), weak.body, parse_assertion_text("x = 10")
        )
        results = {vc.origin: bounded_check(vc, 16) for vc in vcgen(wtriple)}
        assert isinstance(results["exit"], Counterexample)
        assert results["exit"].store.get("x") == 11

        solver = os.environ.get("CIMP_SMT_SOLVER")
        if solver:
            for vc in vcs:
                assert solve_smtlib(emit_smtlib(vc), solver) == "unsat"


# ---------------------------------------------------------------------------
# 7. Multiplication is opt-in on MIPS and exact mod 2^32 when emulated.


def _product_on_mips(x, y):
    text = (
        LabelDef("main"),
        ins("lw", "$t0", "x"),
        ins("lw", "$t1", "y"),
        *emit_mul_emulation("$v0", "$t0", "$t1", "m"),
        ins("sw", "$v0", "p"),
        ins("break"),
    )
    prog = MipsProgram(data=(("x", x), ("y", y), ("p", 0)), text=text)
    out = simulate(prog)
    assert isinstance(out, Halted)
    return out["p"]


def test_07_multiplication_policy():
    with _within(30):
        p = parse_program("x := a * b")
        for strategy in ("naive", "regalloc"):
            with pytest.raises(MulNotSupported):
                codegen(p, strategy=strategy)
        compiled = codegen(p, emulate_mul=True)
        assert simulate(compiled, init={"a": 7, "b": 6})["x"] == 42

        rng = random.Random(7)
        for _ in range(1000):
            x = rng.getrandbits(32)
            y = rng.getrandbits(32)
            assert _product_on_mips(x, y) == (x * y) % 2**32


# ---------------------------------------------------------------------------
# 8. Signedness is a property of how bits are compared, not stored.

_TOP = 0xFFFFFFFF


def _branch_result(src, x_word):
    p = parse_program(src)
    out = ceval_fixed(100, typecheck(p), Store({"x": x_word}))
    assert isinstance(out, Done)
    ref = word32(out.store.get("y"))
    sim = simulate(codegen(p), init={"x": x_word})
    assert isinstance(sim, Halted)
    assert sim["y"] == ref
    return ref


def test_08_signedness_discrimination():
    with _within(5):
        unsigned = (
            "var x: u32; var y: u32;\n"
            "if x <= 0 then y := 1 else y := 2 end"
        )
        signed_view = (
            "var x: u32; var y: u32;\n"
            "if i32(x) <= 0 then y := 1 else y := 2 end"
        )
        # 0xFFFFFFFF is huge unsigned but reads as -1 through the cast
        assert _branch_result(unsigned, _TOP) == 2
        assert _branch_result(signed_view, _TOP) == 1

        mixed = parse_program(
            "var a: i32; var b: u32;\nif a <= b then skip else skip end"
        )
        with pytest.raises(TypeMismatch):
            typecheck(mixed)


# ---------------------------------------------------------------------------
# 9. Both printers are inverses of their parsers.


def test_09_round_trips():
    with _within(30):
        assert CORPUS, "example corpus missing"
        fuzz = [gen_program(GenSpec(seed=s)) for s in range(300)]
        fuzz += [gen_program(GenSpec(seed=s, typed=True)) for s in range(300)]

        for path in CORPUS:
            p = parse_program(path.read_text())
            assert parse_program(pretty(p)) == p, path.name
        for p in fuzz:
            assert parse_program(pretty(p)) == p

        compiled = []
        for path in CORPUS:
            p = parse_program(path.read_text())
            for strategy in ("naive", "regalloc"):
                compiled.append(codegen(p, strategy=strategy, emulate_mul=True))
        for p in fuzz[:100] + fuzz[300:400]:
            for strategy in ("naive", "regalloc"):
                compiled.append(codegen(p, strategy=strategy, emulate_mul=True))
        for m in compiled:
            assert parse_asm(emit_asm(m)) == m
