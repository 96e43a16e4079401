import pytest

import cimp.difftest
import cimp.typecheck
from cimp.difftest import ENGINE_NAMES, DiffReport, run_diff
from cimp.generator import GenSpec
from cimp.mips import Halted, Trap, codegen, simulate
from cimp.semantics import Done
from cimp.stack_machine import Ibranch, MachineError, StackProgram, compile_program, vm_exec
from cimp.typecheck import ceval_fixed, typecheck, word32


def _invariant(report: DiffReport):
    assert report.agreements + report.divergences + report.skipped == report.cases


def test_single_engine_always_agrees():
    report = run_diff(GenSpec(seed=1), 25, engines=("bigstep",))
    assert report.cases == 25
    assert report.agreements == 25
    assert report.ok
    _invariant(report)


def test_untyped_three_engine_agreement():
    report = run_diff(GenSpec(seed=2026), 300)
    assert report.cases == 300
    assert report.divergences == 0
    assert report.first_divergence is None
    assert report.tallies["bigstep"].get("done", 0) > 0
    _invariant(report)


def test_typed_reference_vs_mips_agreement():
    report = run_diff(GenSpec(seed=31, typed=True), 150, engines=("bigstep", "mips"))
    assert report.cases == 150
    assert report.divergences == 0
    assert set(report.tallies) == {"bigstep", "mips"}
    _invariant(report)


def test_reports_are_deterministic():
    a = run_diff(GenSpec(seed=9), 40)
    b = run_diff(GenSpec(seed=9), 40)
    assert a == b


def test_default_engine_names():
    # every engine runs typed cases; mips wraps at 32 bits, so untyped
    # generation leaves it out
    assert tuple(run_diff(GenSpec(seed=0), 1).tallies) == ("bigstep", "smallstep", "stackvm")
    typed = run_diff(GenSpec(seed=31, typed=True), 150)
    assert tuple(typed.tallies) == ENGINE_NAMES
    assert typed.divergences == 0


def test_mips_su_engine_agrees_on_typed_cases():
    # su keeps values in registers, so its code, and its translated
    # blocks, differ from the naive strategy's
    report = run_diff(GenSpec(seed=31, typed=True), 150, engines=("bigstep", "mips-su"))
    assert report.divergences == 0
    assert report.tallies["mips-su"] == report.tallies["bigstep"]
    with pytest.raises(ValueError, match="engine mips-su requires typed generation"):
        run_diff(GenSpec(seed=0), 1, engines=("bigstep", "mips-su"))


def test_engine_validation():
    with pytest.raises(ValueError):
        run_diff(GenSpec(seed=0), 1, engines=("warp",))
    with pytest.raises(ValueError):
        run_diff(GenSpec(seed=0), 1, engines=("bigstep", "mips"))
    with pytest.raises(ValueError, match="engine stackvm named twice"):
        run_diff(GenSpec(seed=0), 1, engines=("stackvm", "bigstep", "stackvm"))
    with pytest.raises(ValueError):
        run_diff(GenSpec(seed=0), -1)


def _offbyone_stackvm(p, store, fuel, budget):
    """Correct pipeline except the loop back-branch lands one early."""
    prog = compile_program(p)
    code = list(prog.code)
    backward = [
        i for i, instr in enumerate(code) if isinstance(instr, Ibranch) and instr.delta < 0
    ]
    if backward:
        i = backward[-1]
        code[i] = Ibranch(code[i].delta + 1)
    out = vm_exec(fuel, StackProgram(tuple(code)), store)
    if isinstance(out, Done):
        return ("done", out.store)
    if isinstance(out, MachineError):
        return ("error", out.reason)
    return ("out_of_fuel", None)


def test_mutated_engine_is_caught():
    report = run_diff(
        GenSpec(seed=99),
        80,
        engines=("bigstep", "stackvm"),
        impls={"stackvm": _offbyone_stackvm},
    )
    _invariant(report)
    assert report.divergences >= 1
    witness = report.first_divergence
    assert witness is not None
    assert "while" in witness.program
    assert witness.outputs["bigstep"] != witness.outputs["stackvm"]


def test_fail_fast_stops_at_first_divergence():
    report = run_diff(
        GenSpec(seed=99),
        80,
        engines=("bigstep", "stackvm"),
        impls={"stackvm": _offbyone_stackvm},
        fail_fast=True,
    )
    _invariant(report)
    assert report.divergences == 1
    assert report.cases < 80


def test_zero_cases():
    report = run_diff(GenSpec(seed=4), 0)
    assert report == DiffReport(0, 0, 0, 0, {n: {} for n in ENGINE_NAMES[:3]}, None)


def _plain_bigstep(p, store, fuel, budget):
    out = ceval_fixed(fuel, typecheck(p), store)
    if isinstance(out, Done):
        return ("done", {name: word32(out.store.get(name)) for name, _ in p.decls})
    return ("out_of_fuel", None)


def _plain_mips(p, store, fuel, budget):
    out = simulate(codegen(p, emulate_mul=True), init=dict(store.items()), budget=budget)
    if isinstance(out, Halted):
        return ("done", dict(out.words))
    if isinstance(out, Trap):
        return ("error", f"trap: {out.reason}")
    return ("out_of_fuel", None)


def test_typed_case_is_typechecked_once(monkeypatch):
    spec = GenSpec(seed=7, typed=True)
    # engines given as plain (p, store, fuel, budget) callables still run
    plain = run_diff(spec, 50, impls={"bigstep": _plain_bigstep, "mips": _plain_mips})
    checked = []

    def counting(p, *formulas):
        checked.append(p)
        return typecheck(p, *formulas)

    monkeypatch.setattr(cimp.difftest, "typecheck", counting)
    monkeypatch.setattr(cimp.typecheck, "typecheck", counting)
    report = run_diff(spec, 50)
    assert len(checked) == len({id(p) for p in checked}) == 50
    assert report == plain
    assert report.cases == 50 and report.ok
