"""Tests of the benchmark itself: every workload end to end at a small
size, and every oracle shown a corrupted output.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cimp_calls import Cimp, argv  # noqa: E402
from oracles import Failed, Wrong, check, from_cli  # noqa: E402

QUICK = {
    "TRI_N": 12, "FIB_N": 10, "GCD_M": 9, "MUL_X": 3, "MUL_Y": 4,
    "LCG_N": 5, "XORSHIFT_N": 6, "COUNTDOWN_N": 7,
    "SEQ_LEN": 20, "CHAIN_STMTS": 2, "CHAIN_TERMS": 12, "TREE_DEPTH": 4, "NEST_BLOCKS": 3,
    "CHAIN_IFS": (3,), "FUZZ_CHUNKS": 1, "FUZZ_UNTYPED": 4, "FUZZ_TYPED": 3,
}


@pytest.fixture
def quick(monkeypatch, tmp_path):
    for name, value in QUICK.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


@pytest.fixture(scope="module")
def api():
    return Cimp()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_quick_timed_run(quick, name):
    result = run.timed_run(name, 3, 0.0, quick / "work")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert set(metrics) == {"wall_s", "cmd_p50_ms", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in metrics.values())


def test_quick_traced_run(quick):
    result = run.traced_run(3, 0.0, quick / "work")
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    for group in (run.SELF_TIME, run.COUNTS, run.RATES):
        assert set(group) - {"difftest.run_diff_s"} <= set(metrics)
    assert "difftest.engine_s" in metrics
    assert (quick / "spans-3.json").is_file()
    assert metrics["difftest.cases"]["value"] == QUICK["FUZZ_CHUNKS"] * (
        QUICK["FUZZ_UNTYPED"] + QUICK["FUZZ_TYPED"])
    # every layer is reached by some workload
    assert all(m["value"] > 0 for k, m in metrics.items() if k != "regalloc.spills")


def _result(api, cmd):
    code, out, err, _ = api.cli(argv(cmd))
    return from_cli(cmd, code, out, err)


def _program(tmp_path, text: str) -> str:
    path = tmp_path / "p.imp"
    path.write_text(text)
    return str(path)


def test_run_oracle_rejects_a_wrong_store(api, tmp_path):
    cmd = workloads.Cmd("run", _program(tmp_path, "x := 2 + 3"), {"engine": "bigstep", "opt": 0},
                        workloads.Expect(store={"x": 5}))
    check(cmd, _result(api, cmd))
    with pytest.raises(Wrong):
        check(cmd, {"x": 6})
    with pytest.raises(Failed):
        from_cli(cmd, 0, "out of fuel\n", "")
    with pytest.raises(Failed):
        from_cli(cmd, 2, "", "internal error: RecursionError")


def test_mips_words_compare_mod_2_32(api, tmp_path):
    cmd = workloads.Cmd("run", _program(tmp_path, "x := 0 - 1"), {"engine": "mips", "opt": 0},
                        workloads.Expect(store={"x": -1}))
    check(cmd, _result(api, cmd))
    with pytest.raises(Wrong):
        check(cmd, {"x": 1})


@pytest.mark.parametrize("backend,good,bad", [
    ("stack", "IADD", "ISUB"),
    ("naive", "li $t0, 3", "li $t0, 4"),
    ("su", "li $t1, 3", "li $t1, 4"),
])
def test_compile_oracles_reject_corrupted_code(api, tmp_path, backend, good, bad):
    cmd = workloads.Cmd("compile", _program(tmp_path, "x := 2 + 3;\ny := x * 3"),
                        {"backend": backend, "opt": 0}, workloads.Expect(store={"x": 5, "y": 15}))
    text = _result(api, cmd)
    check(cmd, text)
    assert good in text
    with pytest.raises(Wrong):
        check(cmd, text.replace(good, bad, 1))


def test_stack_interpreter_counts_what_the_vm_spends(api, tmp_path):
    p = api.frontend.parse_program("i := 0; while i < 7 do i := i + 1 done")
    prog = api.stack.compile_program(p)
    store, count = oracles.stack_run(api.stack.listing(prog))
    empty = api.semantics.Store({})
    assert store == {"i": 7}
    assert isinstance(api.stack.vm_exec(count, prog, empty), api.semantics.Done)
    assert not isinstance(api.stack.vm_exec(count - 1, prog, empty), api.semantics.Done)


def test_typecheck_oracle_rejects_a_wrong_type(api, tmp_path):
    decls = (("a", "u32"), ("b", "i32"))
    cmd = workloads.Cmd("typecheck", _program(tmp_path, "var a: u32;\nvar b: i32;\na := 1"), {},
                        workloads.Expect(decls=decls))
    check(cmd, _result(api, cmd))
    with pytest.raises(Wrong):
        check(cmd, [("a", "u32"), ("b", "u32")])


def _verify_cmds(tmp_path):
    cmds = workloads.build("verify", 5, tmp_path / "verify")
    return {Path(c.file).stem + ("-smt" if "smt2" in c.opts else ""): c for c in cmds}


def test_vc_oracle_rejects_wrong_verdicts(api, tmp_path):
    cmds = _verify_cmds(tmp_path)
    good = cmds["count"]
    check(good, _result(api, good))
    with pytest.raises(Wrong):
        check(good, (1, [("vc_0_top", "counterexample", {"x": 1})]))

    bad = cmds["count-wrong"]
    code, verdicts = _result(api, bad)
    check(bad, (code, verdicts))
    assert code == 1 and any(word == "counterexample" for _, word, _ in verdicts)
    with pytest.raises(Wrong):  # a store that falsifies none of the obligations
        check(bad, (1, [("vc_1_preservation", "counterexample", {"x": 100})]))
    with pytest.raises(Wrong):
        check(bad, (0, [("vc_0_top", "valid", {})]))


def test_smt_oracle_rejects_malformed_scripts(api, tmp_path):
    cmd = _verify_cmds(tmp_path)["transfer-smt"]
    scripts = _result(api, cmd)
    check(cmd, scripts)
    script = next(s for s in scripts if "declare-const x" in s)
    for corrupt in (script.replace("(check-sat)", ""),
                    script.replace("(assert", "((assert"),
                    script.replace("(declare-const x Int)", ""),
                    script.replace("(declare-const x Int)", "(declare-const x Int)\n" * 2)):
        with pytest.raises(Wrong):
            oracles.check_smt(corrupt, cmd.expect.names)


def test_fuzz_oracle_rejects_divergence_and_fuel(api):
    opts = {"seed": 11, "count": 5, "typed": False, "engines": "bigstep,smallstep,stackvm"}
    cmd = workloads.Cmd("fuzz", "", opts, workloads.Expect())
    report = _result(api, cmd)
    check(cmd, report)
    with pytest.raises(Wrong):
        check(cmd, {**report, "agreements": 4, "divergences": 1})
    with pytest.raises(Wrong):
        check(cmd, {**report, "tallies": {**report["tallies"], "stackvm": {"done": 4, "error": 1}}})
    with pytest.raises(Failed):
        from_cli(cmd, 1, "  smallstep: done=4 out_of_fuel=1\n", "")


def test_generated_programs_parse_and_stay_in_range(api):
    import random

    for shape in ("seq", "chain", "nested"):
        for typed in (False, True):
            prog, store = workloads.generate(random.Random(7), shape, typed)
            text = workloads.program_text(prog)
            assert api.frontend.parse_program(text).typed == typed
            if not typed:
                assert all(-(1 << 31) <= v < 1 << 31 for v in store.values())
