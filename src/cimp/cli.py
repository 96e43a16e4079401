"""The cimp command-line driver.

Exit codes: 0 on success, 1 on user error (bad flags, unreadable input,
parse/type errors, failed bounded verification, fuzz divergence), 2 on
an internal invariant violation.  Located failures render one line to
standard error as ``FILE:line:col: error: message``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Optional

from .difftest import DEFAULT_ENGINES, ENGINE_NAMES, run_diff
from .errors import CimpError
from .frontend import parse_assertion_text, parse_program
from .generator import GenSpec
from .hoare import (
    Counterexample,
    HoareTriple,
    Valid,
    bounded_check,
    emit_smtlib,
    solve_smtlib,
    vcgen,
)
from .mips import Ins, codegen, emit_asm
from .optimizer import OPT_LEVELS, optimize
from .semantics import Store, parse_store
from .stack_machine import compile_program, listing
from .syntax import ATrue, Program, Ty
from .typecheck import to_signed, typecheck

BACKENDS = ("stack", "mips")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # user errors must exit 1, not argparse's default 2
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it as is."""
    parser = _Parser(prog="cimp", description="imp compiler toolchain")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    c = sub.add_parser("compile", help="compile to stack-machine or MIPS text")
    c.add_argument("file")
    c.add_argument("--backend", choices=BACKENDS, default="stack")
    c.add_argument("--regalloc", choices=("naive", "su"), default=None)
    c.add_argument("--emulate-mul", action="store_true")
    c.add_argument("-O", dest="opt", type=int, choices=OPT_LEVELS, default=0)
    c.add_argument("-o", dest="output", default=None)

    r = sub.add_parser("run", help="execute a program and print its final store")
    r.add_argument("file")
    r.add_argument("--engine", choices=ENGINE_NAMES, default="bigstep")
    r.add_argument("--fuel", type=int, default=10**6)
    r.add_argument("--budget", type=int, default=10**7)
    r.add_argument("--store-in", dest="store_in", default=None)
    r.add_argument("-O", dest="opt", type=int, choices=OPT_LEVELS, default=0)

    v = sub.add_parser("vc", help="generate and check verification conditions")
    v.add_argument("file")
    v.add_argument("--post", required=True)
    v.add_argument("--pre", default=None)
    mode = v.add_mutually_exclusive_group(required=True)
    mode.add_argument("--smt2", metavar="DIR", default=None)
    mode.add_argument("--bounded-check", dest="bounded", type=int, default=None)

    t = sub.add_parser("typecheck", help="check declarations and print the typing")
    t.add_argument("file")

    f = sub.add_parser("fuzz", help="differential-test engines on generated programs")
    f.add_argument("--seed", type=int, required=True)
    f.add_argument("--count", type=int, required=True)
    f.add_argument("--engines", default=None)
    f.add_argument("--typed", action="store_true")
    f.add_argument("--fail-fast", dest="fail_fast", action="store_true")

    b = sub.add_parser("bench", help="compare code size across levels and backends")
    b.add_argument("file")

    return parser


def _check_usage(args) -> None:
    """The flag rules that argparse cannot state."""
    if args.subcommand == "compile" and args.backend != "mips":
        if args.regalloc is not None:
            raise _UsageError("--regalloc applies to the mips backend only")
        if args.emulate_mul:
            raise _UsageError("--emulate-mul applies to the mips backend only")
    if args.subcommand == "run":
        if args.fuel < 0:
            raise _UsageError("--fuel must be nonnegative")
        if args.budget < 0:
            raise _UsageError("--budget must be nonnegative")


def _diagnostic(path: Optional[str], err: CimpError) -> str:
    where = err.source or path or "cimp"
    if err.pos is not None:
        where = f"{where}:{err.pos.line}:{err.pos.col}"
    return f"{where}: error: {err.msg}"


def _read_program(path: str) -> Program:
    return parse_program(Path(path).read_text())


def _store_lines(p: Program, values) -> str:
    """One ``name=value`` line per binding, names sorted; i32 words print signed."""
    env = dict(p.decls)
    return "".join(
        f"{name}={to_signed(v) if env.get(name) is Ty.I32 else v}\n"
        for name, v in sorted(values.items())
    )


def _optimized(p: Program, level: int) -> Program:
    """p at -O level.  A typed program is typechecked first: -O drops
    terms and branches by value, and would drop a type error with them."""
    if p.typed:
        typecheck(p)
    return optimize(p, level)


def _cmd_compile(args) -> int:
    p = _optimized(_read_program(args.file), args.opt)
    if args.backend == "stack":
        text = listing(compile_program(p))
    else:
        strategy = "regalloc" if args.regalloc == "su" else "naive"
        text = emit_asm(codegen(p, strategy=strategy, emulate_mul=args.emulate_mul))
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_run(args) -> int:
    p = _read_program(args.file)
    store = Store({})
    if args.store_in:
        store = parse_store(Path(args.store_in).read_text())
    p = _optimized(p, args.opt)
    kind, value = DEFAULT_ENGINES[args.engine](p, store, args.fuel, args.budget)
    if kind == "done":
        sys.stdout.write(_store_lines(p, value))
        return 0
    if kind == "out_of_fuel":
        print("budget exhausted" if args.engine.startswith("mips") else "out of fuel")
        return 0
    print(f"internal error: {value}", file=sys.stderr)
    return 2


def _flag_formula(flag: str, text: str, p: Program):
    """A --pre/--post formula, typed like an invariant in a typed program.

    Its errors are located in the flag's text, not in the program file.
    """
    try:
        f = parse_assertion_text(text)
        if p.typed:
            typecheck(p, f)
        return f
    except CimpError as err:
        err.source = flag
        raise


def _cmd_vc(args) -> int:
    p = _read_program(args.file)
    if p.typed:
        typecheck(p)
    pre = _flag_formula("--pre", args.pre, p) if args.pre else ATrue()
    post = _flag_formula("--post", args.post, p)
    vcs = vcgen(HoareTriple(pre, p.body, post))

    if args.smt2 is not None:
        os.makedirs(args.smt2, exist_ok=True)
        solver = os.environ.get("CIMP_SMT_SOLVER")
        for i, vc in enumerate(vcs):
            name = f"vc_{i}_{vc.origin}"
            script = emit_smtlib(vc)
            target = Path(args.smt2) / f"{name}.smt2"
            target.write_text(script)
            if solver:
                print(f"{name}: {solve_smtlib(script, solver)}")
            else:
                print(f"{name}: wrote {target}")
        return 0

    failed = 0
    for i, vc in enumerate(vcs):
        name = f"vc_{i}_{vc.origin}"
        result = bounded_check(vc, args.bounded)
        if isinstance(result, Valid):
            print(f"{name}: valid")
        else:
            assert isinstance(result, Counterexample)
            inline = " ".join(f"{k}={v}" for k, v in sorted(result.store.items()))
            print(f"{name}: counterexample {inline}")
            failed += 1
    return 1 if failed else 0


def _cmd_typecheck(args) -> int:
    p = _read_program(args.file)
    if not p.typed:
        raise CimpError("typecheck needs a fully annotated program (var x: i32; ...)")
    typecheck(p)
    for name, ty in p.decls:
        print(f"{name}: {ty}")
    return 0


def _describe(outcome: tuple) -> str:
    kind = outcome[0]
    if kind == "done":
        value = outcome[1]
        items = sorted(value.items()) if hasattr(value, "items") else value
        return "done " + " ".join(f"{k}={v}" for k, v in items)
    if kind == "out_of_fuel":
        return "out of fuel"
    return f"error: {outcome[1]}"


def _cmd_fuzz(args) -> int:
    engines = None
    if args.engines:
        engines = tuple(name.strip() for name in args.engines.split(",") if name.strip())
    spec = GenSpec(seed=args.seed, typed=args.typed)
    report = run_diff(spec, args.count, engines=engines, fail_fast=args.fail_fast)
    print(f"cases run: {report.cases}")
    print(f"agreements: {report.agreements}")
    print(f"divergences: {report.divergences}")
    print(f"skipped: {report.skipped}")
    for engine in report.tallies:
        counts = " ".join(f"{k}={n}" for k, n in sorted(report.tallies[engine].items()))
        print(f"  {engine}: {counts or 'no cases'}")
    if report.first_divergence is not None:
        d = report.first_divergence
        print(f"first divergence at case {d.index}:")
        for line in d.program.splitlines():
            print(f"  {line}")
        inline = " ".join(f"{k}={v}" for k, v in sorted(d.store.items()))
        print(f"  store: {inline}")
        for engine, outcome in d.outputs.items():
            print(f"  {engine}: {_describe(outcome)}")
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    p = _read_program(args.file)

    def size(fn) -> str:
        try:
            return str(fn())
        except CimpError:
            return "-"

    def mips_size(q: Program, strategy: str) -> int:
        prog = codegen(q, strategy=strategy, emulate_mul=True)
        return sum(isinstance(item, Ins) for item in prog.text)

    optimized = [_optimized(p, level) for level in OPT_LEVELS]
    print(f"{'level':>5}  {'stack':>5}  {'mips-naive':>10}  {'mips-su':>7}")
    for level, q in zip(OPT_LEVELS, optimized):
        stack = size(lambda: len(compile_program(q).code))
        naive = size(lambda: mips_size(q, "naive"))
        su = size(lambda: mips_size(q, "regalloc"))
        print(f"{level:>5}  {stack:>5}  {naive:>10}  {su:>7}")
    return 0


_COMMANDS = {
    "compile": _cmd_compile,
    "run": _cmd_run,
    "vc": _cmd_vc,
    "typecheck": _cmd_typecheck,
    "fuzz": _cmd_fuzz,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_usage(args)
        return _COMMANDS[args.subcommand](args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except CimpError as err:
        print(_diagnostic(getattr(args, "file", None), err), file=sys.stderr)
        return 1
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # pragma: no cover - exit-2 safety net
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
