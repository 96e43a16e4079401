"""Every call the benchmark makes into cimp.

The timed runs go through the CLI, `cimp.cli.main(argv)`, in-process with
standard output and error captured.  The traced run replays the same
commands through the public functions the CLI calls, one span per call
nested under one span per command.  Two layers are only reachable from
inside another call (register allocation inside `codegen`, program
generation inside `run_diff`); for the traced run they are wrapped where
their callers look them up, and restored afterwards.  A change to cimp's
API should need edits here only.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
import time
import typing

from oracles import Failed, Wrong, stack_run

FUEL, BUDGET = 10**6, 10**7  # the CLI's defaults for --fuel and --budget


def argv(cmd) -> list[str]:
    o = cmd.opts
    if cmd.kind == "run":
        return ["run", cmd.file, "--engine", o["engine"], "-O", str(o["opt"])]
    if cmd.kind == "compile":
        back = [] if o["backend"] == "stack" else [
            "--backend", "mips", "--regalloc", o["backend"], "--emulate-mul"]
        return ["compile", cmd.file, "-O", str(o["opt"])] + back
    if cmd.kind == "typecheck":
        return ["typecheck", cmd.file]
    if cmd.kind == "vc":
        pre = ["--pre", o["pre"]] if o["pre"] else []
        mode = ["--smt2", o["smt2"]] if o.get("smt2") else ["--bounded-check", str(o["bound"])]
        return ["vc", cmd.file, "--post", o["post"]] + pre + mode
    typed = ["--typed"] if o["typed"] else []
    return ["fuzz", "--seed", str(o["seed"]), "--count", str(o["count"]),
            "--engines", o["engines"]] + typed


class Cimp:
    """A fresh import of cimp; constructing one is the import cost."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "cimp" or m.startswith("cimp.")]:
            del sys.modules[name]
        # typing caches the Union aliases of the dropped import, which keep
        # its modules alive; a fresh process starts with them empty too
        for clear in getattr(typing, "_cleanups", ()):
            clear()
        mod = importlib.import_module
        self.main = mod("cimp.cli").main
        self.frontend = mod("cimp.frontend")
        self.syntax = mod("cimp.syntax")
        self.semantics = mod("cimp.semantics")
        self.optimizer = mod("cimp.optimizer")
        self.stack = mod("cimp.stack_machine")
        self.typecheck = mod("cimp.typecheck")
        self.mips = mod("cimp.mips")
        self.mips_codegen = mod("cimp.mips.codegen")
        self.regalloc = mod("cimp.regalloc")
        self.hoare = mod("cimp.hoare")
        self.generator = mod("cimp.generator")
        self.difftest = mod("cimp.difftest")
        self.tr = None
        self._later: list = []  # counts to take once the command's spans are closed
        self._vm_counts: dict = {}

    # -- timed path: the CLI -------------------------------------------------

    def cli(self, args: list[str]) -> tuple[int, str, str, float]:
        """(exit code, stdout, stderr, seconds) of one `cimp` command."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = self.main(args)
            seconds = time.perf_counter() - start
        return code, out.getvalue(), err.getvalue(), seconds

    # -- traced path: the public functions ------------------------------------

    @contextlib.contextmanager
    def traced(self, tracer):
        """Route replays through tracer, wrapping the two inner layers."""
        self.tr = tracer
        saved = (self.mips_codegen.alloc_codegen, self.difftest.gen_program)
        spill, node_count = self.regalloc.Spill, self.syntax.node_count

        def alloc_codegen(e, k):
            with tracer.span("regalloc.alloc"):
                code = saved[0](e, k)
            self._later.append(lambda: tracer.count(
                "regalloc.spills", sum(isinstance(i, spill) for i in code)))
            return code

        def gen_program(spec):
            with tracer.span("generator.gen"):
                p = saved[1](spec)
            self._later.append(lambda: tracer.count("generator.ast_nodes", node_count(p.body)))
            return p

        self.mips_codegen.alloc_codegen = alloc_codegen
        self.difftest.gen_program = gen_program
        try:
            yield
        finally:
            self.mips_codegen.alloc_codegen, self.difftest.gen_program = saved
            self.tr = None

    def replay(self, cmd):
        """Run cmd through the public functions; returns the same plain form
        `oracles.from_cli` makes of the CLI's output."""
        try:
            with self.tr.span("command." + cmd.kind):
                return getattr(self, "_replay_" + cmd.kind)(cmd)
        finally:
            for count in self._later:
                count()
            self._later.clear()

    def _parse(self, text: str, assertion: bool = False):
        f = self.frontend
        with self.tr.span("frontend.lex"):
            tokens = f.lex(text)
        self.tr.count("frontend.tokens", len(tokens))
        with self.tr.span("frontend.parse"):
            return f.parse_assertion(tokens) if assertion else f.parse(tokens)

    def _load(self, cmd):
        with open(cmd.file) as fh:
            p = self._parse(fh.read())
        with self.tr.span("optimizer.optimize"):
            q = self.optimizer.optimize(p, cmd.opts.get("opt", 0))
        if q is not p:
            self.tr.count("optimizer.nodes_in", self.syntax.node_count(p.body))
            self.tr.count("optimizer.nodes_out", self.syntax.node_count(q.body))
        return q

    def _codegen(self, p, strategy: str):
        name = "su" if strategy == "regalloc" else "naive"
        with self.tr.span("mips.codegen_" + name):
            prog = self.mips.codegen(p, strategy=strategy, emulate_mul=True)
        ins, tr = self.mips.Ins, self.tr
        self._later.append(lambda: tr.count(
            "mips.text_instrs_" + name, sum(isinstance(i, ins) for i in prog.text)))
        return prog

    def _stack_compile(self, p):
        with self.tr.span("stack_machine.compile"):
            prog = self.stack.compile_program(p)
        self.tr.count("stack_machine.code_instrs", len(prog.code))
        return prog

    def _stack_exec(self, prog, store):
        with self.tr.span("stack_machine.vm"):
            out = self.stack.vm_exec(FUEL, prog, store)
        self._later.append(lambda: self.tr.count(
            "stack_machine.vm_instrs", self._vm_instrs(prog, store)))
        return out

    def _vm_instrs(self, prog, store) -> int:
        """Instructions the VM executes, counted by the benchmark's own
        stack interpreter (cached: the same code runs every round)."""
        text = self.stack.listing(prog)
        init = dict(store.items())
        key = (text, tuple(sorted(init.items())))
        if key not in self._vm_counts:
            self._vm_counts[key] = stack_run(text, init)[1]
        return self._vm_counts[key]

    def _replay_run(self, cmd):
        p = self._load(cmd)
        sem, tc, engine = self.semantics, self.typecheck, cmd.opts["engine"]
        empty = sem.Store({})
        if engine == "mips":
            prog = self._codegen(p, "naive")
            with self.tr.span("mips.sim"):
                out = self.mips.simulate(prog, init={}, budget=BUDGET)
            if isinstance(out, self.mips.BudgetExhausted):
                raise Failed("budget exhausted")
            if not isinstance(out, self.mips.Halted):
                raise Failed(f"trap: {out.reason}")
            return dict(out.words)
        if p.typed:
            with self.tr.span("typecheck.check"):
                tp = tc.typecheck(p)
            with self.tr.span("typecheck.fixed_exec"):
                out = tc.ceval_fixed(FUEL, tp, empty)
        elif engine == "bigstep":
            with self.tr.span("semantics.bigstep"):
                out = sem.ceval_fuel(FUEL, p.body, empty)
            self.tr.count("semantics.loop_unfoldings", cmd.expect.unfoldings)
        elif engine == "smallstep":
            with self.tr.span("semantics.smallstep"):
                out = sem.run_small(FUEL, p.body, empty)
        else:
            out = self._stack_exec(self._stack_compile(p), empty)
        if not isinstance(out, sem.Done):
            raise Failed(f"{engine}: {out}")
        return dict(out.store.items())

    def _replay_compile(self, cmd):
        p = self._load(cmd)
        with self.tr.span("frontend.pretty"):
            self.frontend.pretty(p)
        backend = cmd.opts["backend"]
        if backend == "stack":
            prog = self._stack_compile(p)
            return self.stack.listing(prog)
        prog = self._codegen(p, "regalloc" if backend == "su" else "naive")
        with self.tr.span("mips.asm_emit"):
            text = self.mips.emit_asm(prog)
        with self.tr.span("mips.asm_parse"):
            back = self.mips.parse_asm(text)
        if back != prog:
            raise Wrong("emitted assembly does not parse back to the same program")
        return text

    def _replay_typecheck(self, cmd):
        with open(cmd.file) as fh:
            p = self._parse(fh.read())
        with self.tr.span("typecheck.check"):
            tp = self.typecheck.typecheck(p)
        return [(name, str(tp.env[name])) for name, _ in p.decls]

    def _replay_vc(self, cmd):
        h, o = self.hoare, cmd.opts
        with open(cmd.file) as fh:
            p = self._parse(fh.read())
        pre = self._parse(o["pre"], True) if o["pre"] else self.syntax.ATrue()
        post = self._parse(o["post"], True)
        with self.tr.span("hoare.vcgen"):
            vcs = h.vcgen(h.HoareTriple(pre, p.body, post))
        self.tr.count("hoare.vc_nodes", sum(self.syntax.node_count(vc.formula) for vc in vcs))
        if o.get("smt2"):
            scripts = []
            for vc in vcs:
                with self.tr.span("hoare.smt_emit"):
                    scripts.append(h.emit_smtlib(vc))
                self.tr.count("hoare.smt_bytes", len(scripts[-1]))
            return scripts
        verdicts = []
        for i, vc in enumerate(vcs):
            with self.tr.span("hoare.bounded_check"):
                r = h.bounded_check(vc, o["bound"])
            names = sorted(self.syntax.assertion_vars(vc.formula))
            if isinstance(r, h.Valid):
                self.tr.count("hoare.stores_checked", (2 * o["bound"] + 1) ** len(names))
                verdicts.append((f"vc_{i}", "valid", {}))
            else:
                store = dict(r.store.items())
                self.tr.count("hoare.stores_checked", _rank(names, store, o["bound"]) + 1)
                verdicts.append((f"vc_{i}", "counterexample", store))
        code = 1 if any(word != "valid" for _, word, _ in verdicts) else 0
        return code, verdicts

    def _replay_fuzz(self, cmd):
        o, d = cmd.opts, self.difftest
        spec = self.generator.GenSpec(seed=o["seed"], typed=o["typed"])
        engines = tuple(o["engines"].split(","))
        impls = {name: self._engine(name) for name in engines}
        with self.tr.span("difftest.run_diff"):
            report = d.run_diff(spec, o["count"], engines=engines, impls=impls)
        self.tr.count("difftest.cases", report.cases)
        return {"cases": report.cases, "agreements": report.agreements,
                "divergences": report.divergences, "skipped": report.skipped,
                "tallies": report.tallies}

    def _engine(self, name: str):
        """A fuzz engine built from the public functions `run_diff`'s own
        engines call, with one span per engine call."""
        sem, tc, tr = self.semantics, self.typecheck, self.tr

        def bigstep(p, store, fuel, budget):
            if p.typed:
                with tr.span("typecheck.check"):
                    tp = tc.typecheck(p)
                with tr.span("typecheck.fixed_exec"):
                    out = tc.ceval_fixed(fuel, tp, store)
                if not isinstance(out, sem.Done):
                    return ("out_of_fuel", None)
                return ("done", {n: tc.word32(out.store.get(n)) for n, _ in p.decls})
            with tr.span("semantics.bigstep"):
                out = sem.ceval_fuel(fuel, p.body, store)
            return ("done", out.store) if isinstance(out, sem.Done) else ("out_of_fuel", None)

        def smallstep(p, store, fuel, budget):
            with tr.span("semantics.smallstep"):
                out = sem.run_small(fuel, p.body, store)
            return ("done", out.store) if isinstance(out, sem.Done) else ("out_of_fuel", None)

        def stackvm(p, store, fuel, budget):
            out = self._stack_exec(self._stack_compile(p), store)
            if isinstance(out, sem.Done):
                return ("done", out.store)
            if isinstance(out, self.stack.MachineError):
                return ("error", out.reason)
            return ("out_of_fuel", None)

        def mips(p, store, fuel, budget):
            prog = self._codegen(p, "naive")
            with tr.span("mips.sim"):
                out = self.mips.simulate(prog, init=dict(store.items()), budget=budget)
            if isinstance(out, self.mips.Halted):
                return ("done", dict(out.words))
            if isinstance(out, self.mips.Trap):
                return ("error", out.reason)
            return ("out_of_fuel", None)

        body = {"bigstep": bigstep, "smallstep": smallstep, "stackvm": stackvm, "mips": mips}[name]

        def engine(p, store, fuel, budget):
            with tr.span("difftest.engine"):
                return body(p, store, fuel, budget)

        return engine


def _rank(names: list[str], store: dict, bound: int) -> int:
    """Position of store in bounded_check's enumeration order: names
    sorted, each ranging over -bound..bound, the last one fastest."""
    rank = 0
    for name in names:
        rank = rank * (2 * bound + 1) + store.get(name, 0) + bound
    return rank
