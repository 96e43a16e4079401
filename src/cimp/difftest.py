"""Differential execution of generated programs across engines.

Each case runs every selected engine on the same program and initial
store and compares canonical outcomes: the exact final store of an
untyped program, the declared names' 32-bit words of a typed one.
Divergence is data, not an error: it lands in the report.

``DEFAULT_ENGINES`` is the one engine table: ``cimp run`` calls one
entry and ``cimp fuzz`` (``run_diff``) several.  Every engine runs
typed and untyped programs alike, and the engines of one case share one
typecheck of a typed program, as ``compile_program`` and ``codegen``
accept a ``TypedProgram``.

Engines:
    bigstep     ``semantics.run_fueled`` with the ``BIG_STEP`` cost table
    smallstep   ``semantics.run_fueled`` with the ``SMALL_STEP`` cost table
    stackvm     stack-machine compile + fueled VM (word mode when typed)
    mips        codegen + instruction-level simulator (``cimp run``
                takes untyped programs too; ``cimp fuzz`` typed only,
                where the generator's values fit 32 bits)
    mips-su     the same with Sethi-Ullman register allocation
                (``--regalloc su``), which keeps values in registers
"""

from __future__ import annotations

import random
from dataclasses import replace
from functools import partial
from typing import Callable, Optional

from .frontend import pretty
from .generator import GenSpec, fuel_bound, gen_program
from .mips import Halted, Trap, codegen, simulate
from .semantics import BIG_STEP, SMALL_STEP, Done, Store, run_fueled
from .stack_machine import MachineError, compile_program, vm_exec
from .syntax import Program, frozen
from .typecheck import TypedProgram, to_signed, typecheck, word32

ENGINE_NAMES = ("bigstep", "smallstep", "stackvm", "mips", "mips-su")
# they wrap at 32 bits, so cimp fuzz runs them on typed generation only
_WORD_ENGINES = ("mips", "mips-su")

# outcome: ("done", comparable) | ("out_of_fuel", None) | ("error", reason)
Outcome = tuple
Engine = Callable[[Program, Store, int, int], Outcome]


@frozen
class Divergence:
    index: int
    program: str
    store: Store
    outputs: dict


@frozen
class DiffReport:
    cases: int
    agreements: int
    divergences: int
    skipped: int
    tallies: dict
    first_divergence: Optional[Divergence]

    @property
    def ok(self) -> bool:
        return self.divergences == 0 and self.skipped == 0


def _outcome(p: Program, out) -> Outcome:
    """A fueled run's result (Done, OutOfFuel or MachineError) as an
    outcome; a typed program's store reads as its declared words."""
    if isinstance(out, Done):
        if p.typed:
            return ("done", {name: word32(out.store.get(name)) for name, _ in p.decls})
        return ("done", out.store)
    if isinstance(out, MachineError):
        return ("error", out.reason)
    return ("out_of_fuel", None)


# The typing of the last typed program an engine ran, so that the
# engines of one case share one typecheck.  It holds p itself through
# tp.program, so id(p) cannot be reused while the entry lives, and
# ``tp.program is p`` is an exact test.
_last_typing: Optional[TypedProgram] = None


def _source(p: Program) -> Program | TypedProgram:
    """What the engines take: p's shared typing, or p itself if untyped."""
    global _last_typing
    if not p.typed:
        return p
    tp = _last_typing
    if tp is None or tp.program is not p:
        tp = _last_typing = typecheck(p)
    return tp


def _tree_engine(cost) -> Engine:
    def run(p: Program, store: Store, fuel: int, budget: int) -> Outcome:
        types = _source(p)._types if p.typed else None
        return _outcome(p, run_fueled(fuel, p.body, store, types, cost))

    return run


def _eng_mips(p: Program, store: Store, fuel: int, budget: int, strategy="naive") -> Outcome:
    prog = codegen(_source(p), strategy=strategy, emulate_mul=True)
    out = simulate(prog, init=dict(store.items()), budget=budget)
    if isinstance(out, Halted):
        if p.typed:
            return ("done", dict(out.words))
        # untyped values are read as signed words, like i32
        return ("done", {name: to_signed(w) for name, w in out.words.items()})
    if isinstance(out, Trap):
        return ("error", f"trap: {out.reason}")
    return ("out_of_fuel", None)


DEFAULT_ENGINES = {
    "bigstep": _tree_engine(BIG_STEP),
    "smallstep": _tree_engine(SMALL_STEP),
    "stackvm": lambda p, store, fuel, budget: _outcome(
        p, vm_exec(fuel, compile_program(_source(p)), store)
    ),
    "mips": _eng_mips,
    "mips-su": partial(_eng_mips, strategy="regalloc"),
}


def _init_store(rng: random.Random, p: Program, typed: bool) -> Store:
    names = [name for name, _ in p.decls] if p.decls else ["a", "b", "c", "d"]
    bindings = {}
    for name in names:
        if typed:
            bindings[name] = (
                rng.getrandbits(32) if rng.random() < 0.3 else rng.randint(0, 40)
            )
        else:
            bindings[name] = rng.randint(-20, 40)
    return Store(bindings)


def run_diff(
    spec: GenSpec,
    count: int,
    engines: Optional[tuple[str, ...]] = None,
    fail_fast: bool = False,
    impls: Optional[dict[str, Engine]] = None,
    budget: int = 10**7,
) -> DiffReport:
    """Generate count cases from spec and compare engine outcomes."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    names = tuple(engines or (n for n in ENGINE_NAMES if spec.typed or n not in _WORD_ENGINES))
    for i, name in enumerate(names):
        if name not in ENGINE_NAMES:
            raise ValueError(f"unknown engine {name!r}")
        if name in names[:i]:
            raise ValueError(f"engine {name} named twice")
        if name in _WORD_ENGINES and not spec.typed:
            raise ValueError(f"engine {name} requires typed generation")
    table = dict(DEFAULT_ENGINES)
    if impls:
        table.update(impls)

    rng = random.Random(spec.seed)
    fuel = fuel_bound(spec)
    cases = agreements = divergences = skipped = 0
    tallies: dict[str, dict[str, int]] = {n: {} for n in names}
    first: Optional[Divergence] = None

    for index in range(count):
        case_seed = rng.getrandbits(64)
        program = gen_program(replace(spec, seed=case_seed))
        store = _init_store(rng, program, spec.typed)
        outputs = {}
        for name in names:
            out = table[name](program, store, fuel, budget)
            outputs[name] = out
            kind = out[0]
            tallies[name][kind] = tallies[name].get(kind, 0) + 1
        cases += 1
        if len(_distinct(outputs.values())) == 1:
            agreements += 1
            continue
        divergences += 1
        if first is None:
            first = Divergence(index, pretty(program), store, outputs)
        if fail_fast:
            break

    return DiffReport(cases, agreements, divergences, skipped, tallies, first)


def _distinct(outcomes) -> list:
    seen: list = []
    for o in outcomes:
        if o not in seen:
            seen.append(o)
    return seen
