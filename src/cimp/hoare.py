"""Hoare triples, weakest liberal preconditions, and VC generation.

``wlp`` computes the weakest liberal precondition of a command against
a postcondition, collecting side conditions for loops: each annotated
``while`` contributes a preservation VC (invariant and guard imply the
invariant after the body) and an exit VC (invariant and negated guard
imply the local postcondition), and its own wlp is simply the
invariant.  ``vcgen`` prepends the top implication ``pre -> wlp``.
The consequence rule is absorbed into the top and exit implications,
so no dedicated operation exists for it.

``wlp`` reads a sequence back to front in a loop, so its recursion
depth is the nesting of ``if``/``while``, not the number of statements.
A run of assignments becomes one simultaneous substitution, composed
first to last (``sigma[x] := rhs[sigma]``), so the postcondition is
rewritten once per run, not once per assignment.  Substitution shares
every unchanged subtree, so a VC is a DAG, and each fold over it (its
variables, its logic, the SMT printer, the bounded check's compiled
closures) costs its distinct nodes, not its occurrences.  The DAG
itself still grows exponentially with sequential branches, since each
path substitutes different terms; a passive (SSA) encoding would make
it linear but needs ``let`` or fresh constants in the scripts.

Assertions are the formulas that conditions are made of, plus
implication, so a VC holds the program's own condition nodes rather
than copies, and ``semantics.compile_expr`` decides its truth in a store.
They are quantifier-free, so substitution cannot capture, and a VC's
validity means truth in every store over unbounded integers.
Two discharge routes are provided: ``emit_smtlib`` renders a VC as an
SMT-LIB2 script whose unsatisfiability is equivalent to validity, and
``bounded_check`` enumerates all stores over a box [-bound, bound],
which is complete only over that box but entirely self-contained.
"""

from __future__ import annotations

import itertools
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .errors import CimpError, UnsupportedNode
from .semantics import Store, compile_expr
from .syntax import (
    AExpr,
    And,
    Assertion,
    Assign,
    BinOp,
    BitNot,
    BitOp,
    BoolLit,
    Cast,
    Cmp,
    Com,
    If,
    Implies,
    IntLit,
    Neg,
    Not,
    Or,
    Skip,
    Var,
    While,
    children,
    com_vars,
    distinct_nodes,
    literal_value,
    statements,
    transform,
)


class MissingInvariant(CimpError):
    """A loop reachable by vcgen has no invariant annotation."""


class BudgetExceeded(CimpError):
    """bounded_check would enumerate more stores than its cap allows."""


@dataclass(frozen=True)
class HoareTriple:
    pre: Assertion
    com: Com
    post: Assertion


@dataclass(frozen=True)
class VerificationCondition:
    origin: str  # "top", "preservation" or "exit"
    formula: Assertion


@dataclass(frozen=True)
class Valid:
    pass


@dataclass(frozen=True)
class Counterexample:
    store: Store


BoundedResult = Union[Valid, Counterexample]


# ---------------------------------------------------------------------------
# Substitution


def subst_all(a: Assertion, sigma: dict[str, AExpr]) -> Assertion:
    """Simultaneous substitution: each variable named in sigma by its term."""
    return transform(a, lambda n: sigma.get(n.name, n) if type(n) is Var else n)


def _assign_run(q: Assertion, run: list[Assign]) -> Assertion:
    """wlp of a run of assignments, given last first, as one substitution.

    The assignments compose first to last, sigma[x] := rhs[sigma], so the
    postcondition is rewritten once for the whole run.
    """
    if not run:
        return q
    sigma: dict[str, AExpr] = {}
    for a in reversed(run):
        sigma[a.var] = subst_all(a.rhs, sigma)
    return subst_all(q, sigma)


# ---------------------------------------------------------------------------
# wlp and vcgen


def wlp(c: Com, q: Assertion) -> tuple[Assertion, list[VerificationCondition]]:
    """Weakest liberal precondition plus loop side conditions.

    Side conditions appear in program order: obligations of earlier
    commands first, and for a loop the body's own obligations before
    the loop's preservation and exit VCs.
    """
    sides: list[list[VerificationCondition]] = []  # last statement's first
    run: list[Assign] = []  # assignments read since the last other statement
    for s in reversed(statements(c)):
        t = type(s)
        if t is Assign:
            run.append(s)
            continue
        if t is Skip:
            continue
        q, run = _assign_run(q, run), []
        if t is If:
            w1, s1 = wlp(s.then_branch, q)
            w2, s2 = wlp(s.else_branch, q)
            q = And(Implies(s.cond, w1), Implies(Not(s.cond), w2))
            sides.append(s1 + s2)
        elif t is While:
            if s.invariant is None:
                raise MissingInvariant(
                    "loop has no invariant annotation; vcgen requires one", s.pos
                )
            wbody, body_sides = wlp(s.body, s.invariant)
            preservation = VerificationCondition(
                "preservation", Implies(And(s.invariant, s.cond), wbody)
            )
            exit_vc = VerificationCondition(
                "exit", Implies(And(s.invariant, Not(s.cond)), q)
            )
            q = s.invariant
            sides.append(body_sides + [preservation, exit_vc])
        else:
            raise TypeError(f"not a Com: {s!r}")
    return _assign_run(q, run), [vc for group in reversed(sides) for vc in group]


def vcgen(t: HoareTriple) -> list[VerificationCondition]:
    """All proof obligations of the triple: [top implication] + sides."""
    w, sides = wlp(t.com, t.post)
    return [VerificationCondition("top", Implies(t.pre, w))] + sides


# ---------------------------------------------------------------------------
# SMT-LIB2 export

_SMT_OPS = {Neg: "-", Not: "not", And: "and", Or: "or", Implies: "=>"}
_BIT_NODES = (BitOp, BitNot, Cast)
_FORMAT = object()  # stack marker: every subtree of the node below has its text


def _smt_node(n, text) -> str:
    """SMT-LIB2 text of one node, given text(k) for each of its subtrees."""
    t = type(n)
    if t is IntLit:
        return str(n.value)
    if t is Var:
        return n.name
    if t is BoolLit:
        return "true" if n.value else "false"
    if t is Neg or t is Not:
        return f"({_SMT_OPS[t]} {text(n.operand)})"
    op = n.op if t is BinOp or t is Cmp else _SMT_OPS[t]
    return f"({op} {text(n.left)} {text(n.right)})"


def _smt(a: Assertion) -> str:
    """SMT-LIB2 text of a formula, printed from an explicit stack.

    Each distinct node is formatted once, after its subtrees, and its
    text is shared by all its parents.  A text is dropped once its last
    parent has used it, so a long chain does not keep the text of every
    prefix alive.
    """
    order = []  # the distinct nodes, each after its subtrees
    uses: dict[int, int] = {}  # parent edges into each node (one more for a)
    todo = [a]
    while todo:
        n = todo.pop()
        if n is _FORMAT:
            order.append(todo.pop())
        elif id(n) in uses:
            uses[id(n)] += 1
        else:
            if isinstance(n, _BIT_NODES):
                raise UnsupportedNode(
                    "bit-level operators cannot appear in exported assertions", n.pos
                )
            uses[id(n)] = 1
            todo += (n, _FORMAT)
            todo.extend(reversed(children(n)))
    done: dict[int, str] = {}

    def text(k) -> str:
        i = id(k)
        uses[i] -= 1
        return done[i] if uses[i] else done.pop(i)

    for n in order:
        done[id(n)] = _smt_node(n, text)
    return done[id(a)]


def _nonlinear(a: Assertion) -> bool:
    return any(
        type(n) is BinOp and n.op == "*"
        and literal_value(n.left) is None and literal_value(n.right) is None
        for n in distinct_nodes(a)
    )


def emit_smtlib(vc: VerificationCondition) -> str:
    """SMT-LIB2 script; the VC is valid iff the script is unsat."""
    logic = "QF_NIA" if _nonlinear(vc.formula) else "QF_LIA"
    lines = [f"(set-logic {logic})"]
    for v in sorted(com_vars(vc.formula)):
        lines.append(f"(declare-const {v} Int)")
    lines.append(f"(assert (not {_smt(vc.formula)}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def solve_smtlib(script: str, solver: str, timeout: float = 60.0) -> str:
    """Run an external SMT solver on a script; returns its verdict line.

    The solver executable receives the script as a file path argument
    and is expected to print sat/unsat/unknown on the first line.
    """
    with tempfile.NamedTemporaryFile(
        "w", suffix=".smt2", delete=False
    ) as handle:
        handle.write(script)
        path = handle.name
    try:
        proc = subprocess.run(
            [solver, path], capture_output=True, text=True, timeout=timeout
        )
        out = proc.stdout.strip().splitlines()
        return out[0].strip() if out else f"no output (exit {proc.returncode})"
    finally:
        Path(path).unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Bounded enumeration oracle


def bounded_check(
    vc: VerificationCondition, bound: int, budget: int = 10_000_000
) -> BoundedResult:
    """Exhaustive truth check over the box [-bound, bound]^vars.

    Sound and complete only over the enumerated box: Valid here does
    not imply validity over all integers.  Enumeration is ordered
    (variables sorted by name, values ascending), so the first
    counterexample is deterministic.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    names = sorted(com_vars(vc.formula))
    width = 2 * bound + 1
    if width ** len(names) > budget:
        raise BudgetExceeded(
            f"{width}^{len(names)} stores exceed the enumeration cap of {budget}"
        )
    holds = compile_expr(vc.formula)  # once; shared subtrees compile once
    values = range(-bound, bound + 1)
    for assignment in itertools.product(values, repeat=len(names)):
        env = dict(zip(names, assignment))
        if not holds(env):
            return Counterexample(Store(env))
    return Valid()
