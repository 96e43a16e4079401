"""Hoare triples, weakest liberal preconditions, and VC generation.

``wlp`` computes the weakest liberal precondition of a command against
a postcondition, collecting side conditions for loops: each annotated
``while`` contributes a preservation VC (invariant and guard imply the
invariant after the body) and an exit VC (invariant and negated guard
imply the local postcondition), and its own wlp is simply the
invariant.  ``vcgen`` prepends the top implication ``pre -> wlp``.
The consequence rule is absorbed into the top and exit implications,
so no dedicated operation exists for it.

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
    Seq,
    Skip,
    Var,
    While,
    assertion_vars,
    transform,
    walk,
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


def subst(a: Assertion, x: str, e: AExpr) -> Assertion:
    """Replace every occurrence of variable x in a by e."""
    return transform(a, lambda n: e if type(n) is Var and n.name == x else n)


# ---------------------------------------------------------------------------
# wlp and vcgen


def wlp(c: Com, q: Assertion) -> tuple[Assertion, list[VerificationCondition]]:
    """Weakest liberal precondition plus loop side conditions.

    Side conditions appear in program order: obligations of earlier
    commands first, and for a loop the body's own obligations before
    the loop's preservation and exit VCs.
    """
    match c:
        case Skip():
            return q, []
        case Assign(var, rhs):
            return subst(q, var, rhs), []
        case Seq(first, second):
            w2, s2 = wlp(second, q)
            w1, s1 = wlp(first, w2)
            return w1, s1 + s2
        case If(cond, then_branch, else_branch):
            w1, s1 = wlp(then_branch, q)
            w2, s2 = wlp(else_branch, q)
            return And(Implies(cond, w1), Implies(Not(cond), w2)), s1 + s2
        case While(cond, invariant, body):
            if invariant is None:
                raise MissingInvariant(
                    "loop has no invariant annotation; vcgen requires one", c.pos
                )
            wbody, sides = wlp(body, invariant)
            preservation = VerificationCondition(
                "preservation", Implies(And(invariant, cond), wbody)
            )
            exit_vc = VerificationCondition(
                "exit", Implies(And(invariant, Not(cond)), q)
            )
            return invariant, sides + [preservation, exit_vc]
    raise TypeError(f"not a Com: {c!r}")


def vcgen(t: HoareTriple) -> list[VerificationCondition]:
    """All proof obligations of the triple: [top implication] + sides."""
    w, sides = wlp(t.com, t.post)
    return [VerificationCondition("top", Implies(t.pre, w))] + sides


# ---------------------------------------------------------------------------
# SMT-LIB2 export


def _smt_aexpr(e: AExpr) -> str:
    match e:
        case IntLit(v):
            return str(v)
        case Var(name):
            return name
        case Neg(operand):
            return f"(- {_smt_aexpr(operand)})"
        case BinOp(op, left, right):
            return f"({op} {_smt_aexpr(left)} {_smt_aexpr(right)})"
        case BitOp() | BitNot() | Cast():
            raise UnsupportedNode(
                "bit-level operators cannot appear in exported assertions", e.pos
            )
    raise TypeError(f"not an AExpr: {e!r}")


def _smt_assertion(a: Assertion) -> str:
    match a:
        case BoolLit(v):
            return "true" if v else "false"
        case Cmp(op, left, right):
            return f"({op} {_smt_aexpr(left)} {_smt_aexpr(right)})"
        case Not(operand):
            return f"(not {_smt_assertion(operand)})"
        case And(left, right):
            return f"(and {_smt_assertion(left)} {_smt_assertion(right)})"
        case Or(left, right):
            return f"(or {_smt_assertion(left)} {_smt_assertion(right)})"
        case Implies(left, right):
            return f"(=> {_smt_assertion(left)} {_smt_assertion(right)})"
    raise TypeError(f"not an Assertion: {a!r}")


def _is_const(e: AExpr) -> bool:
    match e:
        case IntLit():
            return True
        case Neg(IntLit()):
            return True
    return False


def _nonlinear(a: Assertion) -> bool:
    return any(
        type(n) is BinOp and n.op == "*" and not (_is_const(n.left) or _is_const(n.right))
        for n in walk(a)
    )


def emit_smtlib(vc: VerificationCondition) -> str:
    """SMT-LIB2 script; the VC is valid iff the script is unsat."""
    logic = "QF_NIA" if _nonlinear(vc.formula) else "QF_LIA"
    lines = [f"(set-logic {logic})"]
    for v in sorted(assertion_vars(vc.formula)):
        lines.append(f"(declare-const {v} Int)")
    lines.append(f"(assert (not {_smt_assertion(vc.formula)}))")
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
    names = sorted(assertion_vars(vc.formula))
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
