"""Stack-machine compiler and fueled virtual machine.

The machine has a single operand stack of unbounded integers, a store,
and relative branches: a branch with offset ``delta`` at index ``pc``
transfers control to ``pc + 1 + delta``, so ``delta = 0`` is a no-op
and negative offsets jump backwards over the branch itself.

Compilation is the classic scheme: expressions in postorder (leaving
exactly one value on the stack), boolean expressions as conditional
jumps parameterized by the polarity ``cond`` and a skip distance
``ofs`` (fall through when the value differs from ``cond``, jump
``ofs`` past the end of the emitted code when it matches), commands by
structural composition.  There is no branch instruction for a strict
less-than, so ``l < r`` compiles its operands in swapped order and uses
the greater-than branch; expressions are pure, so the evaluation-order
change is unobservable.  The compiler appends to one list from a work
stack and back-patches branches, so neither long sequences nor long
operator chains recurse.

Machine fuel counts executed instructions (every instruction, halt
included), unlike the reference interpreter's fuel, which counts loop
iterations.  The machine decodes the code once into dense opcodes and
runs it on a private dict store (``run_fragment``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, make_dataclass
from typing import Union

from .errors import UnsupportedNode
from .semantics import OUT_OF_FUEL, Done, OutOfFuel, Store
from .syntax import (
    AExpr,
    And,
    Assign,
    BExpr,
    BinOp,
    BitNot,
    BitOp,
    BoolLit,
    Cast,
    Cmp,
    Com,
    If,
    IntLit,
    Neg,
    Not,
    Or,
    Program,
    Seq,
    Skip,
    Var,
    While,
    walk,
)

# ---------------------------------------------------------------------------
# Instructions: a frozen dataclass each, with at most one field.  The
# listing prints an instruction as its upper-cased class name and field.

Iconst = make_dataclass("Iconst", [("n", int)], frozen=True)
Ivar = make_dataclass("Ivar", [("x", str)], frozen=True)
Isetvar = make_dataclass("Isetvar", [("x", str)], frozen=True)
Iadd = make_dataclass("Iadd", [], frozen=True)
Isub = make_dataclass("Isub", [], frozen=True)
Imul = make_dataclass("Imul", [], frozen=True)
Ibranch = make_dataclass("Ibranch", [("delta", int)], frozen=True)
Ibeq = make_dataclass("Ibeq", [("delta", int)], frozen=True)
Ibne = make_dataclass("Ibne", [("delta", int)], frozen=True)
Ible = make_dataclass("Ible", [("delta", int)], frozen=True)
Ibgt = make_dataclass("Ibgt", [("delta", int)], frozen=True)
Ihalt = make_dataclass("Ihalt", [], frozen=True)

Instr = Union[
    Iconst, Ivar, Isetvar, Iadd, Isub, Imul, Ibranch, Ibeq, Ibne, Ible, Ibgt, Ihalt
]

Code = tuple[Instr, ...]


@dataclass(frozen=True)
class StackProgram:
    code: Code


@dataclass(frozen=True)
class VmState:
    pc: int
    stack: tuple[int, ...]
    store: Store


@dataclass(frozen=True)
class MachineError:
    reason: str


VmResult = Union[Done, OutOfFuel, MachineError]


# ---------------------------------------------------------------------------
# Compilation

_ARITH_INSTR = {"+": Iadd, "-": Isub, "*": Imul}
# the branches taken when a comparison's value is (False, True);
# l < r branches as r > l, with the operands swapped
_CMP_BRANCH = {"=": (Ibne, Ibeq), "<=": (Ibgt, Ible), "<": (Ible, Ibgt)}


def _emit(root, todo: list) -> list:
    """Run a work stack of compilation tasks for root, last first; return the code.

    A task is a node (an AExpr compiles to postorder code, a Com to its
    code), an instruction, ("cond", b, cond, label) for jump code that
    branches to label iff b equals cond, ("jump", cls, label), or
    ("mark", label, ofs), which puts label ofs past the code so far.  A
    label is a one-element list.  Branches are patched to relative
    offsets once every label is placed, so nothing recurses.  A
    fixed-width node raises UnsupportedNode: the first in source order.
    """
    out: list = []
    patches = []
    while todo:
        task = todo.pop()
        t = type(task)
        if t is tuple:
            kind = task[0]
            if kind == "mark":
                task[1][0] = len(out) + task[2]
            elif kind == "jump":
                patches.append((len(out), task[1], task[2]))
                out.append(None)
            else:
                _, b, cond, target = task
                bt = type(b)
                if bt is BoolLit:
                    if b.value == cond:
                        todo.append(("jump", Ibranch, target))
                elif bt is Not:
                    todo.append(("cond", b.operand, not cond, target))
                elif bt is Cmp:
                    br = ("jump", _CMP_BRANCH[b.op][cond], target)
                    if b.op == "<":
                        todo += (br, b.left, b.right)
                    else:
                        todo += (br, b.right, b.left)
                elif bt is And or bt is Or:
                    # when the left operand alone can decide against cond,
                    # it jumps past the right one; else both jump to target
                    decides = (bt is And) == cond
                    skip = [None]
                    todo += (
                        ("mark", skip, 0),
                        ("cond", b.right, cond, target),
                        ("cond", b.left, cond != decides, skip if decides else target),
                    )
                else:
                    raise TypeError(f"not a BExpr: {b!r}")
        elif t is IntLit:
            out.append(Iconst(task.value))
        elif t is Var:
            out.append(Ivar(task.name))
        elif t is BinOp:
            todo += (_ARITH_INSTR[task.op](), task.right, task.left)
        elif t is Neg:
            out.append(Iconst(0))
            todo += (Isub(), task.operand)
        elif t is Assign:
            todo += (Isetvar(task.var), task.rhs)
        elif t is Seq:
            todo += (task.second, task.first)
        elif t is If:
            other, end = [None], [None]
            todo += (
                ("mark", end, 0),
                task.else_branch,
                ("mark", other, 0),
                ("jump", Ibranch, end),
                task.then_branch,
                ("cond", task.cond, False, other),
            )
        elif t is While:
            top, end = [len(out)], [None]
            todo += (
                ("mark", end, 0),
                ("jump", Ibranch, top),
                task.body,
                ("cond", task.cond, False, end),
            )
        elif t is BitOp or t is BitNot or t is Cast:
            # report the first one in source order, not in code order
            nodes = walk(root, code_only=True)
            first = next(n for n in nodes if type(n) in (BitOp, BitNot, Cast))
            raise UnsupportedNode.at(first, "has no stack-machine encoding")
        elif t in _DECODE:
            out.append(task)
        elif t is not Skip:
            raise TypeError(f"not an AExpr or Com: {task!r}")
    for at, cls, target in patches:
        out[at] = cls(target[0] - at - 1)
    return out


def compile_aexp(e: AExpr) -> Code:
    """Postorder code that pushes aeval(store, e) and touches nothing else."""
    return tuple(_emit(e, [e]))


def compile_bexp(b: BExpr, cond: bool, ofs: int) -> Code:
    """Jump code: branches ofs past its end iff the value equals cond.

    The emitted code never touches the store and has zero net stack
    effect on both paths.
    """
    if ofs < 0:
        raise ValueError("ofs must be nonnegative")
    end = [None]
    return tuple(_emit(b, [("mark", end, ofs), ("cond", b, cond, end)]))


def compile_com(c: Com) -> Code:
    return tuple(_emit(c, [c]))


def compile_program(p: Program) -> StackProgram:
    return StackProgram(tuple(_emit(p.body, [Ihalt(), p.body])))


# ---------------------------------------------------------------------------
# Execution

# Dense opcodes of decoded code, in the order the dispatch tests them.
_VAR, _CONST, _ARITH, _COND, _SETVAR, _JUMP, _HALT = range(7)
# each instruction's opcode, and its operator if it has one
_DECODE = {
    Ivar: (_VAR, None),
    Iconst: (_CONST, None),
    Iadd: (_ARITH, operator.add),
    Isub: (_ARITH, operator.sub),
    Imul: (_ARITH, operator.mul),
    Ibeq: (_COND, operator.eq),
    Ibne: (_COND, operator.ne),
    Ible: (_COND, operator.le),
    Ibgt: (_COND, operator.gt),
    Isetvar: (_SETVAR, None),
    Ibranch: (_JUMP, None),
    Ihalt: (_HALT, None),
}


def _decode(code: Code) -> list[tuple[int, object]]:
    """(opcode, argument) pairs; a branch's argument holds its pc increment."""
    out = []
    for i in code:
        if type(i) not in _DECODE:
            raise TypeError(f"not an Instr: {i!r}")
        op, fn = _DECODE[type(i)]
        field = next(iter(vars(i).values()), None)
        if op == _COND or op == _JUMP:
            field += 1
        out.append((op, (fn, field) if op == _COND else fn or field))
    return out


def run_fragment(fuel: int, code: Code, state: VmState) -> tuple[str, VmState]:
    """Execute until halt, fuel exhaustion, an error, or pc leaving the code.

    Returns (status, final state) with status one of "halt", "outoffuel",
    "error", "exit"; "exit" means pc moved outside [0, len(code)) other
    than via Ihalt, which is the normal way a code fragment finishes.
    Error states keep the pc of the offending instruction.

    The code is decoded once into (opcode, argument) pairs, dispatch is
    by integer compares, and the store is a private dict updated in place
    (Ertl and Gregg, "The structure and performance of efficient
    interpreters", JILP 2003).
    """
    prog = _decode(code)
    n = len(prog)
    pc = state.pc
    stack = list(state.stack)
    push, pop = stack.append, stack.pop
    env = dict(state.store.items())
    status = "error"  # what a bare break means: a stack underflow
    while True:
        if not 0 <= pc < n:
            status = "exit"
            break
        if not fuel:
            status = "outoffuel"
            break
        fuel -= 1
        op, arg = prog[pc]
        if op == _VAR:
            push(env.get(arg, 0))
        elif op == _CONST:
            push(arg)
        elif op <= _COND:
            if len(stack) < 2:
                break
            k = pop()
            if op == _ARITH:
                stack[-1] = arg(stack[-1], k)
            elif arg[0](pop(), k):
                pc += arg[1]
                continue
        elif op == _SETVAR:
            if not stack:
                break
            env[arg] = pop()
        elif op == _JUMP:
            pc += arg
            continue
        else:
            status = "halt"
            break
        pc += 1
    return status, VmState(pc, tuple(stack), Store(env))


def vm_exec(fuel: int, prog: StackProgram, s0: Store) -> VmResult:
    """Run a whole program from pc 0 with an empty stack."""
    if fuel < 0:
        raise ValueError("fuel must be nonnegative")
    status, st = run_fragment(fuel, prog.code, VmState(0, (), s0))
    if status == "halt":
        return Done(st.store)
    if status == "outoffuel":
        return OUT_OF_FUEL
    if status == "error":
        return MachineError(f"stack underflow at pc {st.pc}")
    return MachineError(f"pc out of bounds: {st.pc}")


# ---------------------------------------------------------------------------
# Listing


def listing(prog: StackProgram) -> str:
    """One instruction per line, its upper-cased class name and then its
    field; the line number is the instruction index."""
    return "".join(
        " ".join([type(i).__name__.upper(), *map(str, vars(i).values())]) + "\n"
        for i in prog.code
    )


def branch_targets(code: Code) -> list[int]:
    """Computed targets of every branch; used by well-formedness checks."""
    return [pc + 1 + i.delta for pc, i in enumerate(code) if hasattr(i, "delta")]


def well_formed(prog: StackProgram) -> bool:
    """Branch closure plus the single-final-Ihalt shape of compiled code."""
    code = prog.code
    if not code or not isinstance(code[-1], Ihalt):
        return False
    if any(isinstance(i, Ihalt) for i in code[:-1]):
        return False
    return all(0 <= t <= len(code) for t in branch_targets(code))
