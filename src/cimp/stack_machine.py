"""Stack-machine compiler and fueled virtual machine.

The machine has a single operand stack, a store, and relative branches:
a branch with offset ``delta`` at index ``pc`` transfers control to
``pc + 1 + delta``, so ``delta = 0`` is a no-op and negative offsets
jump backwards over the branch itself.  Untyped code runs on unbounded
integers, typed code in word mode: literals, the initial store and each
arithmetic result are 32-bit words, ``~e`` is ``e`` xor 2^32 - 1 and a
cast emits nothing.  Branches then order words unsigned, so an i32 ``<``
or ``<=`` first flips the sign bit of both operands.

Compilation is the classic scheme.  ``emit`` compiles expressions in
postorder, leaving exactly one value on the stack; it is the one
expression compiler, whose stack naive MIPS keeps on $sp (expanding its
code in the same walk) and ``regalloc`` in registers.
``lower`` lays out commands and conditions as jump code for both
backends, a condition branching to a label exactly when its value is
``cond``; the stack machine and ``mips.codegen`` each supply a target
that emits labels, jumps, assignments and compare-and-branch code.
Every compiled backend pushes a comparison's operands in ``compare``'s
order: there is no branch for a strict less-than, so ``l < r`` pushes
``r`` first and branches as ``r > l``; expressions are pure, so the
evaluation order is unobservable.  The compiler appends to one list
from work stacks and back-patches branches, so neither long sequences
nor long operator chains recurse.

Machine fuel counts executed instructions (every instruction, halt
included), unlike the reference interpreter's fuel, which counts loop
iterations.  The machine decodes the code once into dense opcodes and
runs it on a private dict store (``run_fragment``).
"""

from __future__ import annotations

import operator
from typing import Union

from .errors import UnsupportedNode
from .semantics import MASK, OUT_OF_FUEL, SIGN, Done, OutOfFuel, Store
from .syntax import (
    AExpr,
    And,
    Assign,
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
    Ty,
    Var,
    While,
    frozen,
    record,
    walk,
)
from .typecheck import TypedProgram, typing

# ---------------------------------------------------------------------------
# Instructions: a ``syntax.record`` each, with at most one field.
# The listing prints an instruction as its upper-cased class name and field.

Iconst = record("Iconst", n=int)
Ivar = record("Ivar", x=str)
Isetvar = record("Isetvar", x=str)
Iadd = record("Iadd")
Isub = record("Isub")
Imul = record("Imul")
Iand = record("Iand")
Ior = record("Ior")
Ixor = record("Ixor")
Ishl = record("Ishl")
Ishr = record("Ishr")
Ibranch = record("Ibranch", delta=int)
Ibeq = record("Ibeq", delta=int)
Ibne = record("Ibne", delta=int)
Ible = record("Ible", delta=int)
Ibgt = record("Ibgt", delta=int)
Ihalt = record("Ihalt")

Instr = Union[
    Iconst, Ivar, Isetvar, Iadd, Isub, Imul, Iand, Ior, Ixor, Ishl, Ishr,
    Ibranch, Ibeq, Ibne, Ible, Ibgt, Ihalt,
]

Code = tuple[Instr, ...]


@frozen
class StackProgram:
    code: Code
    words: bool = False  # word mode: compiled from a typed program


@frozen
class VmState:
    pc: int
    stack: tuple[int, ...]
    store: Store


@frozen
class MachineError:
    reason: str


VmResult = Union[Done, OutOfFuel, MachineError]


# ---------------------------------------------------------------------------
# Compilation

# each operator's instruction, built once
ARITH_INSTR = {"+": Iadd(), "-": Isub(), "*": Imul(), "&": Iand(), "|": Ior(),
               "^": Ixor(), "<<": Ishl(), ">>": Ishr()}
# the branches taken when a comparison's value is (False, True)
CMP_BRANCH = {"=": (Ibne, Ibeq), "<=": (Ibgt, Ible), "<": (Ible, Ibgt)}
ZERO, _ALL_ONES, _FLIP = IntLit(0), IntLit(MASK), (ARITH_INSTR["^"], Iconst(SIGN))


def compare(b: Cmp, cond: bool) -> tuple[AExpr, AExpr, type]:
    """(first, second, branch): every backend pushes first, then second,
    and the branch is taken exactly when b's value is cond.  As there is
    no strict less-than branch, l < r pushes r first to branch as r > l."""
    first, second = (b.right, b.left) if b.op == "<" else (b.left, b.right)
    return first, second, CMP_BRANCH[b.op][cond]


def emit(root, todo: list, words=False, put=None, const=Iconst, var=Ivar, ops=ARITH_INSTR,
         order=None) -> list:
    """Postorder code for a work stack of expressions and instructions.

    The tasks are run last first, ``-e`` as ``0 - e``, and ``~e`` as e
    then ``ops["~"]`` if the table has that entry, else as ``e ^ (2^32 -
    1)``.  ``put`` (by default, append to the list returned) gets a
    literal's ``const(k)``, a variable's ``var(x)``, an operator's entry
    in ``ops`` and any other task as it is.  ``order(entry, left,
    right)``, if given, returns the tasks of a binary node, last first,
    in place of (entry, right, left).  Unless ``words``, a fixed-width
    node raises UnsupportedNode: the first in root in source order.
    """
    out: list = []
    put = put or out.append
    while todo:
        task = todo.pop()
        t = type(task)
        if t is IntLit:
            put(const(task.value))
        elif t is Var:
            put(var(task.name))
        elif t is BinOp or (words and t is BitOp):
            entry = ops[task.op]
            todo += order(entry, task.left, task.right) if order else (entry, task.right, task.left)
        elif t is Neg:
            todo += order(ops["-"], ZERO, task.operand) if order else (ops["-"], task.operand, ZERO)
        elif words and t is BitNot:
            todo += (ops["~"], task.operand) if "~" in ops else (ops["^"], _ALL_ONES, task.operand)
        elif words and t is Cast:
            todo.append(task.operand)
        elif t is BitOp or t is BitNot or t is Cast:
            reject_bit_nodes(root)  # the first one in source order, not in code order
        else:
            put(task)
    return out


def reject_bit_nodes(root) -> None:
    """UnsupportedNode at root's first fixed-width node of code, if any."""
    for n in walk(root, code_only=True):
        if type(n) in (BitOp, BitNot, Cast):
            raise UnsupportedNode.at(n, "is only available in typed programs")


def lower(root, target) -> None:
    """Lay out a command, or a condition task (b, cond, label), as jump code.

    This is the one control-flow scheme of both backends.  A condition
    task branches to label exactly when b evaluates to cond and falls
    through otherwise.  ``target`` supplies the rest: ``label(kind)``
    makes a label, ``place(label)`` puts it at the code so far,
    ``jump(label)`` and ``branch(cmp, cond, label)`` emit an
    unconditional and a compare-and-branch, ``assign(var, rhs)`` emits
    an assignment, and ``invariant(formula)`` sees each loop's invariant
    (or None), which no backend compiles.  The work stack also holds
    (``place`` or ``jump``, label) pairs to run once everything pushed
    after them is done, so neither long sequences nor long conditions
    recurse.
    """
    place, jump = target.place, target.jump
    todo: list = [root]
    while todo:
        task = todo.pop()
        t = type(task)
        if t is tuple:
            if len(task) == 2:
                task[0](task[1])
                continue
            b, cond, label = task
            t = type(b)
            if t is Cmp:
                target.branch(b, cond, label)
            elif t is BoolLit:
                if b.value == cond:
                    jump(label)
            elif t is Not:
                todo.append((b.operand, not cond, label))
            elif t is And or t is Or:
                if cond == (t is Or):
                    # either operand alone decides: both branch to label
                    todo += ((b.right, cond, label), (b.left, cond, label))
                else:
                    # the left operand can only skip the right one
                    skip = target.label("skip")
                    todo += ((place, skip), (b.right, cond, label), (b.left, not cond, skip))
            else:
                raise TypeError(f"not a BExpr: {b!r}")
        elif t is Seq:
            todo += (task.second, task.first)
        elif t is Assign:
            target.assign(task.var, task.rhs)
        elif t is If:
            other, end = target.label("else"), target.label("endif")
            todo += ((place, end), task.else_branch, (place, other), (jump, end),
                     task.then_branch, (task.cond, False, other))
        elif t is While:
            top, end = target.label("loop"), target.label("endloop")
            place(top)
            target.invariant(task.invariant)
            todo += ((place, end), (jump, top), task.body, (task.cond, False, end))
        elif t is not Skip:
            raise TypeError(f"not a Com: {task!r}")


class _StackTarget:
    """``lower``'s target for the stack machine.  A label is a one-element
    list holding its index once placed; branches are patched to relative
    offsets when the code is finished.  ``ty_of`` gives a typed program's
    comparison types, and is None for untyped code."""

    def __init__(self, ty_of=None):
        self.out, self.patches, self.ty_of = [], [], ty_of
        self.const = Iconst if ty_of is None else lambda k: Iconst(k & MASK)  # literals as words

    invariant = staticmethod(lambda formula: None)  # specification has no code

    def label(self, kind: str) -> list:
        return [None]

    def place(self, label: list) -> None:
        label[0] = len(self.out)

    def jump(self, label: list, cls=Ibranch) -> None:
        self.patches.append((len(self.out), cls, label))
        self.out.append(None)

    def branch(self, b: Cmp, cond: bool, label: list) -> None:
        first, second, cls = compare(b, cond)
        todo = [second, first]
        if self.ty_of is not None and b.op != "=" and self.ty_of(b) is Ty.I32:
            todo = [*_FLIP, second, *_FLIP, first]
        self.out += emit(b, todo, self.ty_of is not None, const=self.const)
        self.jump(label, cls)

    def assign(self, var: str, rhs: AExpr) -> None:
        self.out += emit(rhs, [Isetvar(var), rhs], self.ty_of is not None, const=self.const)

    def code(self) -> Code:
        for at, cls, label in self.patches:
            self.out[at] = cls(label[0] - at - 1)
        return tuple(self.out)


def compile_com(c: Com, ty_of=None) -> Code:
    """Code for c; word-mode code given a typed program's ``ty_of``."""
    target = _StackTarget(ty_of)
    lower(c, target)
    return target.code()


def compile_program(p: Program | TypedProgram) -> StackProgram:
    """Compile a program; a typed one (``typecheck.typing``) to word-mode code."""
    p, tp = typing(p)
    code = compile_com(p.body, tp and tp.ty_of) + (Ihalt(),)
    return StackProgram(code, tp is not None)


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
    Iand: (_ARITH, operator.and_),
    Ior: (_ARITH, operator.or_),
    Ixor: (_ARITH, operator.xor),
    Ishl: (_ARITH, lambda v, k: v << (k & 31)),
    Ishr: (_ARITH, lambda v, k: v >> (k & 31)),
    Ibeq: (_COND, operator.eq),
    Ibne: (_COND, operator.ne),
    Ible: (_COND, operator.le),
    Ibgt: (_COND, operator.gt),
    Isetvar: (_SETVAR, None),
    Ibranch: (_JUMP, None),
    Ihalt: (_HALT, None),
}


def _decode(code: Code, words: bool) -> list[tuple[int, object]]:
    """(opcode, argument) pairs; a branch's argument holds its pc increment."""
    out = []
    for i in code:
        if type(i) not in _DECODE:
            raise TypeError(f"not an Instr: {i!r}")
        op, fn = _DECODE[type(i)]
        if words and op == _ARITH:  # word mode: results are taken mod 2^32
            fn = lambda v, k, f=fn: f(v, k) & MASK  # noqa: E731
        field = getattr(i, i.__slots__[0]) if i.__slots__ else None
        if op == _COND or op == _JUMP:
            field += 1
        out.append((op, (fn, field) if op == _COND else fn or field))
    return out


def run_fragment(
    fuel: int, code: Code, state: VmState, words: bool = False
) -> tuple[str, VmState]:
    """Execute until halt, fuel exhaustion, an error, or pc leaving the code.

    Returns (status, final state) with status one of "halt", "outoffuel",
    "error", "exit"; "exit" means pc moved outside [0, len(code)) other
    than via Ihalt, which is the normal way a code fragment finishes.
    Error states keep the pc of the offending instruction.  In word mode
    the store's values are read as words.

    The code is decoded once into (opcode, argument) pairs, dispatch is
    by integer compares, and the store is a private dict updated in place
    (Ertl and Gregg, "The structure and performance of efficient
    interpreters", JILP 2003).
    """
    prog = _decode(code, words)
    n = len(prog)
    pc = state.pc
    stack = list(state.stack)
    push, pop = stack.append, stack.pop
    env = dict(state.store.items())
    if words:
        env = {x: v & MASK for x, v in env.items()}
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
    status, st = run_fragment(fuel, prog.code, VmState(0, (), s0), prog.words)
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
        " ".join([type(i).__name__.upper(), *(str(getattr(i, f)) for f in i.__slots__)]) + "\n"
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
