"""Slow, obviously correct reference implementations kept as test oracles.

``ref_eval`` interprets an expression or formula node by node, the way
the evaluators did before ``semantics.compile_expr`` replaced them.
``ref_run_fragment`` is the stack VM's former instruction loop, which
pattern-matches each instruction and builds a new ``Store`` per write.
``ref_vcgen`` and ``ref_emit_smtlib`` are the textbook VC generator, one
substitution per assignment and one recursive call per statement, and
the recursive SMT-LIB2 printer that formats each occurrence of a node.
``ershov`` labels a core expression by the textbook recursion, apart
from the allocator's own labeling.  ``reg_exec``, ``max_live`` and
``listing`` read the register code ``regalloc.alloc_codegen`` emits: its
value (bit operations on 32-bit words), its peak live registers and its
text.
"""

from typing import Optional

from cimp import syntax as sx
from cimp.errors import CimpError, UnsupportedNode
from cimp.hoare import MissingInvariant, VerificationCondition, subst_all
from cimp.regalloc import LoadConst, LoadVar, Op, RegCode, RegInstr, Reload, Spill
from cimp.semantics import Store
from cimp.stack_machine import (
    Iadd,
    Ibeq,
    Ibgt,
    Ible,
    Ibne,
    Ibranch,
    Iconst,
    Ihalt,
    Imul,
    Isetvar,
    Isub,
    Ivar,
    VmState,
)

MASK = 0xFFFFFFFF


def _signed(w):
    return w - (1 << 32) if w & (1 << 31) else w


def ref_eval(n, s: dict, types=None):
    """Value of n in store s (absent names read 0).

    types=None means unbounded integers, where a bit operator or cast
    raises UnsupportedNode at its position.  Otherwise values are 32-bit
    words and types maps id(comparison) to its operand type.
    """
    bits = types is not None

    def word(v):
        return v & MASK if bits else v

    def ev(n):
        match n:
            case sx.IntLit(v):
                return word(v)
            case sx.Var(name):
                return word(s.get(name, 0))
            case sx.Neg(a):
                return word(-ev(a))
            case sx.BinOp(op, a, b):
                l, r = ev(a), ev(b)
                return word(l + r if op == "+" else l - r if op == "-" else l * r)
            case sx.BitOp() | sx.BitNot() | sx.Cast() if not bits:
                raise UnsupportedNode("only available in typed programs", n.pos)
            case sx.BitOp(op, a, b):
                l, r = ev(a), ev(b)
                if op == "&":
                    return l & r
                if op == "|":
                    return l | r
                if op == "^":
                    return l ^ r
                if op == "<<":
                    return word(l << (r % 32))
                return l >> (r % 32)
            case sx.BitNot(a):
                return ev(a) ^ MASK
            case sx.Cast(_, a):
                return ev(a)
            case sx.BoolLit(v):
                return v
            case sx.Cmp(op, a, b):
                l, r = ev(a), ev(b)
                if bits and types[id(n)] is sx.Ty.I32:
                    l, r = _signed(l), _signed(r)
                return l == r if op == "=" else l <= r if op == "<=" else l < r
            case sx.Not(a):
                return not ev(a)
            case sx.And(a, b):
                return ev(a) and ev(b)
            case sx.Or(a, b):
                return ev(a) or ev(b)
            case sx.Implies(a, b):
                return not ev(a) or ev(b)
        raise TypeError(n)

    return ev(n)


def ref_run_fragment(fuel, code, state):
    """The VM's contract: (status, VmState), statuses as in run_fragment."""
    pc, stack, store = state.pc, list(state.stack), state.store
    n = len(code)
    while True:
        if not 0 <= pc < n:
            return "exit", VmState(pc, tuple(stack), store)
        if fuel == 0:
            return "outoffuel", VmState(pc, tuple(stack), store)
        fuel -= 1
        instr = code[pc]
        match instr:
            case Iconst(v):
                stack.append(v)
                pc += 1
            case Ivar(x):
                stack.append(store.get(x))
                pc += 1
            case Isetvar(x):
                if not stack:
                    return "error", VmState(pc, (), store)
                store = store.set(x, stack.pop())
                pc += 1
            case Iadd() | Isub() | Imul():
                if len(stack) < 2:
                    return "error", VmState(pc, tuple(stack), store)
                n2 = stack.pop()
                n1 = stack.pop()
                if isinstance(instr, Iadd):
                    stack.append(n1 + n2)
                elif isinstance(instr, Isub):
                    stack.append(n1 - n2)
                else:
                    stack.append(n1 * n2)
                pc += 1
            case Ibranch(delta):
                pc += 1 + delta
            case Ibeq(delta) | Ibne(delta) | Ible(delta) | Ibgt(delta):
                if len(stack) < 2:
                    return "error", VmState(pc, tuple(stack), store)
                n2 = stack.pop()
                n1 = stack.pop()
                taken = {
                    Ibeq: n1 == n2,
                    Ibne: n1 != n2,
                    Ible: n1 <= n2,
                    Ibgt: n1 > n2,
                }[type(instr)]
                pc += 1 + delta if taken else 1
            case Ihalt():
                return "halt", VmState(pc, tuple(stack), store)
            case _:
                raise TypeError(f"not an Instr: {instr!r}")


def ref_wlp(c, q):
    """(wlp, side conditions) as ``hoare.wlp`` specifies them."""
    match c:
        case sx.Skip():
            return q, []
        case sx.Assign(var, rhs):
            return subst_all(q, {var: rhs}), []
        case sx.Seq(first, second):
            w2, s2 = ref_wlp(second, q)
            w1, s1 = ref_wlp(first, w2)
            return w1, s1 + s2
        case sx.If(cond, then_branch, else_branch):
            w1, s1 = ref_wlp(then_branch, q)
            w2, s2 = ref_wlp(else_branch, q)
            return sx.And(sx.Implies(cond, w1), sx.Implies(sx.Not(cond), w2)), s1 + s2
        case sx.While(cond, invariant, body):
            if invariant is None:
                raise MissingInvariant("loop has no invariant annotation", c.pos)
            wbody, sides = ref_wlp(body, invariant)
            preservation = VerificationCondition(
                "preservation", sx.Implies(sx.And(invariant, cond), wbody)
            )
            exit_vc = VerificationCondition(
                "exit", sx.Implies(sx.And(invariant, sx.Not(cond)), q)
            )
            return invariant, sides + [preservation, exit_vc]
    raise TypeError(c)


def ref_vcgen(t):
    w, sides = ref_wlp(t.com, t.post)
    return [VerificationCondition("top", sx.Implies(t.pre, w))] + sides


def _ref_smt(n):
    match n:
        case sx.IntLit(v):
            return str(v)
        case sx.Var(name):
            return name
        case sx.Neg(a):
            return f"(- {_ref_smt(a)})"
        case sx.BinOp(op, a, b) | sx.Cmp(op, a, b):
            return f"({op} {_ref_smt(a)} {_ref_smt(b)})"
        case sx.BitOp() | sx.BitNot() | sx.Cast():
            raise UnsupportedNode(
                "bit-level operators cannot appear in exported assertions", n.pos
            )
        case sx.BoolLit(v):
            return "true" if v else "false"
        case sx.Not(a):
            return f"(not {_ref_smt(a)})"
        case sx.And(a, b):
            return f"(and {_ref_smt(a)} {_ref_smt(b)})"
        case sx.Or(a, b):
            return f"(or {_ref_smt(a)} {_ref_smt(b)})"
        case sx.Implies(a, b):
            return f"(=> {_ref_smt(a)} {_ref_smt(b)})"
    raise TypeError(n)


def _ref_const(e):
    return type(e) is sx.IntLit or (type(e) is sx.Neg and type(e.operand) is sx.IntLit)


def ref_emit_smtlib(vc):
    nia = any(
        type(n) is sx.BinOp and n.op == "*" and not (_ref_const(n.left) or _ref_const(n.right))
        for n in sx.walk(vc.formula)
    )
    names = sorted({n.name for n in sx.walk(vc.formula) if type(n) is sx.Var})
    lines = [f"(set-logic {'QF_NIA' if nia else 'QF_LIA'})"]
    lines += [f"(declare-const {v} Int)" for v in names]
    lines += [f"(assert (not {_ref_smt(vc.formula)}))", "(check-sat)"]
    return "\n".join(lines) + "\n"


class MalformedCode(CimpError):
    """Register code that no well-behaved generator would emit."""


def ershov(e: sx.AExpr) -> int:
    """Registers needed to evaluate core expression `e` with no spills.

    Leaves (variables and constants alike) are labeled 1.  Negation is
    labeled as if written 0 - e.  A binary node whose operands need l and
    r registers needs max(l, r) when they differ and l + 1 when they tie.
    """
    match e:
        case sx.IntLit() | sx.Var():
            return 1
        case sx.Neg(a):
            l, r = 1, ershov(a)
        case sx.BinOp(_, a, b):
            l, r = ershov(a), ershov(b)
        case _:
            raise TypeError(f"not a core expression: {e!r}")
    return max(l, r) if l != r else l + 1


# add, sub and mul over unbounded integers; the bit kinds over 32-bit
# words, which agree with them mod 2^32
_REG_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b & MASK,
    "or": lambda a, b: (a | b) & MASK,
    "xor": lambda a, b: (a ^ b) & MASK,
    "sll": lambda a, b: (a << (b & 31)) & MASK,
    "srl": lambda a, b: (a & MASK) >> (b & 31),
    "not": lambda a, b: ~(a | b) & MASK,  # nor; regalloc reads one register twice
}


def reg_exec(code: RegCode, s: Store, k: Optional[int] = None) -> int:
    """Run register code against a store and return register 0.

    Core code computes over unbounded integers; code with a bit kind
    computes a value whose low 32 bits are the word it denotes.
    """
    regs: dict[int, int] = {}
    stack: list[int] = []

    def check(idx: int) -> int:
        if idx < 0 or (k is not None and idx >= k):
            raise MalformedCode(f"register index out of range: r{idx}")
        return idx

    def read(idx: int) -> int:
        check(idx)
        if idx not in regs:
            raise MalformedCode(f"read from unwritten register r{idx}")
        return regs[idx]

    for ins in code:
        if isinstance(ins, LoadConst):
            regs[check(ins.dst)] = ins.value
        elif isinstance(ins, LoadVar):
            regs[check(ins.dst)] = s.get(ins.name)
        elif isinstance(ins, Op):
            a, b = read(ins.lhs), read(ins.rhs)
            if ins.kind not in _REG_OPS:
                raise MalformedCode(f"unknown operation {ins.kind!r}")
            regs[check(ins.dst)] = _REG_OPS[ins.kind](a, b)
        elif isinstance(ins, Spill):
            stack.append(read(ins.src))
        else:
            assert isinstance(ins, Reload)
            if not stack:
                raise MalformedCode("reload from empty spill stack")
            regs[check(ins.dst)] = stack.pop()
    if 0 not in regs:
        raise MalformedCode("register r0 never written")
    return regs[0]


def max_live(code: RegCode) -> int:
    """Peak number of registers holding a still-needed value.

    Computed by backward liveness over the straight-line code, counting
    register 0 as live at exit.  Spilled values sit on the stack and do not
    count.
    """
    live = {0}
    peak = len(live)
    for ins in reversed(code):
        peak = max(peak, len(live))
        if isinstance(ins, (LoadConst, LoadVar, Reload)):
            live.discard(ins.dst)
        elif isinstance(ins, Op):
            live.discard(ins.dst)
            live.add(ins.lhs)
            live.add(ins.rhs)
        else:
            assert isinstance(ins, Spill)
            live.add(ins.src)
    return max(peak, len(live))


def _mnemonic(ins: RegInstr) -> str:
    if isinstance(ins, LoadConst):
        return f"LOADCONST r{ins.dst} {ins.value}"
    if isinstance(ins, LoadVar):
        return f"LOADVAR r{ins.dst} {ins.name}"
    if isinstance(ins, Op):
        return f"OP {ins.kind.upper()} r{ins.dst} r{ins.lhs} r{ins.rhs}"
    if isinstance(ins, Spill):
        return f"SPILL r{ins.src}"
    assert isinstance(ins, Reload)
    return f"RELOAD r{ins.dst}"


def listing(code: RegCode) -> str:
    """One instruction per line, in `OP ADD r0 r0 r1` style."""
    return "".join(_mnemonic(i) + "\n" for i in code)
