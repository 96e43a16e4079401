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
``ref_simulate`` restates the MIPS simulator's flat dispatch loop over
its decoded code: every instruction one at a time, no translated blocks;
``on_store`` sees every store to a data label.  ``ref_vm_stores`` steps
the stack VM the same way and lists the variable stores it makes.
``compile_aexp``, ``compile_bexp``, ``simplify_bool``, ``dead_code``,
``eval_fixed`` and ``beval_fixed`` apply one piece of a compiler,
optimizer or evaluator to a lone expression or command, which only
tests need.
"""

from typing import Optional

from cimp import optimizer
from cimp import stack_machine as sm
from cimp import syntax as sx
from cimp.errors import CimpError, UnsupportedNode
from cimp.hoare import MissingInvariant, VerificationCondition, subst_all
from cimp.mips import sim
from cimp.regalloc import LoadConst, LoadVar, Op, RegCode, RegInstr, Reload, Spill
from cimp.semantics import Store, compile_expr
from cimp.stack_machine import (
    Iadd,
    Iand,
    Ibeq,
    Ibgt,
    Ible,
    Ibne,
    Ibranch,
    Iconst,
    Ihalt,
    Imul,
    Ior,
    Isetvar,
    Ishl,
    Ishr,
    Isub,
    Ivar,
    Ixor,
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


def ref_simulate(prog, init=None, budget=10**6, on_store=None):
    """(outcome, executed): what ``sim.simulate`` returns, and how many
    instructions ran.  Unless the outcome is BudgetExhausted, executed is
    the least budget that gives the same outcome (an escape from the text
    costs nothing; the trapping load or store, and the break, count).
    ``on_store(name, word, sp)`` is called at each store to a data label,
    with the variable's name, the word stored and the value of $sp."""
    target = sim.check(prog)
    init = init or {}
    addr_of, mem = {}, {}
    for i, (label, word) in enumerate(prog.data):
        addr_of[label] = addr = sim.DATA_BASE + 4 * i
        mem[addr] = init.get(sim._var_name(label), word) & MASK
    code = sim._decode(prog.text, target, addr_of)
    name_at = {addr: sim._var_name(label) for label, addr in addr_of.items()}
    regs = [0] * (sim._SINK + 1)
    sp = sim._SLOT["$sp"]
    regs[sp] = sim.STACK_TOP
    pc = target["main"]
    escape = sim.Trap(f"pc {len(prog.text)} outside the text segment")
    for executed in range(budget):
        op, a, b, c = code[pc]
        pc += 1
        if op == sim._END:
            return escape, executed
        if op == sim._BREAK:
            words = {sim._var_name(label): mem[addr_of[label]] for label, _ in prog.data}
            return sim.Halted(words), executed + 1
        if op in (sim._LWR, sim._SWR):
            addr = (regs[b] + c) & MASK
            if addr & 3:
                kind = "load" if op == sim._LWR else "store"
                return sim.Trap(f"unaligned {kind} at {addr:#010x}"), executed + 1
            if op == sim._LWR:
                regs[a] = mem.get(addr, 0)
            else:
                mem[addr] = regs[a]
        elif op == sim._LW:
            regs[a] = mem[b]
        elif op == sim._SW:
            mem[b] = regs[a]
            if on_store is not None:
                on_store(name_at[b], regs[a], regs[sp])
        elif op == sim._LI:
            regs[a] = b
        elif op in (sim._BEQ, sim._BNE):
            if (regs[a] == regs[b]) == (op == sim._BEQ):
                pc = c
        else:
            x, y = regs[b], (c if op in (sim._ADDIU, sim._ORI, sim._SLL, sim._SRL) else regs[c])
            regs[a] = _REF_ALU[op](x, y) & MASK
    if code[pc][0] == sim._END:
        return escape, budget
    return sim.BudgetExhausted(), budget


_REF_ALU = {
    sim._ADDIU: lambda x, y: x + y,
    sim._ADDU: lambda x, y: x + y,
    sim._SUBU: lambda x, y: x - y,
    sim._SLL: lambda x, y: x << y,
    sim._SRL: lambda x, y: x >> y,
    sim._SLT: lambda x, y: int(_signed(x) < _signed(y)),
    sim._SLTU: lambda x, y: int(x < y),
    sim._ORI: lambda x, y: x | y,
    sim._NOR: lambda x, y: ~(x | y),
    sim._AND: lambda x, y: x & y,
    sim._OR: lambda x, y: x | y,
    sim._XOR: lambda x, y: x ^ y,
    sim._SLLV: lambda x, y: x << (y & 31),
    sim._SRLV: lambda x, y: x >> (y & 31),
}


def compile_aexp(e: sx.AExpr):
    """Postorder code that pushes aeval(store, e) and touches nothing else."""
    return tuple(sm.emit(e, [e]))


def compile_bexp(b: sx.BExpr, cond: bool, ofs: int):
    """Jump code: branches ofs past its end iff the value equals cond.

    The emitted code never touches the store and has zero net stack
    effect on both paths.
    """
    if ofs < 0:
        raise ValueError("ofs must be nonnegative")
    target, end = sm._StackTarget(), [None]
    sm.lower((b, cond, end), target)
    end[0] = len(target.out) + ofs
    return target.code()


def simplify_bool(b: sx.BExpr, *, wrap: bool = False) -> sx.BExpr:
    """Dominance and unit laws for the connectives; fold literal tests.

    Arithmetic operands are expected to be pre-simplified; this pass
    only inspects them for literal-vs-literal comparisons.
    """
    return sx.transform(b, lambda n: optimizer._bool_step(n, wrap))


def dead_code(c: sx.Com) -> sx.Com:
    """Remove decided conditionals, never-entered loops, and Skips."""
    return sx.transform(c, optimizer._dead_step)


def eval_fixed(s32: Store, e: sx.AExpr) -> int:
    """Value of e as a 32-bit word; arithmetic needs no types."""
    return compile_expr(e, {})(s32._bindings)


def beval_fixed(tp, s32: Store, b: sx.Assertion) -> bool:
    """Truth of formula b under 32-bit semantics; tp must have typed b."""
    return compile_expr(b, tp._types)(s32._bindings)


_REF_VM_OPS = {
    Iadd: lambda a, b: a + b,
    Isub: lambda a, b: a - b,
    Imul: lambda a, b: a * b,
    Iand: lambda a, b: a & b,
    Ior: lambda a, b: a | b,
    Ixor: lambda a, b: a ^ b,
    Ishl: lambda a, b: a << (b & 31),
    Ishr: lambda a, b: a >> (b & 31),
    Ibeq: lambda a, b: a == b,
    Ibne: lambda a, b: a != b,
    Ible: lambda a, b: a <= b,
    Ibgt: lambda a, b: a > b,
}


def ref_vm_stores(prog, fuel):
    """(status, stores): run a StackProgram from pc 0 on an empty store,
    one instruction at a time, and list each Isetvar it executes as a
    (name, value mod 2^32) pair.  status is "halt" or "outoffuel"; a word
    mode program's arithmetic results are taken mod 2^32 as in the VM."""
    code, pc, stack, stores = prog.code, 0, [], []
    store: dict = {}
    for _ in range(fuel):
        instr = code[pc]
        t = type(instr)
        pc += 1
        if t is Ihalt:
            return "halt", stores
        if t is Iconst:
            stack.append(instr.n)
        elif t is Ivar:
            stack.append(store.get(instr.x, 0))
        elif t is Isetvar:
            store[instr.x] = stack.pop()
            stores.append((instr.x, store[instr.x] & MASK))
        elif t is Ibranch:
            pc += instr.delta
        else:
            b, a = stack.pop(), stack.pop()
            value = _REF_VM_OPS[t](a, b)
            if t in (Ibeq, Ibne, Ible, Ibgt):
                pc += instr.delta if value else 0
            else:
                stack.append(value & MASK if prog.words else value)
    return "outoffuel", stores


# ---------------------------------------------------------------------------
# The -O rewrite of an expression as two passes run to their fixed point:
# const_fold, then simplify_structural's generic transform, until a round
# returns its input.  optimizer.fold must agree with it.

_ZERO, _ONE = sx.IntLit(0), sx.IntLit(1)


def _make_lit(k: int, wrap: bool) -> sx.AExpr:
    if wrap:
        return sx.IntLit(k & MASK)
    return sx.IntLit(k) if k >= 0 else sx.Neg(sx.IntLit(-k))


def _append_const(acc: sx.AExpr, k: int, wrap: bool) -> sx.AExpr:
    if wrap:
        k &= MASK
        if k == 0:
            return acc
        # prefer the smaller magnitude: x + (2^32 - 5) reads as x - 5
        if -k & MASK < k:
            return sx.BinOp("-", acc, sx.IntLit(-k & MASK))
        return sx.BinOp("+", acc, sx.IntLit(k))
    if k == 0:
        return acc
    if k > 0:
        return sx.BinOp("+", acc, sx.IntLit(k))
    return sx.BinOp("-", acc, sx.IntLit(-k))


def const_fold(e: sx.AExpr, *, wrap: bool = False) -> sx.AExpr:
    """Fold literal operations, gathering constants across + and - chains.

    The additive spine (nested +, -, unary -) is flattened into signed
    terms; literal terms are summed and re-attached last, so
    ``a + 1 + 2`` becomes ``a + 3``.  Non-additive operators fold only
    when both operands are literal.  The result never contains a core
    operator node with two literal operands.  A spine that rebuilds into
    an equal tree is returned as it was given, like every other rewrite.
    """
    if (type(e) is sx.BinOp and e.op != "*") or type(e) is sx.Neg:
        # the signed terms of the spine, leftmost first
        terms: list[tuple[int, sx.AExpr]] = []
        todo = [(e, 1)]
        while todo:
            x, sign = todo.pop()
            t = type(x)
            if t is sx.BinOp and x.op != "*":
                todo += ((x.right, sign if x.op == "+" else -sign), (x.left, sign))
            elif t is sx.Neg:
                todo.append((x.operand, -sign))
            else:
                terms.append((sign, const_fold(x, wrap=wrap)))
        total = 0
        rest: list[tuple[int, sx.AExpr]] = []
        for sign, t in terms:
            v = sx.literal_value(t)
            if v is not None:
                total += sign * v
            else:
                rest.append((sign, t))
        if not rest:
            out = _make_lit(total, wrap)
        # A negative leading term with a positive constant rebuilds
        # as "k - ..." rather than "-t + k", which would add a node.
        elif rest[0][0] < 0 and ((total & MASK) != 0 if wrap else total > 0):
            out = sx.IntLit(total & MASK if wrap else total)
            for sign, t in rest:
                out = sx.BinOp("+" if sign > 0 else "-", out, t)
        else:
            out = rest[0][1] if rest[0][0] > 0 else sx.Neg(rest[0][1])
            for sign, t in rest[1:]:
                out = sx.BinOp("+" if sign > 0 else "-", out, t)
            out = _append_const(out, total, wrap)
        return e if sx.equal(out, e) else out
    # the left spine of "*" and the bit operators folds bottom-up in a
    # loop, so a long chain does not recurse once per operator
    spine = []
    while (type(e) is sx.BinOp and e.op == "*") or type(e) is sx.BitOp:
        spine.append(e)
        e = e.left
    if not spine:
        return sx.map_children(e, lambda k: const_fold(k, wrap=wrap))
    out = const_fold(e, wrap=wrap)
    for node in reversed(spine):
        right = const_fold(node.right, wrap=wrap)
        if out is not node.left or right is not node.right:
            node = type(node)(node.op, out, right, node.pos)
        out = node
        if type(out) is sx.BinOp:  # "*", folded only between literals
            lv, rv = sx.literal_value(out.left), sx.literal_value(out.right)
            if lv is not None and rv is not None:
                out = _make_lit(lv * rv, wrap)
    return out


def _structural_step(e: sx.AExpr) -> sx.AExpr:
    if type(e) is not sx.BinOp:
        return e
    op, l, r = e.op, e.left, e.right
    if op == "-":
        if sx.equal(l, r):
            return _ZERO
        if r == _ZERO:
            return l
    elif op == "+":
        if l == _ZERO:
            return r
        if r == _ZERO:
            return l
    else:  # "*"
        if l == _ZERO or r == _ZERO:
            return _ZERO
        if l == _ONE:
            return r
        if r == _ONE:
            return l
    return e


def simplify_structural(e: sx.AExpr) -> sx.AExpr:
    """Structural identity and unit laws; every rule is wrap-safe."""
    return sx.transform(e, _structural_step)


def ref_fold(e: sx.AExpr, *, wrap: bool = False) -> sx.AExpr:
    """const_fold then simplify_structural, until a round changes nothing."""
    while True:
        out = simplify_structural(const_fold(e, wrap=wrap))
        if out is e:
            return e
        e = out


def ref_optimize(p: sx.Program, level: int) -> sx.Program:
    """optimizer.optimize's walk over statements, with ref_fold for arithmetic."""
    if level == 0:
        return p
    wrap = p.typed

    def step(n):
        t = type(n)
        if t is sx.Assign:
            return sx.map_children(n, lambda e: ref_fold(e, wrap=wrap))
        if t is sx.Cmp:
            return optimizer._bool_step(sx.map_children(n, lambda e: ref_fold(e, wrap=wrap)), wrap)
        if t is sx.Not or t is sx.And or t is sx.Or:
            return optimizer._bool_step(n, wrap)
        if level >= 2 and (t is sx.Seq or t is sx.If or t is sx.While):
            return optimizer._dead_step(n)
        return n

    body = sx.transform(p.body, step, code_only=True, stop_at=(sx.Assign, sx.Cmp))
    return sx.Program(p.decls, body)
