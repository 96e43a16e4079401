"""Instruction-level simulator for the MIPS subset.

Words are 32-bit unsigned; every register write wraps.  $zero is
hardwired to zero: writes to it are discarded.  The data segment starts
at DATA_BASE with one word per data label in declaration order, and $sp
starts at STACK_TOP growing downward.  Execution begins at main and
stops at break, when the instruction budget runs out, or on a trap
(unaligned access or the pc escaping the text segment).

Each call first runs ``isa.check`` (main present, text labels unique,
every branch target and data label defined; every ``Ins`` checked its
own shape when it was built) and only then pre-decodes the text:
labels become instruction indices, registers become list slots, data
labels become absolute addresses and mnemonics become small integer
opcodes, each distinct instruction object once.  Labels take no room
in the decoded program, so they consume no budget.

The decoded program runs in a flat dispatch loop.  A block (from a label
or the instruction after a branch through its first beq/bne/j, short of
a break or the end of the text) entered _HOT times, by taken branches or
by falls from a translated block, runs as one generated Python function
(block translation, after Bell's threaded code and QEMU): registers in
locals, $sp its entry value plus a constant, and a load of a word the
block stored or loaded before reusing it.  That runs only if the budget
left covers the block, and returns None unless $sp is aligned and every
stack slot lies above the data words and below 2^32, so it cannot trap;
otherwise, and for blocks using $sp but as a base or in ``addiu $sp,
$sp, k`` or another base, the flat loop runs the block, so every trap
and budget outcome stays exact.  Functions are cached per block shape,
constants lifted out, in a bounded memo: equal loops of other programs
(multiplication, say) compile once.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice, repeat

from ..syntax import frozen
from .isa import REGISTERS, LabelDef, Mem, MipsProgram, check

DATA_BASE = 0x10000000
STACK_TOP = 0x7FFFF000

_MASK = 0xFFFFFFFF
_SIGN = 0x80000000


@frozen
class Halted:
    """Final data-segment words, keyed by variable name."""

    words: dict

    def __getitem__(self, name: str) -> int:
        return self.words[name]


@frozen
class BudgetExhausted:
    pass


@frozen
class Trap:
    reason: str


def _var_name(label: str) -> str:
    return label[4:] if label.startswith("var_") else label


# Decoded instructions are (opcode, a, b, c) tuples of ints.  Register
# operands are slots of the register list; a write to $zero goes to the
# extra slot _SINK, which nothing reads, so slot 0 stays zero.
_SLOT = {name: i for i, name in enumerate(REGISTERS)}
_SINK = len(REGISTERS)

# Opcodes, numbered in the order the dispatch chain tests them, which is
# their dynamic frequency in generated code (multiplication emulation and
# stack traffic dominate).  li and lui share _LI, their constant being
# computed at decode time, and j L is beq $zero, $zero, L; _LW/_SW take
# an absolute address, _LWR/_SWR an offset from a register.
(
    _ADDIU, _BEQ, _ADDU, _SWR, _LWR, _SLL, _LW, _LI, _SRL, _SW, _SLT, _BNE,
    _SUBU, _SLTU, _ORI, _NOR, _AND, _OR, _XOR, _SLLV, _SRLV, _BREAK, _END,
) = range(23)

# mnemonic -> opcode for the three-register forms, d := s op t
_RRR = {
    "addu": _ADDU, "subu": _SUBU, "slt": _SLT, "sltu": _SLTU, "and": _AND,
    "or": _OR, "xor": _XOR, "nor": _NOR, "sllv": _SLLV, "srlv": _SRLV,
}
# mnemonic -> opcode for d := s op immediate
_RRI = {"addiu": _ADDIU, "ori": _ORI, "sll": _SLL, "srl": _SRL}


def _decode(text, target: dict, addr_of: dict) -> list[tuple]:
    """The checked text as opcode tuples, ending in an _END sentinel.

    target maps each text label to the index of the instruction after it.
    Each distinct instruction object is decoded once; the memo lives only
    for this call, because target and addr_of belong to one program.
    """

    def dst(r: str) -> int:
        return _SLOT[r] or _SINK

    def decode(op: str, args: tuple) -> tuple:
        if op in _RRR:
            return (_RRR[op], dst(args[0]), _SLOT[args[1]], _SLOT[args[2]])
        if op in _RRI:
            return (_RRI[op], dst(args[0]), _SLOT[args[1]], args[2])
        if op == "lw" or op == "sw":
            reg = dst(args[0]) if op == "lw" else _SLOT[args[0]]
            where = args[1]
            if isinstance(where, Mem):
                return (_LWR if op == "lw" else _SWR, reg, _SLOT[where.base], where.offset)
            return (_LW if op == "lw" else _SW, reg, addr_of[where], 0)
        if op == "li":
            return (_LI, dst(args[0]), args[1] & _MASK, 0)
        if op == "lui":
            return (_LI, dst(args[0]), (args[1] << 16) & _MASK, 0)
        if op == "beq" or op == "bne":
            return (_BEQ if op == "beq" else _BNE, _SLOT[args[0]], _SLOT[args[1]], target[args[2]])
        if op == "j":
            return (_BEQ, 0, 0, target[args[0]])
        return (_BREAK, 0, 0, 0)

    code = []
    done: dict[int, tuple] = {}
    for item in text:
        if type(item) is LabelDef:
            continue
        tup = done.get(id(item))
        if tup is None:
            tup = done[id(item)] = decode(item.op, item.args)
        code.append(tup)
    code.append((_END, 0, 0, 0))
    return code


_HOT = 32  # entries after which a block is translated
_SP = _SLOT["$sp"]
_LIFT_C = (_BEQ, _BNE, *_RRI.values())  # opcodes whose c is a constant
# the Python expression of each computing opcode over its operands
_EXPR = {
    _ADDIU: "({b} + {c}) & 4294967295", _ADDU: "({b} + {c}) & 4294967295",
    _SUBU: "({b} - {c}) & 4294967295", _SLL: "({b} << {c}) & 4294967295",
    _SRL: "{b} >> {c}", _SLT: "int(({b} ^ 2147483648) < ({c} ^ 2147483648))",
    _SLTU: "int({b} < {c})", _ORI: "{b} | {c}", _NOR: "~({b} | {c}) & 4294967295",
    _AND: "{b} & {c}", _OR: "{b} | {c}", _XOR: "{b} ^ {c}",
    _SLLV: "({b} << ({c} & 31)) & 4294967295", _SRLV: "{b} >> ({c} & 31)",
}


class _Declined(Exception):
    """A block that uses $sp as a value or addresses memory from another base."""


def _block(code: list, pc: int) -> tuple[tuple, tuple]:
    """The block at pc as (shape, constants): its decoded tuples with each
    word, address, immediate and branch target (relative to pc) replaced
    by k<i>, the name of the i-th distinct one."""
    shape, consts = [], {}
    for op, a, b, c in islice(code, pc, None):
        if op == _BREAK or op == _END:
            break
        ins = [op, a, b, c - pc if op == _BEQ or op == _BNE else c]
        i = 2 if op in (_LI, _LW, _SW) else 3 if op in _LIFT_C and not a == b == _SP else 0
        if i:
            ins[i] = f"k{consts.setdefault(ins[i], len(consts))}"
        shape.append(tuple(ins))
        if op == _BEQ or op == _BNE:
            break
    return tuple(shape), tuple(consts)


def _source(shape: tuple) -> str:
    """Source of make(k0, k1, ...), which returns run(regs, mem, hi): the
    block of this shape with those constants.  run returns the next pc
    relative to the block's start, or None, having changed nothing, if a
    stack slot could trap or be a data word (below hi)."""
    head, body, known, stores, offsets = [], [], {}, {}, set()
    val, sp = {0: "0"}, 0  # register slot -> atom of its value; $sp - its entry s

    def read(r):
        if r == _SP:
            raise _Declined
        if r not in val:
            val[r] = f"r{r}"
            head.append(f"r{r} = regs[{r}]")
        return val[r]

    def write(r, expr):
        if r == _SP:
            raise _Declined
        if not (expr.isidentifier() or expr.isdigit()):
            body.append(f"v{len(body)} = {expr}")
            expr = f"v{len(body) - 1}"
        val[r] = expr

    end = f"return {len(shape)}"
    for op, a, b, c in shape:
        if op == _ADDIU and a == b == _SP:
            sp += c
        elif op in _EXPR:
            x, y = read(b), c if op in _LIFT_C else read(c)
            write(a, x if op == _ADDU and y == "0" else _EXPR[op].format(b=x, c=y))
        elif op == _LI:
            write(a, b)
        elif op == _BEQ or op == _BNE:
            end = f"return {c} if {read(a)} {'==' if op == _BEQ else '!='} {read(b)} else {len(shape)}"
        else:
            if op == _LWR or op == _SWR:  # b is the base, c the offset
                if b != _SP or (sp + c) & 3:
                    raise _Declined
                offsets.add(sp + c)
                b = f"s + {sp + c}"
            if op == _SW or op == _SWR:
                known[b] = stores[b] = read(a)
            elif b in known:
                write(a, known[b])
            else:
                write(a, f"mem[{b}]" if op == _LW else f"mem.get({b}, 0)")
                known[b] = val[a]
    tail = [f"mem[{addr}] = {v}" for addr, v in stores.items()]
    tail += [f"regs[{r}] = {v}" for r, v in val.items() if r and v != f"r{r}"]
    if offsets or sp:
        low, high = min(offsets, default=0), max(offsets, default=0)
        guard = f"if s & 3 or not hi - {low} <= s <= {_MASK - high}: return None"
        head[:0] = [f"s = regs[{_SP}]"] + [guard] * bool(offsets)
        tail += [f"regs[{_SP}] = (s + {sp}) & 4294967295"] * bool(sp)
    params = ", ".join(f"k{i}" for i in range(len({x for t in shape for x in t if type(x) is str})))
    run = ["def run(regs, mem, hi):"] + ["    " + line for line in head + body + tail + [end]]
    return "\n    ".join([f"def make({params}):"] + run + ["return run"])


@lru_cache(maxsize=512)
def _translate(shape: tuple):
    """make of shape's source, compiled once per shape; None if declined."""
    try:
        exec(_source(shape), env := {})
        return env["make"]
    except _Declined:
        return None


def simulate(prog: MipsProgram, init: dict | None = None, budget: int = 10**6):
    """Run prog from main; init maps variable names to starting words.

    Names in init without a matching data label are ignored.  Returns
    Halted with the final data words, BudgetExhausted, or Trap.  Raises
    ValueError before running anything when ``check`` rejects prog.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    target = check(prog)
    init = init or {}
    addr_of: dict[str, int] = {}
    mem: dict[int, int] = {}
    for i, (label, word) in enumerate(prog.data):
        addr = DATA_BASE + 4 * i
        addr_of[label] = addr
        mem[addr] = init.get(_var_name(label), word) & _MASK

    code = _decode(prog.text, target, addr_of)
    regs = [0] * (_SINK + 1)
    regs[_SP] = STACK_TOP
    pc = target["main"]
    # entries into the block at each pc, and its (length, function)
    heat, blocks = [0] * len(code), [None] * len(code)
    hi = DATA_BASE + 4 * len(prog.data)
    left = budget
    while True:
        # chain translated blocks while the budget covers each whole one
        while True:
            blk = blocks[pc]
            if blk is None:
                heat[pc] += 1
                if heat[pc] < _HOT:
                    break
                shape, consts = _block(code, pc)
                make = shape and _translate(shape)
                # a declined (or empty) block is longer than any budget left
                blk = blocks[pc] = (len(shape), make(*consts)) if make else (left + 1, None)
            n, fn = blk
            if left < n or (step := fn(regs, mem, hi)) is None:
                break
            left -= n
            pc += step
        # to the blocks on a taken branch into a hot one, with the budget left
        it = repeat(None, left)
        for _ in it:
            op, a, b, c = code[pc]
            pc += 1
            if op == _ADDIU:
                regs[a] = (regs[b] + c) & _MASK
            elif op == _BEQ:
                if regs[a] == regs[b]:
                    pc = c
                    heat[c] += 1
                    if heat[c] >= _HOT:
                        break
            elif op == _ADDU:
                regs[a] = (regs[b] + regs[c]) & _MASK
            elif op == _SWR:
                addr = (regs[b] + c) & _MASK
                if addr & 3:
                    return Trap(f"unaligned store at {addr:#010x}")
                mem[addr] = regs[a]
            elif op == _LWR:
                addr = (regs[b] + c) & _MASK
                if addr & 3:
                    return Trap(f"unaligned load at {addr:#010x}")
                regs[a] = mem.get(addr, 0)
            elif op == _SLL:
                regs[a] = (regs[b] << c) & _MASK
            elif op == _LW:
                regs[a] = mem[b]
            elif op == _LI:
                regs[a] = b
            elif op == _SRL:
                regs[a] = regs[b] >> c
            elif op == _SW:
                mem[b] = regs[a]
            elif op == _SLT:
                # flipping the sign bit maps signed order onto unsigned order
                regs[a] = int(regs[b] ^ _SIGN < regs[c] ^ _SIGN)
            elif op == _BNE:
                if regs[a] != regs[b]:
                    pc = c
                    heat[c] += 1
                    if heat[c] >= _HOT:
                        break
            elif op == _SUBU:
                regs[a] = (regs[b] - regs[c]) & _MASK
            elif op == _SLTU:
                regs[a] = int(regs[b] < regs[c])
            elif op == _ORI:
                regs[a] = (regs[b] | c) & _MASK
            elif op == _NOR:
                regs[a] = ~(regs[b] | regs[c]) & _MASK
            elif op == _AND:
                regs[a] = regs[b] & regs[c]
            elif op == _OR:
                regs[a] = regs[b] | regs[c]
            elif op == _XOR:
                regs[a] = regs[b] ^ regs[c]
            elif op == _SLLV:
                regs[a] = (regs[b] << (regs[c] & 31)) & _MASK
            elif op == _SRLV:
                regs[a] = regs[b] >> (regs[c] & 31)
            elif op == _BREAK:
                return Halted({_var_name(label): mem[addr_of[label]] for label, _ in prog.data})
            else:
                return Trap(f"pc {len(prog.text)} outside the text segment")
        else:
            # budget spent; a pc that has already left the text still traps
            if code[pc][0] == _END:
                return Trap(f"pc {len(prog.text)} outside the text segment")
            return BudgetExhausted()
        left = it.__length_hint__()
