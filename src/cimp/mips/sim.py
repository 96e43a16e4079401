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
opcodes.  Each distinct instruction object is decoded once per call,
as codegen shares the ones whose operands never change.  The decoded
program runs in one flat dispatch loop.  Labels take no room in the
decoded program, so they consume no budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .isa import REGISTERS, LabelDef, Mem, MipsProgram, check

DATA_BASE = 0x10000000
STACK_TOP = 0x7FFFF000

_MASK = 0xFFFFFFFF
_SIGN = 0x80000000


@dataclass(frozen=True)
class Halted:
    """Final data-segment words, keyed by variable name."""

    words: dict

    def __getitem__(self, name: str) -> int:
        return self.words[name]


@dataclass(frozen=True)
class BudgetExhausted:
    pass


@dataclass(frozen=True)
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
# computed at decode time; _LW/_SW take an absolute address, _LWR/_SWR
# an offset from a register.
(
    _ADDIU, _BEQ, _ADDU, _SWR, _LWR, _SLL, _LW, _J, _LI, _SRL, _SW, _SLT,
    _BNE, _SUBU, _SLTU, _ORI, _NOR, _AND, _OR, _XOR, _SLLV, _SRLV, _BREAK,
    _END,
) = range(24)

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
            return (_J, target[args[0]], 0, 0)
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
    regs[_SLOT["$sp"]] = STACK_TOP
    pc = target["main"]
    for _ in repeat(None, budget):
        op, a, b, c = code[pc]
        pc += 1
        if op == _ADDIU:
            regs[a] = (regs[b] + c) & _MASK
        elif op == _BEQ:
            if regs[a] == regs[b]:
                pc = c
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
        elif op == _J:
            pc = a
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
    # budget spent; a pc that has already left the text still traps
    if code[pc][0] == _END:
        return Trap(f"pc {len(prog.text)} outside the text segment")
    return BudgetExhausted()
