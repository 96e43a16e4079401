"""Correctness oracles, written apart from cimp and run outside timed code.

Every command's result is first brought to a plain form, either by
parsing the CLI's text (`from_cli`) or, in the traced replay, straight
from cimp's return values.  `check` then compares that form with what
the workload expects:

* run: the final store equals the expected one (mod 2^32 for typed
  programs and for the MIPS engine, which computes on 32-bit words);
* compile: the emitted stack listing or MIPS assembly is executed here,
  by `stack_run` or `mips_run`, and its final store equals the reference
  evaluator's;
* typecheck: every declaration comes back with its declared type;
* vc: correct annotations are all valid with exit 0; a wrong one exits 1
  and each counterexample falsifies one of its proof obligations, which
  the workload states as Python; SMT scripts are checked for shape;
* fuzz: every case ran, every engine finished it, all agreed.

A result is "failed" when the operation did not complete (bad exit code,
out of fuel, budget exhausted, unparseable output) and "wrong" when it
completed with an incorrect answer.
"""

from __future__ import annotations

import re
from pathlib import Path

from lang import MASK, signed


class Failed(Exception):
    """The operation did not complete."""


class Wrong(Exception):
    """The operation completed with an incorrect output."""


# ---------------------------------------------------------------------------
# Stack-listing interpreter


def stack_run(listing: str, init: dict | None = None, fuel: int = 10**7) -> tuple[dict, int]:
    """Execute `cimp compile` stack output; returns (store, instructions run).

    Branches are relative: offset d at index pc continues at pc + 1 + d.
    Every executed instruction, the final IHALT included, counts once.
    """
    code = []
    for line in listing.splitlines():
        op, _, arg = line.partition(" ")
        code.append((op, int(arg) if op in _STACK_INT_ARGS else arg))
    store = dict(init or {})
    stack: list[int] = []
    pc = count = 0
    while True:
        if not 0 <= pc < len(code):
            raise Wrong(f"stack code left its text at pc {pc}")
        if count == fuel:
            raise Failed("stack code ran past its fuel")
        count += 1
        op, arg = code[pc]
        pc += 1
        if op == "ICONST":
            stack.append(arg)
        elif op == "IVAR":
            stack.append(store.get(arg, 0))
        elif op == "ISETVAR":
            store[arg] = stack.pop()
        elif op in ("IADD", "ISUB", "IMUL"):
            y, x = stack.pop(), stack.pop()
            stack.append(x + y if op == "IADD" else x - y if op == "ISUB" else x * y)
        elif op == "IBRANCH":
            pc += arg
        elif op in _STACK_TESTS:
            y, x = stack.pop(), stack.pop()
            if _STACK_TESTS[op](x, y):
                pc += arg
        elif op == "IHALT":
            if stack:
                raise Wrong(f"{len(stack)} values left on the stack at IHALT")
            return store, count
        else:
            raise Wrong(f"unknown stack instruction {op!r}")


_STACK_INT_ARGS = {"ICONST", "IBRANCH", "IBEQ", "IBNE", "IBLE", "IBGT"}
_STACK_TESTS = {
    "IBEQ": lambda x, y: x == y,
    "IBNE": lambda x, y: x != y,
    "IBLE": lambda x, y: x <= y,
    "IBGT": lambda x, y: x > y,
}


# ---------------------------------------------------------------------------
# MIPS assembly interpreter

_MEM_OPERAND = re.compile(r"^(-?\d+)\((\$\w+)\)$")


def mips_run(asm: str, budget: int = 10**7) -> dict:
    """Execute `cimp compile --backend mips` text; returns the final data
    words by variable name (labels var_<name>)."""
    data: dict[str, int] = {}
    text: list[tuple[str, list[str]]] = []
    labels: dict[str, int] = {}
    for raw in asm.splitlines():
        line = raw.strip()
        if not line or line.startswith("."):
            continue
        if ".word" in line:
            label, _, word = line.partition(":")
            data[label] = int(word.split()[1]) & MASK
        elif line.endswith(":"):
            labels[line[:-1]] = len(text)
        else:
            op, _, rest = line.partition(" ")
            text.append((op, [a.strip() for a in rest.split(",")] if rest else []))
    if "main" not in labels:
        raise Wrong("no main label")
    regs = {"$sp": 0x7FFFF000}
    mem: dict[int, int] = {}

    def reg(name: str) -> int:
        return 0 if name == "$zero" else regs.get(name, 0)

    def put(name: str, v: int) -> None:
        if name != "$zero":
            regs[name] = v & MASK

    def load(operand: str) -> int:
        if operand in data:
            return data[operand]
        m = _MEM_OPERAND.match(operand)
        return mem.get((reg(m[2]) + int(m[1])) & MASK, 0)

    def store(operand: str, v: int) -> None:
        if operand in data:
            data[operand] = v
        else:
            m = _MEM_OPERAND.match(operand)
            mem[(reg(m[2]) + int(m[1])) & MASK] = v

    pc = labels["main"]
    while True:
        if not 0 <= pc < len(text):
            raise Wrong(f"MIPS code left its text at {pc}")
        if budget == 0:
            raise Failed("MIPS code ran past its budget")
        budget -= 1
        op, a = text[pc]
        pc += 1
        if op == "break":
            return {label[4:]: w for label, w in data.items()}
        if op in ("beq", "bne"):
            if (reg(a[0]) == reg(a[1])) == (op == "beq"):
                pc = labels[a[2]]
        elif op == "j":
            pc = labels[a[0]]
        elif op == "lw":
            put(a[0], load(a[1]))
        elif op == "sw":
            store(a[1], reg(a[0]))
        elif op == "li":
            put(a[0], int(a[1]))
        elif op == "lui":
            put(a[0], int(a[1]) << 16)
        elif op in _MIPS_IMM:
            put(a[0], _MIPS_IMM[op](reg(a[1]), int(a[2])))
        elif op in _MIPS_ALU:
            put(a[0], _MIPS_ALU[op](reg(a[1]), reg(a[2])))
        else:
            raise Wrong(f"unknown MIPS instruction {op!r}")


_MIPS_IMM = {
    "ori": lambda x, k: x | k,
    "addiu": lambda x, k: x + k,
    "sll": lambda x, k: x << k,
    "srl": lambda x, k: x >> k,
}
_MIPS_ALU = {
    "addu": lambda x, y: x + y,
    "subu": lambda x, y: x - y,
    "and": lambda x, y: x & y,
    "or": lambda x, y: x | y,
    "xor": lambda x, y: x ^ y,
    "nor": lambda x, y: ~(x | y),
    "sllv": lambda x, y: x << (y & 31),
    "srlv": lambda x, y: x >> (y & 31),
    "slt": lambda x, y: int(signed(x) < signed(y)),
    "sltu": lambda x, y: int(x < y),
}


# ---------------------------------------------------------------------------
# Plain forms of CLI output

_FUEL_WORDS = ("out of fuel", "budget exhausted", "out_of_fuel")


def _store_lines(out: str) -> dict:
    store = {}
    for line in out.splitlines():
        name, sep, value = line.partition("=")
        if not sep:
            raise Failed(f"not a store line: {line!r}")
        store[name] = int(value)
    return store


def from_cli(cmd, code: int, out: str, err: str):
    """The plain form of one CLI call's result (see the module docstring)."""
    if any(word in out for word in _FUEL_WORDS):
        raise Failed(out.strip())
    want = 1 if cmd.kind == "vc" and cmd.expect.wrong and "bound" in cmd.opts else 0
    if code != want:
        raise Failed(f"exit {code}, expected {want}: {err.strip()[:200]}")
    if cmd.kind == "run":
        return _store_lines(out)
    if cmd.kind == "compile":
        return out
    if cmd.kind == "typecheck":
        return [tuple(line.split(": ")) for line in out.splitlines()]
    if cmd.kind == "vc" and cmd.opts.get("smt2"):
        paths = [line.rpartition(" wrote ")[2] for line in out.splitlines()]
        if not paths or any(not p for p in paths):
            raise Failed(f"unexpected vc output {out[:200]!r}")
        return [Path(p).read_text() for p in paths]
    if cmd.kind == "vc":
        verdicts = []
        for line in out.splitlines():
            name, _, rest = line.partition(": ")
            word, _, inline = rest.partition(" ")
            store = dict((k, int(v)) for k, _, v in (b.partition("=") for b in inline.split()))
            verdicts.append((name, word, store))
        return code, verdicts
    assert cmd.kind == "fuzz"
    fields, tallies = {}, {}
    for line in out.splitlines():
        key, _, rest = line.strip().partition(": ")
        if line.startswith("  "):
            tallies[key] = dict((k, int(v)) for k, _, v in (t.partition("=") for t in rest.split()))
        else:
            fields[key] = int(rest)
    return {"cases": fields.get("cases run"), "agreements": fields.get("agreements"),
            "divergences": fields.get("divergences"), "skipped": fields.get("skipped"),
            "tallies": tallies}


# ---------------------------------------------------------------------------
# Checks


def _same_store(got: dict, want: dict, words: bool) -> None:
    for name in sorted(set(got) | set(want)):
        g, w = got.get(name, 0), want.get(name, 0)
        if words:
            g, w = g & MASK, w & MASK
        if g != w:
            raise Wrong(f"{name}={g}, expected {w}")


def check(cmd, result) -> None:
    """Raise Wrong (or Failed) unless result is what cmd should produce."""
    e = cmd.expect
    if cmd.kind == "run":
        _same_store(result, e.store, e.typed or cmd.opts["engine"] == "mips")
    elif cmd.kind == "compile":
        if cmd.opts["backend"] == "stack":
            _same_store(stack_run(result)[0], e.store, False)
        else:
            _same_store(mips_run(result), e.store, True)
    elif cmd.kind == "typecheck":
        if result != list(e.decls):
            raise Wrong(f"typing {result[:4]}..., expected the declarations")
    elif cmd.kind == "vc" and cmd.opts.get("smt2"):
        for script in result:
            check_smt(script, e.names)
    elif cmd.kind == "vc":
        code, verdicts = result
        if not verdicts:
            raise Wrong("no verification conditions reported")
        bad = [store for _, word, store in verdicts if word != "valid"]
        if not e.wrong:
            if bad or code != 0:
                raise Wrong(f"correct annotation refuted by {bad[:1]}")
            return
        if code != 1 or not bad:
            raise Wrong("wrong annotation reported valid")
        for store in bad:
            if not e.refutes(store):
                raise Wrong(f"counterexample {store} falsifies no obligation")
    else:
        n, engines = cmd.opts["count"], cmd.opts["engines"].split(",")
        if any("out_of_fuel" in tally for tally in result["tallies"].values()):
            raise Failed(f"fuzz engines ran out of fuel: {result['tallies']}")
        if (result["cases"], result["agreements"], result["divergences"]) != (n, n, 0):
            raise Wrong(f"fuzz report {result}")
        for engine in engines:
            if result["tallies"].get(engine) != {"done": n}:
                raise Wrong(f"{engine}: {result['tallies'].get(engine)}, expected done={n}")


_SMT_WORDS = {"assert", "not", "and", "or", "true", "false"}


def check_smt(script: str, names: frozenset) -> None:
    """One declare-const per free variable, balanced parentheses, and a
    final check-sat."""
    depth = 0
    for ch in script:
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            raise Wrong("unbalanced parentheses")
    lines = script.strip().splitlines()
    if depth or not lines or lines[-1] != "(check-sat)":
        raise Wrong("script is not closed by (check-sat)")
    declared = re.findall(r"\(declare-const (\w+) Int\)", script)
    used = set(re.findall(r"[A-Za-z_]\w*", "".join(l for l in lines if l.startswith("(assert"))))
    used -= _SMT_WORDS
    if len(declared) != len(set(declared)) or set(declared) != used or not used <= names:
        raise Wrong(f"declares {sorted(declared)} but uses {sorted(used)}")
