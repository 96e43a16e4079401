"""The benchmark's own imp program trees, printer and reference evaluator.

Nothing here imports cimp: programs are built as plain tuples, printed to
imp source text, and evaluated by a small interpreter that serves as the
independent oracle for `cimp compile` output.

    aexp := ("lit", n) | ("var", x) | ("neg", a) | ("~", a)
          | ("cast", ty, a) | (op, a, a)      op in + - * & | ^ << >>
    bexp := ("bool", b) | ("cmp", op, a, a, ty) | ("!", b) | ("&&", b, b)
          | ("||", b, b)                      op in = <= <; ty None|i32|u32
    com  := ("skip",) | ("assign", x, a) | ("seq", [com, ...])
          | ("if", bexp, com, com) | ("while", bexp, com)

A comparison records the type its operands have in a typed program,
because that type alone decides between signed and unsigned order.
"""

from __future__ import annotations

from dataclasses import dataclass

MASK = 0xFFFFFFFF
_PREC = {"+": 1, "-": 1, "*": 2, "&": 3, "|": 3, "^": 3, "<<": 3, ">>": 3}


@dataclass(frozen=True)
class Prog:
    decls: tuple  # ((name, "i32" | "u32"), ...); empty for untyped programs
    body: tuple

    @property
    def typed(self) -> bool:
        return bool(self.decls)


def signed(w: int) -> int:
    return w - (1 << 32) if w & 0x80000000 else w


# ---------------------------------------------------------------------------
# Printing


def _prec(e) -> int:
    return _PREC.get(e[0], 5 if e[0] in ("lit", "var", "cast") else 4)


def aexp_text(e, ctx: int = 0) -> str:
    tag = e[0]
    if tag == "lit":
        s = str(e[1])
    elif tag == "var":
        s = e[1]
    elif tag in ("neg", "~"):
        s = ("-" if tag == "neg" else "~") + aexp_text(e[1], 4)
    elif tag == "cast":
        s = f"{e[1]}({aexp_text(e[2])})"
    else:
        p = _PREC[tag]
        s = f"{aexp_text(e[1], p)} {tag} {aexp_text(e[2], p + 1)}"
    return f"({s})" if _prec(e) < ctx else s


def bexp_text(b) -> str:
    tag = b[0]
    if tag == "bool":
        return "true" if b[1] else "false"
    if tag == "cmp":
        return f"{aexp_text(b[2])} {b[1]} {aexp_text(b[3])}"
    if tag == "!":
        return f"!({bexp_text(b[1])})"
    return f"({bexp_text(b[1])}) {tag} ({bexp_text(b[2])})"


def com_lines(c, indent: str = "") -> list[str]:
    tag = c[0]
    if tag == "skip":
        return [indent + "skip"]
    if tag == "assign":
        return [f"{indent}{c[1]} := {aexp_text(c[2])}"]
    if tag == "seq":
        out: list[str] = []
        for i, s in enumerate(c[1]):
            lines = com_lines(s, indent)
            if i + 1 < len(c[1]):
                lines[-1] += ";"
            out += lines
        return out
    inner = indent + "  "
    if tag == "if":
        return (
            [f"{indent}if {bexp_text(c[1])} then"]
            + com_lines(c[2], inner)
            + [indent + "else"]
            + com_lines(c[3], inner)
            + [indent + "end"]
        )
    return [f"{indent}while {bexp_text(c[1])} do"] + com_lines(c[2], inner) + [indent + "done"]


def program_text(p: Prog) -> str:
    decls = [f"var {name}: {ty};" for name, ty in p.decls]
    return "\n".join(decls + com_lines(p.body)) + "\n"


# ---------------------------------------------------------------------------
# Reference evaluation


class Diverged(Exception):
    """The reference run left the range or iteration count it was given."""


class _Eval:
    def __init__(self, typed: bool, max_iters: int, limit: int | None):
        self.typed = typed
        self.iters_left = max_iters
        self.limit = limit  # untyped only: every assigned |value| stays below it

    def a(self, e, s) -> int:
        tag = e[0]
        if tag == "lit":
            v = e[1]
        elif tag == "var":
            v = s.get(e[1], 0)
        elif tag == "neg":
            v = -self.a(e[1], s)
        elif tag == "~":
            v = self.a(e[1], s) ^ MASK
        elif tag == "cast":
            v = self.a(e[2], s)
        else:
            x, y = self.a(e[1], s), self.a(e[2], s)
            if tag == "+":
                v = x + y
            elif tag == "-":
                v = x - y
            elif tag == "*":
                v = x * y
            elif tag == "&":
                v = x & y
            elif tag == "|":
                v = x | y
            elif tag == "^":
                v = x ^ y
            elif tag == "<<":
                v = x << (y % 32)
            else:
                v = x >> (y % 32)
        return v & MASK if self.typed else v

    def b(self, b, s) -> bool:
        tag = b[0]
        if tag == "bool":
            return b[1]
        if tag == "cmp":
            x, y = self.a(b[2], s), self.a(b[3], s)
            if b[4] == "i32":
                x, y = signed(x), signed(y)
            return x == y if b[1] == "=" else x <= y if b[1] == "<=" else x < y
        if tag == "!":
            return not self.b(b[1], s)
        if tag == "&&":
            return self.b(b[1], s) and self.b(b[2], s)
        return self.b(b[1], s) or self.b(b[2], s)

    def c(self, c, s) -> None:
        tag = c[0]
        if tag == "assign":
            v = self.a(c[2], s)
            if self.limit is not None and not -self.limit <= v < self.limit:
                raise Diverged(f"{c[1]} := {v} leaves the range")
            s[c[1]] = v
        elif tag == "seq":
            for sub in c[1]:
                self.c(sub, s)
        elif tag == "if":
            self.c(c[2] if self.b(c[1], s) else c[3], s)
        elif tag == "while":
            while self.b(c[1], s):
                self.iters_left -= 1
                if self.iters_left < 0:
                    raise Diverged("iteration cap reached")
                self.c(c[2], s)


def evaluate(p: Prog, max_iters: int = 100_000, limit: int | None = None) -> dict:
    """Final store from the all-zero store: exact integers for untyped
    programs, 32-bit words (comparisons signed or unsigned by type) for
    typed ones.  Raises Diverged past max_iters loop iterations or, for
    untyped programs, when an assigned value leaves [-limit, limit)."""
    store: dict = {}
    _Eval(p.typed, max_iters, limit).c(p.body, store)
    return store
