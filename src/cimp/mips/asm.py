"""Assembly text emission and parsing.

emit_asm prints a program in conventional two-section form; parse_asm
reads the same dialect back.  parse_asm(emit_asm(p)) == p for every
program built from the declared subset.  An ``Ins`` checks its shape
when it is built, so parse_asm reports an instruction that does not fit
its shape at its line, with the message every other builder gets; the
label rules are the ones ``isa.check`` applies.
"""

from __future__ import annotations

import re

from ..errors import CimpError
from ..syntax import SrcPos
from .isa import SHAPES, Ins, LabelDef, Mem, MipsProgram, ins


class AsmError(CimpError):
    """Raised on text that does not fit the declared subset."""

    def __init__(self, line: int, reason: str):
        super().__init__(reason, SrcPos(line, 1))
        self.line = line
        self.reason = reason


def _fmt_arg(arg) -> str:
    if isinstance(arg, Mem):
        return f"{arg.offset}({arg.base})"
    return str(arg)


def _line(item) -> str:
    if isinstance(item, LabelDef):
        return f"{item.name}:"
    if item.args:
        return f"\t{item.op} " + ", ".join(_fmt_arg(a) for a in item.args)
    return f"\t{item.op}"


def emit_asm(prog: MipsProgram) -> str:
    """The program as text; each distinct instruction object is formatted once.

    In a codegen result equal instructions are one object, and most of
    the text repeats a few of them, such as the pushes and pops of the
    operand stack.  The memo lives only for this call.
    """
    lines = ["\t.data"]
    for label, word in prog.data:
        lines.append(f"{label}: .word {word}")
    lines.append("\t.text")
    lines.append("\t.globl main")
    done: dict[int, str] = {}
    for item in prog.text:
        line = done.get(id(item))
        if line is None:
            line = done[id(item)] = _line(item)
        lines.append(line)
    return "\n".join(lines) + "\n"


_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_MEM_RE = re.compile(r"^(-?\d+)\((\$[a-z0-9]+)\)$")
_DATA_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):\s*\.word\s+(-?\d+)$")


def _parse_operand(kind: str, token: str, line_no: int):
    """The token read as a kind operand; ``Ins`` checks its value, and an
    undefined label is reported when the pass ends."""
    if kind in ("imm16u", "imm16s", "shamt"):
        try:
            return int(token, 0)
        except ValueError:
            raise AsmError(line_no, f"expected an integer, got {token!r}") from None
    m = _MEM_RE.match(token) if kind == "addr" else None
    return Mem(int(m.group(1)), m.group(2)) if m else token


def parse_asm(src: str) -> MipsProgram:
    """Parse assembly text, checking mnemonics, operands and labels;
    each distinct instruction line is parsed once, its repeats sharing it."""
    data: list[tuple[str, int]] = []
    text: list = []
    # (line, label, kind) for each referenced label at its text's first line
    refs: list[tuple[int, str, str]] = []
    made: dict[str, Ins] = {}  # instruction text -> its one instruction object
    defined: dict[str, int] = {}
    section = "text"

    def define(name: str, line_no: int) -> None:
        if name in defined:
            raise AsmError(line_no, f"duplicate label {name!r}")
        defined[name] = line_no

    for line_no, raw in enumerate(src.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            directive = line.split()[0]
            if directive == ".data":
                section = "data"
            elif directive == ".text":
                section = "text"
            elif directive == ".globl":
                pass
            else:
                raise AsmError(line_no, f"unknown directive {directive!r}")
            continue
        if section == "data":
            m = _DATA_RE.match(line)
            if not m:
                raise AsmError(line_no, "expected 'label: .word value'")
            define(m.group(1), line_no)
            data.append((m.group(1), int(m.group(2)) & 0xFFFFFFFF))
            continue
        if line.endswith(":"):
            name = line[:-1].strip()
            if not _LABEL_RE.match(name):
                raise AsmError(line_no, f"bad label name {name!r}")
            define(name, line_no)
            text.append(LabelDef(name))
            continue
        item = made.get(line)
        if item is None:  # parsed at its first line; a repeat is the same object
            parts = line.split(None, 1)
            op = parts[0]
            shape = SHAPES.get(op, ())
            tokens = [t.strip() for t in parts[1].split(",")] if len(parts) > 1 else []
            # tokens past the shape stay text, so Ins reports the operand count
            args = [_parse_operand(k, t, line_no) for k, t in zip(shape, tokens)]
            try:
                item = made[line] = ins(op, *args, *tokens[len(shape) :])
            except ValueError as err:
                raise AsmError(line_no, str(err)) from None
            for kind, arg in zip(shape, args):
                if kind == "label" or (kind == "addr" and isinstance(arg, str)):
                    refs.append((line_no, arg, kind))
        text.append(item)

    data_names = {name for name, _ in data}
    text_names = {i.name for i in text if isinstance(i, LabelDef)}
    for line_no, name, kind in refs:
        if kind == "label":
            if name not in text_names:
                raise AsmError(line_no, f"undefined branch target {name!r}")
        elif name not in data_names:
            raise AsmError(line_no, f"undefined data label {name!r}")
    return MipsProgram(data=tuple(data), text=tuple(text))
