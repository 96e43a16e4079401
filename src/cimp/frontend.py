"""Lexer, parser, and pretty printer for `.imp` source.

Concrete syntax:

    program  := decl* com EOF
    decl     := "var" IDENT (":" ("i32" | "u32"))? ";"
    com      := "skip" | IDENT ":=" aexp | com ";" com
              | "if" formula "then" com "else" com "end"
              | "while" formula ("invariant" "{" formula "}")? "do" com "done"

Operator precedence is stated once: the tables ``ARITH_OPS``,
``ARITH_PREFIX``, ``FORMULA_OPS`` and ``FORMULA_PREFIX`` below are the
one source for both the parser and the printer.  Arithmetic operands
are literals, variables, casts ``i32(...)`` / ``u32(...)`` and
parentheses; formula operands are ``true``, ``false``, comparisons
``= <= <`` and parentheses.  Conditions and assertions share the
formula grammar, but ``->`` belongs to specifications: one in an ``if``
or ``while`` condition is an error located at the ``->``.

Integer literals are decimal or hexadecimal (``0x...``); the pretty
printer always emits decimal.  Comments run from ``//`` to end of
line.  ``;`` is a separator, not a terminator, and sequences associate
to the right structurally.

The parser is recursive descent, with one precedence-climbing method
for the binary operators of a table and one for its prefix operators.
The only backtracking point is an opening parenthesis in formula
position, which may introduce either a parenthesized formula or the
left operand of a comparison; both alternatives are tried and the error
that made it furthest wins.

Sequences and chains of binary operators are parsed in loops.  What
nests opens one level each: a parenthesis (a cast's included), a unary
``-``, ``~`` or ``!``, and an ``if`` or ``while`` statement.  At most
``MAX_NESTING`` (100) levels may be open at once; the token that would
open one more raises NestingError, a located CimpError, so the parser's
recursion stays bounded and a program at the limit still runs on every
engine and compiles on both backends.

The pretty printer emits minimal parentheses, so ``parse`` after
``pretty`` reproduces the input AST structurally (positions are not
compared).  Left-nested sequences are the one exception: ``pretty``
prints them flat and the parser rebuilds the chain right-nested, which
is semantically inert.  Expressions and formulas print from an explicit
stack, so chains of any length print without recursion.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .errors import CimpError
from .syntax import (
    AExpr,
    And,
    Assertion,
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
    Implies,
    IntLit,
    Neg,
    Not,
    Or,
    Program,
    Seq,
    Skip,
    SrcPos,
    Ty,
    Var,
    While,
    statements,
)

KEYWORDS = frozenset(
    "skip if then else end while do done true false var invariant i32 u32".split()
)

# Deepest nesting the parser accepts; see the module docstring.
MAX_NESTING = 100

# Binary operators level by level, loosest first: lexeme -> node class.
# Operators associate to the left except those in RIGHT_ASSOC.  Arithmetic
# and formulas keep separate tables, so an arithmetic chain never takes a
# connective and '-' is never a formula prefix.
ARITH_OPS = (
    {"+": BinOp, "-": BinOp},
    {"*": BinOp},
    {"&": BitOp, "|": BitOp, "^": BitOp, "<<": BitOp, ">>": BitOp},
)
FORMULA_OPS = ({"->": Implies}, {"||": Or}, {"&&": And})
RIGHT_ASSOC = frozenset({"->"})
# Prefix operators, tighter than every binary level: lexeme -> node class.
ARITH_PREFIX = {"-": Neg, "~": BitNot}
FORMULA_PREFIX = {"!": Not}
# The connectives' classes name their operator; BinOp and BitOp record it.
_CONNECTIVE = {cls: lexeme for ops in FORMULA_OPS for lexeme, cls in ops.items()}


class Token(NamedTuple):
    """One lexeme and the 1-based line and column of its first character.

    A plain tuple underneath, so the lexer builds one cheaply per token.
    """

    kind: str  # "keyword" | "ident" | "int" | "op" | "punct" | "eoi"
    lexeme: str
    line: int
    col: int

    @property
    def pos(self) -> SrcPos:
        return SrcPos(self.line, self.col)

    def describe(self) -> str:
        if self.kind == "eoi":
            return "end of input"
        return f"'{self.lexeme}'"


class LexError(CimpError):
    def __init__(self, char: str, pos: SrcPos):
        super().__init__(f"unexpected character {char!r}", pos)
        self.char = char


class NestingError(CimpError):
    """Raised at the token that opens nesting level MAX_NESTING + 1."""

    def __init__(self, pos: SrcPos):
        super().__init__(f"nesting deeper than {MAX_NESTING} levels", pos)


class ParseError(CimpError):
    """Raised at the first token that fits no production.

    ``expected`` lists the acceptable next tokens in display form;
    ``index`` is the offset into the token stream, used to pick the
    furthest failure when a backtracking point has to choose between
    two failed alternatives.
    """

    def __init__(self, expected: tuple[str, ...], found: Token, index: int):
        what = " or ".join(expected) if len(expected) <= 2 else (
            ", ".join(expected[:-1]) + " or " + expected[-1]
        )
        super().__init__(f"expected {what} but found {found.describe()}", found.pos)
        self.expected = expected
        self.found = found
        self.index = index


_TOKEN_RE = re.compile(
    r"""
    ((?:[ \t\r\n]|//[^\n]*)*)  # whitespace and comments, skipped
    (?:
      (?P<int>0[xX][0-9A-Fa-f]+|[0-9]+)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>:=|<<|>>|<=|&&|\|\||->|[+\-*&|^~=<!])
    | (?P<punct>[();:{}])
    | (?P<eoi>\Z)
    | (?P<bad>.)
    )""",
    re.VERBOSE | re.DOTALL,
)


def lex(source: str) -> list[Token]:
    """Tokenize in one scan; comments and whitespace are discarded.

    The result is a list of ``Token`` tuples that always ends with an
    end-of-input token.  Any character outside the token alphabet
    raises LexError at its position.  Each token is one match that skips
    the whitespace and comments before it.  Only whitespace spans lines,
    so positions count from where the current line starts; a tab or a
    carriage return counts as one column.
    """
    tokens: list[Token] = []
    line, line_start, new = 1, 0, tuple.__new__
    for m in _TOKEN_RE.finditer(source):
        kind, skipped = m.lastgroup, m[1]
        start = m.start(kind)
        if "\n" in skipped:
            line += skipped.count("\n")
            line_start = source.rindex("\n", 0, start) + 1
        text = m[kind]
        if kind == "name":
            kind = "keyword" if text in KEYWORDS else "ident"
        elif kind == "bad":
            raise LexError(text, SrcPos(line, start - line_start + 1))
        tokens.append(new(Token, (kind, text, line, start - line_start + 1)))
        if kind == "eoi":
            return tokens


def _binary_node(cls, op: Token, left, right):
    if cls in _CONNECTIVE:
        return cls(left, right, pos=op.pos)
    return cls(op.lexeme, left, right, pos=op.pos)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0  # nesting levels open at the current token
        self.guard = False  # parsing an if/while condition, where '->' is an error

    # -- token plumbing ---------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.i]

    def at(self, *lexemes: str) -> bool:
        t = self.peek()
        return t.kind != "eoi" and t.lexeme in lexemes

    def advance(self) -> Token:
        t = self.tokens[self.i]
        if t.kind != "eoi":
            self.i += 1
        return t

    def fail(self, *expected: str):
        raise ParseError(tuple(expected), self.peek(), self.i)

    def expect(self, lexeme: str, label: Optional[str] = None) -> Token:
        if not self.at(lexeme):
            self.fail(label or f"'{lexeme}'")
        return self.advance()

    def nest(self, opener: Token) -> None:
        """Open one nesting level; the caller closes it with depth -= 1."""
        if self.depth == MAX_NESTING:
            raise NestingError(opener.pos)
        self.depth += 1

    def parenthesized(self, inner):
        """'(' inner ')', one nesting level."""
        self.nest(self.expect("("))
        out = inner()
        self.expect(")")
        self.depth -= 1
        return out

    # -- operators ----------------------------------------------------------

    def aexp(self) -> AExpr:
        return self.binary(ARITH_OPS, ARITH_PREFIX, self.aexp_atom)

    def formula(self) -> Assertion:
        return self.binary(FORMULA_OPS, FORMULA_PREFIX, self.formula_atom)

    def binary(self, levels, prefix, atom, level: int = 0):
        """A chain of the operators of levels[level] over tighter operands.

        One nested call per tighter level, so recursion is as deep as the
        table whatever the chain's length.  The chain is read in a loop;
        a left-associative one folds as it goes, '->' folds from the right.
        """
        if level == len(levels):
            return self.prefix(prefix, atom)
        ops = levels[level]
        left = self.binary(levels, prefix, atom, level + 1)
        pending = []  # (left operand, operator) of each '->' so far
        while (op := self.tokens[self.i]).lexeme in ops:
            cls = ops[op.lexeme]
            if cls is Implies and self.guard:
                raise CimpError("'->' may appear in specifications only", op.pos)
            self.i += 1
            right = self.binary(levels, prefix, atom, level + 1)
            if op.lexeme in RIGHT_ASSOC:
                pending.append((left, op))
                left = right
            else:
                left = _binary_node(cls, op, left, right)
        while pending:
            first, op = pending.pop()
            left = _binary_node(ops[op.lexeme], op, first, left)
        return left

    def prefix(self, prefix, atom):
        """Prefix operators, each opening one nesting level, then an atom."""
        op = self.tokens[self.i]
        cls = prefix.get(op.lexeme)
        if cls is None:
            return atom()
        self.i += 1
        self.nest(op)
        operand = self.prefix(prefix, atom)
        self.depth -= 1
        return cls(operand, pos=op.pos)

    def aexp_atom(self) -> AExpr:
        t = self.peek()
        if t.kind == "int":
            self.advance()
            base = 16 if t.lexeme[:2].lower() == "0x" else 10
            return IntLit(int(t.lexeme, base), pos=t.pos)
        if t.kind == "ident":
            self.advance()
            return Var(t.lexeme, pos=t.pos)
        if t.lexeme in ("i32", "u32") and t.kind == "keyword":
            self.advance()
            return Cast(Ty(t.lexeme), self.parenthesized(self.aexp), pos=t.pos)
        if self.at("("):
            return self.parenthesized(self.aexp)
        self.fail("an integer literal", "an identifier", "'('")

    # -- formulas -----------------------------------------------------------

    def comparison(self) -> Cmp:
        left = self.aexp()
        if not self.at("=", "<=", "<"):
            self.fail("'='", "'<='", "'<'")
        op = self.advance()
        right = self.aexp()
        return Cmp(op.lexeme, left, right, pos=op.pos)

    def formula_atom(self) -> Assertion:
        t = self.peek()
        if t.lexeme in ("true", "false") and t.kind == "keyword":
            self.advance()
            return BoolLit(t.lexeme == "true", pos=t.pos)
        if not self.at("("):
            return self.comparison()
        # Either a parenthesized formula or a comparison whose left
        # operand begins with '('.  Try both; report the failure that
        # consumed more input.
        start, depth = self.i, self.depth
        try:
            return self.comparison()
        except ParseError as cmp_err:
            self.i, self.depth = start, depth
            try:
                return self.parenthesized(self.formula)
            except ParseError as paren_err:
                raise (paren_err if paren_err.index >= cmp_err.index else cmp_err)

    def condition(self) -> BExpr:
        """An if/while condition: a formula without '->'."""
        self.guard = True
        cond = self.formula()
        self.guard = False
        return cond

    # -- commands and programs ----------------------------------------------

    def com(self) -> Com:
        coms = [self.com_single()]
        seps: list[Token] = []
        while self.at(";"):
            seps.append(self.advance())
            coms.append(self.com_single())
        # ';' nests to the right
        c = coms.pop()
        while seps:
            c = Seq(coms.pop(), c, pos=seps.pop().pos)
        return c

    def com_single(self) -> Com:
        t = self.peek()
        if t.lexeme == "skip" and t.kind == "keyword":
            self.advance()
            return Skip(pos=t.pos)
        if t.lexeme == "if" and t.kind == "keyword":
            self.nest(self.advance())
            cond = self.condition()
            self.expect("then")
            then_branch = self.com()
            self.expect("else")
            else_branch = self.com()
            self.expect("end")
            self.depth -= 1
            return If(cond, then_branch, else_branch, pos=t.pos)
        if t.lexeme == "while" and t.kind == "keyword":
            self.nest(self.advance())
            cond = self.condition()
            invariant = None
            if self.at("invariant"):
                self.advance()
                self.expect("{")
                invariant = self.formula()
                self.expect("}")
            self.expect("do")
            body = self.com()
            self.expect("done")
            self.depth -= 1
            return While(cond, invariant, body, pos=t.pos)
        if t.kind == "ident":
            self.advance()
            self.expect(":=")
            rhs = self.aexp()
            return Assign(t.lexeme, rhs, pos=t.pos)
        self.fail("'skip'", "'if'", "'while'", "an assignment")

    def decls(self) -> tuple[tuple[str, Optional[Ty]], ...]:
        out: list[tuple[str, Optional[Ty]]] = []
        seen: set[str] = set()
        while self.at("var"):
            self.advance()
            if self.peek().kind != "ident":
                self.fail("an identifier")
            name_tok = self.advance()
            if name_tok.lexeme in seen:
                raise ParseError(
                    ("a fresh variable name",), name_tok, self.i - 1
                )
            seen.add(name_tok.lexeme)
            ty: Optional[Ty] = None
            if self.at(":"):
                self.advance()
                if not self.at("i32", "u32"):
                    self.fail("'i32'", "'u32'")
                ty = Ty(self.advance().lexeme)
            self.expect(";")
            out.append((name_tok.lexeme, ty))
        return tuple(out)

    def program(self) -> Program:
        decls = self.decls()
        body = self.com()
        if self.peek().kind != "eoi":
            self.fail("';'", "end of input")
        return Program(decls, body)


def parse(tokens: list[Token]) -> Program:
    return _Parser(tokens).program()


def parse_assertion(tokens: list[Token]) -> Assertion:
    p = _Parser(tokens)
    a = p.formula()
    if p.peek().kind != "eoi":
        p.fail("end of input")
    return a


def parse_program(source: str) -> Program:
    return parse(lex(source))


def parse_assertion_text(source: str) -> Assertion:
    return parse_assertion(lex(source))


# ---------------------------------------------------------------------------
# Pretty printing

# The printer reads the parser's tables.  A node's level is its binary
# level in its table (0 loosest), one past the tightest for a prefix
# operator; an atom never needs parentheses.
_LEVEL = {lexeme: level for table in (ARITH_OPS, FORMULA_OPS)
          for level, ops in enumerate(table) for lexeme in ops}
_ATOM = float("inf")


def _infix(n):
    """The left operand prints at the operator's level, the right one tighter
    (the other way round for a right-associative operator)."""
    lexeme = _CONNECTIVE.get(type(n)) or n.op
    level = _LEVEL[lexeme]
    left, right = (level + 1, level) if lexeme in RIGHT_ASSOC else (level, level + 1)
    return level, ((n.left, left), f" {lexeme} ", (n.right, right))


def _prefix(lexeme: str, level: int):
    return lambda n: (level, (lexeme, (n.operand, level)))


# Each node's level and its parts: text, or a subtree with the least
# level it may print at without parentheses.
_SHAPE = {
    IntLit: lambda n: (_ATOM, (str(n.value),)),
    Var: lambda n: (_ATOM, (n.name,)),
    Cast: lambda n: (_ATOM, (f"{n.target}(", (n.operand, 0), ")")),
    BoolLit: lambda n: (_ATOM, ("true" if n.value else "false",)),
    Cmp: lambda n: (_ATOM, ((n.left, 0), f" {n.op} ", (n.right, 0))),
    **{cls: _infix for table in (ARITH_OPS, FORMULA_OPS) for ops in table for cls in ops.values()},
    **{
        cls: _prefix(lexeme, len(table))
        for table, prefix in ((ARITH_OPS, ARITH_PREFIX), (FORMULA_OPS, FORMULA_PREFIX))
        for lexeme, cls in prefix.items()
    },
}


def pretty_expr(root: AExpr | Assertion) -> str:
    """Print an expression or formula with minimal parentheses.

    The parts still to print sit on an explicit stack, last first, so
    operator chains of any length print without recursion.
    """
    out: list[str] = []
    todo: list = [(root, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        n, ctx = item
        shape = _SHAPE.get(type(n))
        if shape is None:
            raise TypeError(f"not an expression or formula: {n!r}")
        lvl, parts = shape(n)
        if lvl < ctx:
            parts = ("(", *parts, ")")
        todo.extend(reversed(parts))
    return "".join(out)


def _com_lines(c: Com, indent: int) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    for s in statements(c):
        if lines:
            lines[-1] += ";"
        match s:
            case Skip():
                lines.append(pad + "skip")
            case Assign(var, rhs):
                lines.append(f"{pad}{var} := {pretty_expr(rhs)}")
            case If(cond, then_branch, else_branch):
                lines.append(f"{pad}if {pretty_expr(cond)} then")
                lines += _com_lines(then_branch, indent + 1)
                lines.append(pad + "else")
                lines += _com_lines(else_branch, indent + 1)
                lines.append(pad + "end")
            case While(cond, invariant, body):
                head = f"{pad}while {pretty_expr(cond)}"
                if invariant is not None:
                    head += f" invariant {{ {pretty_expr(invariant)} }}"
                lines.append(head + " do")
                lines += _com_lines(body, indent + 1)
                lines.append(pad + "done")
            case _:
                raise TypeError(f"not a Com: {s!r}")
    return lines


def pretty(p: Program) -> str:
    lines = []
    for name, ty in p.decls:
        lines.append(f"var {name};" if ty is None else f"var {name}: {ty};")
    lines.extend(_com_lines(p.body, 0))
    return "\n".join(lines) + "\n"
