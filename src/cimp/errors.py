"""Shared base class for user-facing, source-located errors.

Every tool-level failure that should surface as a diagnostic (lexing,
parsing, type checking, missing loop invariants, unsupported backend
constructs) derives from ``CimpError`` so the command-line driver can
format them uniformly as ``FILE:line:col: error: message``.
"""

from __future__ import annotations

from typing import Optional

from .syntax import BitOp, Cast, SrcPos


class CimpError(Exception):
    # the input that pos points into, when it is not the program file
    # (a command-line flag such as --post)
    source: Optional[str] = None

    def __init__(self, msg: str, pos: Optional[SrcPos] = None):
        super().__init__(msg)
        self.msg = msg
        self.pos = pos

    def __str__(self) -> str:
        if self.pos is None:
            return self.msg
        return f"{self.pos}: {self.msg}"


class UnsupportedNode(CimpError):
    """A fixed-width-only construct reached an unbounded-integer stage."""

    @classmethod
    def at(cls, n, why: str) -> "UnsupportedNode":
        """The error for n, a bit operator, complement or cast: what, then why."""
        if type(n) is BitOp:
            what = f"bit operator '{n.op}'"
        elif type(n) is Cast:
            what = f"cast '{n.target}(...)'"
        else:
            what = "bit complement '~'"
        return cls(f"{what} {why}", n.pos)
