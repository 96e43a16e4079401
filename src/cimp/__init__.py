"""cimp: a compiler toolchain for the imp teaching language.

Subpackages and modules:

* ``syntax``: the shared AST (expressions, commands, assertions).
* ``frontend``: lexer, recursive-descent parser, pretty printer.
* ``semantics``: one fueled command loop for the big-step and
  small-step reference interpreters.
* ``stack_machine``: the jump-code lowering both backends share, the
  one expression compiler of all three targets, and the stack VM.
* ``hoare``: weakest liberal preconditions, verification conditions,
  SMT-LIB export, and a bounded-model validity check.
* ``regalloc``: that compiler's operand stack held in registers, optimally.
* ``optimizer``: AST-level rewrites behind -O levels.
* ``typecheck``: the fixed-width (i32/u32) type system and wrapping
  evaluator.
* ``mips``: MIPS-subset code generation, assembly text round-trip, and
  an instruction-level simulator.
* ``generator`` / ``difftest``: deterministic program generation and
  the differential-testing harness.
* ``cli``: the ``cimp`` command-line driver.
"""

from . import syntax
from .errors import CimpError

__version__ = "0.1.0"

__all__ = ["syntax", "CimpError", "__version__"]
