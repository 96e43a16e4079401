"""Every module-level name defined in src/cimp is used, and named once.

A function, class or constant that no other line of src/, tests/ or
bench/ names is dead code.  Lines inside the definition itself do not
count, so a function that only calls itself is flagged too.  Module
protocol names such as ``__all__`` are exempt.  A module-level alias
(``a = b``) of a name defined in src/cimp gives one thing two names.
A module imports only public names from the other modules of src/cimp,
so every seam between them is stated in names meant to be shared.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node


def test_every_module_level_name_is_used():
    # word -> {(file, line)} over every Python file that may use a name
    seen = defaultdict(set)
    for top in ("src", "tests", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                for word in re.findall(r"\w+", line):
                    seen[word].add((path, lineno))
    unused = []
    for path in sorted((ROOT / "src" / "cimp").rglob("*.py")):
        for name, node in _definitions(ast.parse(path.read_text())):
            if name.startswith("__") and name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in own for p, line in seen[name]):
                unused.append(f"{path.relative_to(ROOT)}: {name}")
    assert not unused, "defined but never used:\n" + "\n".join(unused)


# Aliases that bench/cimp_calls.py calls by name; bench/ changes only
# together with the benchmark, so these go when it stops calling them.
_BENCH_ALIASES = {"assertion_vars"}


def test_no_module_level_name_is_an_alias_of_another():
    trees = [(path, ast.parse(path.read_text())) for path in (ROOT / "src" / "cimp").rglob("*.py")]
    defined = {name for _, tree in trees for name, _ in _definitions(tree)}
    aliases = sorted(
        f"{path.relative_to(ROOT)}:{node.lineno}: {name} = {node.value.id}"
        for path, tree in trees
        for name, node in _definitions(tree)
        if isinstance(getattr(node, "value", None), ast.Name)
        and node.value.id in defined
        and name not in _BENCH_ALIASES
    )
    assert not aliases, "aliases of names defined in src/cimp:\n" + "\n".join(aliases)


# The 32-bit word format is stated once on the source side, in
# semantics.py; mips/ keeps its own, being the independent target machine.
_WORD_CONSTANTS = {1 << 31, (1 << 32) - 1, 1 << 32}
_CONSTANT_EXPR = (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop)


def test_word_format_is_stated_once():
    src = ROOT / "src" / "cimp"
    restated = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src)
        if rel.parts[0] == "mips" or rel.name == "semantics.py":
            continue
        for name, node in _definitions(ast.parse(path.read_text())):
            value = getattr(node, "value", None)
            if value is None or not all(isinstance(n, _CONSTANT_EXPR) for n in ast.walk(value)):
                continue
            v = eval(compile(ast.Expression(value), str(path), "eval"), {"__builtins__": {}})
            if type(v) is int and v in _WORD_CONSTANTS:
                restated.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name} = {v:#x}")
    assert not restated, "word constants outside semantics.py:\n" + "\n".join(restated)


def test_no_module_imports_a_private_name_of_another():
    private = []
    for path in sorted((ROOT / "src" / "cimp").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "cimp"
            ):
                private += [
                    f"{path.relative_to(ROOT)}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not private, "private names imported across src/cimp:\n" + "\n".join(private)
