"""Every module-level name defined in src/cimp is used somewhere else.

A function, class or constant that no other line of src/, tests/ or
bench/ names is dead code.  Lines inside the definition itself do not
count, so a function that only calls itself is flagged too.  Module
protocol names such as ``__all__`` are exempt.
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
