"""No public API that only tests call.

Every public top-level function, class or assignment in ``src/coopsim`` must
be loaded, as a name or an attribute, somewhere in ``src/`` outside its own
definition.  Import lines do not count as uses.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "coopsim"


def _definitions(tree):
    """(name, defining statement) for each top-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _loads(node) -> Counter:
    """Names loaded under ``node``, as ast.Name ids or ast.Attribute attrs."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
    return out


def unused_public_names(src=SRC) -> list:
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(pathlib.Path(src).glob("*.py"))}
    total = sum((_loads(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if not name.startswith("_") and total[name] - _loads(node)[name] <= 0:
                unused.append(f"{module}:{name}")
    return unused


def test_every_public_name_is_used_in_src():
    assert unused_public_names() == []


def test_guard_sees_a_test_only_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import helper\n"
        "\n"
        "def used():\n"
        "    return helper()\n"
        "\n"
        "def only_tests(n):\n"
        "    return only_tests(n - 1) if n else 0\n"
        "\n"
        "LIMIT = 3\n"
        "UNREAD = 4\n"
        "_private = 5\n")
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "\n"
        "def helper():\n"
        "    return a.LIMIT\n"
        "\n"
        "def main():\n"
        "    return a.used()\n"
        "\n"
        "main()\n")
    # recursion and import lines are not uses
    assert sorted(unused_public_names(tmp_path)) == ["a.py:UNREAD", "a.py:only_tests"]
