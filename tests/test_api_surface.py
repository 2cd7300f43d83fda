"""No public API that only tests call, and no state that nothing reads.

Every public top-level function, class or assignment in ``src/coopsim`` must
be loaded, as a name or an attribute, somewhere in ``src/`` outside its own
definition.  Import lines do not count as uses.  Every field of a
``@dataclass`` there must be loaded as an attribute somewhere in ``src/``;
the match is by name, so a field shares a read with any attribute of its
name.
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


# fields read only outside src/, each with its reader
FIELDS_READ_ELSEWHERE = {
    "tracking.py:LocalizeResult.detection_charged":
        "acceptance test 03 and perfbench/tracer.py",
    "simpipe.py:FrameStats.map_size": "perfbench/tracer.py",
    # the optimizer's diagnostics, until a per-CAV control record writes them
    "control.py:OptimizeResult.lam": "tests",
    "control.py:OptimizeResult.prob": "tests",
    "control.py:OptimizeResult.fidelity": "tests",
    "control.py:OptimizeResult.lam_trace": "tests",
    "control.py:OptimizeResult.prob_trace": "tests",
    "control.py:OptimizeResult.g_trace": "tests",
}


def _is_dataclass(node) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def unread_dataclass_fields(src=SRC) -> list:
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(pathlib.Path(src).glob("*.py"))}
    read = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    unread = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and stmt.target.id not in read):
                    unread.append(f"{module}:{cls.name}.{stmt.target.id}")
    return unread


def test_every_dataclass_field_is_read():
    assert sorted(set(unread_dataclass_fields()) - set(FIELDS_READ_ELSEWHERE)) == []
    # an exception whose field gained a reader in src/ leaves the list
    assert sorted(set(FIELDS_READ_ELSEWHERE) - set(unread_dataclass_fields())) == []


def test_guard_sees_an_unread_field(tmp_path):
    (tmp_path / "a.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "\n"
        "@dataclass\n"
        "class Result:\n"
        "    value: float\n"
        "    written_only: int = 0\n"
        "    passed_only: int = 0\n"
        "\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Config:\n"
        "    limit: int = 3\n"
        "    unused: str = ''\n"
        "\n"
        "class Plain:\n"
        "    ignored: int = 0\n")
    (tmp_path / "b.py").write_text(
        "from .a import Config, Result\n"
        "\n"
        "def main():\n"
        "    res = Result(value=1.0, passed_only=2)\n"
        "    res.written_only = Config().limit\n"
        "    return res.value\n")
    # stores and keyword arguments are not reads
    assert sorted(unread_dataclass_fields(tmp_path)) == [
        "a.py:Config.unused", "a.py:Result.passed_only", "a.py:Result.written_only"]
