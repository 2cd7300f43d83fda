"""No public API that only tests call, and no state that nothing reads.

Every public top-level function, class or assignment in ``src/coopsim`` must
be loaded, as a name or an attribute, somewhere in ``src/`` outside its own
definition.  Import lines do not count as uses.  Every defaulted parameter
must be passed by some call in ``src/`` or ``perfbench/``, bar a listed few
with their readers.  Every field of a
``@dataclass`` there must be loaded as an attribute somewhere in ``src/``;
the match is by name, so a field shares a read with any attribute of its
name.  No dataclass but ``RunConfig`` may declare a field named like one of
``RunConfig``'s: a run value has one home, and code reads it there.  The
RF optimizer and the frame loop draw only keyed uniforms: neither
``control.py`` nor any ``simpipe`` function or method that ``run_frame``
calls, directly or through others, uses ``np.random``.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "coopsim"


def _parse(src) -> dict:
    """Module file name -> syntax tree, for each module in ``src``."""
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(pathlib.Path(src).glob("*.py"))}


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
    trees = _parse(src)
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
    "tracking.py:LocalizeResult.detection_charged": "acceptance test 03",
    "simpipe.py:FrameStats.map_size": "perfbench/tracer.py",
    # the optimizer's outcome, until a per-CAV control record writes it
    "control.py:OptimizeResult.lam": "tests",
    "control.py:OptimizeResult.prob": "tests",
    "control.py:OptimizeResult.fidelity": "tests",
}


def _is_dataclass(node) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _dataclass_fields(trees):
    """(module, class name, field name) for each field of each top-level dataclass."""
    for module, tree in trees.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                for stmt in cls.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        yield module, cls.name, stmt.target.id


def unread_dataclass_fields(src=SRC) -> list:
    trees = _parse(src)
    read = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    return [f"{module}:{cls}.{name}" for module, cls, name in _dataclass_fields(trees)
            if name not in read]


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


# fields that share a RunConfig field's name but hold another value, each with its meaning
SHARED_NAMES = {
    "control.py:RFProblem.seed": "the CAV's optimizer seed, derived from the run seed per frame",
}


def run_config_copies(src=SRC) -> list:
    """Fields of dataclasses other than RunConfig that are named like a
    RunConfig field, as a copy of a run value would be."""
    fields = list(_dataclass_fields(_parse(src)))
    run_fields = {name for _, cls, name in fields if cls == "RunConfig"}
    return [f"{module}:{cls}.{name}" for module, cls, name in fields
            if cls != "RunConfig" and name in run_fields]


def test_no_dataclass_copies_a_run_config_field():
    assert sorted(set(run_config_copies()) - set(SHARED_NAMES)) == []
    # an exemption whose field is gone or renamed leaves the list
    assert sorted(set(SHARED_NAMES) - set(run_config_copies())) == []


def test_guard_sees_a_run_config_copy(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n"
        "\n"
        "@dataclass\n"
        "class RunConfig:\n"
        "    bandwidth_hz: float = 200e3\n"
        "    seed: int = 0\n")
    (tmp_path / "b.py").write_text(
        "import dataclasses\n"
        "\n"
        "@dataclasses.dataclass\n"
        "class RadioCopy:\n"
        "    bandwidth_hz: float = 200e3\n"
        "    gain_db: float = 0.0\n"
        "\n"
        "class Plain:\n"
        "    seed: int = 0\n")
    # only dataclasses count, and RunConfig itself does not
    assert run_config_copies(tmp_path) == ["b.py:RadioCopy.bandwidth_hz"]


# callers whose calls count as passing an option: the package and the benchmark
CALLERS = (SRC, SRC.parents[1] / "perfbench")

# options passed only outside CALLERS, each with its reader
OPTIONS_PASSED_ELSEWHERE = {
    "tracking.py:kalman_correct(r_obs=)": "acceptance test 02",
    "codec.py:surrogate_dataset(seed=)": "acceptance test 09",
    "codec.py:profile(rf_set=)": "tests/test_codec.py, profiles of a partial RF set",
}


def _functions(tree):
    """(qualified name, call name, function, leading bound parameters) per def."""
    methods = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.add(item)
                    static = any(getattr(d, "id", "") == "staticmethod"
                                 for d in item.decorator_list)
                    # a class name calls its __init__
                    called = node.name if item.name == "__init__" else item.name
                    yield f"{node.name}.{item.name}", called, item, 0 if static else 1
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node not in methods:
            yield node.name, node.name, node, 0


def _passed(callers) -> dict:
    """Per called name: the keywords passed, the most positional arguments
    passed, and whether a call spreads *args or **kwargs."""
    out: dict = {}
    for root in callers:
        for path in sorted(pathlib.Path(root).glob("*.py")):
            for call in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                keywords, most, spread = out.setdefault(name, (set(), 0, False))
                keywords |= {k.arg for k in call.keywords if k.arg}
                spread = spread or any(k.arg is None for k in call.keywords) or any(
                    isinstance(a, ast.Starred) for a in call.args)
                out[name] = (keywords, max(most, len(call.args)), spread)
    return out


def unpassed_options(src=SRC, callers=CALLERS) -> list:
    """Defaulted parameters of functions and methods in ``src`` that no call
    in ``callers`` passes, matched by name: a call passes a parameter by its
    keyword or by its place, and *args or **kwargs pass every parameter."""
    passed = _passed(callers)
    unpassed = []
    for path in sorted(pathlib.Path(src).glob("*.py")):
        for qualname, called, fn, bound in _functions(ast.parse(path.read_text(), str(path))):
            keywords, most, spread = passed.get(called, (set(), 0, False))
            if spread:
                continue
            positional = [a.arg for a in fn.args.posonlyargs + fn.args.args][bound:]
            defaulted = positional[len(positional) - len(fn.args.defaults):]
            defaulted += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
            for arg in defaulted:
                if arg not in keywords and not (arg in positional
                                                and positional.index(arg) < most):
                    unpassed.append(f"{path.name}:{qualname}({arg}=)")
    return unpassed


def test_every_option_is_passed_somewhere():
    assert sorted(set(unpassed_options()) - set(OPTIONS_PASSED_ELSEWHERE)) == []
    # an exception whose option gained a caller in src/ or perfbench/ leaves the list
    assert sorted(set(OPTIONS_PASSED_ELSEWHERE) - set(unpassed_options())) == []


def test_guard_sees_an_option_nobody_passes(tmp_path):
    src, callers = tmp_path / "src", tmp_path / "callers"
    src.mkdir()
    callers.mkdir()
    (src / "a.py").write_text(
        "def f(x, by_place=1, by_keyword=2, never=3, *, kw_only=4, kw_never=5):\n"
        "    return x\n"
        "\n"
        "def g(y, spread=6):\n"
        "    return y\n"
        "\n"
        "class Box:\n"
        "    def __init__(self, size=7, unused=8):\n"
        "        self.size = size\n"
        "\n"
        "    def grow(self, by=9):\n"
        "        return self.size + by\n")
    (callers / "b.py").write_text(
        "from a import Box, f, g\n"
        "\n"
        "f(0, 1, by_keyword=2, kw_only=4)\n"
        "g(*[1, 2])\n"
        "Box(3).grow()\n")
    # a call in src itself does not count unless src is among the callers
    assert sorted(unpassed_options(src, (callers,))) == [
        "a.py:Box.__init__(unused=)", "a.py:Box.grow(by=)", "a.py:f(kw_never=)",
        "a.py:f(never=)"]


def np_random_uses(tree) -> list:
    """Line numbers of each ``np.random`` or ``numpy.random`` under ``tree``,
    imports of it included."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "random" and getattr(
                node.value, "id", None) in ("np", "numpy"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (
                (node.module or "").startswith("numpy.random")
                or node.module == "numpy" and any(a.name == "random" for a in node.names)):
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(
                a.name.startswith("numpy.random") for a in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def called_functions(tree, name) -> dict:
    """Qualified name -> definition, for the top-level function ``name`` of
    the module ``tree`` and each function or method of that module it calls,
    directly or through others.  A call of a bare name reaches the top-level
    function of that name; a call of an attribute reaches every method of
    that name in a top-level class."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    methods: dict = {}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    methods.setdefault(node.name, []).append((f"{cls.name}.{node.name}", node))
    reached, todo = {}, [(name, functions[name])]
    while todo:
        qualname, node = todo.pop()
        if qualname in reached:
            continue
        reached[qualname] = node
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            if isinstance(call.func, ast.Name) and call.func.id in functions:
                todo.append((call.func.id, functions[call.func.id]))
            elif isinstance(call.func, ast.Attribute):
                todo.extend(methods.get(call.func.attr, ()))
    return reached


def test_run_loop_draws_only_keyed_uniforms():
    trees = _parse(SRC)
    assert np_random_uses(trees["control.py"]) == []
    reached = called_functions(trees["simpipe.py"], "run_frame")
    assert {"_pair_table", "_selected", "_rf_decisions", "_charges", "_codec_loss",
            "GlobalMap.commit_frame", "_place"} <= set(reached)
    assert {name: np_random_uses(node) for name, node in reached.items()
            if np_random_uses(node)} == {}


def test_guard_sees_a_generator(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\n"
        "import numpy.random\n"
        "from numpy import random\n"
        "from numpy.random import default_rng\n"
        "\n"
        "def run_frame(seed):\n"
        "    return np.random.default_rng(seed).random()\n"
        "\n"
        "def keyed(rng: np.random.Generator):\n"
        "    return rng.random()\n"
        "\n"
        "def _stage(table):\n"
        "    return table.commit() + _charges(table)\n"
        "\n"
        "def _charges(table):\n"
        "    return np.random.default_rng(0).random()\n"
        "\n"
        "class Map:\n"
        "    def commit(self):\n"
        "        return numpy.random.random()\n")
    tree = _parse(tmp_path)["a.py"]
    assert np_random_uses(tree) == [2, 3, 4, 7, 9, 16, 20]
    assert {name: np_random_uses(node)
            for name, node in called_functions(tree, "run_frame").items()} == {"run_frame": [7]}
    assert {name: np_random_uses(node) for name, node in called_functions(tree, "_stage").items()
            } == {"_stage": [], "_charges": [16], "Map.commit": [20]}
