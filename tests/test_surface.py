"""Every function, method, class and module constant of the library has a
caller inside the library, and every field of a dataclass is read there.

Reference code that only the tests need lives in ``tests/oracles.py``;
the library keeps what its commands run.  The scan is by name: a
definition counts as used when some ``Name`` or ``Attribute`` anywhere in
``src/gray_stability`` outside the definition itself spells its name, and
a field of a ``@dataclass`` counts as read when some attribute load
(``x.field``) there spells its name; passing it to the constructor is not
a read.

Known limit: matching is by bare name, so a definition or a field that
shares its name with a used one (say a field ``name`` beside every
``space.name``) passes unseen.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gray_stability"

# Boundaries of the benchmark's outside-in tracer, which reports a missing
# boundary as absent; they stay until the tracer stops listing them.
EXEMPT = {
    "linalg.det3": "tracer boundary; the 3x3 determinant is a test oracle",
    "linalg.adjugate3": "tracer boundary; the 3x3 adjugate is a test oracle",
    "reps.casimir_bruteforce": "tracer boundary; cross-checks casimir_constant in the tests",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, node) of every module-level function,
    class and constant and every method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item.name, item
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield f"{module}.{name.id}", name.id, None


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _fields(module: str, tree: ast.Module):
    """(qualified name, bare name) of every field of a dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{module}.{node.name}.{item.target.id}", item.target.id


def _references(node) -> Counter:
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names[sub.attr] += 1
    return names


def unreferenced(src: pathlib.Path = SRC) -> list:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    used = Counter()
    for tree in trees.values():
        used += _references(tree)
    read = {
        sub.attr
        for tree in trees.values()
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    out = []
    for module, tree in trees.items():
        out += [qualname for qualname, name in _fields(module, tree) if name not in read]
        for qualname, name, node in _definitions(module, tree):
            if _dunder(name):
                continue
            # a definition that only refers to itself is not used
            outside = used[name] - (_references(node)[name] if node is not None else 0)
            if outside <= 0:
                out.append(qualname)
    return sorted(out)


def test_every_definition_has_a_caller_in_src():
    assert [name for name in unreferenced() if name not in EXEMPT] == []


def test_exemptions_are_still_needed():
    # an exemption whose name gained a caller, or vanished, must go
    assert sorted(EXEMPT) == [name for name in unreferenced() if name in EXEMPT]


def test_scan_sees_functions_methods_classes_and_constants(tmp_path):
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n"
        "UNUSED = 4\n"
        "class Box:\n"
        "    def used(self):\n"
        "        return LIMIT\n"
        "    def spare(self):\n"
        "        return self.spare()\n"
        "class Spare:\n"
        "    pass\n"
        "def helper():\n"
        "    return Box().used()\n"
        "def orphan():\n"
        "    return helper()\n",
        encoding="utf-8",
    )
    assert unreferenced(tmp_path) == ["a.Box.spare", "a.Spare", "a.UNUSED", "a.orphan"]


def test_scan_sees_unread_dataclass_fields(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Point:\n"
        "    x: int\n"
        "    y: int\n"
        "    label: str\n"
        "@dataclass\n"
        "class Pair:\n"
        "    first: int\n"
        "class Plain:\n"
        "    z: int\n"
        "def show(p):\n"
        "    return p.y + Pair(first=1).first + Point(1, 2, label='p').x\n"
        "VALUE = show(Plain())\n",
        encoding="utf-8",
    )
    assert unreferenced(tmp_path) == ["a.Point.label", "a.VALUE"]
