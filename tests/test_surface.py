"""Every function, method, class and module constant of the library has a
caller inside the library, and every field of a dataclass is read there;
no float enters the library; and only its constructors write a scalar.

Reference code that only the tests need lives in ``tests/oracles.py``;
the library keeps what its commands run.  The scan is by name: a
definition counts as used when some ``Name`` or ``Attribute`` anywhere in
``src/gray_stability`` outside the definition itself spells its name, and
a field of a ``@dataclass`` counts as read when some attribute load
(``x.field``) there spells its name; passing it to the constructor is not
a read.  A bare ``Name`` counts only where no enclosing function, lambda
or comprehension binds that name itself (as an argument, an assignment,
a ``for``/``with`` target or a comprehension target): a local ``zeros``
is not a use of a module-level ``zeros``.

The oracle scan holds ``tests/oracles.py`` to the same rule from the other
side: each of its top-level functions and classes must be reached from a
test, named by some ``tests/test_*.py`` file or by an oracle that is
itself reached, so a reference stays only while a test compares against it.

Known limit: attributes match by bare name, so a definition or a field
that shares its name with a used attribute (say a field ``name`` beside
every ``space.name``) passes unseen.

The import scan holds each module under ``src/gray_stability`` to the
names it imports: every name that an ``import`` or ``from ... import``
binds there must be read (a ``Name`` load) somewhere in the same module;
``from __future__ import annotations`` binds nothing and is exempt.  The
definition scan cannot see an unread import, which is a binding, not a
definition.

The float scan rejects, anywhere in ``src/gray_stability``, a float or
complex literal, the name ``float``, the true-division operator ``/`` and
every ``math`` function but the integer ones; exact arithmetic divides
through ``Fraction`` or ``Scalar.inverse``.

The field-write scan keeps ``Scalar`` values immutable: equal monomials
are one shared object, so outside the constructors that make a scalar
nothing in ``src/gray_stability`` may write an attribute named ``n``,
``d`` or ``tag``.

The handler scan keeps errors from being swallowed: no except clause in
``src/gray_stability`` is bare or catches ``Exception`` or
``BaseException``; only ``lie.holds`` catches ``PremiseError``, which
turns a failed catalog premise into a failed validate key; and a clause
naming ``ValueError`` or ``ArithmeticError``, which would catch a
``PremiseError`` or an internal error too, stands only in the functions
listed with their reasons.
"""

import ast
import pathlib
from collections import Counter

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "gray_stability"

# Boundaries of the benchmark's outside-in tracer, which reports a missing
# boundary as absent; they stay until the tracer stops listing them.
EXEMPT = {
    "linalg.adjugate3": "tracer boundary; the 3x3 adjugate is a test oracle",
    "reps.casimir_bruteforce": "tracer boundary; cross-checks casimir_constant in the tests",
    "obstruction.obstruction_pairing": "tracer boundary; the commands read the pairing off pairing_breakdown",
}
# The math functions that stay in the integers.
INTEGER_MATH = {"isqrt", "gcd", "lcm", "prod", "comb"}
# The fields of a Scalar, and the only code that writes them.
SCALAR_FIELDS = {"n", "d", "tag"}
SCALAR_CONSTRUCTORS = {"scalars._raw", "scalars.Scalar.__init__"}
# The one function that catches a PremiseError: it turns a failed catalog
# premise into a failed validate key.
PREMISE_HANDLER = "lie.holds"
# The functions that may catch ValueError or ArithmeticError, and why.
VALUE_ERROR_HANDLERS = {
    "cli.main": "prints any other ValueError or ArithmeticError as an internal error, exit 1",
    "cli._parse_label": "a label that int() or check_label rejects is a usage error",
    "cli._parse_rational": "a rational that Fraction rejects is a usage error",
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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_SCOPES = _FUNCTIONS + (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _binds(scope) -> set:
    """The names a function, lambda or comprehension binds itself; the
    scopes nested in it bind their own."""
    if not isinstance(scope, _FUNCTIONS):
        return {n.id for g in scope.generators for n in ast.walk(g.target) if isinstance(n, ast.Name)}
    a = scope.args
    names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x}
    stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _references(node, names=None, local=frozenset()) -> Counter:
    """Loads under node of each attribute name, and of each bare name that
    no enclosing scope inside node binds."""
    names = Counter() if names is None else names
    if isinstance(node, _SCOPES):
        local = local | _binds(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
        names[node.id] += 1
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        names[node.attr] += 1
    for child in ast.iter_child_nodes(node):
        _references(child, names, local)
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


def unreached_oracles(tests: pathlib.Path = TESTS) -> list:
    """Top-level functions and classes of oracles.py that no test reaches,
    directly or through other oracles."""
    tree = ast.parse((tests / "oracles.py").read_text(encoding="utf-8"))
    names_in = {
        node.name: _references(node)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    named = Counter()
    for path in sorted(tests.glob("test_*.py")):
        named += _references(ast.parse(path.read_text(encoding="utf-8")))
    frontier = [name for name in names_in if named[name]]
    reached = set(frontier)
    while frontier:
        for name in names_in[frontier.pop()]:
            if name in names_in and name not in reached:
                reached.add(name)
                frontier.append(name)
    return sorted(set(names_in) - reached)


def unread_imports(src: pathlib.Path = SRC) -> list:
    """'module:line: name' for every name that an import in a module under
    src binds and that module never reads."""
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in loads:
                    out.append(f"{path.stem}:{node.lineno}: {name}")
    return out


def float_uses(src: pathlib.Path = SRC) -> list:
    """'module:line: what' for every float literal, name float, true
    division and non-integer math function in the modules under src."""
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            found = []
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found = [f"literal {node.value!r}"]
            elif isinstance(node, ast.Name) and node.id == "float":
                found = ["float"]
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found = ["/"]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "math" and node.attr not in INTEGER_MATH):
                found = [f"math.{node.attr}"]
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found = [f"from math import {a.name}" for a in node.names if a.name not in INTEGER_MATH]
            out += [f"{path.stem}:{node.lineno}: {what}" for what in found]
    return out


def _scoped(src: pathlib.Path):
    """(scope, node) for every node of the modules under src, in source
    order; scope is the module and the names of the enclosing classes and
    functions."""
    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        yield scope, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    for path in sorted(src.glob("*.py")):
        yield from visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)


def field_writes(src: pathlib.Path = SRC) -> list:
    """(scope, line, what) of every write of an attribute named n, d or tag
    in the modules under src: x.n, x.d or x.tag as an assignment, loop,
    with or comprehension target or in a del, and each setattr,
    __setattr__ or delattr call not given another constant name."""
    out = []
    for scope, node in _scoped(src):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del))
                and node.attr in SCALAR_FIELDS):
            out.append((scope, node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("setattr", "__setattr__", "delattr"):
                attr = node.args[1] if len(node.args) > 1 else None
                if not (isinstance(attr, ast.Constant) and attr.value not in SCALAR_FIELDS):
                    out.append((scope, node.lineno, name))
    return out


def caught(src: pathlib.Path = SRC) -> list:
    """(scope, line, name) for each exception that each except clause in
    the modules under src names; a bare clause names None."""
    out = []
    for scope, node in _scoped(src):
        if isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            out += [(scope, node.lineno, t and ast.unparse(t).rsplit(".", 1)[-1]) for t in types]
    return out


def handler_violations(src: pathlib.Path = SRC) -> list:
    """The (scope, line, name) of ``caught`` that break the handler rule:
    a bare clause, Exception or BaseException anywhere; PremiseError outside
    its one handler; ValueError or ArithmeticError, which catch a
    PremiseError or an internal error too, outside the listed functions."""
    return [
        (scope, line, name) for scope, line, name in caught(src)
        if name in (None, "Exception", "BaseException")
        or (name == "PremiseError" and scope != PREMISE_HANDLER)
        or (name in ("ValueError", "ArithmeticError") and scope not in VALUE_ERROR_HANDLERS)
    ]


def test_only_the_scalar_constructors_write_its_fields():
    writes = field_writes()
    assert [w for w in writes if w[0] not in SCALAR_CONSTRUCTORS] == []
    # and each constructor still writes them, so no exemption is spare
    assert {scope for scope, *_ in writes} == SCALAR_CONSTRUCTORS


def test_field_write_scan_sees_every_kind_of_write(tmp_path):
    (tmp_path / "scalars.py").write_text(
        "def _raw(n):\n"
        "    s = Scalar.__new__(Scalar)\n"
        "    s.n = n\n"
        "    return s\n"
        "class Scalar:\n"
        "    def __init__(self, n):\n"
        "        self.n, self.d = n, 1\n"
        "    def scale(self, k):\n"
        "        self.d *= k\n"
        "        self.label = k\n"
        "        return self.n\n",
        encoding="utf-8",
    )
    (tmp_path / "other.py").write_text(
        "def shared(s, xs, name):\n"
        "    for s.tag in xs:\n"
        "        pass\n"
        "    [0 for s.n in xs]\n"
        "    del s.d\n"
        "    setattr(s, 'tag', 1)\n"
        "    object.__setattr__(s, 'n', ())\n"
        "    setattr(s, name, 0)\n"
        "    delattr(s, 'd')\n"
        "    setattr(s, 'other', 0)\n"
        "    s.total = s.n + s.d + s.tag\n"
        "    return s\n",
        encoding="utf-8",
    )
    assert field_writes(tmp_path) == [
        ("other.shared", 2, ".tag"),
        ("other.shared", 4, ".n"),
        ("other.shared", 5, ".d"),
        ("other.shared", 6, "setattr"),
        ("other.shared", 7, "__setattr__"),
        ("other.shared", 8, "setattr"),
        ("other.shared", 9, "delattr"),
        ("scalars._raw", 3, ".n"),
        ("scalars.Scalar.__init__", 7, ".n"),
        ("scalars.Scalar.__init__", 7, ".d"),
        ("scalars.Scalar.scale", 9, ".d"),
    ]


def test_handlers_catch_only_what_their_function_may():
    assert handler_violations() == []


def test_handler_allowances_are_still_needed():
    # an allowed function that stopped catching its exception must leave the list
    caught_by = {(scope, name) for scope, _, name in caught()}
    assert {scope for scope, name in caught_by if name in ("ValueError", "ArithmeticError")} == set(VALUE_ERROR_HANDLERS)
    assert {scope for scope, name in caught_by if name == "PremiseError"} == {PREMISE_HANDLER}


def test_handler_scan_sees_every_forbidden_clause(tmp_path):
    (tmp_path / "lie.py").write_text(
        "class PremiseError(ValueError):\n"
        "    pass\n"
        "def holds(check):\n"
        "    try:\n"
        "        return check()\n"
        "    except PremiseError:\n"
        "        return False\n"
        "class ReductiveSpace:\n"
        "    def eigenframe_inverse(self, f):\n"
        "        try:\n"
        "            return f()\n"
        "        except ValueError:\n"
        "            raise PremiseError('frame') from None\n"
        "    def value(self, f):\n"
        "        try:\n"
        "            return f()\n"
        "        except lie.PremiseError:\n"
        "            return 0\n"
        "        except BaseException:\n"
        "            raise\n"
        "def swallow(f):\n"
        "    try:\n"
        "        return f()\n"
        "    except (PremiseError, ArithmeticError, OSError):\n"
        "        return None\n"
        "def other(f):\n"
        "    try:\n"
        "        return f()\n"
        "    except Exception:\n"
        "        return 1\n"
        "    except:\n"
        "        return 2\n",
        encoding="utf-8",
    )
    (tmp_path / "cli.py").write_text(
        "def main(f):\n"
        "    try:\n"
        "        return f()\n"
        "    except (ValueError, ArithmeticError) as exc:\n"
        "        return exc\n"
        "def _emit(f):\n"
        "    try:\n"
        "        return f()\n"
        "    except (OSError, ZeroDivisionError):\n"
        "        return 0\n",
        encoding="utf-8",
    )
    assert handler_violations(tmp_path) == [
        # no frame of m^C is inverted by elimination, so no frame guard catches ValueError
        ("lie.ReductiveSpace.eigenframe_inverse", 12, "ValueError"),
        ("lie.ReductiveSpace.value", 17, "PremiseError"),
        ("lie.ReductiveSpace.value", 19, "BaseException"),
        ("lie.swallow", 24, "PremiseError"),
        ("lie.swallow", 24, "ArithmeticError"),
        ("lie.other", 29, "Exception"),
        ("lie.other", 31, None),
    ]


def test_every_import_is_read_in_its_module():
    assert unread_imports() == []


def test_import_scan_sees_unread_names(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import itertools\n"
        "import os.path\n"
        "from fractions import Fraction as F\n"
        "from .b import used, spare\n"
        "def f(x: F):\n"
        "    return used(x), os.sep\n",
        encoding="utf-8",
    )
    assert unread_imports(tmp_path) == ["a:2: itertools", "a:5: spare"]


def test_no_float_enters_the_library():
    assert float_uses() == []


def test_float_scan_sees_literals_division_and_math(tmp_path):
    (tmp_path / "a.py").write_text(
        "import math\n"
        "from math import gcd, sqrt\n"
        "HALF = 0.5\n"
        "ROOT = 2j\n"
        "def ratio(p, q):\n"
        "    q /= 2\n"
        "    return float(p) + p / q + p // q\n"
        "def norm(n):\n"
        "    return math.isqrt(n) + math.sqrt(n) + math.comb(n, 2) + gcd(n, 2)\n",
        encoding="utf-8",
    )
    assert float_uses(tmp_path) == [
        "a:2: from math import sqrt",
        "a:3: literal 0.5",
        "a:4: literal 2j",
        "a:6: /",
        "a:7: /",
        "a:7: float",
        "a:9: math.sqrt",
    ]


def test_every_definition_has_a_caller_in_src():
    assert [name for name in unreferenced() if name not in EXEMPT] == []


def test_every_oracle_is_reached_from_a_test():
    assert unreached_oracles() == []


def test_oracle_scan_follows_helpers_from_the_tests(tmp_path):
    (tmp_path / "oracles.py").write_text(
        "def reference(x):\n"
        "    return _helper(x)\n"
        "def _helper(x):\n"
        "    return x\n"
        "def stale(x):\n"
        "    return _stale_helper(x)\n"
        "def _stale_helper(x):\n"
        "    return stale(x)\n"
        "class Record:\n"
        "    pass\n",
        encoding="utf-8",
    )
    (tmp_path / "test_a.py").write_text(
        "from oracles import reference, stale\n"
        "def test_reference():\n"
        "    assert reference(1) == 1\n",
        encoding="utf-8",
    )
    (tmp_path / "helpers.py").write_text("from oracles import Record\nRecord()\n", encoding="utf-8")
    assert unreached_oracles(tmp_path) == ["Record", "_stale_helper", "stale"]


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


def test_scan_skips_names_a_function_binds_itself(tmp_path):
    # each module-level function is shadowed by a local of the same name,
    # so none of them has a caller
    (tmp_path / "a.py").write_text(
        "def zeros(n):\n"
        "    return [0] * n\n"
        "def width():\n"
        "    return 1\n"
        "def row():\n"
        "    return []\n"
        "def handle():\n"
        "    return None\n"
        "def cell():\n"
        "    return 0\n"
        "def key():\n"
        "    return 0\n"
        "def summary(rows, width):\n"
        "    zeros = rows.count(0)\n"
        "    for row in rows:\n"
        "        pass\n"
        "    with open(rows) as handle:\n"
        "        pass\n"
        "    cells = [cell for cell in rows]\n"
        "    order = sorted(rows, key=lambda key: key)\n"
        "    late = lambda: zeros\n"
        "    return zeros, width, row, handle, cells, order, late\n"
        "def reads_module_level():\n"
        "    return summary\n"
        "VALUE = reads_module_level()\n",
        encoding="utf-8",
    )
    assert unreferenced(tmp_path) == [
        "a.VALUE", "a.cell", "a.handle", "a.key", "a.row", "a.width", "a.zeros"
    ]
