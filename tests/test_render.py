"""render.dumps: byte-identical to the indented, key-sorted json.dumps."""

import json
import pathlib
from fractions import Fraction

import pytest

from gray_stability import cli
from gray_stability.lie import SPACE_NAMES
from gray_stability.render import dumps
from gray_stability.scalars import ONE, SQRT2

DATA = pathlib.Path(__file__).parent / "data"
# the labels with a golden delta document: golden_delta_<space>_<label>.json
DELTA_LABELS = [
    (p.stem.split("_")[2], tuple(int(x) for x in p.stem.split("_")[3:]))
    for p in sorted(DATA.glob("golden_delta_*.json"))
]


def _reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cli_documents():
    yield "reproduce-all", cli.reproduce_all_doc()
    for name in SPACE_NAMES:
        yield f"coindex {name}", cli.coindex_doc(name)
        yield f"branch {name}", cli.branch_doc(name, None, Fraction(40))
        yield f"casimir {name}", cli.casimir_doc(name, Fraction(40))
        yield f"validate {name}", cli.validate_doc([name])
    yield "validate", cli.validate_doc(list(SPACE_NAMES))
    for name, gamma in DELTA_LABELS:
        yield f"delta {name} {gamma}", cli.delta_doc(name, gamma)
    yield "homdim", cli.homdim_doc("flag", (1, 1))
    yield "killing integers", cli._killing_doc("1,-1,0")
    yield "killing rationals", cli._killing_doc("1/2,-0.5,0")
    yield "obstruction", cli.obstruction_doc()


def test_every_cli_document_renders_as_json_does():
    seen = 0
    for what, doc in _cli_documents():
        assert dumps(doc) == _reference(doc), what
        seen += 1
    assert len(DELTA_LABELS) == 9 and seen == 1 + 4 * len(SPACE_NAMES) + 1 + len(DELTA_LABELS) + 4


EDGE_TREES = [
    {},
    [],
    [[]],
    [{}],
    {"a": {}, "b": [], "c": [[], {}]},
    [[[{}]], [[]]],
    "",
    'say "hi"',
    "back\\slash and /slash",
    "tab\tnew\nline\rcr\x00nul\x1funit\x7fdel\x08\x0c",
    "café 中 \U0001f600  ",
    0,
    -1,
    10**40,
    -(10**40),
    True,
    False,
    None,
    [True, False, None, 0, 1],
    {"b": 1, "a": 2, "B": 3, "": 4, "é": 5, "a b": 6, "10": 7, "9": 8, '"': 9},
    {"outer": {"z": [1, {"y": None, "x": True}], "a": [False, "s", -3]}},
]


@pytest.mark.parametrize("doc", EDGE_TREES, ids=range(len(EDGE_TREES)))
def test_edge_trees_render_as_json_does(doc):
    assert dumps(doc) == _reference(doc)


@pytest.mark.parametrize(
    "doc",
    [1.5, Fraction(1, 2), ONE, SQRT2, {1: "x"}, (1, 2), [1, [2.0]], {"a": {"b": Fraction(3)}}, {"a": 1, 2: "b"}],
    ids=["float", "fraction", "scalar-one", "scalar-sqrt2", "int-key", "tuple", "nested-float",
         "nested-fraction", "mixed-keys"],
)
def test_other_values_and_keys_raise_type_error(doc):
    with pytest.raises(TypeError):
        dumps(doc)
