"""Shared JSON / text rendering conventions.

Exact values only: integers render as JSON numbers, non-integral
rationals as "p/q" strings, tower scalars as 8-tuples of rational
strings.  Floats never appear.

``dumps`` equals ``json.dumps(doc, indent=2, sort_keys=True) + "\n"``
byte for byte on str, int, bool, None, lists and dicts with str keys, and
raises TypeError on any other value or key.  It is a recursive emitter,
because ``json`` indents only in its slower pure-Python encoder.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .scalars import Scalar


def fraction_jsonable(q) -> object:
    q = Fraction(q)
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def scalar_jsonable(s: Scalar) -> object:
    if s.is_rational():
        return fraction_jsonable(s.rational())
    return s.to_json()


def dumps(doc) -> str:
    """The indented, key-sorted JSON of doc (see the module docstring)."""
    out: list[str] = []
    _emit(doc, "\n", out.append)
    return "".join(out) + "\n"


def _emit(o, newline: str, write) -> None:
    # newline is "\n" and the indentation of o's own line
    if isinstance(o, str):
        write(encode_basestring_ascii(o))
    elif o is None or o is True or o is False:
        write("null" if o is None else "true" if o else "false")
    elif isinstance(o, int):
        write(int.__repr__(o))
    elif isinstance(o, list) and o:
        inner = newline + "  "
        sep = "[" + inner
        for x in o:
            write(sep)
            _emit(x, inner, write)
            sep = "," + inner
        write(newline + "]")
    elif isinstance(o, dict) and o:
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(o):
            if not isinstance(key, str):
                raise TypeError(f"cannot render a {type(key).__name__} key: {key!r}")
            write(sep + encode_basestring_ascii(key) + ": ")
            _emit(o[key], inner, write)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(o, (list, dict)):
        write("[]" if isinstance(o, list) else "{}")
    else:
        raise TypeError(f"cannot render a {type(o).__name__}: {o!r}")
