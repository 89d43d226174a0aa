"""Command-line front end: every computation as a reproducible command.

``COMMANDS`` holds each subcommand's options, document builder, table
renderer and exit rule, and ``main`` runs them.  A canonical command
line (the command, then exact ``--flag VALUE`` pairs, each flag at most
once, no value starting with "-", every value among its choices, every
required flag given) is read straight from that table; argparse is
imported only for any other line, and gives the help text and the
usage errors.  All exact
values render as integers or "p/q" strings; identical invocations
produce byte-identical output.  Exit codes: 0 success,
1 failed checks or an internal error, 2 usage errors (bad space, label
or option, a label whose product module is above the bound, and an
--output path that cannot be written).
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

from . import __version__
from .branching import format_h_label, hom_dim, restrict
from .forms import lambda11_0
from .fourier import delta_kernel, hom_basis, m_complex_coords, proto_delta
from .lie import SPACE_NAMES, build_space, group_record, holds, validate_space
from .linalg import identity, is_zero_matrix
from .obstruction import (
    integrand,
    killing_check,
    nabla_h_entry,
    obstruction_terms,
    pairing_breakdown,
    rigidity_verdict,
)
from .render import dumps, fraction_jsonable, scalar_jsonable
from .reps import UnsupportedLabel, casimir_constant, check_label, dim, enumerate_labels
from .stability import CASIMIR_THRESHOLD, coindex_report


def _table(rows: list, headers: list) -> str:
    cells = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for k, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _label_str(label) -> str:
    return "(" + ",".join(str(x) for x in label) + ")"


class UsageError(ValueError):
    """Bad space/label input; mapped to exit status 2."""


MAX_CUTOFF = 200


def _parse_label(space_name: str, text: str) -> tuple:
    """A --gamma label of the space's group whose Casimir constant is at
    most MAX_CUTOFF: the weight system grows with the label, so the bound
    of --max bounds the work of a single label too."""
    try:
        parts = tuple(int(x) for x in text.replace("(", "").replace(")", "").split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse label {text!r}") from exc
    group = group_record(space_name).group
    try:
        label = check_label(group, parts)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    cas = casimir_constant(group, label)
    if cas > MAX_CUTOFF:
        raise UsageError(f"label {text} has Casimir constant {cas} above {MAX_CUTOFF}")
    return label


def _parse_rational(text: str, option: str) -> Fraction:
    """A rational option value.  The exponent of decimal notation is
    bounded before parsing, because Fraction would expand 1e999999999
    into a billion-digit integer."""
    _, _, exponent = text.lower().partition("e")
    try:
        if exponent and abs(int(exponent)) > 1000:
            raise ValueError("exponent out of range")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse {option} {text!r}: {exc}") from exc


def _parse_max(text: str) -> Fraction:
    """The --max Casimir cutoff: a rational between 0 and MAX_CUTOFF."""
    value = _parse_rational(text, "--max")
    if not 0 <= value <= MAX_CUTOFF:
        raise UsageError(f"--max must lie between 0 and {MAX_CUTOFF}, got {text}")
    return value


# ---------------------------------------------------------------------------
# subcommand payloads
# ---------------------------------------------------------------------------

def casimir_doc(space_name: str, max_cas: Fraction) -> dict:
    # the group record would do, but perfbench's harness test traces build_space here
    group = build_space(space_name).group
    rows = []
    for label, cas in enumerate_labels(group, max_cas).items():
        rows.append(
            {
                "label": list(label),
                "dim": dim(group, label),
                "casimir": fraction_jsonable(cas),
            }
        )
    return {"space": space_name, "group": group, "rows": rows}


def _decomposition_rows(dec: dict) -> list:
    return [{"h_label": format_h_label(lab), "mult": m} for lab, m in sorted(dec.items())]


def branch_doc(space_name: str, gamma: tuple | None, max_cas: Fraction) -> dict:
    record = group_record(space_name)
    if gamma:
        labels = {gamma: casimir_constant(record.group, gamma)}
    else:
        labels = enumerate_labels(record.group, max_cas)
    rows = [
        {
            "gamma": list(label),
            "casimir": fraction_jsonable(cas),
            "branching": _decomposition_rows(restrict(record, label)),
        }
        for label, cas in labels.items()
    ]
    return {"space": space_name, "rows": rows}


def homdim_doc(space_name: str, gamma: tuple) -> dict:
    space = build_space(space_name)
    target = lambda11_0(space_name)
    return {
        "space": space_name,
        "gamma": list(gamma),
        "casimir": fraction_jsonable(casimir_constant(space.group, gamma)),
        "hom_dim": hom_dim(space, gamma, target.decomposition),
    }


def delta_doc(space_name: str, gamma: tuple) -> dict:
    space = build_space(space_name)
    images = proto_delta(space, gamma, hom_basis(space, gamma))
    generators = [
        {
            "delta_matrix": [[scalar_jsonable(x) for x in row] for row in mats],
            "delta_is_zero": is_zero_matrix(mats),
        }
        for mats in m_complex_coords(space, images, dim(space.group, gamma))
    ]
    return {
        "space": space_name,
        "gamma": list(gamma),
        "hom_dim": len(images),
        "coclosed_dim": len(delta_kernel(images)),
        "generators": generators,
    }


def coindex_doc(space_name: str) -> dict:
    return coindex_report(space_name).to_jsonable()


def obstruction_doc() -> dict:
    i0, i1, i2 = obstruction_terms()
    breakdown = pairing_breakdown()
    return {
        "nabla_h": {f"({i+1},{k+1})": [str(p) for p in nabla_h_entry(i, k)] for i in range(6) for k in range(6)},
        "I0": str(i0),
        "I1": str(i1),
        "I2": str(i2),
        "integrand": str(integrand()),
        "pairing": scalar_jsonable(breakdown["total"]),
        "pairing_breakdown": {k: scalar_jsonable(v) for k, v in breakdown.items()},
        "verdict": rigidity_verdict(breakdown["total"]),
    }


def _killing_doc(text: str) -> dict:
    triple = [_parse_rational(x, "--t") for x in text.split(",")]
    if len(triple) != 3:
        raise UsageError("--t needs three rationals")
    if sum(triple) != 0:
        raise UsageError("canonical-variation coefficients must sum to zero")
    return {"t": [fraction_jsonable(x) for x in triple], "killing": killing_check(*triple)}


def validate_doc(space_names: list) -> dict:
    out = {}
    for name in space_names:
        space = build_space(name)
        checks = validate_space(space)
        checks["lambda11_0_dim_8"] = holds(lambda: lambda11_0(name).dim == 8)
        # each torus element t acts on the module's basis as diag(i * weight_t)
        checks["lambda11_0_weight_vectors"] = holds(lambda: all(
            space.torus_acts_by(target.h_matrices, identity(target.dim), target.weights)
            for target in [lambda11_0(name)]
        ))
        out[name] = dict(sorted(checks.items()))
    return out


def reproduce_all_doc() -> dict:
    names = list(SPACE_NAMES)
    doc = {
        "version": __version__,
        "casimir_branching_tables": {
            n: branch_doc(n, None, CASIMIR_THRESHOLD)["rows"] for n in names
        },
        "lambda11_0": {
            n: {
                "dim": lambda11_0(n).dim,
                "decomposition": _decomposition_rows(lambda11_0(n).decomposition),
            }
            for n in names
        },
        "hom_coclosed": {
            n: [
                {
                    "gamma": list(label),
                    "dim": d,
                    "casimir": fraction_jsonable(cas),
                    "hom_dim": hd,
                    "coclosed_dim": cd,
                }
                for (label, d, cas, hd, cd) in coindex_report(n).casimir_rows
            ]
            for n in names
        },
        "coindex": {n: coindex_doc(n) for n in names},
        "obstruction": obstruction_doc(),
        "validate": validate_doc(names),
    }
    ok = _all_pass(doc["validate"])
    expected_coindex = {"s3xs3": 2, "cp3": 1, "flag": 2}
    expected_ied = {"s3xs3": 0, "cp3": 0, "flag": 8}
    ok = ok and all(
        doc["coindex"][n]["coindex"] == expected_coindex[n]
        and doc["coindex"][n]["ied_dim"] == expected_ied[n]
        for n in names
    )
    ok = ok and doc["obstruction"]["pairing"] == "256/3"
    ok = ok and doc["obstruction"]["verdict"]["rigid"] is True
    doc["all_checks_pass"] = bool(ok)
    return doc


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_casimir(doc: dict, args) -> str:
    rows = [
        (_label_str(r["label"]), r["dim"], r["casimir"]) for r in doc["rows"]
    ]
    return _table(rows, ["label", "dim", "casimir"])


def _render_branch(doc: dict, args) -> str:
    rows = []
    for r in doc["rows"]:
        dec = " + ".join(
            (f'{b["mult"]}*{b["h_label"]}' if b["mult"] > 1 else b["h_label"])
            for b in r["branching"]
        )
        rows.append((_label_str(r["gamma"]), dec, r["casimir"]))
    return _table(rows, ["gamma", "branching", "casimir"])


def _render_coindex(doc: dict, args) -> str:
    rows = [
        (d["lambda"], d["mult"], d["source"]) for d in doc["destabilizing"]
    ]
    out = f'space: {doc["space"]}\n'
    out += _table(rows, ["lambda", "mult", "source"])
    out += f'coindex = {doc["coindex"]}\n'
    out += f'infinitesimal Einstein deformations: dim = {doc["ied_dim"]}\n'
    return out


def _render_obstruction(doc: dict, args) -> str:
    out = "covariant derivative coefficients (rows i, slots k):\n"
    rows = []
    for key, entries in doc["nabla_h"].items():
        terms = [f"({p})*e{l+1}" for l, p in enumerate(entries) if p != "0"]
        rows.append((key, " + ".join(terms) or "0"))
    out += _table(rows, ["(i,k)", "entry"])
    out += f'I0 = {doc["I0"]}\n'
    out += f'I1 = {doc["I1"]}\n'
    out += f'I2 = {doc["I2"]}\n'
    out += f'I  = {doc["integrand"]}\n'
    v = doc["verdict"]
    out += f'pairing = {doc["pairing"]}, rigid = {str(v["rigid"]).lower()}\n'
    return out


def _render_validate(doc: dict, args) -> str:
    rows = []
    for name, checks in doc.items():
        for check, ok in checks.items():
            rows.append((name, check, "pass" if ok else "FAIL"))
    return _table(rows, ["space", "check", "result"])


def _render_homdim(doc: dict, args) -> str:
    return (
        f'space: {doc["space"]}  gamma: {_label_str(doc["gamma"])}  '
        f'casimir: {doc["casimir"]}  hom_dim: {doc["hom_dim"]}\n'
    )


def _render_delta(doc: dict, args) -> str:
    out = (
        f'space: {doc["space"]}  gamma: {_label_str(doc["gamma"])}\n'
        f'hom_dim = {doc["hom_dim"]}  coclosed_dim = {doc["coclosed_dim"]}\n'
    )
    for k, g in enumerate(doc["generators"]):
        out += f'generator {k}: delta {"= 0" if g["delta_is_zero"] else "!= 0"}\n'
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _all_pass(doc: dict) -> bool:
    return all(all(checks.values()) for checks in doc.values())


@dataclass(frozen=True)
class Option:
    """One ``--flag VALUE`` option of a subcommand; its value is a string."""

    flag: str
    required: bool = False
    default: str | None = None
    choices: tuple | None = None
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:]


@dataclass(frozen=True)
class Command:
    """A subcommand: its options, ``doc`` (args -> document), ``table``
    (document, args -> table text) and ``ok`` (document -> exit 0)."""

    help: str
    options: tuple
    doc: Callable
    table: Callable
    ok: Callable = lambda doc: True


_SPACE = Option("--space", required=True, choices=SPACE_NAMES)
_MAX = Option("--max", default="12", help=f"Casimir cutoff, a rational in [0, {MAX_CUTOFF}]")
_GAMMA = Option("--gamma", required=True)
_OUTPUTS = (
    Option("--format", default="table", choices=("table", "json")),
    Option("--output", help="write output to a file"),
)

COMMANDS = {
    "casimir": Command("Casimir table of a space's symmetry group", (_SPACE, _MAX, *_OUTPUTS),
                       lambda a: casimir_doc(a.space, _parse_max(a.max)), _render_casimir),
    "branch": Command(
        "branching table to the isotropy subgroup",
        (_SPACE, Option("--gamma", help="single label, e.g. 1,1,0"), _MAX, *_OUTPUTS),
        lambda a: branch_doc(
            a.space, _parse_label(a.space, a.gamma) if a.gamma is not None else None, _parse_max(a.max)
        ),
        _render_branch,
    ),
    "homdim": Command("multiplicity in the primitive (1,1) module", (_SPACE, _GAMMA, *_OUTPUTS),
                      lambda a: homdim_doc(a.space, _parse_label(a.space, a.gamma)), _render_homdim),
    "delta": Command("prototypical codifferential on a Fourier space", (_SPACE, _GAMMA, *_OUTPUTS),
                     lambda a: delta_doc(a.space, _parse_label(a.space, a.gamma)), _render_delta),
    "coindex": Command("coindex report of a catalog space", (_SPACE, *_OUTPUTS),
                       lambda a: coindex_doc(a.space), _render_coindex),
    "obstruction": Command("second-order rigidity obstruction", _OUTPUTS,
                           lambda a: obstruction_doc(), _render_obstruction),
    "killing": Command(
        "Killing property of canonical variations",
        (Option("--t", required=True, help="trace-free triple, e.g. 1,-1,0"), *_OUTPUTS),
        lambda a: _killing_doc(a.t),
        lambda doc, a: f"killing({a.t}) = {str(doc['killing']).lower()}\n",  # the raw --t text
    ),
    "validate": Command("run catalog invariant checks", (Option("--space", choices=SPACE_NAMES), *_OUTPUTS),
                        lambda a: validate_doc([a.space] if a.space else SPACE_NAMES), _render_validate,
                        _all_pass),
    "reproduce-all": Command(
        "regenerate every checked number",
        _OUTPUTS,
        lambda a: reproduce_all_doc(),
        lambda doc, a: "all checks pass\n" if doc["all_checks_pass"] else "CHECKS FAILED\n",
        lambda doc: doc["all_checks_pass"],
    ),
}


def parse_canonical(argv: list) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, read
    straight from ``COMMANDS`` when argv is canonical: a command, then
    ``FLAG VALUE`` pairs, each flag an exact option of the command given
    at most once, no value starting with "-", each value among its
    option's choices, and every required flag present.  None otherwise,
    and argparse parses the line."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None or len(argv) % 2 == 0:
        return None
    options = {o.flag: o for o in command.options}
    given = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        option = options.get(flag)
        if option is None or flag in given or value.startswith("-"):
            return None
        if option.choices is not None and value not in option.choices:
            return None
        given[flag] = value
    if any(o.required and o.flag not in given for o in command.options):
        return None
    return SimpleNamespace(
        command=argv[0],
        **{o.dest: given.get(o.flag, o.default) for o in command.options},
        doc=command.doc,
        table=command.table,
        ok=command.ok,
    )


@lru_cache(maxsize=1)
def build_parser():
    """The argparse parser of ``COMMANDS``, built once per process on the
    first command line that is not canonical; parsing leaves it unchanged.
    It gives the help text and the usage errors."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="gray-stability",
        description="Exact stability and rigidity computations for the "
        "homogeneous nearly Kaehler 6-manifolds.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for o in command.options:
            p.add_argument(o.flag, required=o.required, default=o.default, choices=o.choices, help=o.help)
        p.set_defaults(doc=command.doc, table=command.table, ok=command.ok)
    return ap


def _emit(payload: str, path: str | None) -> None:
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(payload)


def main(argv: list | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_canonical(argv) or build_parser().parse_args(argv)
    try:
        doc = args.doc(args)
        _emit(dumps(doc) if args.format == "json" else args.table(doc, args), args.output)
        return 0 if args.ok(doc) else 1
    except (UsageError, UnsupportedLabel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
