"""Command-line interface behavior and output determinism."""

import dataclasses
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from gray_stability.branching import hom_dim
from gray_stability.cli import main, validate_doc
from gray_stability.forms import lambda11_0
from gray_stability.lie import SPACE_NAMES, ad_and_gram, build_space, group_record
from gray_stability.reps import _explicit_rep, casimir_constant, enumerate_labels
from gray_stability.scalars import ONE
from oracles import ALGEBRA_CORRUPTIONS, J_FLIPS, SCALES, bracket_leaving_m, catalog_mutant, flip_planes, shift_entry


DATA = pathlib.Path(__file__).parent / "data"
# One line per golden file, "<expected file> <argv...>", the file relative to
# the repository root: the one list that this module and CI's cmp loop read.
GOLDEN_TABLE = [
    (DATA.parents[1] / path, argv)
    for path, *argv in map(str.split, (DATA / "golden_commands.txt").read_text(encoding="utf-8").splitlines())
]


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_casimir_table(capsys):
    code, out = _run(capsys, "casimir", "--space", "cp3", "--max", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["label", "dim", "casimir"]
    assert lines[2].split() == ["(0,0)", "1", "0"]
    assert lines[3].split() == ["(1,0)", "5", "8"]
    assert lines[4].split() == ["(1,1)", "10", "12"]


def test_casimir_json_sorted_by_casimir(capsys):
    from fractions import Fraction

    code, out = _run(capsys, "casimir", "--space", "s3xs3", "--format", "json")
    doc = json.loads(out)
    values = [Fraction(str(r["casimir"])) for r in doc["rows"]]
    assert values == sorted(values)


def test_branch_single_gamma(capsys):
    code, out = _run(capsys, "branch", "--space", "s3xs3", "--gamma", "1,1,0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["branching"] == [
        {"h_label": "V0", "mult": 1},
        {"h_label": "V2", "mult": 1},
    ]


def test_homdim(capsys):
    code, out = _run(capsys, "homdim", "--space", "flag", "--gamma", "1,1", "--format", "json")
    doc = json.loads(out)
    assert doc["hom_dim"] == 4 and doc["casimir"] == 12


def test_homdim_table_is_one_line_not_the_json(capsys):
    argv = ("homdim", "--space", "flag", "--gamma", "1,1", "--format")
    code, table = _run(capsys, *argv, "table")
    assert code == 0
    assert table != _run(capsys, *argv, "json")[1]
    assert table.count("\n") == 1


def test_delta_command(capsys):
    code, out = _run(capsys, "delta", "--space", "cp3", "--gamma", "1,0", "--format", "json")
    doc = json.loads(out)
    assert doc["hom_dim"] == 1 and doc["coclosed_dim"] == 0
    assert doc["generators"][0]["delta_is_zero"] is False


@pytest.mark.parametrize(
    "space,gamma",
    [
        ("s3xs3", "1,1,0"),
        ("cp3", "1,0"),
        ("flag", "1,1"),
        ("s3xs3", "1,1,2"),
        ("cp3", "1,1"),
        ("s3xs3", "2,2,2"),
        ("s3xs3", "2,2,0"),
        ("cp3", "2,0"),  # Sym^2 C^5, 15 -> 14 by the Casimir kernel
        ("flag", "2,2"),  # Sym^2 ad, 36 -> 27 by the Casimir kernel
    ],
)
def test_delta_matches_golden(capsys, space, gamma):
    # the delta matrices are printed in the basis of the primitive (1,1)
    # module, so they pin its construction and its isotropy matrices
    code, out = _run(capsys, "delta", "--space", space, "--gamma", gamma, "--format", "json")
    assert code == 0
    name = f"golden_delta_{space}_{gamma.replace(',', '_')}.json"
    assert out == (DATA / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("gamma", ["0,0", "1,1"])
def test_delta_table_matches_golden(capsys, gamma):
    # table is delta's default format: one line per generator, "delta = 0"
    # on the b2 = 2 harmonic generators of (0,0), "delta != 0" on (1,1)
    code, out = _run(capsys, "delta", "--space", "flag", "--gamma", gamma)
    assert code == 0
    assert out == (DATA / f"golden_delta_table_flag_{gamma.replace(',', '_')}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("space", ["s3xs3", "cp3", "flag"])
def test_branch_table_matches_golden(capsys, space):
    # the table pins the isotropy label format and the mult*label join
    code, out = _run(capsys, "branch", "--space", space, "--max", "40", "--format", "table")
    assert code == 0
    assert out == (DATA / f"golden_branch_{space}_max40.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("space", ["s3xs3", "cp3", "flag"])
def test_branch_table_at_the_largest_max_matches_its_digest(capsys, space):
    # --max accepts up to 200; the three tables (about 211 KB) are pinned by
    # the SHA-256 digest of each, one "<digest>  <space>" line per space
    code, out = _run(capsys, "branch", "--space", space, "--max", "200", "--format", "table")
    assert code == 0
    lines = (DATA / "golden_branch_max200.sha256").read_text(encoding="utf-8").splitlines()
    digests = dict(line.split()[::-1] for line in lines)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digests[space]


@pytest.mark.parametrize("space", ["s3xs3", "cp3", "flag"])
def test_casimir_table_matches_golden(capsys, space):
    code, out = _run(capsys, "casimir", "--space", space, "--max", "40", "--format", "table")
    assert code == 0
    assert out == (DATA / f"golden_casimir_{space}_max40.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("space", ["s3xs3", "cp3", "flag"])
def test_coindex_table_matches_golden(capsys, space):
    # the destabilizing eigenvalues with their multiplicities and sources,
    # the coindex and the IED dimension
    code, out = _run(capsys, "coindex", "--space", space, "--format", "table")
    assert code == 0
    assert out == (DATA / f"golden_coindex_{space}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("space,gamma", [("s3xs3", "1,1,0"), ("cp3", "2,1"), ("flag", "1,2")])
def test_branch_builds_no_space(capsys, fmt, space, gamma):
    # branch reads only the space's group record
    for extra in ([], ["--gamma", gamma]):
        build_space.cache_clear()
        code, _ = _run(capsys, "branch", "--space", space, "--max", "40", "--format", fmt, *extra)
        assert code == 0
        assert build_space.cache_info().misses == 0, extra


def test_homdim_builds_the_space(capsys):
    build_space.cache_clear()
    code, _ = _run(capsys, "homdim", "--space", "cp3", "--gamma", "1,1")
    assert code == 0
    assert build_space.cache_info().misses == 1


def test_coindex_json_schema(capsys):
    code, out = _run(capsys, "coindex", "--space", "flag", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "space": "flag",
        "coindex": 2,
        "destabilizing": [{"lambda": 6, "mult": 2, "source": "harmonic-2-forms"}],
        "ied_dim": 8,
    }


def test_obstruction_final_line(capsys):
    code, out = _run(capsys, "obstruction")
    assert code == 0
    assert out.strip().splitlines()[-1] == "pairing = 256/3, rigid = true"


def test_obstruction_table_matches_golden(capsys):
    # the nabla_h table, I0, I1, I2, I, the pairing and the verdict
    code, out = _run(capsys, "obstruction", "--format", "table")
    assert code == 0
    assert out == (DATA / "golden_obstruction.txt").read_text(encoding="utf-8")


def test_obstruction_json_matches_golden(capsys):
    # every nabla_h string, the integrand and the pairing breakdown
    code, out = _run(capsys, "obstruction", "--format", "json")
    assert code == 0
    assert out == (DATA / "golden_obstruction.json").read_text(encoding="utf-8")


def test_validate_table_matches_golden(capsys):
    # every structural check of the three spaces, by name
    code, out = _run(capsys, "validate", "--format", "table")
    assert code == 0
    assert out == (DATA / "golden_validate.txt").read_text(encoding="utf-8")


def test_killing_command(capsys):
    code, out = _run(capsys, "killing", "--t", "1,-1,0")
    assert code == 0 and out.strip() == "killing(1,-1,0) = true"


def test_validate_exit_code(capsys):
    code, out = _run(capsys, "validate", "--space", "flag")
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("space", ["s3xs3", "cp3", "flag"])
def test_validate_reads_the_weights_of_lambda11_0(monkeypatch, space):
    # the key compares each torus element's action with diag(i * weight),
    # so one wrong weight turns it false
    from gray_stability import cli

    assert cli.validate_doc([space])[space]["lambda11_0_weight_vectors"] is True
    target = cli.lambda11_0(space)
    weights = list(target.weights)
    weights[0] = (weights[0][0] + 1,) + weights[0][1:]
    wrong = dataclasses.replace(target, weights=tuple(weights))
    monkeypatch.setattr(cli, "lambda11_0", lambda name: wrong)
    checks = cli.validate_doc([space])[space]
    assert checks["lambda11_0_weight_vectors"] is False
    assert checks["lambda11_0_dim_8"] is True


def test_byte_identical_reruns(capsys):
    _, first = _run(capsys, "coindex", "--space", "cp3", "--format", "json")
    _, second = _run(capsys, "coindex", "--space", "cp3", "--format", "json")
    assert first == second


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out = _run(
        capsys, "coindex", "--space", "s3xs3", "--format", "json", "--output", str(path)
    )
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["coindex"] == 2


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "out.txt"
    assert main(["casimir", "--space", "flag", "--output", str(missing)]) == 2
    assert main(["casimir", "--space", "flag", "--output", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not missing.exists()
    assert err == (
        f"error: cannot write {missing}: No such file or directory\n"
        f"error: cannot write {tmp_path}: Is a directory\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["branch", "--space", "flag", "--gamma", "", "--max", "1"], "cannot parse label ''"),
        (["homdim", "--space", "flag", "--gamma", ""], "cannot parse label ''"),
        (["delta", "--space", "flag", "--gamma", ""], "cannot parse label ''"),
        (["casimir", "--space", "flag", "--output", ""], "cannot write : No such file or directory"),
    ],
    ids=["branch-gamma", "homdim-gamma", "delta-gamma", "output"],
)
def test_empty_option_value_is_usage_error(capsys, argv, message):
    # an empty value is given, not absent: it must not fall back to the default
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_unknown_space_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["casimir", "--space", "s6"])
    assert exc.value.code == 2


def test_bad_label_is_usage_error(capsys):
    assert main(["homdim", "--space", "cp3", "--gamma", "1,2"]) == 2
    assert main(["branch", "--space", "s3xs3", "--gamma", "1,1"]) == 2
    assert main(["delta", "--space", "cp3", "--gamma", "3,2"]) == 2  # product module above the bound
    assert main(["killing", "--t", "1,1,1"]) == 2
    assert main(["killing", "--t", "1,-1"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 5


def test_unparsable_gamma_is_usage_error(capsys):
    assert main(["homdim", "--space", "flag", "--gamma", "a,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: cannot parse label 'a,1'\n"


@pytest.mark.parametrize("command", ["casimir", "branch"])
@pytest.mark.parametrize("value", ["1e400", "-1", "201", "1e999999999", "1/0", "abc"])
def test_out_of_range_max_is_usage_error(capsys, command, value):
    assert main([command, "--space", "cp3", "--max", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("value", ["1/0,0,0", "1e999999999,-1e999999999,0", "abc,0,0"])
def test_unparsable_killing_t_is_usage_error(capsys, value):
    assert main(["killing", "--t", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("command", ["branch", "homdim", "delta"])
@pytest.mark.parametrize(
    "space, gamma, group",
    [("cp3", "9,0", "so5"), ("flag", "11,0", "su3")],
)
def test_label_above_cutoff_is_usage_error(capsys, command, space, gamma, group):
    label = tuple(int(x) for x in gamma.split(","))
    assert casimir_constant(group, label) > 200
    assert main([command, "--space", space, "--gamma", gamma]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_branch_accepts_label_at_cutoff(capsys):
    assert casimir_constant("so5", (8, 3)) == 200
    code, out = _run(capsys, "branch", "--space", "cp3", "--gamma", "8,3", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["gamma"] == [8, 3]


def test_casimir_accepts_max_at_bound(capsys):
    code, out = _run(capsys, "casimir", "--space", "flag", "--max", "200", "--format", "json")
    assert code == 0
    values = [Fraction(str(r["casimir"])) for r in json.loads(out)["rows"]]
    assert values[-1] == casimir_constant("su3", (8, 4)) == Fraction(592, 3)


def test_obstruction_computes_its_terms_once(capsys):
    from gray_stability import obstruction

    obstruction.obstruction_terms.cache_clear()
    obstruction.nabla_h.cache_clear()
    obstruction.integrand.cache_clear()
    assert main(["obstruction"]) == 0
    assert obstruction.obstruction_terms.cache_info().misses == 1
    assert obstruction.nabla_h.cache_info().misses == 1
    assert obstruction.integrand.cache_info().misses == 1


def test_obstruction_eliminates_once(monkeypatch, capsys):
    # a cold run inverts the flag catalog's 8x8 Gram matrix and nothing
    # else: the derivatives of the coordinate functions are read off [xi, e]
    from gray_stability import linalg, obstruction

    build_space.cache_clear()
    obstruction.obstruction_terms.cache_clear()
    obstruction.nabla_h.cache_clear()
    obstruction.integrand.cache_clear()
    shapes = []
    original = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda a: shapes.append((len(a), len(a[0]))) or original(a))
    assert main(["obstruction"]) == 0
    assert shapes == [(8, 16)]


def test_reproduce_all_eliminates_only_the_grams(monkeypatch, capsys):
    # each catalog space inverts its Gram matrix and nothing else: the
    # metric inverts both frames of m^C by transposition
    from gray_stability import linalg, obstruction, stability

    for cache in (build_space, lambda11_0, stability.coindex_report, obstruction.nabla_h,
                  obstruction.obstruction_terms, obstruction.integrand):
        cache.cache_clear()
    shapes = []
    original = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda a: shapes.append((len(a), len(a[0]))) or original(a))
    assert main(["reproduce-all"]) == 0
    assert shapes == [(9, 18), (10, 20), (8, 16)]
    for name, gram in (("s3xs3", (9, 18)), ("cp3", (10, 20)), ("flag", (8, 16))):
        build_space.cache_clear()
        stability.coindex_report.cache_clear()
        lambda11_0.cache_clear()
        shapes.clear()
        assert main(["coindex", "--space", name]) == 0
        assert shapes == [gram]
    capsys.readouterr()


def test_obstruction_doc_sums_polynomials_in_one_accumulator(monkeypatch):
    # every polynomial sum goes through SymPoly.sum; a sum written as a
    # chain of `acc + x` costs hundreds of two-operand additions
    from gray_stability import obstruction
    from gray_stability.cli import obstruction_doc
    from gray_stability.sympoly import SymPoly

    calls = []
    add = SymPoly.__add__
    monkeypatch.setattr(SymPoly, "__add__", lambda p, q: calls.append(p) or add(p, q))
    obstruction.obstruction_terms.cache_clear()
    obstruction.nabla_h.cache_clear()
    obstruction.integrand.cache_clear()
    assert obstruction_doc()["pairing"] == "256/3"
    assert 0 < len(calls) <= 100


def test_obstruction_doc_pairs_the_integrand_once(monkeypatch):
    # the breakdown's two blocks are the only pairings; "pairing" is their total
    from gray_stability import obstruction
    from gray_stability.cli import obstruction_doc

    calls = []
    sym_inner = obstruction.sym_inner
    monkeypatch.setattr(obstruction, "sym_inner", lambda p, q: calls.append(p) or sym_inner(p, q))
    doc = obstruction_doc()
    assert len(calls) == 2
    assert doc["pairing"] == doc["pairing_breakdown"]["total"] == "256/3"


def test_reproduce_all_restricts_each_label_once():
    # the branch tables and the coindex reports' hom_dim both restrict the
    # 17 labels with Casimir <= 12; the second pass reads the cache
    from gray_stability import branching, stability
    from gray_stability.cli import reproduce_all_doc

    branching._restrict.cache_clear()
    stability.coindex_report.cache_clear()
    reproduce_all_doc()
    info = branching._restrict.cache_info()
    assert (info.misses, info.hits) == (17, 17)
    # no caller changed a cached decomposition
    for name in SPACE_NAMES:
        record = group_record(name)
        for label in enumerate_labels(record.group, Fraction(12)):
            fresh = branching.decompose_weights(record.h_type, branching.restricted_weights(record, label))
            assert branching.restrict(record, label) == fresh


@pytest.mark.parametrize("exc_type", [ArithmeticError, ValueError])
def test_internal_error_exits_1(capsys, monkeypatch, exc_type):
    from gray_stability import cli

    def broken(space_name):
        raise exc_type("matrix is singular")

    monkeypatch.setattr(cli, "coindex_report", broken)
    assert main(["coindex", "--space", "flag"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: matrix is singular\n"


def test_branching_inconsistency_exits_1(capsys, monkeypatch):
    from gray_stability import branching

    monkeypatch.setattr(branching, "restricted_weights", lambda record, gamma: {(1,): 1})
    branching._restrict.cache_clear()
    assert main(["branch", "--space", "s3xs3", "--gamma", "1,1,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: asymmetric SU(2) weight multiset: m(1,) = 1, m(-1,) = 0\n"


def test_user_input_errors_are_not_internal(capsys):
    assert main(["killing", "--t", "1,1,1"]) == 2
    assert main(["delta", "--space", "s3xs3", "--gamma", "4,5,5"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: canonical-variation coefficients must sum to zero\n"
        "error: k3 label (4, 5, 5) needs a product module of dimension 180, above the bound 150\n"
    )


def test_label_above_the_product_bound_builds_nothing(capsys, monkeypatch):
    # cp3 (3,2) has homomorphisms, so delta asks for its module; the bound
    # on Sym^1 C^5 (x) Sym^2 ad (5 * 55 = 275) refuses before any entry
    from gray_stability import linalg, reps

    space = build_space("cp3")
    assert hom_dim(space, (3, 2), lambda11_0("cp3").decomposition) == 7

    def refuse(*args):
        raise AssertionError("a module entry was built")

    monkeypatch.setattr(linalg, "add_into", refuse)
    monkeypatch.setattr(linalg, "from_entries", refuse)
    reps._explicit_rep.cache_clear()
    assert main(["delta", "--space", "cp3", "--gamma", "3,2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"above the bound {reps.MAX_PRODUCT_DIM}" in err


def test_delta_builds_hom_basis_and_images_once(capsys, monkeypatch):
    from gray_stability import cli, fourier

    calls = {"hom_basis": 0, "proto_delta": 0}

    def counted(name):
        original = getattr(fourier, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(fourier, name, wrapper)
        monkeypatch.setattr(cli, name, wrapper)

    counted("hom_basis")
    counted("proto_delta")
    code, out = _run(capsys, "delta", "--space", "flag", "--gamma", "1,1", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["hom_dim"] == 4 and doc["coclosed_dim"] == 1
    assert len(doc["generators"]) == 4
    assert calls == {"hom_basis": 1, "proto_delta": 1}


def test_delta_without_homomorphisms_needs_no_module(capsys):
    code, out = _run(capsys, "delta", "--space", "flag", "--gamma", "2,0", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["hom_dim"] == 0 and doc["coclosed_dim"] == 0 and doc["generators"] == []


def _run_all(capsys, argv):
    """Exit status (SystemExit code included), stdout and stderr of main."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_matches_fresh_parser(capsys):
    from gray_stability import cli

    commands = [
        ["branch", "--space", "cp3", "--max", "12", "--format", "json"],
        ["casimir", "--space", "s6"],  # argparse rejects the choice: exit 2
        ["killing", "--t", "1,1,1"],  # usage error: exit 2
        ["casimir", "--space", "flag"],
        ["homdim", "--space", "flag", "--gamma", "1,1", "--format", "json"],
        ["killing", "--t", "1,-1,0", "--format", "json"],
    ]
    cli.build_parser.cache_clear()
    shared = [_run_all(capsys, argv) for argv in commands]
    assert cli.build_parser.cache_info().misses == 1
    assert [r[0] for r in shared] == [0, 2, 2, 0, 0, 0]
    for argv, got in zip(commands, shared):
        cli.build_parser.cache_clear()
        assert got == _run_all(capsys, argv), argv


@pytest.mark.parametrize(
    "argv, name",
    [
        (["homdim", "--space", "flag", "--gamma", "1,1"], "golden_homdim_flag_1_1"),
        (["killing", "--t", "1,-1,0"], "golden_killing_integers"),
        # the table line keeps the raw --t text, the JSON the reduced rationals
        (["killing", "--t", "1/2,-0.5,0"], "golden_killing_rationals"),
    ],
)
@pytest.mark.parametrize("fmt, suffix", [("table", "txt"), ("json", "json")])
def test_homdim_and_killing_match_golden(capsys, argv, name, fmt, suffix):
    code, out = _run(capsys, *argv, "--format", fmt)
    assert code == 0
    assert out == (DATA / f"{name}.{suffix}").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv, name",
    [(["casimir", "--space", s, "--max", "40"], f"golden_casimir_{s}_max40") for s in SPACE_NAMES]
    + [(["coindex", "--space", s], f"golden_coindex_{s}") for s in SPACE_NAMES]
    + [(["validate"], "golden_validate")],
)
def test_json_matches_golden(capsys, argv, name):
    code, out = _run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == (DATA / f"{name}.json").read_text(encoding="utf-8")


def _fail_one_check(monkeypatch):
    from gray_stability import cli

    real = cli.validate_space

    def failing(space):
        return {**real(space), "kahler_h_invariant": False}

    monkeypatch.setattr(cli, "validate_space", failing)


def test_validate_with_a_failed_check_exits_1(capsys, monkeypatch):
    _fail_one_check(monkeypatch)
    code, out = _run(capsys, "validate", "--space", "cp3")
    assert code == 1
    assert ["cp3", "kahler_h_invariant", "FAIL"] in [line.split() for line in out.splitlines()]
    code, out = _run(capsys, "validate", "--space", "cp3", "--format", "json")
    assert code == 1
    checks = json.loads(out)["cp3"]
    assert checks["kahler_h_invariant"] is False
    assert [k for k, ok in checks.items() if not ok] == ["kahler_h_invariant"]


def _double_e1(space):
    # the first m-basis matrix doubled before the bracket and the metric are formed
    mats = list(space.algebra.basis_matrices)
    mats[space.h_dim] = tuple(tuple(x + x for x in row) for row in mats[space.h_dim])
    return dataclasses.replace(space, algebra=ad_and_gram(tuple(mats), SCALES[space.name]))


def _repeat_p1(space):
    p1, _, p3 = space.m_plus
    return dataclasses.replace(space, m_plus=(p1, p1, p3))


def _conjugate_p1(space):
    # on flag another invariant almost complex structure, not the nearly Kaehler one
    p1, p2, p3 = space.m_plus
    return dataclasses.replace(space, m_plus=(tuple(x.conjugate() for x in p1), p2, p3))


def _repeat_w1(space):
    w1, _, w3 = space.m_plus_weights
    return dataclasses.replace(space, m_plus_weights=(w1, w1, w3))


def _tilt_p1(space):
    # p1 + conj(p2) in place of p1: a J whose +i eigenspace no torus element keeps
    p1, p2, p3 = space.m_plus
    return dataclasses.replace(space, m_plus=(tuple(a + b.conjugate() for a, b in zip(p1, p2)), p2, p3))


def _flip_p1(space):
    # J flipped on the plane of p1: on flag an integrable J, h-invariant but
    # not nearly Kaehler; on the other two, a J that the isotropy does not keep
    return flip_planes(space, {0})


def _double_torus(space):
    return dataclasses.replace(space, h_weight_torus=tuple(tuple(x + x for x in t) for t in space.h_weight_torus))


def _negate_psi_term(space):
    (wedge, c), *rest = space.psi_minus
    return dataclasses.replace(space, psi_minus=((wedge, -c), *rest))


def _corrupt(fields):
    """A mutant whose algebra has the fields fields(space) replaced after ad_and_gram."""
    return lambda space: dataclasses.replace(space, algebra=dataclasses.replace(space.algebra, **fields(space)))


LAMBDA11_0_KEYS = {"lambda11_0_dim_8", "lambda11_0_weight_vectors"}


def _validate_fails(capsys, name, mutate) -> set:
    """The keys that validate --space name prints FAIL when build_space
    returns the mutant everywhere; it must exit 1 with empty stderr."""
    with catalog_mutant(name, mutate):
        assert main(["validate", "--space", name]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split() for line in captured.out.splitlines()[2:]]
    return {check for _, check, result in rows if result == "FAIL"}


@pytest.mark.parametrize(
    "mutate, failing",
    [
        # a doubled e1 leaves ad(h) non-skew on the m-basis: A omega + omega A^T
        # is still 0, but A no longer keeps m^+ and m^-, so J is not h-invariant
        (_double_e1, {"m_orthonormal", "m_pm_weight_vectors", "kahler_h_invariant", "psi_minus_h_invariant"}
         | LAMBDA11_0_KEYS),
        (_repeat_p1, {"m_pm_conjugate_swap", "m_pm_spans", "kahler_h_invariant"}),
        (_conjugate_p1, {"m_pm_spans"}),
        (_repeat_w1, {"m_pm_spans"} | LAMBDA11_0_KEYS),
    ],
    ids=["doubled_e1", "repeated_p1", "conjugated_p1", "repeated_w1"],
)
def test_validate_names_the_checks_a_broken_flag_fails(capsys, mutate, failing):
    # the broken space is what build_space returns everywhere, Lambda^{1,1}_0
    # included: validate reports each check that reads a broken premise
    assert _validate_fails(capsys, "flag", mutate) == failing


@pytest.mark.parametrize("name", ["s3xs3", "cp3"])
@pytest.mark.parametrize(
    "mutate, failing",
    [
        (_repeat_p1, {"m_pm_conjugate_swap", "m_pm_spans", "kahler_h_invariant"}),
        # unlike flag's, these conjugates give a J that the isotropy does not keep
        (_conjugate_p1, {"m_pm_spans", "kahler_h_invariant"}),
        (_repeat_w1, {"m_pm_spans"} | LAMBDA11_0_KEYS),
    ],
    ids=["repeated_p1", "conjugated_p1", "repeated_w1"],
)
def test_validate_names_the_checks_a_broken_space_fails(capsys, name, mutate, failing):
    # the flag cases above on the other two spaces; Lambda^{1,1}_0 reads
    # the weight bases alone, so a broken m^+ leaves its keys alone
    assert _validate_fails(capsys, name, mutate) == failing


# Each validate key with a mutant that makes it FAIL; psi_minus_h_invariant
# exists on flag only.
KEY_MUTANTS = {
    "antisymmetry": _corrupt(lambda s: ALGEBRA_CORRUPTIONS["one_sided_bracket"](s.algebra)),
    "jacobi": _corrupt(lambda s: ALGEBRA_CORRUPTIONS["basis_matrix"](s.algebra)),
    "ad_invariance": _corrupt(lambda s: ALGEBRA_CORRUPTIONS["gram_entry"](s.algebra)),
    "m_orthonormal": _double_e1,
    # Q(basis_0, basis_hd) = 1, basis_0 in h and basis_hd in m
    "h_m_orthogonal": _corrupt(lambda s: {"gram": shift_entry((s.algebra.gram,), 0, (0, s.h_dim), ONE)[0]}),
    "reductivity": bracket_leaving_m,
    # coordinate hd (in m) added to [basis_0, basis_1], both in h
    "h_subalgebra": _corrupt(lambda s: {"ad": shift_entry(s.algebra.ad, 0, (s.h_dim, 1), ONE)}),
    "m_pm_conjugate_swap": _tilt_p1,
    "m_pm_spans": _repeat_p1,
    "m_pm_weight_vectors": _double_torus,
    "kahler_h_invariant": _tilt_p1,
    "psi_minus_h_invariant": _negate_psi_term,
    "lambda11_0_weight_vectors": _double_torus,
    # nine wedges less one nonzero pairing row always leave 8: it fails when
    # a guard under lambda11_0 raises, here the nearly Kaehler guard or the mixing one
    "lambda11_0_dim_8": _flip_p1,
}
# The keys no mutant of the catalog makes FAIL, each with its reason.
NO_MUTANT: dict = {}


@pytest.mark.parametrize(
    "name, key",
    [(name, key) for key in KEY_MUTANTS for name in SPACE_NAMES if key != "psi_minus_h_invariant" or name == "flag"],
)
def test_every_validate_key_can_say_no(capsys, name, key):
    assert key in _validate_fails(capsys, name, KEY_MUTANTS[key])


def test_every_validate_key_has_a_mutant_or_a_reason():
    assert sorted(KEY_MUTANTS.keys() | NO_MUTANT.keys()) == list(validate_doc(["flag"])["flag"])


FLAG_COINDEX = ["coindex", "--space", "flag"]


@pytest.mark.parametrize(
    "argv, mutate, premise",
    [
        # coindex reads the weight bases of m^+ and m^-, not m^+ itself
        pytest.param(FLAG_COINDEX, _repeat_w1, "the weight bases of m^+ and m^- do not pair under g",
                     id="_repeat_w1-the weight bases of m^+ and m^- do not pair under g"),
        # delta displays its images in the frame m^+ | m^-
        pytest.param(["delta", "--space", "flag", "--gamma", "1,1"], _repeat_p1, "m^+ and m^- do not pair under g",
                     id="_repeat_p1-m^+ and m^- do not pair under g"),
        pytest.param(FLAG_COINDEX, bracket_leaving_m, "[h, m] leaves m", id="bracket_leaving_m-[h, m] leaves m"),
        pytest.param(FLAG_COINDEX, _flip_p1, "J is not nearly Kaehler: [m^+, m^-] leaves h",
                     id="_flip_p1-J is not nearly Kaehler"),
    ],
)
def test_other_commands_name_the_broken_premise(capsys, argv, mutate, premise):
    with catalog_mutant("flag", mutate):
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"internal error: flag: {premise}\n")


@pytest.mark.parametrize("planes", J_FLIPS, ids=lambda planes: "+".join(f"p{k + 1}" for k in planes))
@pytest.mark.parametrize("name", SPACE_NAMES)
def test_no_j_flip_is_silent(capsys, name, planes):
    # J flipped on one or two planes, the weight basis with it: validate
    # FAILs a key and coindex names the broken premise, on every space
    def mutate(space):
        return flip_planes(space, planes)

    assert _validate_fails(capsys, name, mutate)
    with catalog_mutant(name, mutate):
        assert main(["coindex", "--space", name]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"internal error: {name}: ")


def test_catalog_mutant_leaves_no_module_of_the_mutant_cached(capsys):
    # coindex runs to the end under an m^+ mutant, building explicit
    # modules from the mutant's algebra; none of them outlives the block
    with catalog_mutant("flag", _repeat_p1):
        assert main(FLAG_COINDEX) == 0
        assert _explicit_rep.cache_info().currsize > 0
    capsys.readouterr()
    assert _explicit_rep.cache_info().currsize == 0


def test_reproduce_all_with_a_failed_check_exits_1(capsys, monkeypatch):
    _fail_one_check(monkeypatch)
    code, out = _run(capsys, "reproduce-all")
    assert (code, out) == (1, "CHECKS FAILED\n")
    code, out = _run(capsys, "reproduce-all", "--format", "json")
    doc = json.loads(out)
    assert code == 1
    assert doc["all_checks_pass"] is False
    assert all(doc["validate"][n]["kahler_h_invariant"] is False for n in ("s3xs3", "cp3", "flag"))


# Each subcommand's actions in order: option strings, required, default,
# choices.  Read from the parser, not from --help, whose layout changes
# between Python versions.
_SUPPRESS = "==SUPPRESS=="
_HELP = (("-h", "--help"), False, _SUPPRESS, None)
_SPACE = (("--space",), True, None, ("s3xs3", "cp3", "flag"))
_OUTPUTS = [(("--format",), False, "table", ("table", "json")), (("--output",), False, None, None)]
PARSER_TABLE = {
    "casimir": [_HELP, _SPACE, (("--max",), False, "12", None)] + _OUTPUTS,
    "branch": [
        _HELP, _SPACE, (("--gamma",), False, None, None), (("--max",), False, "12", None)
    ] + _OUTPUTS,
    "homdim": [_HELP, _SPACE, (("--gamma",), True, None, None)] + _OUTPUTS,
    "delta": [_HELP, _SPACE, (("--gamma",), True, None, None)] + _OUTPUTS,
    "coindex": [_HELP, _SPACE] + _OUTPUTS,
    "obstruction": [_HELP] + _OUTPUTS,
    "killing": [_HELP, (("--t",), True, None, None)] + _OUTPUTS,
    "validate": [_HELP, (("--space",), False, None, ("s3xs3", "cp3", "flag"))] + _OUTPUTS,
    "reproduce-all": [_HELP] + _OUTPUTS,
}


def _action_rows(parser) -> list:
    return [
        (tuple(a.option_strings), a.required, a.default, tuple(a.choices) if a.choices else None)
        for a in parser._actions
        if a.option_strings
    ]


def test_parser_options_are_pinned():
    import argparse

    from gray_stability import cli

    ap = cli.build_parser()
    assert _action_rows(ap) == [_HELP, (("--version",), False, _SUPPRESS, None)]
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    assert sub.required
    assert {name: _action_rows(p) for name, p in sub.choices.items()} == PARSER_TABLE
    assert list(sub.choices) == list(PARSER_TABLE)


@pytest.mark.parametrize("argv", [["--version"], ["--help"]] + [[c, "--help"] for c in PARSER_TABLE])
def test_version_and_help_exit_0(capsys, argv):
    code, out, err = _run_all(capsys, argv)
    assert code == 0 and out and err == ""


def test_command_table_lists_the_pinned_options():
    from gray_stability.cli import COMMANDS

    table = {
        name: [_HELP] + [((o.flag,), o.required, o.default, o.choices) for o in command.options]
        for name, command in COMMANDS.items()
    }
    assert table == PARSER_TABLE
    assert list(table) == list(PARSER_TABLE)


# The forms the golden table runs through argparse, with --opt=value.
EQUALS_ARGVS = [argv for _, argv in GOLDEN_TABLE if any("=" in token for token in argv)]
# Its other lines, and the lines of the branch --max 200 digests: every one is canonical.
GOLDEN_ARGVS = [argv for _, argv in GOLDEN_TABLE if argv not in EQUALS_ARGVS] + [
    ["branch", "--space", s, "--max", "200", "--format", "table"] for s in SPACE_NAMES
]


@pytest.mark.parametrize("path, argv", GOLDEN_TABLE, ids=[" ".join(argv) for _, argv in GOLDEN_TABLE])
def test_golden_command_line_matches_its_file(capsys, path, argv):
    code, out = _run(capsys, *argv)
    assert code == 0
    assert out.encode("utf-8") == path.read_bytes()


def test_golden_table_lists_every_golden_file():
    # the branch --max 200 tables are pinned by their digests instead
    listed = {path.name for path, _ in GOLDEN_TABLE if path.parent == DATA}
    assert listed == {p.name for p in DATA.glob("golden_*")} - {"golden_branch_max200.sha256", "golden_commands.txt"}


def _parsed(argv) -> dict:
    from gray_stability import cli

    return vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", GOLDEN_ARGVS)
def test_golden_command_lines_take_the_fast_path(argv):
    from gray_stability import cli

    fast = cli.parse_canonical(argv)
    assert fast is not None
    assert vars(fast) == _parsed(argv)


@pytest.mark.parametrize("argv", EQUALS_ARGVS)
def test_equals_forms_fall_back_to_argparse(argv):
    from gray_stability import cli

    assert cli.parse_canonical(argv) is None
    expanded = [argv[0]] + [t for token in argv[1:] for t in token.split("=")]
    assert _parsed(argv) == vars(cli.parse_canonical(expanded))


def _corpus(count: int, seed: int) -> list:
    """Command lines drawn from a fixed token alphabet: command names, an
    abbreviated command, every flag, an abbreviated flag, --opt=value forms
    and -h; values that are valid and invalid choices, free text, "--",
    "-1" and ""."""
    from gray_stability.cli import COMMANDS

    commands = [*COMMANDS, "obstr", "bogus", "-h", "--version"]
    flags = sorted({o.flag for c in COMMANDS.values() for o in c.options})
    flags += ["--sp", "--form", "--format=json", "--space=flag", "--max=40", "-h"]
    values = ["--", "-1", "", "s3xs3", "cp3", "flag", "s6", "table", "json", "xml", "1,1", "1,-1,0", "40", "out"]
    choices = {o.flag: o.choices for c in COMMANDS.values() for o in c.options if o.choices}
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        command = rng.choice(commands)
        own = [o.flag for o in COMMANDS[command].options] if command in COMMANDS else flags
        argv = [command]
        for _ in range(rng.randrange(5)):
            # most flags are the command's own and half their values valid
            # choices, so that many lines are canonical
            flag = rng.choice(own if rng.random() < 0.7 else flags)
            argv += [flag, rng.choice(choices[flag] if flag in choices and rng.random() < 0.5 else values)]
        if len(argv) > 1 and rng.random() < 0.1:
            del argv[rng.randrange(1, len(argv))]
        corpus.append(argv)
    return corpus


def test_fast_path_agrees_with_argparse_on_a_seeded_corpus():
    from gray_stability import cli

    corpus = _corpus(2500, seed=36)
    fast = 0
    for argv in corpus:
        args = cli.parse_canonical(argv)
        if args is not None:
            fast += 1
            assert vars(args) == _parsed(argv), argv
    # the corpus reaches both paths
    assert len(corpus) // 20 < fast < len(corpus) // 2, fast


_IMPORTS_OF_A_RUN = """
import contextlib, io, json, sys
from gray_stability.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["obstruction", "--format", "json"]) == 0
loaded = lambda: sorted(m for m in ("argparse", "gettext", "locale") if m in sys.modules)
fast = loaded()
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    main(["--help"])
print(json.dumps([fast, loaded()]))
"""


def test_a_canonical_run_never_imports_argparse():
    from gray_stability import cli

    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    # -S: no site hooks, so only the library's imports count
    out = subprocess.run([sys.executable, "-S", "-c", _IMPORTS_OF_A_RUN], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    fast, helped = json.loads(out.stdout)
    assert fast == []
    assert "argparse" in helped
