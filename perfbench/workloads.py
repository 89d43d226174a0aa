"""The benchmark's workloads: the commands each one runs and the check of
their output.

Why each workload was chosen is recorded in ``BENCHMARK.json``.  Every
workload is deterministic; the seed only permutes the order of the
commands inside a run.  A check returns the list of problems it found,
each naming the expected and the actual value; an empty list passes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
GOLDEN = Path("tests") / "data" / "golden_reproduce_all.json"
SPACES = ("s3xs3", "cp3", "flag")
GROUP = {"s3xs3": "k3", "cp3": "so5", "flag": "su3"}
WEIGHTS_MAX = "40"

# The paper's stability results: coindex, IED dimension, destabilizing list.
STABILITY = {
    "s3xs3": (2, 0, [{"lambda": 4, "mult": 2, "source": "harmonic-3-forms"}]),
    "cp3": (1, 0, [{"lambda": 6, "mult": 1, "source": "harmonic-2-forms"}]),
    "flag": (2, 8, [{"lambda": 6, "mult": 2, "source": "harmonic-2-forms"}]),
}

# The paper's rigidity result: the three invariants and the pairing.
RIGIDITY = {
    "I0": "6*v1*v2*v3",
    "I1": "-18*v1*v2*v3 + 4*v1*x5^2 + 4*v1*x6^2 + 4*v2*x3^2 + 4*v2*x4^2"
          " + 4*v3*x1^2 + 4*v3*x2^2",
    "I2": "9*v1*v2*v3",
    "pairing": "256/3",
}


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    check_output: Callable    # (root, argv, stdout) -> list of problems

    def argv_lists(self, seed: int) -> list:
        cmds = [list(c) for c in self.commands]
        random.Random(seed).shuffle(cmds)
        return cmds

    def check(self, root: Path, runs: list) -> list:
        problems = []
        for run in runs:
            label = " ".join(run["argv"])
            if run["rc"] != 0:
                problems.append(f"{label}: expected exit 0, got {run['rc']}: {run['stderr'][-300:]}")
                continue
            try:
                found = self.check_output(root, run["argv"], run["stdout"])
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                # an output of the wrong shape is a failed check, not a crash
                found = [f"unexpected output shape: {type(exc).__name__}: {exc}"]
            problems += [f"{label}: {p}" for p in found]
        return problems


def _space_of(argv: list) -> str:
    return argv[argv.index("--space") + 1]


def check_reproduce(root: Path, argv: list, stdout: str) -> list:
    golden = (root / GOLDEN).read_text(encoding="utf-8")
    if stdout == golden:
        return []
    at = next((i for i, (a, b) in enumerate(zip(stdout, golden)) if a != b), min(len(stdout), len(golden)))
    return [f"differs from {GOLDEN} at byte {at}: expected {golden[at:at + 40]!r}, got {stdout[at:at + 40]!r}"]


def _mismatch(what: str, expected, actual) -> list:
    return [] if expected == actual else [f"{what}: expected {expected!r}, got {actual!r}"]


def _parse(stdout: str):
    try:
        return json.loads(stdout), []
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]


def check_stability(root: Path, argv: list, stdout: str) -> list:
    doc, problems = _parse(stdout)
    if problems:
        return problems
    space = _space_of(argv)
    coindex, ied, destabilizing = STABILITY[space]
    return (
        _mismatch("space", space, doc.get("space"))
        + _mismatch("coindex", coindex, doc.get("coindex"))
        + _mismatch("ied_dim", ied, doc.get("ied_dim"))
        + _mismatch("destabilizing", destabilizing, doc.get("destabilizing"))
    )


def check_rigidity(root: Path, argv: list, stdout: str) -> list:
    doc, problems = _parse(stdout)
    if problems:
        return problems
    for key, value in RIGIDITY.items():
        problems += _mismatch(key, value, doc.get(key))
    return problems + _mismatch("verdict.rigid", True, (doc.get("verdict") or {}).get("rigid"))


def weyl_dim(group: str, label: list) -> int:
    """Weyl dimension formula, independent of the library."""
    if group == "k3":
        a, b, c = label
        return (a + 1) * (b + 1) * (c + 1)
    if group == "so5":
        a, b = label   # orthogonal coordinates, a >= b >= 0
        return (a - b + 1) * (2 * b + 1) * (2 * a + 3) * (a + b + 2) // 6
    if group == "su3":
        a, b = label
        return (a + 1) * (b + 1) * (a + b + 2) // 2
    raise ValueError(f"unknown group {group!r}")


def h_dim(h_label: str) -> int:
    """Dimension of an isotropy irrep from its printed label."""
    if h_label.startswith("V"):            # diagonal SU(2): V<k>
        return int(h_label[1:]) + 1
    if h_label.startswith("E^"):           # U(2): E^<a>_<b>
        return int(h_label[2:].split("_")[0]) + 1
    if h_label.startswith("("):            # torus character (p,q)
        return 1
    raise ValueError(f"unknown isotropy label {h_label!r}")


def expected_branch_path(space: str) -> Path:
    return EXPECTED / f"branch_{space}_max{WEIGHTS_MAX}.json"


def check_weights(root: Path, argv: list, stdout: str) -> list:
    doc, problems = _parse(stdout)
    if problems:
        return problems
    space = _space_of(argv)
    rows = doc.get("rows") or []
    if not rows:
        problems.append("no branching rows")
    for row in rows:
        gamma = row["gamma"]
        want = weyl_dim(GROUP[space], gamma)
        got = sum(b["mult"] * h_dim(b["h_label"]) for b in row["branching"])
        problems += _mismatch(f"sum mult*dim_H for gamma {gamma}", want, got)
    expected = expected_branch_path(space).read_text(encoding="utf-8")
    if stdout != expected:
        problems.append(f"differs from {expected_branch_path(space).relative_to(HERE.parent)}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reproduce", (("reproduce-all", "--format", "json"),), check_reproduce),
        Workload("stability", tuple(("coindex", "--space", s, "--format", "json") for s in SPACES),
                 check_stability),
        Workload("rigidity", (("obstruction", "--format", "json"),), check_rigidity),
        Workload("weights", tuple(("branch", "--space", s, "--max", WEIGHTS_MAX, "--format", "json")
                                  for s in SPACES), check_weights),
    )
}
