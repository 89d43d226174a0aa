"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests

They spawn the benchmark's child processes, so they take about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GOLDEN = json.loads((ROOT / workloads.GOLDEN).read_text(encoding="utf-8"))


def dumps(doc) -> str:
    # the library's rendering convention (render.dumps)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_spec_names_match_the_benchmark():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(run.UNITS[m["name"]] == m["unit"] for m in spec["end_to_end"])
    assert [m["name"] for m in spec["per_layer"]] == list(metric_units()) + ["trace.overhead_s"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_stdout_identical(name):
    workload = WORKLOADS[name]
    argvs = workload.argv_lists(seed=1)
    deadline = run.now() + run.RUN_LIMIT_S
    plain = run.spawn(workload, argvs, trace=False, deadline=deadline)
    traced = run.spawn(workload, argvs, trace=True, deadline=deadline)
    assert plain["problems"] == [] and traced["problems"] == []
    assert plain["outputs"] == traced["outputs"]
    assert traced["layers"]["absent"] == []


def test_tracer_rebinds_every_name_and_tolerates_missing_boundaries():
    script = f"""
import json, sys
sys.path.insert(0, {str(BENCH)!r})
import gray_stability.cli as cli
from tracer import Tracer
from gray_stability import fourier, lie, stability
original = fourier.coclosed_dim
tracer = Tracer(boundaries=(("linalg", ("rref", "no_such_function")), ("no_such_module", ("f",)),
                            ("lie", ("build_space",)), ("fourier", ("coclosed_dim",)))).install()
assert stability.coclosed_dim is fourier.coclosed_dim is not original
assert cli.build_space is lie.build_space and cli.build_space.cache_info().currsize >= 0
cli.main(["casimir", "--space", "flag"])
print(json.dumps(tracer.summary()))
"""
    env = run.child_env()
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["absent"] == ["linalg.no_such_function", "no_such_module.f"]
    assert summary["metrics"]["linalg.no_such_function.calls"] == 0
    assert summary["metrics"]["no_such_module.f.calls"] == 0
    assert summary["metrics"]["lie.build_space.calls"] >= 1


def test_tracer_rebinds_modules_it_imports_itself():
    script = f"""
import sys
sys.path.insert(0, {str(BENCH)!r})
from tracer import Tracer
assert "gray_stability.fourier" not in sys.modules
Tracer(boundaries=(("fourier", ("coclosed_dim",)),)).install()
from gray_stability import fourier, stability
assert fourier.coclosed_dim is stability.coclosed_dim
assert hasattr(fourier.coclosed_dim, "__wrapped__")
"""
    subprocess.run([sys.executable, "-c", script], env=run.child_env(), check=True, timeout=120)


# -- each check rejects a corrupted output -----------------------------------

def _good_outputs(name: str) -> list:
    workload = WORKLOADS[name]
    out = []
    for argv in workload.argv_lists(seed=1):
        if name == "reproduce":
            text = (ROOT / workloads.GOLDEN).read_text(encoding="utf-8")
        elif name == "stability":
            text = dumps(GOLDEN["coindex"][argv[2]])
        elif name == "rigidity":
            text = dumps(GOLDEN["obstruction"])
        else:
            text = workloads.expected_branch_path(argv[2]).read_text(encoding="utf-8")
        out.append({"argv": argv, "rc": 0, "stdout": text, "stderr": ""})
    return out


def _corrupt(name: str, runs: list) -> list:
    runs = [dict(r) for r in runs]
    first = runs[0]
    if name == "reproduce":
        first["stdout"] = first["stdout"].replace('"256/3"', '"256/5"')
    elif name == "stability":
        doc = json.loads(first["stdout"])
        doc["destabilizing"][0]["mult"] += 1
        first["stdout"] = dumps(doc)
    elif name == "rigidity":
        doc = json.loads(first["stdout"])
        doc["pairing"] = "128/3"
        first["stdout"] = dumps(doc)
    else:
        doc = json.loads(first["stdout"])
        doc["rows"][-1]["branching"][0]["mult"] += 1
        first["stdout"] = dumps(doc)
    return runs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_accepts_good_and_rejects_corrupted_output(name):
    good = _good_outputs(name)
    assert WORKLOADS[name].check(ROOT, good) == []
    assert WORKLOADS[name].check(ROOT, _corrupt(name, good)) != []
    failed_exit = [dict(r) for r in good]
    failed_exit[0]["rc"] = 1
    assert WORKLOADS[name].check(ROOT, failed_exit) != []


def test_rigidity_check_rejects_each_field():
    doc = GOLDEN["obstruction"]
    for key, bad in (("I0", "7*v1*v2*v3"), ("I1", "0"), ("I2", "0")):
        assert workloads.check_rigidity(ROOT, [], dumps({**doc, key: bad})) != []
    not_rigid = {**doc, "verdict": {**doc["verdict"], "rigid": False}}
    assert workloads.check_rigidity(ROOT, [], dumps(not_rigid)) != []


def test_check_reports_an_output_of_the_wrong_shape():
    good = _good_outputs("weights")
    renamed = [dict(r) for r in good]
    renamed[0]["stdout"] = renamed[0]["stdout"].replace('"h_label"', '"isotropy_label"')
    not_an_object = [dict(r) for r in good]
    not_an_object[0]["stdout"] = "[1, 2]\n"
    for runs in (renamed, not_an_object):
        problems = WORKLOADS["weights"].check(ROOT, runs)
        assert len(problems) == 1 and "unexpected output shape" in problems[0]
    rigidity = _good_outputs("rigidity")
    rigidity[0]["stdout"] = "[]\n"
    assert "unexpected output shape" in WORKLOADS["rigidity"].check(ROOT, rigidity)[0]


def test_weights_check_uses_weyl_dimensions():
    assert workloads.weyl_dim("so5", [1, 0]) == 5
    assert workloads.weyl_dim("so5", [1, 1]) == 10
    assert workloads.weyl_dim("su3", [1, 1]) == 8
    assert workloads.weyl_dim("k3", [1, 2, 0]) == 6


def test_failed_runs_count_against_the_result(monkeypatch):
    monkeypatch.setitem(workloads.RIGIDITY, "pairing", "128/3")
    rec = run.measure("rigidity", seed=1, seconds=0, trace=False)
    result = rec["result"]
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= run.MIN_PROCESSES + 1


# -- comparison --------------------------------------------------------------

def test_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    assert run.verdict(list(zip(base, [b * 0.8 for b in base])), 0.1, "lower") == "better"
    assert run.verdict(list(zip(base, [b * 1.2 for b in base])), 0.1, "lower") == "worse"
    assert run.verdict(list(zip(base, base)), 0.1, "lower") == "unchanged"
    noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.0]
    assert run.verdict(list(zip(base, noisy)), 0.1, "lower") == "unresolved"
    assert run.verdict(list(zip(base, [b * 1.2 for b in base])), 0.1, "higher") == "better"


def test_compare_pairs_runs_by_seed(tmp_path):
    names = [m["name"] for m in run.load_spec()["end_to_end"]]

    def write(path, seeds, scale):
        with open(path, "w", encoding="utf-8") as fh:
            for seed in seeds:
                metrics = {n: {"value": scale * (1 + seed / 1000), "unit": run.UNITS[n]} for n in names}
                fh.write(json.dumps({"workload": "rigidity", "seed": seed, "trace": 0,
                                     "result": {"metrics": metrics}}) + "\n")

    write(tmp_path / "base.jsonl", range(10), 1.0)
    write(tmp_path / "slower.jsonl", range(10), 1.5)
    write(tmp_path / "other_seeds.jsonl", range(10, 20), 1.0)
    verdicts = run.compare(str(tmp_path / "base.jsonl"), str(tmp_path / "slower.jsonl"))
    assert verdicts == {"rigidity": {n: "worse" for n in names}}
    assert run.compare(str(tmp_path / "base.jsonl"), str(tmp_path / "other_seeds.jsonl")) == {}


# -- a directory holding only the benchmark ---------------------------------

def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rigidity", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
