"""Cold-process benchmark of gray_stability's exact pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rigidity --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all                         # table of every workload
    python3 perfbench/run.py --workload stability --out base.jsonl  # append the result
    python3 perfbench/run.py --compare base.jsonl new.jsonl
    python3 perfbench/run.py --summarize base.jsonl traced.jsonl    # baseline document

Each measured run is a fresh interpreter (``child.py``), because the
library memoizes with ``lru_cache`` and a repeated call in one process
would only time the cache.  Runs are sequential: one closed-loop client.
After one discarded warm-up process, processes are started until the
next one would end past ``--seconds``, with at least three.  Every
process's output is checked, and must equal the warm-up's byte for byte.

Figures of a run (``--trace 0``), each the median over its processes:

* ``setup_s``      spawn until ``import gray_stability.cli`` returns;
* ``run_s``        wall time of the workload's commands after import,
  less the time of the speed probes below;
* ``cpu_s``        user plus system CPU time of the child (``os.wait4``);
* ``peak_rss_mb``  the child's peak resident memory;
* ``run_rel``      ``run_s`` divided by the mean time of a small fixed
  reference loop timed every 0.1 s during the run, in the same process
  (``child.SpeedProbe``), unit ``ref``;
* ``cpu_rel``      CPU time of the commands divided the same way;
* ``failed_frac``  failed / attempted processes.

On a shared virtual machine the CPU's speed drifts with its neighbours'
load.  Over ten 25-second runs per workload on a 2-vCPU virtual machine
(Xeon 2.1 GHz, CPython 3.11), the inter-quartile distance of ``run_s``
was 10-19% of its median, against 1.5-3.4% for ``run_rel``.  So the
bounded end-to-end metrics of ``BENCHMARK.json`` are
``setup_s``, ``run_rel``, ``cpu_rel`` and ``peak_rss_mb``; ``run_s`` and
``cpu_s`` are printed and recorded beside them.  ``failed_frac`` is 0
when the program is correct, so it is carried by the result's
``attempted`` and ``failed`` counts rather than bounded.

``--trace 1`` alternates untraced and traced processes and reports the
per-layer figures of ``tracer.py`` (medians over the traced processes),
plus ``trace.overhead_s``: traced minus untraced median ``run_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SPEC = ROOT / "BENCHMARK.json"
sys.path.insert(0, str(HERE))

from tracer import metric_units  # noqa: E402
from workloads import GOLDEN, WORKLOADS  # noqa: E402

MIN_PROCESSES = 3          # untraced processes per run
MIN_TRACED = 2             # traced processes per traced run
RUN_LIMIT_S = 170.0        # children still running this long after the run started are killed
UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "run_rel": "ref", "cpu_rel": "ref"}


def now() -> float:
    # CLOCK_MONOTONIC is system-wide, so the child's readings compare with ours.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    """The caller's environment without GRAY_STABILITY_* or PYTHON* knobs,
    with the library on the path and hashing fixed."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("GRAY_STABILITY_", "PYTHON"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def env_info() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# one process
# ---------------------------------------------------------------------------

def spawn(workload, argvs: list, trace: bool, deadline: float) -> dict:
    """Run the commands in one fresh interpreter; return its figures and check.
    The child is killed if it is still running at ``deadline`` (monotonic)."""
    t_spawn = now()
    proc = subprocess.Popen(
        [sys.executable, "-s", str(CHILD), str(ROOT), "1" if trace else "0", json.dumps(argvs)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
    )
    timer = threading.Timer(max(1.0, deadline - now()), proc.kill)
    timer.start()
    try:
        raw = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        timer.join()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {"trace": trace, "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024}
    text = raw.decode("utf-8", "replace")
    try:
        doc = json.loads(text.rstrip("\n").rsplit("\n", 1)[-1])
    except ValueError:
        doc = None
    if proc.returncode != 0 or not isinstance(doc, dict):
        sample["problems"] = [f"child exited {proc.returncode}: {text[-500:]}"]
        return sample
    ref_s = statistics.mean(doc["ref_s"])
    sample.update(
        setup_s=doc["t_imported"] - t_spawn,
        run_s=doc["run_s"],
        run_rel=doc["run_s"] / ref_s,
        cpu_rel=doc["cpu_run_s"] / ref_s,
        ref_s=ref_s,
        outputs=[r["stdout"] for r in doc["runs"]],
        problems=workload.check(ROOT, doc["runs"]),
        layers=doc["trace"],
    )
    return sample


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _median(samples: list, key: str) -> float:
    values = [s[key] for s in samples if key in s]
    return statistics.median(values) if values else 0.0


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    argvs = workload.argv_lists(seed)
    deadline = now() + RUN_LIMIT_S
    warm = spawn(workload, argvs, False, deadline)
    plain, traced = [], []
    start = now()
    while True:
        use_trace = trace and len(traced) < len(plain)
        (traced if use_trace else plain).append(spawn(workload, argvs, use_trace, deadline))
        elapsed = now() - start
        done = len(plain) + len(traced)
        enough = len(plain) >= MIN_PROCESSES and (not trace or len(traced) >= MIN_TRACED)
        if enough and elapsed + elapsed / done > seconds:
            break
    samples = [warm] + plain + traced
    for s in plain + traced:
        if not s["problems"] and "outputs" in warm and s["outputs"] != warm["outputs"]:
            s["problems"] = [f"{'traced' if s['trace'] else 'untraced'} stdout differs from the warm-up's"]
    failed = [s for s in samples if s["problems"]]

    figures = {k: _median(plain, k) for k in UNITS}
    figures["failed_frac"] = len(failed) / len(samples)
    if trace:
        layers = [s["layers"] for s in traced if s.get("layers")]
        metrics = {k: {"value": statistics.median(l["metrics"][k] for l in layers) if layers else 0,
                       "unit": u} for k, u in metric_units().items()}
        metrics["trace.overhead_s"] = {"value": _median(traced, "run_s") - figures["run_s"], "unit": "s"}
        absent = layers[0]["absent"] if layers else []
    else:
        metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in load_spec()["end_to_end"]}
        absent = []
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "processes": {"warm_up": 1, "untraced": len(plain), "traced": len(traced)},
        "figures": figures,
        "samples": [{k: s[k] for k in ("setup_s", "run_s", "ref_s", "peak_rss_mb")} for s in plain if "run_s" in s],
        "absent": absent,
        "problems": [p for s in failed for p in s["problems"]][:20],
        "result": {"correct": not failed, "attempted": len(samples), "failed": len(failed),
                   "metrics": metrics},
    }


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def print_run(rec: dict) -> None:
    res = rec["result"]
    procs = rec["processes"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  processes: {procs['untraced']} untraced, "
          f"{procs['traced']} traced, 1 warm-up")
    for name, value in rec["figures"].items():
        print(f"  {name} = {value:.6g} {UNITS.get(name, '')}".rstrip())
    if rec["trace"]:
        for name, m in res["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if rec["absent"]:
        print(f"  absent boundaries: {', '.join(rec['absent'])}")
    for p in rec["problems"]:
        print(f"  FAILED: {p}")


def print_table(recs: list) -> None:
    names = list(recs[0]["figures"])
    head = ["workload"] + [f"{k} ({UNITS[k]})" if k in UNITS else k for k in names]
    rows = [[r["workload"]] + [f"{r['figures'][k]:.4f}" for k in names] for r in recs]
    widths = [max(len(row[i]) for row in [head] + rows) for i in range(len(head))]
    for row in [head] + rows:
        print("  ".join(c.rjust(w) for c, w in zip(row, widths)))


# ---------------------------------------------------------------------------
# result sets: comparison and summary
# ---------------------------------------------------------------------------

def load_records(path: str, trace: int = 0) -> dict:
    """{workload: {seed: record}} from a JSON-lines result set."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == trace:
                    out.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return out


def spread(values: list) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(pairs: list, bound: float, better: str) -> str:
    """better / worse / unchanged / unresolved for (base, new) pairs of one metric.

    better: the new side wins at least 9 of 10 pairs (ties count for
    neither, at least 10 pairs) and the medians differ by more than the
    base's inter-quartile distance.  worse: the new median is worse than
    the base's by more than ``bound`` of it.  unresolved: either side's
    spread exceeds the bound and not every new run beats every base run.
    """
    sign = 1 if better == "lower" else -1
    base = [b for b, _ in pairs]
    new = [n for _, n in pairs]
    mb, mn = statistics.median(base), statistics.median(new)
    gain = sign * (mb - mn)
    wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
    base_iqr = spread(base) * mb
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > base_iqr:
        return "better"
    if -gain > bound * mb:
        return "worse"
    if max(spread(base), spread(new)) > bound and not all(sign * (b - n) > 0 for b in base for n in new):
        return "unresolved"
    return "unchanged"


def compare(base_path: str, new_path: str) -> dict:
    base, new = load_records(base_path), load_records(new_path)
    spec = load_spec()
    out: dict = {}
    print(f"{'workload':<10} {'metric':<12} {'base':>10} {'new':>10} {'change':>8} {'pairs':>5} verdict")
    for name in sorted(set(base) & set(new)):
        seeds = sorted(set(base[name]) & set(new[name]))
        if not seeds:
            print(f"{name:<10} no seed run on both sides")
            continue
        for m in spec["end_to_end"]:
            pairs = [(base[name][s]["result"]["metrics"][m["name"]]["value"],
                      new[name][s]["result"]["metrics"][m["name"]]["value"]) for s in seeds]
            v = verdict(pairs, m["bound"], m["better"])
            mb = statistics.median(p[0] for p in pairs)
            mn = statistics.median(p[1] for p in pairs)
            print(f"{name:<10} {m['name']:<12} {mb:>10.4f} {mn:>10.4f} {(mn - mb) / mb:>+8.1%} {len(pairs):>5} {v}")
            out.setdefault(name, {})[m["name"]] = v
    return out


def summarize(paths: list) -> dict:
    """Baseline document: per workload, the median and quartiles of each
    figure over untraced runs, and the median of each per-layer metric
    over traced runs."""
    doc: dict = {"env": None, "figures": {}, "per_layer": {}}
    for trace, section in ((0, "figures"), (1, "per_layer")):
        merged: dict = {}
        for path in paths:
            for name, by_seed in load_records(path, trace).items():
                merged.setdefault(name, []).extend(by_seed.values())
        for name, recs in sorted(merged.items()):
            doc["env"] = doc["env"] or recs[0]["env"]
            entry: dict = {"runs": len(recs)}
            if trace:
                for key in recs[0]["result"]["metrics"]:
                    entry[key] = statistics.median(r["result"]["metrics"][key]["value"] for r in recs)
            else:
                for key in recs[0]["figures"]:
                    values = [r["figures"][key] for r in recs]
                    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                    entry[key] = {"median": statistics.median(values), "q1": q[0], "q3": q[2]}
            doc[section][name] = entry
    return doc


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: list | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append each run's record to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two result sets written with --out, pairing runs by workload and seed")
    ap.add_argument("--summarize", nargs="+", metavar="RESULTS",
                    help="print the baseline document of result sets written with --out")
    args = ap.parse_args(argv)

    if args.compare:
        print(json.dumps(compare(*args.compare)))
        return 0
    if args.summarize:
        print(json.dumps(summarize(args.summarize), indent=2))
        return 0
    if not args.workload:
        ap.error("--workload is required")

    missing = [p for p in (Path("src/gray_stability/cli.py"), GOLDEN, SPEC.relative_to(ROOT))
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a gray_stability checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    env = env_info()
    print("env: " + json.dumps(env))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    recs = []
    for name in names:
        rec = measure(name, args.seed, seconds, bool(args.trace))
        rec["env"] = env
        print_run(rec)
        recs.append(rec)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec) + "\n")
    if len(recs) == 1:
        result = recs[0]["result"]
    else:
        if not args.trace:
            print_table(recs)
        result = {
            "correct": all(r["result"]["correct"] for r in recs),
            "attempted": sum(r["result"]["attempted"] for r in recs),
            "failed": sum(r["result"]["failed"] for r in recs),
            "metrics": {f"{r['workload']}.{k}": v for r in recs for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
