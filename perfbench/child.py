"""One cold run of a workload, in a fresh interpreter.

Usage: child.py ROOT TRACE COMMANDS_JSON

Imports ``gray_stability.cli`` first, so the parent can time set-up from
its spawn to the end of that import, then runs each command through
``cli.main(argv)`` with stdout and stderr captured.  With TRACE=1 the
outside-in tracer is installed between import and run.

While the commands run, a timer signal times a small fixed reference
loop every ``PROBE_INTERVAL_S`` seconds (and once before and after).
Those times sample how fast this process's CPU ran throughout the run,
so the parent can divide the speed of a shared machine out; the time
the probes take is subtracted from the run's wall and CPU time.

Prints one JSON object: the monotonic clock reading after import, the
wall and CPU time of the commands, the reference-loop times, each
command's exit code and output, and the trace summary.
"""

import sys
import time

import gray_stability.cli as cli

T_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

PROBE_INTERVAL_S = 0.1


def reference_loop() -> float:
    """Time a small fixed amount of pure-Python work, Fraction and dict
    arithmetic like the library's own, independent of the library."""
    start = time.perf_counter()
    acc, step = Fraction(0), Fraction(1, 3)
    for i in range(1, 300):
        acc += step * Fraction(i, i + 1)
    table = {}
    for i in range(1000):
        table[i % 997] = table.get(i % 997, 0) + i
    return time.perf_counter() - start


class SpeedProbe:
    """Times reference_loop() from a SIGALRM handler while the block runs."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0    # time taken by the probes inside the block

    def _tick(self, signum, frame):
        self.samples.append(reference_loop())
        self.spent += self.samples[-1]

    def __enter__(self):
        self.samples.append(reference_loop())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference_loop())


def _run(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = 1
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    root, trace, commands = sys.argv[1], sys.argv[2] == "1", json.loads(sys.argv[3])
    src = os.path.join(os.path.realpath(root), "src") + os.sep
    if not os.path.realpath(cli.__file__).startswith(src):
        print(f"gray_stability imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer().install()
    with SpeedProbe() as probe:
        t_run0, cpu0 = time.perf_counter(), time.process_time()
        runs = [_run(argv) for argv in commands]
        t_run1, cpu1 = time.perf_counter(), time.process_time()
    doc = {
        "t_imported": T_IMPORTED,
        "run_s": t_run1 - t_run0 - probe.spent,
        "cpu_run_s": cpu1 - cpu0 - probe.spent,
        "ref_s": probe.samples,
        "runs": runs,
        "trace": tracer.summary() if tracer else None,
    }
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
