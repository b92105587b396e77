"""One repetition of a benchmark workload in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED SIZE MODE SPANS_PATH STEPS_PATH

``run.py`` starts it with the environment the benchmark fixes (``src`` on
``PYTHONPATH``, one BLAS/OpenMP thread, no ``MODEMB_WORKERS``) and pins it
to one CPU. It times the workload from the first call into modemb to the
last return, checks every output against the golden files, and prints one
JSON line. MODE is one of:

- ``learn``: untraced, with a ``tracing.StepClock`` that learns where to cut
  the run into steps and where to run the ``reference`` probe, and writes
  that plan to STEPS_PATH;
- ``steps``: untraced, with a clock that reads the plan from STEPS_PATH and
  reports the duration of every step and of every probe;
- ``traced``: wraps modemb's layers first, adds the per-layer metrics and
  writes the spans to SPANS_PATH;
- ``plain``: untraced, with nothing installed.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import check
import workloads

ROOT = Path(__file__).resolve().parent.parent
MODES = ("learn", "steps", "traced", "plain")


def main(argv: list[str]) -> int:
    workload, seed, size, mode, spans_path, steps_path = argv
    seed = int(seed)
    if mode not in MODES:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2

    import modemb.cli  # noqa: F401  (loads every layer module)
    import numpy

    where = Path(modemb.__file__).resolve()
    if not where.is_relative_to(ROOT / "src"):
        print(f"modemb was imported from {where}, not from {ROOT / 'src'}", file=sys.stderr)
        return 3

    from tracing import StepClock, Tracer

    inputs = workloads.prepare(workload, size, seed)
    tracer = clock = None
    if mode == "traced":
        tracer = Tracer(f"{workload}-{seed}-{os.getpid()}-{time.time_ns()}")
        tracer.install()
    elif mode in ("learn", "steps"):
        plan = None if mode == "learn" else json.loads(Path(steps_path).read_text())
        clock = StepClock(plan)
        clock.install()

    steps = None
    cpu0, t0 = time.process_time(), time.perf_counter()
    if tracer is not None:
        results, verdicts = tracer.run_root(workloads.run, inputs)
    elif clock is not None:
        (results, verdicts), steps = clock.run(workloads.run, inputs)
    else:
        results, verdicts = workloads.run(inputs)
    t1, cpu1 = time.perf_counter(), time.process_time()  # probes included
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if clock is not None:
        clock.uninstall()

    outputs = workloads.outputs(results, verdicts)
    failures = check.compare(outputs, check.load_golden(workload, size))
    record = {
        "mode": mode,
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(outputs),
        "failed": len(failures),
        "failures": failures[:5],
        "numpy": numpy.__version__,
        "traced": tracer is not None,
    }
    if clock is not None:
        if clock.learning:
            Path(steps_path).write_text(json.dumps(clock.plan()))
        record["events"] = clock.events
        record["steps_ns"] = steps
        record["probes_ns"] = clock.probes_ns
    if tracer is not None:
        tracer.uninstall()
        tracer.write(spans_path)
        record["trace_id"] = tracer.trace_id
        record["layers"] = tracer.layer_metrics()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
