"""Benchmark of modemb: one workload per run, checked against golden outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|fast]

Each repetition runs ``bench/worker.py`` in a fresh interpreter, one at a
time, pinned in turn to each CPU the benchmark may use. A run measures
``setup_s`` first (untraced runs only), then one discarded warm-up
repetition, then repeats the workload until ``--seconds`` have passed.

The host's CPUs are shared, and their speed changes by up to a factor of
two over seconds to minutes. An untraced run therefore takes its time step
by step: the warm-up learns where to cut the workload into steps of at
least 2 ms (``tracing.StepClock``), every later repetition reports the
duration of each step, and the sum over the steps of each step's fastest
repetition is the stepwise time. Between steps, about every 50 ms, the
clock also runs the fixed probe of ``reference.py``; its time is left out
of the steps and taken the same way, each probe's fastest repetition, then
averaged over the probes. ``wall_s`` is the stepwise time divided by the
probe time and multiplied by ``PROBE_S``: the run time at the host speed at
which one probe takes ``PROBE_S``. ``cpu_s`` is ``wall_s`` times the
median ratio of CPU to wall time of the repetitions. ``setup_s`` is a
median over fresh interpreters, each import time scaled the same way by the
median of a few probes run right after it in that interpreter.

With ``--trace 1`` traced and untraced repetitions alternate; the metrics
are the per-layer ones from the traced repetitions (medians) plus the
tracing overhead. The metric names and units are those of
``BENCHMARK.json``. The last line of standard output is the result object;
the lines before it give the provenance and a readable summary, and the
same record goes to ``.bench_runs/``.
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
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".bench_runs"
SETUP_SAMPLES = {"full": 15, "fast": 3}
SETUP_PROBES = 5
# One reference probe's time (see reference.py) on the host the benchmark
# was sized on, a 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest with
# Python 3.11.7 and numpy 2.4.6, at a quiet moment. wall_s is expressed at
# that speed.
PROBE_S = 0.0008
BUDGET_S = 165.0  # a run must end within 180 s, whatever --seconds says
# Imports modemb.cli, reads the clock, then times a few reference probes in
# the same process, so each set-up sample can be scaled like wall_s.
_SETUP_PROBE = f"""import time, modemb.cli
done = time.perf_counter_ns()
import statistics, sys
sys.path.insert(0, {str(HERE)!r})
import reference
print(done, statistics.median(reference.probe() for _ in range({SETUP_PROBES})))
"""


def _child_env() -> dict:
    """One thread for every numeric library, src on the path, and no
    MODEMB_WORKERS, so the untested thread-pool path cannot switch on."""
    env = dict(os.environ)
    env.pop("MODEMB_WORKERS", None)
    env.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
                "PYTHONPATH": str(ROOT / "src")})
    return env


def _cpus() -> list[int]:
    """The CPUs this process may run on; repetitions take them in turn."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity control on this platform
        return []


def _pinned(cpus: list[int], i: int):
    """A preexec_fn that pins the child to the i-th CPU in turn (or None)."""
    if not cpus:
        return None
    cpu = cpus[i % len(cpus)]
    return lambda: os.sched_setaffinity(0, {cpu})


def _setup_once(env: dict, pin) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until modemb.cli is imported,
    and the median reference probe right after it in that interpreter.
    perf_counter_ns reads CLOCK_MONOTONIC, which every process shares."""
    start = time.perf_counter_ns()
    done = subprocess.run([sys.executable, "-c", _SETUP_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True,
                          preexec_fn=pin)
    imported, probe = done.stdout.split()[-2:]
    return (int(imported) - start) / 1e9, float(probe) / 1e9


def _repetition(args, env: dict, mode: str, pin, timeout: float) -> dict:
    stem = RUNS / f"{args.workload}-seed{args.seed}"
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           args.size, mode, f"{stem}.spans.json", f"{stem}.steps.json"]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, preexec_fn=pin)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"crashed": f"timed out after {timeout:.0f} s"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"exit {proc.returncode}: {err.strip()[-500:]}"}
    return json.loads(lines[-1])


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_DIR=str(ROOT / ".git"))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _measure(args, env: dict, started: float) -> tuple[list, dict, list]:
    traced_mode = args.trace == 1
    cpus = _cpus()
    setup = []
    if not traced_mode:
        setup = [_setup_once(env, _pinned(cpus, i)) for i in range(SETUP_SAMPLES[args.size])]
    warmup = _repetition(args, env, "plain" if traced_mode else "learn", _pinned(cpus, 0),
                         timeout=BUDGET_S - (time.perf_counter() - started))
    reps = []
    deadline = time.perf_counter() + args.seconds
    last = 0.0
    while "crashed" not in warmup:
        mode = ("traced" if len(reps) % 2 == 0 else "plain") if traced_mode else "steps"
        rep_start = time.perf_counter()
        left = BUDGET_S - (rep_start - started)
        enough = len(reps) >= 2 and (not traced_mode or {r["traced"] for r in reps} == {True, False})
        # Stop once the next repetition would end more than half of one past
        # the deadline, so a run overshoots --seconds by half a repetition at most.
        if reps and (left < 1.5 * last or (enough and rep_start + last / 2 >= deadline)):
            break
        reps.append(_repetition(args, env, mode, _pinned(cpus, len(reps) + 1), timeout=left))
        last = time.perf_counter() - rep_start
        if "crashed" in reps[-1]:
            break
    return setup, warmup, reps


def _aligned(warmup: dict, reps: list) -> list:
    """The repetitions cut like the warm-up: those that saw as many events."""
    return [r for r in reps if r.get("events") == warmup.get("events")]


def _probe_s(reps: list) -> float:
    """Each probe's fastest repetition, averaged over the probes, in seconds."""
    fastest = [min(probe) for probe in zip(*(r["probes_ns"] for r in reps))]
    return statistics.fmean(fastest) / 1e9


def _stepwise_wall(warmup: dict, reps: list) -> tuple[float, int]:
    """Sum over the steps of each step's fastest repetition, in seconds, and
    the number of repetitions it used."""
    aligned = _aligned(warmup, reps)
    return sum(min(step) for step in zip(*(r["steps_ns"] for r in aligned))) / 1e9, len(aligned)


def _median(values):
    """Median; for counts, which repeat exactly, the middle count itself."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="fast: small inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "modemb" / "__init__.py").is_file():
        print(f"no modemb sources under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2
    declared = _declared_metrics(args.trace == 1)
    RUNS.mkdir(exist_ok=True)
    env = _child_env()
    setup, warmup, reps = _measure(args, env, started)

    done = [r for r in reps if "crashed" not in r]
    crashed = [r["crashed"] for r in [warmup] + reps if "crashed" in r]
    if not done:
        print(f"no repetition completed: {crashed}", file=sys.stderr)
        return 1
    checked = [r for r in [warmup] + reps if "crashed" not in r]
    attempted = sum(r["attempted"] for r in checked) + len(crashed)
    failed = sum(r["failed"] for r in checked) + len(crashed)
    failures = [f for r in checked for f in r["failures"]][:10] + crashed

    values, samples = {}, {}
    if args.trace == 0:
        step_s, aligned = _stepwise_wall(warmup, done)
        if not aligned:
            print("no repetition saw as many events as the warm-up, so its steps "
                  "cannot be compared", file=sys.stderr)
            return 1
        probe_s = _probe_s(_aligned(warmup, done))
        values["wall_s"] = step_s * PROBE_S / probe_s
        values["cpu_s"] = values["wall_s"] * statistics.median(
            r["cpu_s"] / r["wall_s"] for r in done)
        values["peak_rss_mb"] = _median([r["peak_rss_mb"] for r in done])
        samples.update({"wall_s": aligned, "cpu_s": len(done), "peak_rss_mb": len(done),
                        "steps": len(done[0].get("steps_ns") or [])})
        values["setup_s"] = statistics.median(s * PROBE_S / probe for s, probe in setup)
        samples["setup_s"] = len(setup)
    else:
        traced = [r for r in done if r["traced"]]
        plain = [r for r in done if not r["traced"]]
        for name in traced[0]["layers"]:
            values[name] = _median([r["layers"][name] for r in traced])
            samples[name] = len(traced)
        values["trace.wall_s"] = _median([r["wall_s"] for r in traced])
        samples["trace.wall_s"] = len(traced)
        if plain:
            values["trace.overhead_s"] = values["trace.wall_s"] - _median(
                [r["wall_s"] for r in plain])
            samples["trace.overhead_s"] = len(traced) + len(plain)
    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"metrics declared in BENCHMARK.json but not measured: {missing}",
              file=sys.stderr)
        return 1

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    record = {
        "provenance": {
            "git_commit": _git_commit(),
            "source_sha256": _source_digest(),
            "python": platform.python_version(),
            "numpy": done[0]["numpy"],
            "nproc": os.cpu_count(),
            "cpus": _cpus(),
            "cpu_model": _cpu_model(),
            "workload": args.workload,
            "commands": workloads.commands(args.workload, args.size),
            "decide_queries": workloads.decide_sample_size(args.workload, args.size),
            "seed": args.seed,
            "seconds": args.seconds,
            "size": args.size,
            "trace": args.trace,
            "trace_ids": [r["trace_id"] for r in done if r.get("trace_id")],
        },
        "samples": samples,
        "host": ({"stepwise_wall_s": step_s, "probe_s": probe_s,
                  "probes": len(done[0]["probes_ns"])}
                 if args.trace == 0 else {}),
        "repetitions": reps,
        "setup_samples_s": setup,
        "warmup": warmup,
        "failures": failures,
        "elapsed_s": time.perf_counter() - started,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RUNS / name).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"provenance": record["provenance"], "samples": samples,
                      "host": record["host"], "failures": failures}))
    for metric, entry in metrics.items():
        print(f"  {metric:28s} {entry['value']:.6g} {entry['unit']}"
              f"  ({samples[metric]} samples)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
