"""Tests of the benchmark itself: the checker, the tracer and a fast end-to-end
run of every workload. Run with ``python3 -m pytest bench/tests``."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import workloads
from tracing import StepClock, Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _golden_outputs(workload: str) -> tuple[list, dict]:
    golden = check.load_golden(workload, "fast")
    return list(golden.items()), golden


def test_checker_accepts_golden_and_flags_perturbed_norm():
    outputs, golden = _golden_outputs("annulus-1d")
    assert check.compare(outputs, golden) == []
    key = next(k for k, v in outputs if k.endswith("source_norms[0]"))
    perturbed = [(k, v * (1 + 1e-9) if k == key else v) for k, v in outputs]
    failures = check.compare(perturbed, golden)
    assert len(failures) == 1 and failures[0].startswith(key)


def test_checker_flags_flipped_table_cell():
    outputs, golden = _golden_outputs("oracle-sweep")
    key, text = next((k, v) for k, v in outputs if k.endswith("| csv"))
    lines = text.split("\r\n")
    cells = lines[5].split(",")
    cells[2] = "1" if cells[2] == "0" else "0"
    lines[5] = ",".join(cells)
    flipped = [(k, "\r\n".join(lines) if k == key else v) for k, v in outputs]
    failures = check.compare(flipped, golden)
    assert len(failures) == 1 and failures[0].startswith(key)


def test_checker_flags_failed_experiment_and_exit_code():
    outputs, golden = _golden_outputs("box-p2")
    changed = [(k, False if k.endswith("| passed") else 1 if k.endswith("| exit") else v)
               for k, v in outputs]
    assert len(check.compare(changed, golden)) == 4


def test_traced_self_times_sum_to_root():
    import modemb.cli  # noqa: F401

    tracer = Tracer("test")
    tracer.install()
    try:
        results, verdicts = tracer.run_root(
            workloads.run, workloads.prepare("annulus-2d", "fast", 0))
    finally:
        tracer.uninstall()
    assert check.compare(workloads.outputs(results, verdicts),
                         check.load_golden("annulus-2d", "fast")) == []
    selfs = tracer.self_times_ns()
    assert tracer.parents[0] == -1 and tracer.parents.count(-1) == 1
    assert sum(selfs) == tracer.ends[0] - tracer.starts[0]
    assert min(selfs) >= 0
    names = set(tracer.names)
    assert {"cli.main", "norms.box_piece_norms", "grid.transform",
            "partitions.build_uniform", "families.family_annulus"} <= names
    metrics = tracer.layer_metrics()
    assert metrics["norms.boxes_total"] > metrics["norms.boxes_active"] > 0
    assert metrics["grid.fft_calls"] > 0
    assert all(metrics[f"{layer}.errors"] == 0 for layer in ("cli", "norms", "grid"))
    # uninstall restores the original functions
    assert not hasattr(modemb.cli.main, "__wrapped__")


def _clocked(clock: StepClock, inputs: dict):
    clock.install()
    try:
        return clock.run(workloads.run, inputs)
    finally:
        clock.uninstall()


def test_step_clock_cuts_repeated_runs_alike():
    import numpy as np

    import modemb.cli  # noqa: F401

    inputs = workloads.prepare("annulus-1d", "fast", 0)
    ifft = np.fft.ifft
    learner = StepClock()
    _, learned = _clocked(learner, inputs)
    clock = StepClock(learner.plan())
    (results, verdicts), steps = _clocked(clock, inputs)
    assert clock.events == learner.events > 0
    assert len(steps) == len(learned) == len(learner.boundaries) + 1
    assert min(steps) >= 0
    # a probe runs at the first boundary; its time is not in any step
    assert len(clock.probes_ns) == len(learner.probes_ns) == len(learner.probe_at) >= 1
    assert set(learner.probe_at) <= set(learner.boundaries)
    assert check.compare(workloads.outputs(results, verdicts),
                         check.load_golden("annulus-1d", "fast")) == []
    assert np.fft.ifft is ifft


def test_stepwise_time_takes_each_steps_fastest_repetition():
    import run

    reps = [{"events": 5, "steps_ns": [3e9, 1e9], "probes_ns": [3, 1]},
            {"events": 5, "steps_ns": [2e9, 2e9], "probes_ns": [2, 2]},
            {"events": 6, "steps_ns": [1e9, 1e9], "probes_ns": [1, 1]}]
    # the third repetition saw another event count, so its steps do not line up
    assert run._stepwise_wall({"events": 5}, reps) == (3.0, 2)
    assert run._probe_s(run._aligned({"events": 5}, reps)) == (2 + 1) / 2 / 1e9


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "fast"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_fast_run_result_shape(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if workload == "oracle-sweep":
            assert metrics["norms.box_pieces_s"] == 0 and metrics["oracle.cells"] > 0
        else:
            assert metrics["norms.box_pieces_s"] > 0


def test_bare_directory_fails_without_result():
    bare = ROOT / ".bench_runs" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = _run("box-p2", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
