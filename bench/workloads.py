"""The four benchmark workloads and the inputs each one feeds to modemb.

Every workload is a fixed list of ``modemb`` command lines run through
``modemb.cli.main`` in-process; ``oracle-sweep`` adds a sample of exact
``decide`` queries drawn from the workload seed. Why each workload exists
is recorded in ``bench/NOTES.md``.

This module imports no modemb code at import time, so the orchestrator can
read the workload table without loading numpy.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import random

_SHARPNESS_1D = ["sharpness", "--from", "B[p=1,q=1,s=0]", "--to", "M[p=1,q=1]",
                 "--family", "annulus", "--lmin", "4", "--lmax"]
_TABLE_PAIRS = ("B-M", "M-B", "W-M", "M-W", "F-M", "M-F")
_TABLE_S = ("0", "1/2")

# Size-dependent inputs: "full" is the benchmark proper, "fast" is the
# small end-to-end run the benchmark's own tests use.
_PARAMS = {
    "full": {"annulus_lmax": 8, "annulus_2d_level": 3, "box_lmax": 10,
             "resolution": 64, "decide_sample": 7000},
    "fast": {"annulus_lmax": 5, "annulus_2d_level": 2, "box_lmax": 5,
             "resolution": 8, "decide_sample": 300},
}
SIZES = tuple(_PARAMS)
WORKLOADS = ("annulus-1d", "annulus-2d", "box-p2", "oracle-sweep")


def commands(workload: str, size: str) -> list[list[str]]:
    """The modemb command lines (argv without the program name) a workload runs."""
    p = _PARAMS[size]
    if workload == "annulus-1d":
        return [_SHARPNESS_1D + [str(p["annulus_lmax"])]]
    if workload == "annulus-2d":
        level = str(p["annulus_2d_level"])
        return [["norm", "--family", "annulus", "--level", level, "-d", "2",
                 "--space", space, "--json"]
                for space in ("M[p=1,q=1]", "B[p=1,q=1,s=0]")]
    if workload == "box-p2":
        return [["boundedness", "--from", source, "--to", "M[p=2,q=2]",
                 "--family", "single_box", "--lmin", "4", "--lmax", str(p["box_lmax"])]
                for source in ("B[p=2,q=2,s=0]", "F[p=2,q=2,s=0]")]
    if workload == "oracle-sweep":
        return [["table", "--pair", pair, f"--s={s}", "--resolution", str(p["resolution"])]
                for pair in _TABLE_PAIRS for s in _TABLE_S]
    raise KeyError(f"unknown workload {workload!r}")


def decide_universe() -> list[tuple[str, str, int]]:
    """Every query the oracle-sweep sample can draw: B<->M over all index
    combinations, and F<->M with a shared q, so that every query is
    characterized and no call fails."""
    exps = ("1", "3/2", "2", "3", "inf")
    smooth = ("-1", "-1/2", "0", "1/2", "1")
    queries = []
    for d in (1, 2):
        for a, b, c, e in itertools.product(exps, repeat=4):
            for s in smooth:
                queries.append((f"B[p={a},q={b},s={s}]", f"M[p={c},q={e}]", d))
                queries.append((f"M[p={a},q={b}]", f"B[p={c},q={e},s={s}]", d))
        for a, c, e in itertools.product(exps, repeat=3):
            for s in smooth:
                if a != "inf":
                    queries.append((f"F[p={a},q={e},s={s}]", f"M[p={c},q={e}]", d))
                if c != "inf":
                    queries.append((f"M[p={a},q={e}]", f"F[p={c},q={e},s={s}]", d))
    return queries


def decide_key(source: str, target: str, d: int) -> str:
    return f"decide d={d} {source} -> {target}"


def decide_sample_size(workload: str, size: str) -> int:
    return _PARAMS[size]["decide_sample"] if workload == "oracle-sweep" else 0


def prepare(workload: str, size: str, seed: int) -> dict:
    """Inputs fixed before timing starts. Only the decide sample uses the seed."""
    inputs = {"commands": commands(workload, size), "queries": []}
    if workload == "oracle-sweep":
        rng = random.Random(seed)
        inputs["queries"] = rng.choices(decide_universe(), k=decide_sample_size(workload, size))
    return inputs


def command_key(argv: list[str], field: str) -> str:
    return f"{' '.join(argv)} | {field}"


def _run_cli(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _parse_outputs(argv: list[str], code: int, text: str) -> list[tuple[str, object]]:
    """Split one command's result into separately checked outputs."""
    outputs = [(command_key(argv, "exit"), code)]
    command = argv[0]
    if command == "table":
        outputs.append((command_key(argv, "csv"), text))
    elif command == "norm":
        outputs.append((command_key(argv, "value"), json.loads(text)["value"]))
    else:
        report = json.loads(text)
        outputs.append((command_key(argv, "passed"), report["passed"]))
        for field in ("source_norms", "target_norms", "ratios"):
            for i, value in enumerate(report[field]):
                outputs.append((command_key(argv, f"{field}[{i}]"), value))
        scalar = "fitted_slope" if command == "sharpness" else "spread"
        outputs.append((command_key(argv, scalar), report[scalar]))
    return outputs


def run(inputs: dict) -> tuple[list, list]:
    """Run one workload: the timed part.

    Returns the captured (argv, exit code, stdout) of each command and the
    (key, verdict JSON) of each sampled decide query.
    """
    from modemb import cli, oracle

    results = [(argv, *_run_cli(cli, argv)) for argv in inputs["commands"]]
    verdicts = []
    for source_text, target_text, d in inputs["queries"]:
        source = cli.parse_space(source_text, d)
        target = cli.parse_space(target_text, d)
        verdict = oracle.decide(source, target)
        payload = {"schema": "modemb/verdict/v1",
                   "source": cli.render_space(source),
                   "target": cli.render_space(target), "d": d}
        payload.update(verdict.as_dict())
        verdicts.append((decide_key(source_text, target_text, d), payload))
    return results, verdicts


def outputs(results: list, verdicts: list) -> list[tuple[str, object]]:
    """Every checked (key, value) output of one run, in a fixed order."""
    out = []
    for argv, code, text in results:
        out.extend(_parse_outputs(argv, code, text))
    return out + verdicts
