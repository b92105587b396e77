"""Golden outputs and the checker that compares a run against them.

Layout under ``bench/golden/``:

- ``<size>/values.json``: per workload, the exit code, ``passed`` flag and
  every float (norms, ratios, slope or spread) of each command.
- ``<size>/tables/<pair>_s<s>.csv.gz``: each ``table`` CSV, compared byte
  for byte after decompression.
- ``verdicts.json.gz``: the verdict JSON of every query in the decide
  universe the ``oracle-sweep`` sample is drawn from.

Floats must lie within ``REL_TOL`` relative of their golden value; every
other output must be identical. Each mismatch is one failed output.

Running this file re-freezes the golden files from the modemb sources next
to it: ``python3 bench/check.py``. Do that only when a change is meant to
move an output, and say why in the change.
"""
from __future__ import annotations

import gzip
import io
import json
import math
import sys
from pathlib import Path

import workloads

REL_TOL = 1e-12
GOLDEN = Path(__file__).resolve().parent / "golden"


def _table_name(argv: list[str]) -> str:
    pair = argv[argv.index("--pair") + 1]
    s = next(a for a in argv if a.startswith("--s=")).split("=", 1)[1]
    return f"{pair}_s{s.replace('/', '_')}.csv.gz"


def _read_gz(path: Path) -> bytes:
    with gzip.open(path, "rb") as handle:
        return handle.read()


def _write_gz(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.BytesIO()
    # mtime=0 and no file name keep the archive identical across freezes.
    with gzip.GzipFile(filename="", mode="wb", fileobj=buf, mtime=0) as handle:
        handle.write(data)
    path.write_bytes(buf.getvalue())


def load_golden(workload: str, size: str) -> dict:
    """key -> golden value for every output the workload can produce."""
    golden = dict(json.loads((GOLDEN / size / "values.json").read_text())[workload])
    for argv in workloads.commands(workload, size):
        if argv[0] == "table":
            data = _read_gz(GOLDEN / size / "tables" / _table_name(argv))
            golden[workloads.command_key(argv, "csv")] = data.decode("utf-8")
    if workload == "oracle-sweep":
        golden.update(json.loads(_read_gz(GOLDEN / "verdicts.json.gz")))
    return golden


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def _matches(value, expected) -> bool:
    if isinstance(expected, bool) or isinstance(value, bool):
        return value is expected
    if isinstance(expected, float):
        return (isinstance(value, float) and math.isfinite(value)
                and abs(value - expected) <= REL_TOL * abs(expected))
    if isinstance(expected, dict):
        return isinstance(value, dict) and _canonical(value) == _canonical(expected)
    return type(value) is type(expected) and value == expected


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def compare(outputs: list[tuple[str, object]], golden: dict) -> list[str]:
    """One message per output that is missing from or differs from the golden set."""
    failures = []
    for key, value in outputs:
        if key not in golden:
            failures.append(f"{key}: no golden value")
        elif not _matches(value, golden[key]):
            failures.append(f"{key}: got {_short(value)}, golden {_short(golden[key])}")
    return failures


def _freeze_size(size: str) -> None:
    values = {}
    for workload in workloads.WORKLOADS:
        inputs = workloads.prepare(workload, size, seed=0)
        inputs["queries"] = []  # verdicts are frozen once, for the whole universe
        results, _ = workloads.run(inputs)
        values[workload] = {}
        for key, value in workloads.outputs(results, []):
            if key.endswith("| exit") and value != 0:
                raise SystemExit(f"refusing to freeze: {key} = {value}")
            if key.endswith("| passed") and value is not True:
                raise SystemExit(f"refusing to freeze: {key} = {value}")
            if key.endswith("| csv"):
                continue
            values[workload][key] = value
        for argv, _code, text in results:
            if argv[0] == "table":
                _write_gz(GOLDEN / size / "tables" / _table_name(argv), text.encode("utf-8"))
    path = GOLDEN / size / "values.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")


def freeze() -> None:
    for size in workloads.SIZES:
        _freeze_size(size)
    universe = workloads.decide_universe()
    _, verdicts = workloads.run({"commands": [], "queries": universe})
    _write_gz(GOLDEN / "verdicts.json.gz",
              json.dumps(dict(verdicts), indent=0, sort_keys=True).encode("utf-8") + b"\n")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    freeze()
