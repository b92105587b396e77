"""Command-line front end: parse space specifications, decide embeddings,
evaluate norms, run experiments and region tables, and self-test.

Space grammar: FAMILY[key=value,...] with families B, M, F, W, FL; indices
are exact rationals written a/b (or integers) and infinity is written inf.
Examples: B[p=1,q=2,s=1/2], M[p=2,q=1,s=0], W[r=1,s=0], FL[r=2].

Exit codes for decide: 0 embedding holds, 1 embedding fails,
2 uncharacterized pair or domain error, 64 malformed specification.
"""
from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

from .exponents import INF, Exponent, as_fraction
from .families import KINDS, grid_for, kind_row, member, _check_level_budget
from .grid import GridSpec
from .oracle import (
    SPACE_KEYS,
    DomainError,
    Family,
    SpaceSpec,
    UncharacterizedPairError,
    Verdict,
    classify_region,
    decide,
    render_space,
    _REGION_RULES,
)
from . import experiments
from .partitions import _integer_level, selftest_report

EX_USAGE = 64

_FAMILY_TOKENS = {family.value: family for family in Family}


class SpecParseError(ValueError):
    """Malformed space specification; carries the offending position."""

    def __init__(self, text: str, pos: int, message: str):
        self.text, self.pos, self.message = text, pos, message
        super().__init__(f"{message} at position {pos}: {text!r}")


_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?")


def _parse_rational(text: str, token: str, pos: int, allow_negative: bool):
    """A Fraction for s (``allow_negative``), else the index as an Exponent."""
    token = token.strip()
    if token.lower() == "inf":
        return INF
    match = _RATIONAL_RE.fullmatch(token)
    if match is None:
        raise SpecParseError(
            text, pos, f"expected a rational a/b or 'inf' (no decimals), got {token!r}")
    numerator, denominator = int(match[1]), int(match[2] or 1)
    if denominator == 0:
        raise SpecParseError(text, pos, f"expected a rational or 'inf', got {token!r}")
    if not allow_negative and numerator <= 0:
        raise SpecParseError(text, pos, f"index must be positive, got {token!r}")
    value = Fraction(numerator, denominator)
    return value if allow_negative else Exponent(value)


def parse_space(text: str, d: int = 1) -> SpaceSpec:
    """Parse the textual grammar into a SpaceSpec."""
    stripped = text.strip()
    open_idx = stripped.find("[")
    if open_idx < 0 or not stripped.endswith("]"):
        raise SpecParseError(text, len(stripped), "expected FAMILY[key=value,...]")
    token = stripped[:open_idx].strip()
    family = _FAMILY_TOKENS.get(token)
    if family is None:
        raise SpecParseError(
            text, 0, f"unknown family {token!r} (use {', '.join(_FAMILY_TOKENS)})")
    body = stripped[open_idx + 1:-1]
    allowed = SPACE_KEYS[family]
    seen: dict[str, Fraction | Exponent] = {}
    offset = open_idx + 1
    if body.strip():
        for part in body.split(","):
            if "=" not in part:
                raise SpecParseError(text, offset, f"expected key=value, got {part!r}")
            key, _, raw = part.partition("=")
            key = key.strip()
            if key not in allowed:
                raise SpecParseError(
                    text, offset,
                    f"index {key!r} not valid for family {token} (allowed: {allowed})")
            if key in seen:
                raise SpecParseError(text, offset, f"duplicate index {key!r}")
            if key == "s":
                value = _parse_rational(text, raw, offset, allow_negative=True)
                if isinstance(value, Exponent):
                    raise SpecParseError(text, offset, "s must be a finite rational")
            else:
                value = _parse_rational(text, raw, offset, allow_negative=False)
            seen[key] = value
            offset += len(part) + 1
    missing = [k for k in allowed if k != "s" and k not in seen]
    if missing:
        raise SpecParseError(text, len(stripped),
                             f"family {token} requires indices {missing}")
    return SpaceSpec(family, d=d, **seen)


def _verdict_json(source, target, verdict: Verdict) -> dict:
    payload = {"schema": "modemb/verdict/v1",
               "source": render_space(source),
               "target": render_space(target),
               "d": source.d}
    payload.update(verdict.as_dict())
    return payload


_CONFIG_KEYS = ("d", "oversampling", "n", "lmin", "lmax", "tolerance", "bound",
                "resolution", "width")


def _load_config(path: str | None) -> dict:
    """key = value lines; '#' starts a comment. The keys are those of
    ``_CONFIG_KEYS``; any other key is refused with a ValueError, so a
    misspelt setting cannot be ignored silently."""
    if not path:
        return {}
    config = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r} "
                             f"(known: {', '.join(_CONFIG_KEYS)})")
        config[key] = value.strip()
    return config


def _cfg(args, config, name, cast, default):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        return cast(config[name])
    return default


# The pairs classify_region sweeps, named like "B-M".
_TABLE_PAIRS = {f"{a.value}-{b.value}": (a, b) for a, b in _REGION_RULES}


def _refuse_foreign_options(args) -> None:
    """Refuse, rather than ignore, a family option given on the command line
    that the chosen family does not read; config-file keys stay shared defaults."""
    reads = kind_row(args.family).options
    for name in dict.fromkeys(o for kind in KINDS for o in kind_row(kind).options):
        if getattr(args, name, None) is not None and name not in reads:
            raise ValueError(f"--{name} does not apply to the {args.family} family")


def _build_family(kind, args, config, d):
    width = as_fraction(_cfg(args, config, "width", str, "1"))
    n_override = _cfg(args, config, "n", int, None)
    m_override = _cfg(args, config, "oversampling", int, None)
    option = kind_row(kind).options[0]  # the option that carries the member parameter
    param = getattr(args, option)
    if param is None:
        raise ValueError(f"--{option} is required for the {kind} family")
    param = as_fraction(param) if isinstance(param, str) else param  # --level is an int
    spec = grid_for(kind, d=d, width=width, **{option: param})
    if n_override or m_override:
        spec = GridSpec(d, n_override or spec.n, m_override or spec.oversampling)
    return member(kind, spec, param, width), param


def cmd_decide(args, config) -> int:
    d = _cfg(args, config, "d", int, 1)
    source = parse_space(args.source, d)
    target = parse_space(args.target, d)
    verdict = decide(source, target)
    if args.json:
        print(json.dumps(_verdict_json(source, target, verdict), indent=2))
    else:
        rel = ("embeds into" if verdict.holds else "does not embed into")
        strictness = "strict" if verdict.strict else "non-strict"
        print(f"{render_space(source)} {rel} {render_space(target)}  (d = {d})")
        print(f"  clause:     {verdict.clause}")
        print(f"  critical s: {verdict.critical_s} ({strictness} comparison)")
        print(f"  detail:     {verdict.explanation}")
    return 0 if verdict.holds else 1


def cmd_table(args, config) -> int:
    pair = _TABLE_PAIRS[args.pair]
    resolution = _cfg(args, config, "resolution", int, 33)
    if not 1 <= resolution <= 64:
        raise ValueError("resolution must be between 1 and 64")
    d = _cfg(args, config, "d", int, 1)
    s = as_fraction(args.s)
    if resolution == 1:
        coords = [Fraction(0)]
    else:
        coords = [Fraction(i, resolution - 1) for i in range(resolution)]
    points = [(u, v) for u in coords for v in coords]
    cells = classify_region(pair[0], pair[1], points, s, d)
    texts = [str(c) for c in coords]  # each formatted once; cell i is points[i]
    with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as handle:
        writer = csv.writer(handle)
        writer.writerow(["inv_p", "inv_q", "holds", "clause", "piece"])
        writer.writerows([u, v, int(c.holds), c.clause, c.piece.value if c.piece else ""]
                         for (u, v), c in zip([(u, v) for u in texts for v in texts], cells))
    return 0


def cmd_norm(args, config) -> int:
    _refuse_foreign_options(args)
    d = _cfg(args, config, "d", int, 1)
    space = parse_space(args.space, d)
    f, param = _build_family(args.family, args, config, d)
    value = experiments.finite_norm(f, space, None, None, "it must be finite and nonzero")
    if args.json:
        print(json.dumps({"schema": "modemb/norm/v1",
                          "space": render_space(space),
                          "family": args.family,
                          "level": args.level,
                          "parameter": str(param),
                          "value": value}, indent=2))
    else:
        print(value)
    return 0


def _parse_levels(args, config):
    if args.t_list:
        if args.lmin is not None or args.lmax is not None:
            raise ValueError("--t-list cannot be combined with --lmin or --lmax")
        return [as_fraction(tok) for tok in args.t_list.split(",")]
    lmin = _cfg(args, config, "lmin", int, 4)
    lmax = _cfg(args, config, "lmax", int, 8)
    if lmax < lmin:
        raise ValueError("lmax must be >= lmin")
    if kind_row(args.family).options[0] == "level":  # refused before the list is built
        _integer_level(lmin, least=0)
        _check_level_budget(lmax)
    return list(range(lmin, lmax + 1))


def _experiment_common(args, config, run, **options) -> int:
    _refuse_foreign_options(args)
    d = _cfg(args, config, "d", int, 1)
    width = as_fraction(_cfg(args, config, "width", str, "1"))
    source = parse_space(args.source, d)
    target = parse_space(args.target, d)
    report = run(source, target, args.family, _parse_levels(args, config),
                 width=width, **options)
    if args.csv:
        report.write_csv(args.csv)
    if args.json is not None:
        Path(args.json).write_text(report.to_json() + "\n")
        status = "pass" if report.passed else "fail"
        print(f"{report.mode} {status}: report written to {args.json}")
    else:
        print(report.to_json())
    return 0 if report.passed else 1


def cmd_sharpness(args, config) -> int:
    return _experiment_common(args, config, experiments.run_sharpness,
                              tolerance=_cfg(args, config, "tolerance", float, 0.2))


def cmd_boundedness(args, config) -> int:
    return _experiment_common(args, config, experiments.run_boundedness,
                              bound=_cfg(args, config, "bound", float, 8.0))


def cmd_selftest(args, config) -> int:
    d = _cfg(args, config, "d", int, 1)
    n = _cfg(args, config, "n", int, 2 ** 14 if d == 1 else 2 ** 8)
    m = _cfg(args, config, "oversampling", int, 8)
    report = selftest_report(GridSpec(d=d, n=n, oversampling=m))
    text = json.dumps(report, indent=2)
    if args.json:
        Path(args.json).write_text(text + "\n")
    print(text)
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modemb",
        description="Embedding oracle and quasi-norm toolkit for modulation, "
                    "Besov, Triebel, Sobolev and Fourier-Lp spaces")
    parser.add_argument("--config", help="key = value config file for defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide an embedding query exactly")
    p.add_argument("--from", dest="source", required=True, metavar="SPEC")
    p.add_argument("--to", dest="target", required=True, metavar="SPEC")
    p.add_argument("-d", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("table", help="region-classification sweep as CSV")
    p.add_argument("--pair", choices=sorted(_TABLE_PAIRS), required=True)
    p.add_argument("--s", required=True, help="smoothness, exact rational")
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.add_argument("-d", type=int, default=None)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("norm", help="evaluate a quasi-norm of a family member")
    p.add_argument("--family", choices=KINDS, required=True)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--t", default=None, help="member parameter t, 0 < t <= 1")
    p.add_argument("--lam", default=None, help="member parameter lambda, 0 < lambda <= 1")
    p.add_argument("--width", default=None, help="comb width a, 0 < a <= 1")
    p.add_argument("--space", required=True, metavar="SPEC")
    p.add_argument("--oversampling", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("-d", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_norm)

    for name, fn in (("sharpness", cmd_sharpness), ("boundedness", cmd_boundedness)):
        p = sub.add_parser(name, help=f"run a {name} experiment")
        p.add_argument("--from", dest="source", required=True, metavar="SPEC")
        p.add_argument("--to", dest="target", required=True, metavar="SPEC")
        p.add_argument("--family", choices=KINDS, required=True)
        p.add_argument("--lmin", type=int, default=None)
        p.add_argument("--lmax", type=int, default=None)
        p.add_argument("--t-list", default=None,
                       help="comma-separated kernel parameters, e.g. 1/4,1/16,1/64")
        p.add_argument("--tolerance", type=float, default=None)
        p.add_argument("--bound", type=float, default=None)
        p.add_argument("--width", default=None)
        p.add_argument("--csv", default=None, help="write per-level CSV here")
        p.add_argument("--json", default=None, help="write the JSON report here")
        p.add_argument("-d", type=int, default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser("selftest", help="run the partition/reconstruction checks")
    p.add_argument("--json", default=None, help="write the JSON report here")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--oversampling", type=int, default=None)
    p.add_argument("-d", type=int, default=None)
    p.set_defaults(fn=cmd_selftest)
    return parser


_NEGATIVE_FRACTION_RE = re.compile(r"^-\d+/\d+$")


def _attach_negative_fractions(argv: list[str]) -> list[str]:
    """Rewrite '--opt -a/b' as '--opt=-a/b'. argparse takes '-1/2' for an
    option (it only knows negative decimals), so '--s -1/2' would otherwise
    fail with "expected one argument"."""
    out: list[str] = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and _NEGATIVE_FRACTION_RE.match(token)):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_negative_fractions(argv))
    try:
        config = _load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.fn(args, config)
    except SpecParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (UncharacterizedPairError, DomainError, experiments.CatalogueError) as exc:
        print(f"undecidable: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
