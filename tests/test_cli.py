"""CLI grammar, exit codes, CSV/JSON contracts, and schema validation."""
import csv
import io
import json
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from modemb.cli import (
    _TABLE_PAIRS,
    EX_USAGE,
    SpecParseError,
    main,
    parse_space,
    render_space,
)
from modemb import families
from modemb.exponents import INF, Exponent
from modemb.oracle import Family, SpaceSpec, classify_region

F = Fraction

requires_jsonschema = pytest.mark.skipif(jsonschema is None,
                                         reason="jsonschema not installed")


def _schema(name):
    from importlib.resources import files
    return json.loads(files("modemb.schemas").joinpath(name).read_text())


def test_parse_space_examples():
    spec = parse_space("B[p=1,q=2,s=1/2]")
    assert spec.family is Family.BESOV
    assert spec.p == Exponent.of(1) and spec.q == Exponent.of(2)
    assert spec.s == F(1, 2)
    spec = parse_space("M[p=2,q=1]")
    assert spec.s == 0
    spec = parse_space("W[r=inf,s=-3/4]")
    assert spec.r == INF and spec.s == F(-3, 4)
    spec = parse_space("FL[r=2]")
    assert spec.family is Family.FOURIER_L and spec.s is None


@pytest.mark.parametrize("bad", [
    "B[p=1,q=2", "X[p=1,q=2]", "B[p=1]", "B[p=0,q=2]", "B[p=1,q=2,r=3]",
    "B[p=1,p=2,q=1]", "FL[r=2,s=1]", "B[p=1.5,q=2]", "M[p=inf,q=inf,s=inf]",
])
def test_parse_space_rejects(bad):
    with pytest.raises(SpecParseError):
        parse_space(bad)


def test_parse_error_carries_position():
    with pytest.raises(SpecParseError) as err:
        parse_space("B[p=oops,q=2]")
    assert err.value.pos == 2


# Exponents with large numerators and denominators, and infinity; s of
# either sign, as large.
_wide = st.fractions(min_value=F(1, 10 ** 30), max_value=10 ** 30,
                     max_denominator=10 ** 30).filter(lambda x: x > 0)
_indices = st.one_of(_wide, st.sampled_from([1, 2, INF]))
_smoothness = st.fractions(min_value=-10 ** 30, max_value=10 ** 30, max_denominator=10 ** 30)
_dimensions = st.sampled_from([1, 2])
space_specs = st.one_of(
    st.builds(SpaceSpec.besov, _indices, _indices, _smoothness, _dimensions),
    st.builds(SpaceSpec.modulation, _indices, _indices, _smoothness, _dimensions),
    st.builds(SpaceSpec.triebel, _indices, _indices, _smoothness, _dimensions),
    st.builds(SpaceSpec.sobolev, _indices, _smoothness, _dimensions),
    st.builds(SpaceSpec.fourier_l, _indices, _dimensions),
)
_landmarks = [Exponent(F(1, 3)), Exponent(1), Exponent(2), INF]


@given(spec=space_specs)
def test_render_parse_round_trip(spec):
    parsed = parse_space(render_space(spec), spec.d)
    assert parsed == spec
    exponents = [e for e in (parsed.p, parsed.q, parsed.r) if e is not None]
    for e in exponents:
        # the parser's Exponent agrees with the generic coercion of its value
        reference = Exponent.of(e.value)
        assert e == reference and hash(e) == hash(reference)
        for other in exponents + _landmarks:
            assert (e < other, e <= other, e == other, e > other, e >= other) == \
                (reference < other, reference <= other, reference == other,
                 reference > other, reference >= other)


def test_render_is_canonical():
    # parse then render is idempotent
    text = "B[p=1,q=2]"
    canonical = render_space(parse_space(text))
    assert canonical == "B[p=1,q=2,s=0]"
    assert render_space(parse_space(canonical)) == canonical


def test_decide_exit_codes(capsys):
    assert main(["decide", "--from", "B[p=1,q=1,s=1/2]", "--to", "M[p=2,q=2]"]) == 0
    assert main(["decide", "--from", "B[p=1,q=1,s=0]", "--to", "M[p=2,q=2]"]) == 1
    assert main(["decide", "--from", "F[p=2,q=1,s=0]", "--to", "M[p=2,q=4]"]) == 2
    assert main(["decide", "--from", "W[r=1/2,s=0]", "--to", "M[p=2,q=2]"]) == 2
    assert main(["decide", "--from", "B[p=nope,q=1]", "--to", "M[p=2,q=2]"]) == EX_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("argv,code,message", [
    (["decide", "--from", "B[p=x,q=1]", "--to", "M[p=1,q=1]"], EX_USAGE,
     "parse error: expected a rational a/b or 'inf' (no decimals), got 'x' "
     "at position 2: 'B[p=x,q=1]'"),
    (["norm", "--family", "annulus", "--level", "2", "--space", "M[p=1]"], EX_USAGE,
     "parse error: family M requires indices ['q'] at position 6: 'M[p=1]'"),
    (["sharpness", "--from", "B[p=1,q=1,s=0]", "--to", "M[p=1,q=1,s=zz]",
      "--family", "annulus"], EX_USAGE,
     "parse error: expected a rational a/b or 'inf' (no decimals), got 'zz' "
     "at position 10: 'M[p=1,q=1,s=zz]'"),
    (["decide", "--from", "W[r=1/2,s=0]", "--to", "M[p=2,q=2]"], 2,
     "undecidable: hypothesis 1 <= r <= inf violated: r = 1/2; the Sobolev "
     "characterizations assume Banach-range Lebesgue indices"),
    (["sharpness", "--from", "B[p=1,q=1,s=0]", "--to", "M[p=1,q=1]",
      "--family", "dilation", "--lmin", "2", "--lmax", "3"], 2,
     "undecidable: no catalogued family 'dilation' for B->M"),
    (["sharpness", "--from", "B[p=1,q=1,s=0]", "--to", "M[p=1,q=1]",
      "--family", "annulus", "--t-list", "1/4,1/8"], 2,
     "error: the annulus family takes integer levels, got 1/4, 1/8"),
    (["norm", "--family", "lattice_comb", "--level", "4", "--width", "0",
      "--space", "M[p=2,q=2]"], 2,
     "error: comb width must satisfy 0 < a <= 1, got 0"),
    (["sharpness", "--from", "B[p=inf,q=1,s=0]", "--to", "M[p=inf,q=1]",
      "--family", "lattice_comb", "--lmin", "4", "--lmax", "5", "--width", "0"], 2,
     "error: comb width must satisfy 0 < a <= 1, got 0"),
    (["norm", "--family", "dilation", "--lam", "0", "--space", "M[p=2,q=2]"], 2,
     "error: dilation parameter must satisfy 0 < lambda <= 1, got 0"),
    (["norm", "--family", "dilated_kernel", "--t", "0", "--space", "M[p=2,q=2]"], 2,
     "error: kernel parameter must satisfy 0 < t <= 1, got 0"),
    (["norm", "--family", "lattice_comb", "--level", "4", "--width", "1/0",
      "--space", "M[p=2,q=2]"], 2,
     "error: zero denominator in '1/0'"),
    (["norm", "--family", "dilated_kernel", "--t", "1/0", "--space", "M[p=2,q=2]"], 2,
     "error: zero denominator in '1/0'"),
    (["table", "--pair", "B-M", "--s", "1/0"], 2,
     "error: zero denominator in '1/0'"),
    (["table", "--pair", "B-M", "--s", "0", "-d", "0"], 2,
     "error: dimension must be a positive integer, got 0"),
    # family options the chosen family does not read are refused, not ignored
    (["norm", "--family", "annulus", "--level", "3", "--width", "0",
      "--space", "M[p=2,q=2]"], 2,
     "error: --width does not apply to the annulus family"),
    (["norm", "--family", "single_box", "--level", "4", "--lam", "0",
      "--space", "M[p=2,q=2]"], 2,
     "error: --lam does not apply to the single_box family"),
    (["norm", "--family", "dilation", "--lam", "1/2", "--t", "1/2",
      "--space", "M[p=2,q=2]"], 2,
     "error: --t does not apply to the dilation family"),
    (["norm", "--family", "dilation", "--lam", "1/2", "--level", "3",
      "--space", "M[p=2,q=2]"], 2,
     "error: --level does not apply to the dilation family"),
    (["norm", "--family", "dilated_kernel", "--t", "1/2", "--level", "3",
      "--space", "M[p=2,q=2]"], 2,
     "error: --level does not apply to the dilated_kernel family"),
    (["sharpness", "--from", "B[p=1,q=1,s=0]", "--to", "M[p=1,q=1]",
      "--family", "annulus", "--lmin", "2", "--lmax", "3", "--width", "1/2"], 2,
     "error: --width does not apply to the annulus family"),
    (["boundedness", "--from", "B[p=2,q=2,s=0]", "--to", "M[p=2,q=2]",
      "--family", "dilated_kernel", "--t-list", "1/2,1/4", "--lmin", "4", "--lmax", "5"], 2,
     "error: --t-list cannot be combined with --lmin or --lmax"),
    (["boundedness", "--from", "W[r=1,s=0]", "--to", "M[p=1,q=inf]",
      "--family", "dilated_kernel", "--t-list", "1/4,1/16", "--lmax", "5"], 2,
     "error: --t-list cannot be combined with --lmin or --lmax"),
    # each family's member parameter is required
    (["norm", "--family", "annulus", "--space", "M[p=2,q=2]"], 2,
     "error: --level is required for the annulus family"),
    (["norm", "--family", "dilation", "--space", "M[p=2,q=2]"], 2,
     "error: --lam is required for the dilation family"),
    (["norm", "--family", "dilated_kernel", "--space", "M[p=2,q=2]"], 2,
     "error: --t is required for the dilated_kernel family"),
    # dilation has norm asymptotics but no experiment driver
    (["boundedness", "--from", "B[p=2,q=2,s=0]", "--to", "M[p=2,q=2]",
      "--family", "dilation", "--lmin", "2", "--lmax", "3"], 2,
     "undecidable: unknown family kind 'dilation'"),
    # a resolution out of range is refused like every other bad value
    (["table", "--pair", "B-M", "--s", "0", "--resolution", "0"], 2,
     "error: resolution must be between 1 and 64"),
    # a negative annulus level is refused, not an IndexError from its dyadic window
    (["sharpness", "--from", "B[p=2,q=2,s=0]", "--to", "M[p=2,q=2]",
      "--family", "annulus", "--lmin", "-1", "--lmax", "2"], 2,
     "error: level must be >= 0, got -1"),
    (["norm", "--family", "annulus", "--level", "-3", "--space", "M[p=2,q=2]"], 2,
     "error: level must be >= 0, got -3"),
    # a huge level meets the sample budget, not a float overflow in the sizing
    pytest.param(
        ["norm", "--family", "single_box", "--level", "2000", "--space", "M[p=2,q=2]"], 2,
        "error: a grid for level 2000 exceeds the budget of 16777216 samples",
        id="single_box-level-2000-budget"),
    pytest.param(
        ["boundedness", "--from", "B[p=2,q=2,s=0]", "--to", "M[p=2,q=2]",
         "--family", "single_box", "--lmin", "4", "--lmax", "1030"], 2,
        "error: a grid for level 1030 exceeds the budget of 16777216 samples",
        id="single_box-lmax-1030-budget"),
    pytest.param(
        ["norm", "--family", "lattice_comb", "--level", "1100", "--space", "M[p=2,q=2]"], 2,
        "error: a grid for level 1100 exceeds the budget of 16777216 samples",
        id="lattice_comb-level-1100-budget"),
    # N past 4300 decimal digits is not written out: the refusal is the budget's
    pytest.param(
        ["norm", "--family", "annulus", "--level", "20000", "--space", "M[p=2,q=2]"], 2,
        "error: a grid for level 20000 exceeds the budget of 16777216 samples",
        id="annulus-level-20000-budget"),
    # the first level refused by the bound, and the last one sized
    pytest.param(
        ["norm", "--family", "annulus", "--level", "24", "--space", "M[p=2,q=2]"], 2,
        "error: a grid for level 24 exceeds the budget of 16777216 samples",
        id="annulus-level-24-budget"),
    pytest.param(
        ["norm", "--family", "annulus", "--level", "23", "--space", "M[p=2,q=2]"], 2,
        f"error: a grid of N^d = {2 ** 32}^1 samples exceeds the budget of 16777216 samples",
        id="annulus-level-23-budget"),
    # an oversized --lmax is refused before the list of levels is built
    pytest.param(
        ["boundedness", "--from", "B[p=2,q=2,s=0]", "--to", "M[p=2,q=2]",
         "--family", "single_box", "--lmin", "4", "--lmax", "1000000000"], 2,
        "error: a grid for level 1000000000 exceeds the budget of 16777216 samples",
        id="single_box-lmax-1000000000-budget"),
    pytest.param(
        ["sharpness", "--from", "B[p=2,q=2,s=0]", "--to", "M[p=2,q=2]",
         "--family", "annulus", "--lmin", "-1000000000", "--lmax", "2"], 2,
        "error: level must be >= 0, got -1000000000",
        id="annulus-lmin-negative-1000000000"),
])
def test_error_messages_and_exit_codes(capsys, argv, code, message):
    """Each refused command prints one line on stderr, nothing on stdout."""
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_sharpness_degenerate_norm_exits_cleanly(capsys, monkeypatch):
    """A zero norm ends a sharpness run with one error line and exit 2, not
    a ZeroDivisionError traceback."""
    from modemb import experiments
    monkeypatch.setattr(experiments, "space_norm", lambda f, space, *partitions: 0.0)
    code = main(["sharpness", "--from", "B[p=2,q=2,s=0]", "--to", "M[p=2,q=2]",
                 "--family", "single_box", "--lmin", "4", "--lmax", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: the B[p=2,q=2,s=0] norm at level 4 is 0.0; "
                            "a growth ratio needs finite nonzero norms\n")


@pytest.mark.parametrize("space,value", [
    ("B[p=2,q=2,s=150]", "inf"),
    ("B[p=2,q=2,s=-300]", "0.0"),
    ("F[p=2,q=2,s=-300]", "0.0"),
    ("F[p=2,q=2,s=150]", "inf"),
    ("F[p=2,q=1,s=400]", "nan"),
    ("M[p=2,q=2,s=400]", "nan"),
])
def test_norm_refuses_nonfinite_and_zero(capsys, space, value):
    """A norm whose weights leave double range is refused with one error line
    naming the space, exit 2, and no NumPy warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["norm", "--family", "annulus", "--level", "3", "--space", space])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (f"error: the {space} norm is {value}; "
                            "it must be finite and nonzero\n")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@requires_jsonschema
def test_decide_json_schema(capsys):
    main(["decide", "--from", "B[p=1,q=1,s=1/2]", "--to", "M[p=2,q=2]", "--json"])
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema("verdict-v1.json"))
    assert payload["holds"] is True and payload["clause"] == "B->M (1)"


def test_table_sobolev_regions(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["table", "--pair", "W-M", "--s", "0",
                 "--resolution", "33", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 33 * 33
    for row in rows:
        inv_r, inv_q = F(row["inv_p"]), F(row["inv_q"])
        if inv_q > inv_r:  # r > q: condition (1) territory
            assert row["clause"] == "W->M (1)", row
        if inv_r == 1 and inv_q == 0:
            assert row["clause"] == "W->M (3)"
    # s = 0 sweep: holdings occupy the 1/q <= 1/r triangle minus the r = 1 edge
    holds = {(row["inv_p"], row["inv_q"]) for row in rows if row["holds"] == "1"}
    assert ("1/2", "1/4") in holds and ("1/4", "1/2") not in holds


def test_table_besov_pieces(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["table", "--pair", "B-M", "--s", "0",
                 "--resolution", "17", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    pieces = {row["piece"] for row in rows}
    assert pieces == {"0", "1/q - 1/p", "1/q + 1/p - 1"}
    for row in rows:
        u, v = F(row["inv_p"]), F(row["inv_q"])
        expected = max(F(0), v - u, v + u - 1)
        if expected == 0:
            assert row["piece"] == "0"


def _dictwriter_table(pair, s, resolution):
    """The table CSV as a csv.DictWriter renders it, from classify_region."""
    coords = [F(i, resolution - 1) for i in range(resolution)]
    cells = classify_region(*pair, [(u, v) for u in coords for v in coords], s)
    buffer = io.StringIO(newline="")
    writer = csv.DictWriter(buffer, fieldnames=["inv_p", "inv_q", "holds", "clause", "piece"])
    writer.writeheader()
    writer.writerows({"inv_p": str(c.inv_p), "inv_q": str(c.inv_q), "holds": int(c.holds),
                      "clause": c.clause, "piece": c.piece.value if c.piece else ""}
                     for c in cells)
    return buffer.getvalue().encode()


@pytest.mark.parametrize("name", list(_TABLE_PAIRS))
@pytest.mark.parametrize("s", ["0", "1/2"])
def test_table_bytes_match_dictwriter(tmp_path, name, s):
    out = tmp_path / "table.csv"
    assert main(["table", "--pair", name, f"--s={s}", "--resolution", "9",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == _dictwriter_table(_TABLE_PAIRS[name], F(s), 9)


def test_table_resolution_one(capsys):
    assert main(["table", "--pair", "B-M", "--s", "0", "--resolution", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # header + single row


def test_table_resolution_guard(capsys):
    assert main(["table", "--pair", "B-M", "--s", "0", "--resolution", "65"]) == 2
    capsys.readouterr()


def test_table_negative_fraction_after_space(capsys):
    """'--s -1/2' parses like '--s=-1/2' (argparse alone reads -1/2 as a flag)."""
    assert main(["table", "--pair", "B-M", "--s=-1/2", "--resolution", "3"]) == 0
    joined = capsys.readouterr().out
    assert main(["table", "--pair", "B-M", "--s", "-1/2", "--resolution", "3"]) == 0
    assert capsys.readouterr().out == joined
    assert main(["decide", "--from", "B[p=1,q=1,s=-1/2]", "--to", "M[p=1,q=1]"]) == 1
    capsys.readouterr()


def test_norm_oversized_grid_exits_cleanly(capsys):
    """A grid past the sample budget is refused before any allocation."""
    code = main(["norm", "--family", "annulus", "--level", "40",
                 "--space", "M[p=1,q=1]"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and "budget" in lines[0]


@pytest.mark.parametrize("option,parameter,level", [
    (["--family", "annulus", "--level", "3"], "3", 3),
    (["--family", "dilation", "--lam", "1/2"], "1/2", None),
    (["--family", "dilated_kernel", "--t", "2/8"], "1/4", None),
    (["--family", "single_box", "--level", "3"], "3", 3),
    (["--family", "lattice_comb", "--level", "4", "--width", "1/2"], "4", 4),
])
def test_norm_json_records_parameter(capsys, option, parameter, level):
    """The norm payload names the member: its exact level, lambda or t."""
    assert main(["norm", *option, "--space", "M[p=2,q=2]", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["parameter"] == parameter and payload["level"] == level
    assert payload["value"] > 0


@pytest.mark.parametrize("kind,option,parameter,boundedness,members", [
    pytest.param(kind, "--level", "4", ["--lmin", "4", "--lmax", "5"], [4, 5], id=kind)
    for kind in ("annulus", "single_box", "lattice_comb")] + [
    pytest.param("dilation", "--lam", "1/2", None, None, id="dilation"),
    pytest.param("dilated_kernel", "--t", "1/2", ["--t-list", "1/2,1/4"], [F(1, 2), F(1, 4)],
                 id="dilated_kernel"),
])
def test_rebound_generator_is_called_once_per_member(capsys, monkeypatch, kind, option,
                                                      parameter, boundedness, members):
    """A generator rebound in every loaded modemb module that holds it, as the
    benchmark tracer rebinds public functions, is the one norm and
    boundedness call, once per member; dilation has no boundedness run."""
    original = getattr(families, f"family_{kind}")
    calls = []

    def counting(spec, member_parameter, *args, **kwargs):
        calls.append(member_parameter)
        return original(spec, member_parameter, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "modemb" or name.startswith("modemb."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    assert main(["norm", "--family", kind, option, parameter, "--space", "M[p=2,q=2]"]) == 0
    first = F(parameter)
    assert calls == [first]
    if boundedness is not None:
        main(["boundedness", "--from", "B[p=2,q=2,s=0]", "--to", "M[p=2,q=2]",
              "--family", kind, *boundedness])
        assert calls == [first, *members]
    capsys.readouterr()


@pytest.mark.parametrize("t", ["1", "1/2", "1/3"])
@pytest.mark.parametrize("space", ["M[p=2,q=2]", "M[p=1,q=1]"])
def test_norm_dilated_kernel_covers_documented_range(capsys, t, space):
    """Every 0 < t <= 1 gets a grid whose uniform partition covers the
    kernel; t > 1/4 used to exit 2 with a band error."""
    assert main(["norm", "--family", "dilated_kernel", "--t", t, "--space", space]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and float(captured.out) > 0


def test_config_width_stays_a_shared_default(tmp_path, capsys):
    """A config-file width is a default for every family, not a refused option."""
    config = tmp_path / "modemb.cfg"
    config.write_text("width = 1/2\n")
    argv = ["norm", "--family", "annulus", "--level", "3", "--space", "M[p=2,q=2]"]
    assert main(["--config", str(config), *argv]) == 0
    assert main(argv) == 0
    with_config, without = capsys.readouterr().out.split()
    assert with_config == without


def test_norm_matches_library_call(capsys):
    code = main(["norm", "--family", "annulus", "--level", "5",
                 "--space", "M[p=2,q=1,s=0]"])
    assert code == 0
    printed = float(capsys.readouterr().out.strip())

    from modemb.families import family_annulus, grid_for
    from modemb.norms import modulation_norm
    from modemb.partitions import build_uniform
    spec = grid_for("annulus", level=5)
    expected = modulation_norm(family_annulus(spec, 5), 2, 1, 0, build_uniform(spec))
    assert printed == expected  # same code path, bit-identical


@requires_jsonschema
def test_sharpness_cli_json(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code = main(["sharpness", "--from", "B[p=2,q=2,s=-1/4]", "--to", "M[p=2,q=2]",
                 "--family", "single_box", "--lmin", "4", "--lmax", "7",
                 "--json", str(report_path), "--csv", str(csv_path)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(report_path.read_text())
    jsonschema.validate(payload, _schema("experiment-v1.json"))
    assert payload["predicted_slope"] == "1/4"
    rows = list(csv.DictReader(csv_path.open()))
    assert [row["level"] for row in rows] == ["4", "5", "6", "7"]


def test_boundedness_cli_kernel(capsys):
    code = main(["boundedness", "--from", "W[r=1,s=0]", "--to", "M[p=1,q=inf]",
                 "--family", "dilated_kernel", "--t-list", "1/4,1/16,1/64"])
    capsys.readouterr()
    assert code == 0


@requires_jsonschema
def test_selftest_cli(tmp_path, capsys):
    for d, grid in ((1, ["--n", "4096"]), (2, [])):
        report_path = tmp_path / f"selftest-d{d}.json"
        code = main(["selftest", "-d", str(d), *grid, "--json", str(report_path)])
        capsys.readouterr()
        assert code == 0, d
        payload = json.loads(report_path.read_text())
        jsonschema.validate(payload, _schema("selftest-v1.json"))
        assert payload["grid"]["d"] == d
        assert payload["passed"] is True, d


def test_config_defaults_and_override(tmp_path, capsys):
    config = tmp_path / "modemb.cfg"
    config.write_text("# defaults\nd = 1\nresolution = 2\n")
    assert main(["--config", str(config), "table", "--pair", "B-M", "--s", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 4  # resolution 2 from config
    assert main(["--config", str(config), "table", "--pair", "B-M", "--s", "0",
                 "--resolution", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 1  # flag overrides config


def test_config_parse_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("not a key value line\n")
    assert main(["--config", str(config), "decide", "--from", "B[p=1,q=1,s=1]",
                 "--to", "M[p=1,q=1]"]) == 2
    capsys.readouterr()
    # a misspelt key is refused, not ignored in favour of the default
    config.write_text("tolerence = 0.01\n")
    assert main(["--config", str(config), "sharpness", "--from", "B[p=2,q=2,s=-1/4]",
                 "--to", "M[p=2,q=2]", "--family", "single_box",
                 "--lmin", "4", "--lmax", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: {config}:1: unknown key 'tolerence' (known: "
                            "d, oversampling, n, lmin, lmax, tolerance, bound, "
                            "resolution, width)\n")
