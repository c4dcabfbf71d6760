"""Command-line surface: dispatch, formats, exit codes, round trips."""

import errno
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest

from torfill import cli, psl2z, selftest
from torfill.chains import TorusChain, faces
from torfill.cli import build_parser, main
from torfill.errors import Unfillable, VerificationFailure
from torfill.filling import base
from torfill.filling import reduce as reduction
from torfill.filling.certificate import Piece, lifted, presentation_chain
from torfill.formats import load_certificate

from layouts import v2_chain_obj


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    kv = dict(line.split("=", 1) for line in out.splitlines()
              if "=" in line and not line.startswith("row "))
    rows = [line[4:] for line in out.splitlines() if line.startswith("row ")]
    return code, kv, rows


def _cli_env(**extra):
    """The environment of a subprocess that imports torfill from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_bounds(capsys):
    code, kv, rows = run(capsys, "bounds", "-m", "2,1;1,1")
    assert code == 0
    assert abs(float(kv["rho"]) - 2.618033988749895) < 1e-9
    assert abs(float(kv["fv_lower_ln"]) - 0.2921) < 5e-4
    assert kv["unit_root_flag"] == "False"
    assert kv["charpoly"] == "1,-3,1"
    # each radius is the certified bound, nonzero for the inexact 0.381966
    assert rows == ["root_0 0.38196601125+0i mult=1 radius=1.19e-18 "
                    "circle=False",
                    "root_1 2.61803398875+0i mult=1 radius=5.43e-17 "
                    "circle=False"]


def test_bounds_unit_circle(capsys):
    code, kv, rows = run(capsys, "bounds", "-m", "0,-1;1,0")
    assert code == 0
    assert kv["unit_root_flag"] == "True"
    assert float(kv["fv_lower_ln"]) == 0.0


def test_bounds_precision_cap_below_first_attempt_exit_3(capsys):
    # no root-finding attempt runs below 64 bits, so nothing may blame the
    # unit circle
    assert main(["bounds", "-m", "2,1;1,1", "--precision-cap", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("factor 1,-3,1: no attempt ran, as the bit cap 0 is below the"
            " first attempt's 64 bits") in captured.err
    assert "unit circle" not in captured.err


def test_bounds_precision_cap_zero_cyclotomic_exit_0(capsys):
    # a cyclotomic charpoly needs no root finding at any cap
    code, kv, rows = run(capsys, "bounds", "-m", "1,0;0,1",
                         "--precision-cap", "0")
    assert code == 0 and kv["unit_root_flag"] == "True"


def test_bounds_singular_matrix(capsys):
    # x^3 - 3x^2: the zero root keeps its multiplicity 2 through the division
    code, kv, rows = run(capsys, "bounds", "-m", "3,0,0;0,0,0;0,0,0")
    assert code == 0
    assert kv["entropy_ln"] == kv["ln_rho"] == "1.09861228867"
    assert rows == ["root_0 3+0i mult=1 radius=0 circle=False",
                    "root_1 0+0i mult=2 radius=0 circle=False"]


def test_bounds_conjugate_pair_plus_root_first(capsys):
    # x^2 - 2x + 3 is not cyclotomic; its roots 1 +- i sqrt(2) tie on
    # (|im|, re), and the + root of the pair prints first
    code, kv, rows = run(capsys, "bounds", "-m", "1,-2;1,1")
    assert code == 0
    assert kv["charpoly"] == "1,-2,3"
    assert rows == ["root_0 1+1.41421356237i mult=1 radius=9.67e-17 "
                    "circle=False",
                    "root_1 1-1.41421356237i mult=1 radius=9.67e-17 "
                    "circle=False"]


def test_bounds_roots_on_the_axes_keep_exact_zero_parts(capsys):
    # (x^2 + 2)(x - 3) is not even, x^2 + 2 is, and x (x^2 - x - 1) has the
    # root 0: each root on an axis prints a zero part, as exact
    for matrix, expected in (
            ("0,-2,0;1,0,0;0,0,3",
             ["root_0 3+0i mult=1 radius=0 circle=False",
              "root_1 0+1.41421356237i mult=1 radius=9.67e-17 circle=False",
              "root_2 0-1.41421356237i mult=1 radius=9.67e-17 circle=False"]),
            ("0,-2;1,0",
             ["root_0 0+1.41421356237i mult=1 radius=9.67e-17 circle=False",
              "root_1 0-1.41421356237i mult=1 radius=9.67e-17 circle=False"]),
            ("1,1,0;1,0,0;0,0,0",
             ["root_0 -0.61803398875+0i mult=1 radius=5.43e-17 circle=False",
              "root_1 0+0i mult=1 radius=0 circle=False",
              "root_2 1.61803398875+0i mult=1 radius=5.43e-17 "
              "circle=False"])):
        code, kv, rows = run(capsys, "bounds", "-m", matrix)
        assert code == 0 and rows == expected


def test_bounds_stats_adds_only_key_value_lines(capsys):
    matrix = "0,0,10000000;1,0,-10000000;0,1,10000001"
    assert main(["bounds", "-m", matrix]) == 0
    plain = capsys.readouterr().out
    assert main(["bounds", "-m", matrix, "--stats"]) == 0
    with_stats = capsys.readouterr().out
    assert "bits_max" not in plain
    assert with_stats.startswith(plain)
    assert with_stats[len(plain):].splitlines() == [
        "bits_max=128", "factor_0_degree=3", "factor_0_gap=5e-15",
        "factor_0_bound=1.68454e-33"]


def test_bounds_stats_per_factor_and_cyclotomic_only(capsys):
    # (x^2 - 3x + 1)^2 (x^2 - 2x + 3): one certified factor per multiplicity;
    # a cyclotomic charpoly needs no precision
    code, kv, rows = run(capsys, "bounds", "--stats", "-m",
                         "2,1,0,0,0,0;1,1,0,0,0,0;0,0,2,1,0,0;"
                         "0,0,1,1,0,0;0,0,0,0,1,-2;0,0,0,0,1,1")
    assert code == 0 and len(rows) == 4
    assert kv["bits_max"] == "128"
    assert [kv["factor_%d_degree" % i] for i in range(2)] == ["2", "2"]
    assert "factor_2_degree" not in kv
    for i in range(2):
        gap, bound = kv["factor_%d_gap" % i], kv["factor_%d_bound" % i]
        assert float(gap) > float(bound)
    code, kv, rows = run(capsys, "bounds", "--stats", "-m", "0,-1;1,0")
    assert code == 0 and kv["bits_max"] == "0"
    assert not any(key.startswith("factor_") for key in kv)


def test_bounds_coefficients_beyond_double_range(capsys):
    # charpoly (x - 10^200)(x - 1): a coefficient near the top of the double
    # range; the output is pinned byte for byte
    big = 10 ** 200
    assert main(["bounds", "--matrix=%d,0;0,1" % big]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "n=2\ncharpoly=1,-%d,%d\nrho=1e+200\nln_rho=460.517018599\n"
        "entropy_ln=460.517018599\nn_ln_rho=921.034037198\n"
        "fv_lower_ln=139.726884953\nunit_root_flag=True\n"
        "row root_0 1+0i mult=1 radius=0 circle=True\n"
        "row root_1 1e+200+0i mult=1 radius=3.03e+183 circle=False\n"
        % (big + 1, big))
    # charpoly coefficients up to 10^360 overflow a double: the exact shift
    # by the rounded centroid 10^120 gives y^3 - 1, whose double seeds
    # certify the roots 10^120 + 1 and 10^120 + (-1 +- i sqrt 3) / 2
    e = 10 ** 120
    assert main(["bounds", "--matrix=%d,1,0;0,%d,1;1,0,%d" % (e, e, e)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "n=3\ncharpoly=1,-%d,%d,-%d\nrho=1e+120\nln_rho=276.310211159\n"
        "entropy_ln=828.930633478\nn_ln_rho=828.930633478\n"
        "fv_lower_ln=99.6578428466\nunit_root_flag=False\n"
        "row root_0 1e+120+0i mult=1 radius=2e+103 circle=False\n"
        "row root_1 1e+120+0.866025403784i mult=1 radius=2e+103 circle=False\n"
        "row root_2 1e+120-0.866025403784i mult=1 radius=2e+103 circle=False\n"
        % (3 * e, 3 * e * e, e ** 3 + 1))
    # roots 2, 10^150 and 10^200: no shift brings the coefficients into the
    # double range, so the exact Durand-Kerner correction seeds the roots
    code, kv, rows = run(capsys, "bounds", "--matrix=%d,0,0;0,%d,0;0,0,2"
                         % (big, 10 ** 150))
    assert code == 0 and kv["rho"] == "1e+200"
    assert rows == ["root_0 2+0i mult=1 radius=0 circle=False",
                    "root_1 1e+150+0i mult=1 radius=1.92e+133 circle=False",
                    "root_2 1e+200+0i mult=1 radius=3.03e+183 circle=False"]


@pytest.mark.parametrize("matrix,want", [
    ("1", ["root_0 1+0i mult=1 radius=0 circle=True"]),
    ("-1", ["root_0 -1+0i mult=1 radius=0 circle=True"]),
    ("0,-1;1,0", ["root_0 0+1i mult=1 radius=0 circle=True",
                  "root_1 0-1i mult=1 radius=0 circle=True"]),
])
def test_bounds_prints_the_quarter_turn_roots_exactly(capsys, matrix, want):
    # the roots of Phi_1, Phi_2 and Phi_4 are 1, -1 and +-i exactly, so their
    # radius=0 is true
    code, _, rows = run(capsys, "bounds", "--matrix=" + matrix)
    assert code == 0 and rows == want


@pytest.mark.parametrize("command", ["bounds", "reduce"])
@pytest.mark.parametrize("text", ["2,,1;1,1", "2,1,;1,1"],
                         ids=["inner", "trailing"])
def test_blank_matrix_entry_exit_3(capsys, command, text):
    # a dropped entry would make these [[2, 1], [1, 1]]
    assert main([command, "-m", text]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad inline matrix %r" % text in captured.err
    assert "Traceback" not in captured.err


def test_reduce_identity(capsys):
    code, kv, rows = run(capsys, "reduce", "-m", "1,0;0,1")
    assert code == 0
    assert kv["cost"] == "0"
    assert kv["verified"] == "True"


def test_reduce_and_fill_verify_round_trip(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, kv, rows = run(capsys, "reduce", "-m", "2,1;1,1", "--out", str(cert_path))
    assert code == 0 and kv["verified"] == "True"
    code, kv, rows = run(capsys, "fill", "--verify", str(cert_path))
    assert code == 0
    assert kv["verified"] == "True"


def _cycle_file(tmp_path):
    """Q(e1,e2) + Q(-e1,e2), null-homologous with a small-box witness."""
    from torfill.chains import parallelogram_cycle
    z = (parallelogram_cycle([(1, 0), (0, 1)])
         + parallelogram_cycle([(-1, 0), (0, 1)]))
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(v2_chain_obj(z)))
    return str(path)


def test_fill_cycle_from_file(tmp_path, capsys):
    out_path = tmp_path / "fill.json"
    code, kv, rows = run(capsys, "fill", "--cycle", _cycle_file(tmp_path),
                         "--out", str(out_path))
    assert code == 0
    assert int(kv["cost"]) >= 1
    code, kv, rows = run(capsys, "fill", "--verify", str(out_path))
    assert code == 0


def test_fill_unfillable_exit_code(tmp_path, capsys):
    from torfill.chains import parallelogram_cycle
    z = parallelogram_cycle([(1, 0), (0, 1)])  # fundamental class
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(v2_chain_obj(z)))
    code = main(["fill", "--cycle", str(path), "--max-expand", "2"])
    capsys.readouterr()
    assert code == 2


def _chain_obj(ambient_dim, degree, *simplices):
    return {"ambient_dim": ambient_dim, "degree": degree,
            "terms": [{"coeff": "1", "vertices": [
                [x if isinstance(x, list) else str(x) for x in p] for p in s]}
                for s in simplices]}


def _table_obj(points, *index_lists):
    """A degree-1 chain in T^1 over the point table points."""
    return {"ambient_dim": 1, "degree": 1, "points": points,
            "terms": [{"coeff": "1", "vertices": s} for s in index_lists]}


@pytest.mark.parametrize("chain", [
    _chain_obj(1, 0, []),                        # an empty vertex list
    _chain_obj(2, 1, [(0, 0), (1,)]),            # vertices of mixed dimension
    _chain_obj(2, 1, [(0,), (1,)]),              # vertices not in T^ambient_dim
    _chain_obj(1, 2, [(0,), (1,)]),              # 2 vertices for degree 2
    _chain_obj(1, 1, [(1,), (2,)]),              # first vertex off the origin
    _chain_obj(1, 1, [(0,), ([1],)]),            # an unhashable vertex
    _chain_obj(1, 1, [(0,), ("x",)]),            # a non-integer coordinate
    _table_obj([["0"], ["1"]], [0, 2]),          # an index past the table
    _table_obj([["0"], ["1"]], [0, -1]),         # a negative index
    _table_obj([["0"], ["1"]], [0, True]),       # a boolean index
    _table_obj([["0"], ["1"]], "01"),            # vertices not a list
    _table_obj([["0"], ["1", "0"]], [0, 1]),     # a point not in T^1
    _table_obj([["0"], "1"], [0, 1]),            # a point not a list
    _chain_obj(-1, -1),                          # a negative dimension
    _chain_obj(1, -1),                           # a negative degree
], ids=["empty", "mixed-dim", "ambient-dim", "degree", "origin", "unhashable",
        "non-integer", "index-range", "index-negative", "index-bool",
        "vertices-not-list", "point-dim", "point-not-list",
        "negative-ambient-dim", "negative-degree"])
def test_fill_bad_chain_file_exit_3(tmp_path, capsys, chain):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(chain))
    assert main(["fill", "--cycle", str(path)]) == 3
    captured = capsys.readouterr()
    assert "input error" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_fill_verify_negative_dimensions_exit_3(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({
        "version": 2, "ambient_dim": -1, "degree": -1,
        "target": {"ambient_dim": -1, "degree": -1, "points": [], "terms": []},
        "witness": {"ambient_dim": -1, "degree": 0, "points": [], "terms": []},
        "cost": "0", "trace": []}))
    assert main(["fill", "--verify", str(path)]) == 3
    captured = capsys.readouterr()
    assert "input error" in captured.err and "negative" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["reduce", "fill"])
@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_unwritable_out_exit_3(tmp_path, capsys, command, where):
    out = tmp_path / "missing" / "x.json"
    if where == "a-directory":
        out = tmp_path / "taken"
        out.mkdir()
    argv = (["reduce", "--matrix=2,1;1,1"] if command == "reduce"
            else ["fill", "--cycle", _cycle_file(tmp_path)])
    assert main(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: cannot write certificate ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


_ONE_CALL = textwrap.dedent("""
    import contextlib, io, json, sys
    from torfill.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(json.loads(sys.argv[1]))
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
""")


def test_cached_parser_matches_fresh_processes(tmp_path, capsys):
    # the parser is built once per process; a refused parse must leave
    # nothing behind for the calls after it
    cert = tmp_path / "cert.json"
    assert main(["reduce", "--matrix=2,1;1,1", "--out", str(cert)]) == 0
    cycle = _cycle_file(tmp_path)
    capsys.readouterr()
    calls = [["fill", "--box", "2", "--max-expand", "1", "--cycle", cycle],
             ["fill", "--verify", str(cert)],
             ["fill", "--cycle", cycle],
             ["reduce", "--matrix=2,1;1,1"]]
    same_process = []
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        same_process.append([code, captured.out, captured.err])
    fresh = [json.loads(subprocess.run(
        [sys.executable, "-c", _ONE_CALL, json.dumps(argv)],
        env=_cli_env(), capture_output=True,
        text=True, timeout=300, check=True).stdout) for argv in calls]
    assert [code for code, _, _ in same_process] == [3, 0, 0, 0]
    assert same_process == fresh
    assert build_parser() is build_parser()


_USAGE_CASES = [
    ["reduce", "--bogus"], ["reduce", "-m", "1,2;3,4", "extra"], [],
    ["bogus"], ["-h"], ["reduce", "-h"], ["fvupper", "--jmax", "0"],
    ["fill", "--verify", "/nonexistent/cert.json"],
    ["fill", "--cycle", "c.json", "--box", "3", "--max-expand", "2"],
    ["reduce", "--matrix=2,1;1,1", "--trace"],
]


@pytest.mark.parametrize("argv", _USAGE_CASES,
                         ids=[" ".join(a) or "none" for a in _USAGE_CASES])
def test_command_parser_gives_the_full_parsers_output(argv, capsys,
                                                      monkeypatch):
    # main hands a known command straight to its subparser; stdout, stderr
    # and the exit code are those of parsing with the whole tree
    got = main(argv), capsys.readouterr()
    monkeypatch.setattr(cli, "_parse",
                        lambda parser, argv: parser.parse_args(argv))
    want = main(argv), capsys.readouterr()
    assert got == want
    assert got[0] in (0, 3)


def test_command_parser_gives_the_full_parsers_namespace(monkeypatch):
    parser = build_parser()
    assert sorted(parser.commands) == sorted(cli._COMMANDS)
    for argv in (["bounds", "--matrix=2,1;1,1", "--stats"],
                 ["reduce", "-m", "1,0;0,1", "--out", "x.json"],
                 ["fvupper", "-m", "2,1;1,1"], ["torsion", "-m", "2"],
                 ["gelfand", "--matrix-file", "m.txt", "--jmax", "3"],
                 ["psl2z", "--family", "2", "--power", "0"],
                 ["fill", "--verify", "c.json"], ["selftest"]):
        assert vars(cli._parse(parser, argv)) == vars(parser.parse_args(argv))
    monkeypatch.setattr(sys, "argv", ["torfill", "selftest", "--level",
                                      "full"])
    assert vars(cli._parse(parser, None)) == {"command": "selftest",
                                              "level": "full"}


@pytest.mark.parametrize("witness_terms", [[[(0, 0), (1, 0), (1, 1)]], []],
                         ids=["nonempty", "empty"])
def test_fill_verify_mismatched_shapes_exit_2(tmp_path, capsys, witness_terms):
    # a witness in T^2 cannot fill a target in T^1, whatever its terms
    target = _chain_obj(1, 1, *([[(0,), (1,)]] if witness_terms else []))
    witness = _chain_obj(2, 2, *witness_terms)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({
        "version": 1, "ambient_dim": 1, "degree": 1, "target": target,
        "witness": witness, "cost": str(len(witness_terms)), "trace": []}))
    assert main(["fill", "--verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert "verified=False" in captured.out.splitlines()
    assert "T^2" in captured.err and "T^1" in captured.err
    assert "Traceback" not in captured.err


# vertex "00" is a string, 1.9 and true are JSON numbers: none is a list of
# canonical decimal strings, though int() reads them as (0, 0) and (1, 1)
_LOOSE_CHAIN = {"ambient_dim": 2, "degree": 1, "terms": [
    {"coeff": "1", "vertices": ["00", [1.9, True]]}]}


@pytest.mark.parametrize("field, value", [
    ("target", _LOOSE_CHAIN),
    ("coeff", "01"), ("coeff", "+1"), ("coeff", " 1"), ("coeff", "-0"),
    ("coeff", 1), ("coord", "1.0"), ("coord", 1), ("coord", True),
    ("ambient_dim", "2"), ("ambient_dim", True), ("ambient_dim", 2.0),
    ("version", True), ("version", "1"), ("cost", "007"), ("cost", 7),
    ("trace.cost", "1e3"), ("trace.class_delta", 0), ("trace.params", 1.5),
    ("trace.params", None), ("trace", {}), ("trace", ""),
])
def test_fill_verify_non_canonical_integers_exit_3(tmp_path, capsys, field,
                                                   value):
    path = tmp_path / "cert.json"
    assert main(["reduce", "--matrix=2,1;1,1", "--out", str(path)]) == 0
    capsys.readouterr()
    obj = json.loads(path.read_text())
    record = obj["trace"][0]
    if field == "coeff":
        obj["witness"]["terms"][0]["coeff"] = value
    elif field == "coord":
        obj["witness"]["points"][1][0] = value
    elif field.startswith("trace."):
        key = field.split(".")[1]
        record[key] = value if key == "cost" else [value]
    else:
        obj[field] = value
    path.write_text(json.dumps(obj))
    assert main(["fill", "--verify", str(path)]) == 3
    captured = capsys.readouterr()
    assert "verified=" not in captured.out
    assert "input error" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("kind", [5, ["SPLIT"]], ids=["int", "list"])
def test_fill_verify_non_string_kind_exit_3(tmp_path, capsys, kind):
    path = tmp_path / "cert.json"
    assert main(["reduce", "--matrix=2,1;1,1", "--out", str(path)]) == 0
    capsys.readouterr()
    obj = json.loads(path.read_text())
    obj["trace"][0]["kind"] = kind
    path.write_text(json.dumps(obj))
    assert main(["fill", "--verify", str(path)]) == 3
    captured = capsys.readouterr()
    assert "verified=" not in captured.out
    assert "input error" in captured.err and "not a string" in captured.err
    assert "Traceback" not in captured.err


def test_fill_verify_trace_cost_mismatch_exit_2(tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert main(["reduce", "--matrix=2,1;1,1", "--out", str(path)]) == 0
    capsys.readouterr()
    obj = json.loads(path.read_text())
    record = obj["trace"][0]
    record["cost"] = str(int(record["cost"]) + 1000)
    path.write_text(json.dumps(obj))
    assert main(["fill", "--verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert "verified=False" in captured.out.splitlines()
    assert ("trace costs sum to %d, cost field %s"
            % (int(obj["cost"]) + 1000, obj["cost"])) in captured.err
    assert "Traceback" not in captured.err


def test_fill_verify_names_first_mismatch(tmp_path, capsys):
    # one witness coefficient off by one: the diagnostic names the smallest
    # simplex where boundary and target differ, with both coefficients
    path = tmp_path / "cert.json"
    assert main(["reduce", "--matrix=2,1;1,1", "--out", str(path)]) == 0
    capsys.readouterr()
    cert = load_certificate(path)
    obj = json.loads(path.read_text())
    middle = len(cert.witness.terms) // 2
    record = obj["witness"]["terms"][middle]  # records are sorted by simplex
    record["coeff"] = str(int(record["coeff"]) + 1)
    path.write_text(json.dumps(obj))
    assert main(["fill", "--verify", str(path)]) == 2
    err = capsys.readouterr().err
    change = {}  # boundary(bad) - boundary(good) = boundary(the simplex)
    for i, face in enumerate(faces(sorted(cert.witness.terms)[middle])):
        change[face] = change.get(face, 0) + (-1) ** i
    changed = sorted(face for face, v in change.items() if v)
    first = changed[0]
    target = cert.target.terms.get(first, 0)
    assert ("boundary mismatch on %d simplices; first %r has boundary"
            " coefficient %d, target coefficient %d"
            % (len(changed), first, target + change[first], target)) in err


@pytest.mark.parametrize("flag", ["--verify", "--cycle"])
def test_fill_deeply_nested_json_exit_3(tmp_path, capsys, flag):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert main(["fill", flag, str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error" in captured.err and "recursion" in captured.err


@pytest.mark.parametrize("matrix, cost, moves, digest", [
    ("2,1;1,1", "2", "2", "6472560ddfab5c48"),
    ("3,-1,-5;5,3,-4;-1,0,1", "312", "45", "39a6e67924afe4a1"),
], ids=["2x2", "3x3"])
def test_reduce_certificate_files_pinned(tmp_path, capsys, matrix, cost,
                                         moves, digest):
    # a kernel rewrite may not change a certificate silently
    path = tmp_path / "cert.json"
    code, kv, rows = run(capsys, "reduce", "--matrix=" + matrix,
                         "--out", str(path))
    assert code == 0 and (kv["cost"], kv["moves"]) == (cost, moves)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest


def test_fill_loose_chain_file_exit_3(tmp_path, capsys):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(_LOOSE_CHAIN))
    assert main(["fill", "--cycle", str(path)]) == 3
    assert "input error" in capsys.readouterr().err


def test_fill_verify_container_shape_mismatch_exit_3(tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert main(["reduce", "--matrix=2,1;1,1", "--out", str(path)]) == 0
    capsys.readouterr()
    obj = json.loads(path.read_text())
    obj["ambient_dim"], obj["degree"] = 7, 5
    path.write_text(json.dumps(obj))
    assert main(["fill", "--verify", str(path)]) == 3
    captured = capsys.readouterr()
    assert "verified=" not in captured.out
    assert "input error" in captured.err and "Traceback" not in captured.err
    assert "ambient_dim 7, degree 5" in captured.err


def test_torsion(capsys):
    code, kv, rows = run(capsys, "torsion", "-m", "2,1;1,1", "--kmax", "5")
    assert code == 0
    assert rows[0].startswith("k=1 torsion=1")
    assert rows[1].startswith("k=2 torsion=5")
    assert kv["last_full_rank_k"] == "5"


def test_torsion_factors_of_non_cyclic_cokernels(capsys):
    # a quarter turn plus [[2, 1], [1, 1]]: coker(A^k - I) needs up to four
    # invariant factors, and A^k - I is singular for 4 | k
    code, kv, rows = run(capsys, "torsion", "-m",
                         "0,-1,0,0;1,0,0,0;0,0,2,1;0,0,1,1", "--kmax", "12")
    assert code == 0
    fields = [dict(f.split("=", 1) for f in row.split()) for row in rows]
    assert [f["factors"] for f in fields] == [
        "2", "2x10", "2x4x4", "3x15", "11x22", "2x2x8x40", "29x58", "21x105",
        "2x76x76", "110x550", "199x398", "144x720"]
    assert [f["torsion"] for f in fields] == [
        "2", "20", "32", "45", "242", "1280", "1682", "2205", "11552",
        "60500", "79202", "103680"]
    assert [k + 1 for k, f in enumerate(fields)
            if f["full_rank"] == "False"] == [4, 8, 12]
    assert kv["last_full_rank_k"] == "11"


def test_gelfand(capsys):
    code, kv, rows = run(capsys, "gelfand", "-m", "2,1;1,1", "--jmax", "2")
    assert code == 0
    assert abs(float(kv["tail"]) - 5 ** 0.5) < 1e-9


def test_fvupper(capsys):
    code, kv, rows = run(capsys, "fvupper", "-m", "1,1;0,1", "--jmax", "3")
    assert code == 0
    assert "k_hat_log2" in kv


def test_fvupper_pinned(capsys):
    code, kv, rows = run(capsys, "fvupper", "--matrix=2,1;1,1", "--jmax", "8")
    assert code == 0 and kv["k_hat_log2"] == "2.23948077663"


def test_fvupper_sl3_pinned(capsys):
    # the companion of x^3 - 3x^2 + x - 1, det 1
    code, kv, rows = run(capsys, "fvupper", "-m", "0,0,1;1,0,-1;0,1,3",
                         "--jmax", "6")
    assert code == 0 and kv["k_hat_log2"] == "14.411250739"
    assert [row.split()[1] for row in rows] == [
        "cost=32", "cost=52", "cost=64", "cost=72", "cost=128", "cost=132"]


def test_psl2z_family(capsys):
    code, kv, rows = run(capsys, "psl2z", "--family", "1", "--power", "2")
    assert code == 0
    assert kv["length_cyc"] == "8"
    assert kv["delta_lower"] == "8*kappa"
    assert kv["delta_upper"] == "10"  # j(i+1)+6 with i=1, j=2


def test_psl2z_matrix(capsys):
    code, kv, rows = run(capsys, "psl2z", "-m", "0,-1;1,0")
    assert code == 0
    assert kv["word"] == "S"


@pytest.mark.parametrize("argv, honest", [
    (["psl2z", "-m", "2,1;1,1"], 0),
    (["psl2z", "-m", "2,1;1,1", "--power", "3"], 1),
], ids=["decompose", "word_power"])
def test_psl2z_verification_failure_exit_2(monkeypatch, capsys, argv, honest):
    # the first `honest` reductions are left alone, so the power case reaches
    # word_power's own check; a dropped letter must be refused with exit 2
    # before any word is printed
    reduce = psl2z._reduce
    calls = []

    def dropping(letters):
        calls.append(letters)
        out = reduce(letters)
        return out if len(calls) <= honest else out[:-1]

    monkeypatch.setattr(psl2z, "_reduce", dropping)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "verification failure" in captured.err
    assert "word=" not in captured.out and "Traceback" not in captured.err
    assert len(calls) == honest + 1


@pytest.mark.parametrize("argv", [
    ["psl2z", "-m", "1,1000000000000;0,1"],
    ["psl2z", "-m", "1,-1000000000000;0,1"],
    ["psl2z", "--family", "1000000000000"],
    ["psl2z", "--family", "1", "--power", "1000000000000"],
], ids=["t-power", "t-inverse-power", "family", "word-power"])
def test_a_word_over_the_letter_cap_exit_3(capsys, argv):
    # each word would have 2 * 10^12 letters or more; the count says so
    # before any list is repeated or any matrix power is taken
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: the %s would have more than 10000000"
                            " letters\n" % ("power 1000000000000"
                                             if "--power" in argv
                                             else "decomposition"))


def test_input_errors_exit_3(tmp_path, capsys):
    assert main(["bounds", "-m", "2,x;1,1"]) == 3
    capsys.readouterr()
    assert main(["bounds"]) == 3
    capsys.readouterr()
    assert main(["reduce", "-m", "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"]) == 3
    capsys.readouterr()
    # a ragged matrix names the text it refused, as every other bad matrix does
    assert main(["bounds", "-m", "2,1;1"]) == 3
    assert "bad inline matrix '2,1;1': ragged rows" in capsys.readouterr().err
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("2 1\n1\n")
    assert main(["bounds", "--matrix-file", str(ragged)]) == 3
    assert "bad matrix file: ragged rows" in capsys.readouterr().err


def test_matrix_file_not_utf8_exit_3(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_bytes(b"\xff\xfe1 2\n3 4\n")
    assert main(["bounds", "--matrix-file", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert len(captured.err.splitlines()) == 1


_UNDER_ASCII_LOCALE = textwrap.dedent("""
    import json, sys
    from torfill.cli import main
    matrix, cert = sys.argv[1:]
    code = main(["reduce", "--matrix-file", matrix, "--out", cert])
    with open(cert, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["trace"][0]["kind"] = "\\u03c1"
    with open(cert, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, ensure_ascii=False)
    print("codes=%d,%d" % (code, main(["fill", "--verify", cert])))
""")


def test_files_are_read_as_utf8_under_any_locale(tmp_path):
    # under an ASCII locale, open() without an encoding would refuse the
    # UTF-8 comment and trace kind that a UTF-8 locale reads
    matrix = tmp_path / "m.txt"
    matrix.write_bytes("# \u03c1 = 2.618\n2 1\n1 1\n".encode())
    env = _cli_env(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    proc = subprocess.run([sys.executable, "-c", _UNDER_ASCII_LOCALE,
                           str(matrix), str(tmp_path / "cert.json")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "codes=0,0", proc.stdout


_DIGIT_LIMIT = ("input error: a result has more than %d digits, the limit for"
                " printing an integer" % sys.get_int_max_str_digits())


@pytest.mark.parametrize("argv", [
    # N I with N = 10^1500 - 1: the charpoly coefficient N^3 has 4500 digits,
    # and n=3 comes before it
    ["bounds", "-m", "{0},0,0;0,{0},0;0,0,{0}".format("9" * 1500)],
    # row k=1 holds N - 1, 2200 digits; row k=2 would hold N^2 - 1
    ["torsion", "-m", "%s,0;0,2" % ("9" * 2200), "--kmax", "2"],
], ids=["bounds", "torsion"])
def test_results_beyond_the_printable_digits_exit_3(capsys, argv):
    # what was formatted before the limit hit is not printed
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [_DIGIT_LIMIT]
    assert captured.out == ""


def test_a_verification_failure_part_way_leaves_stdout_empty(monkeypatch,
                                                             capsys):
    def fail(args):
        cli._emit("n", 2)
        raise VerificationFailure("witness boundary differs")

    monkeypatch.setitem(cli._COMMANDS, "bounds", fail)
    assert main(["bounds", "-m", "2,1;1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "verification failure: witness boundary differs"]


def test_other_value_errors_are_not_swallowed(monkeypatch, capsys):
    def fail(args):
        raise ValueError("not a digit limit")

    monkeypatch.setitem(cli._COMMANDS, "bounds", fail)
    with pytest.raises(ValueError, match="not a digit limit"):
        main(["bounds", "-m", "2,1;1,1"])


@pytest.mark.parametrize("argv", [
    ["gelfand", "-m", "2,1;1,1", "--jmax", "0"],
    ["torsion", "-m", "2,1;1,1", "--kmax", "0"],
    ["fvupper", "-m", "2,1;1,1", "--jmax", "0"],
    ["psl2z", "--family", "0"],
    ["psl2z", "--family", "2", "--power", "-3"],
    ["fill", "--cycle", "z.json", "--box", "-1"],
    ["fill", "--cycle", "z.json", "--max-expand", "-1"],
    ["fill", "--cycle", "z.json", "--box", "5", "--max-expand", "3"],
    ["fill", "--cycle", "z.json", "--box", "4"],
])
def test_out_of_range_counts_exit_3(capsys, argv):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and "Traceback" not in captured.err


def _flip_first_witness_coeff(path):
    obj = json.loads(path.read_text())
    term = obj["witness"]["terms"][0]
    term["coeff"] = str(-int(term["coeff"]))
    path.write_text(json.dumps(obj))


def _other_keys_certificate(path):
    shutil.copyfile(path.parent / "split_2.json", path)


def _missing_file(path):
    path.unlink()


# (base file, a matrix whose reduction loads it, the key the error names):
# a det +-1 2x2 matrix takes the column walk of DEHN chunks, and any other
# determinant ends in rect_to_unit, which halves by DOUBLE_HALVE
_LOADED_BASES = [("dehn_1.json", "2,1;1,1", "('DEHN', 1)"),
                 ("double_halve.json", "2,0;0,3", "('DOUBLE_HALVE',)")]


@pytest.mark.parametrize("tamper", [_flip_first_witness_coeff,
                                    _other_keys_certificate, _missing_file])
def test_bad_base_certificate_exit_2(tmp_path, monkeypatch, capsys, tamper):
    shipped = base.TABLE_DIR
    for name, matrix, key in _LOADED_BASES:
        table = tmp_path / name / "base_table"
        shutil.copytree(shipped, table)
        tamper(table / name)
        monkeypatch.setattr(base, "TABLE_DIR", table)
        base.base_certificate.cache_clear()
        lifted.cache_clear()  # lifted witnesses are memoised per process
        try:
            assert main(["reduce", "--matrix=" + matrix]) == 2, name
        finally:
            base.base_certificate.cache_clear()
            lifted.cache_clear()
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err, name


def test_reduce_verification_failure_exit_2(monkeypatch, capsys):
    # one wrong coefficient in the assembled witness: reduce's own exact
    # check must refuse it with exit 2, not print verified=True
    assemble = Piece.assemble

    def tampered(self):
        witness, records = assemble(self)
        terms = dict(witness.terms)
        simplex = next(iter(terms))
        terms[simplex] = -terms[simplex]
        return TorusChain(witness.ambient_dim, witness.degree, terms), records

    monkeypatch.setattr(Piece, "assemble", tampered)
    assert main(["reduce", "--matrix=2,1;1,1"]) == 2
    captured = capsys.readouterr()
    assert "verification failure" in captured.err
    assert "Traceback" not in captured.err and "verified=" not in captured.out


_UNDER_O = textwrap.dedent("""
    import sys
    from torfill.cli import main
    from torfill.errors import VerificationFailure
    from torfill.exactlinalg import (HnfResult, IntMatrix, SnfResult,
                                     _verify_hnf, _verify_snf, snf)
    from torfill.filling import base
    from torfill.filling.moves import move_split
    from torfill.spectral import poly_div_exact

    assert False, "python -O strips plain asserts"
    res = snf(IntMatrix(((2, 4), (6, 8))))
    try:
        _verify_snf(res._replace(d=IntMatrix(((1, 0), (0, 8)))))
    except VerificationFailure:
        print("tampered SNF refused")
    two, one = IntMatrix(((2, 0), (0, 2))), IntMatrix.identity(2)
    try:
        _verify_snf(SnfResult(two, one, two, one))  # det P = 4
    except VerificationFailure:
        print("non-unimodular SNF refused")
    try:
        _verify_hnf(IntMatrix(((0,),)), HnfResult(IntMatrix(((0,),)),
                                                  IntMatrix(((2,),)), ()))
    except VerificationFailure:
        print("non-unimodular HNF refused")
    # a SPLIT presentation of class 2 e1^e2, not 0, after the shipped
    # certificate was loaded against the true one: the per-(key, d) check
    # refuses it
    key = ("SPLIT", 2)
    base.base_certificate(key)
    true = base._PRESENTATIONS[key]
    base._PRESENTATIONS[key] = ((1, ((1, 0, 0), (0, 1, 1))),
                                (1, ((1, 0, 0), (0, 1, 0))),
                                (-1, ((1, 0, 0), (0, 0, 1))))
    try:
        move_split(((1, 0), (0, 2)), 1, (0, 1), (0, 1)).assemble()
    except VerificationFailure as exc:
        if "class" in str(exc):
            print("class sum refused")
    base._PRESENTATIONS[key] = true
    try:
        poly_div_exact((1, 0, 1), (1, -1))  # x - 1 does not divide x^2 + 1
    except VerificationFailure:
        print("inexact division refused")
    try:
        move_split(((1, 0), (0, 3)), 1, (0, 1), (0, 1))  # 1 + 1 != 3
    except VerificationFailure:
        print("split parts refused")
    sys.exit(main(["reduce", "--matrix=2,1;1,1"]))
""")


def test_proof_checks_survive_python_O():
    proc = subprocess.run([sys.executable, "-O", "-c", _UNDER_O],
                          env=_cli_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:6] == ["tampered SNF refused", "non-unimodular SNF refused",
                         "non-unimodular HNF refused", "class sum refused",
                         "inexact division refused", "split parts refused"]
    assert "verified=True" in lines


_NO_SCIPY = textwrap.dedent("""
    import sys
    from torfill.cli import main
    codes = (main(["reduce", "--matrix=2,1;1,1", "--out", sys.argv[1]]),
             main(["fill", "--verify", sys.argv[1]]))
    print("codes=%d,%d scipy=%s" % (codes + ("scipy" in sys.modules,)))
""")


def test_runtime_does_not_import_scipy(tmp_path):
    # scipy is only for the offline table tool, never for torfill itself
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, str(tmp_path / "cert.json")],
        env=_cli_env(), capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "codes=0,0 scipy=False"


_NO_MPMATH = textwrap.dedent("""
    import sys
    import torfill.cli, torfill.spectral
    code = torfill.cli.main(["bounds", "--stats", "-m", "1,1,1;1,0,0;0,1,0"])
    print("code=%d mpmath=%s" % (code, "mpmath" in sys.modules))
""")


def test_runtime_does_not_import_mpmath():
    # roots are certified in integers; mpmath is no dependency of torfill
    proc = subprocess.run(
        [sys.executable, "-c", _NO_MPMATH],
        env=_cli_env(), capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "code=0 mpmath=False"


_STARTUP = textwrap.dedent("""
    import sys
    sys.path.insert(0, sys.argv[1])
    from probe import import_torfill
    import_torfill(sys.argv[2])
    loaded = set(sys.modules)
    from tracing import KERNELS, SPANS
    print(" ".join(m for m in ("dataclasses", "inspect", "fractions", "decimal")
                   if m in loaded))
    print(" ".join(sorted({module for module, _ in list(SPANS) + list(KERNELS)}
                          - loaded)))
""")


def test_startup_imports_no_dataclasses_or_fractions():
    # every command is a fresh process: the set-up probe's imports load
    # neither dataclasses (with inspect) nor fractions (with decimal), and
    # every module the tracer wraps, so that a traced run finds them
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP, str(root / "perfbench"),
         str(root / "src")], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n\n"


def _tampered_certificate(tmp_path, capsys):
    """A certificate file whose first trace cost was raised by 1000, which
    `fill --verify` rejects with exit 2."""
    path = tmp_path / "cert.json"
    assert main(["reduce", "--matrix=2,1;1,1", "--out", str(path)]) == 0
    capsys.readouterr()
    obj = json.loads(path.read_text())
    obj["trace"][0]["cost"] = str(int(obj["trace"][0]["cost"]) + 1000)
    path.write_text(json.dumps(obj))
    return path


def test_closed_stdout_ends_quietly_with_exit_0():
    # `torfill torsion ... | head -1`: the reader stops after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "torfill.cli", "torsion", "-m", "2,1;1,1",
         "--kmax", "3000"], env=_cli_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=300)
    assert first.startswith(b"row k=1 torsion=1 ")
    assert (code, err) == (0, b"")


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_keeps_the_exit_code_of_a_failed_verify(
        tmp_path, capsys, unbuffered):
    # `torfill fill --verify bad.json | true`: the reader leaves before the
    # first line is read, and the rejection must still end with exit 2, when
    # the pipe breaks at the final flush and when it breaks at the first write
    path = _tampered_certificate(tmp_path, capsys)
    proc = subprocess.Popen(
        [sys.executable, "-m", "torfill.cli", "fill", "--verify", str(path)],
        env=_cli_env(PYTHONUNBUFFERED=unbuffered),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with proc:
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=300)
    assert code == 2
    assert b"verification diagnostics: trace costs sum to" in err
    assert b"Traceback" not in err


@pytest.mark.parametrize("case", ["input error", "failed verify",
                                  "usage error"])
def test_closed_stderr_keeps_the_exit_code(tmp_path, capsys, case):
    # `torfill ... 2>&1 | true`: stderr is a pipe whose reader has left
    # before the command starts, so its first message breaks the pipe
    argv, code, out = {
        "input error": (["reduce", "-m", "1,2;3"], 3, b""),
        "failed verify": (["fill", "--verify",
                           str(_tampered_certificate(tmp_path, capsys))], 2,
                          b"verified=False"),
        "usage error": (["bounds"], 3, b""),
    }[case]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "torfill.cli", *argv],
                              env=_cli_env(), stdout=subprocess.PIPE,
                              stderr=write_end, timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert out in proc.stdout


@pytest.mark.parametrize("case", ["stdout of a success",
                                  "stderr of an input error",
                                  "stdout of a failed verify"])
def test_a_stream_closed_before_the_start_keeps_the_exit_code(tmp_path, capsys,
                                                              case):
    # `torfill ... >&-`: the interpreter starts with that stream closed
    argv, code, redirect = {
        "stdout of a success": (["psl2z", "--family", "1"], 0, ">&-"),
        "stderr of an input error": (["reduce", "-m", "1,2;3"], 3, "2>&-"),
        "stdout of a failed verify": (
            ["fill", "--verify", str(_tampered_certificate(tmp_path, capsys))],
            2, ">&-"),
    }[case]
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" ' + redirect, "sh", sys.executable, "-m",
         "torfill.cli", *argv], env=_cli_env(), capture_output=True,
        timeout=300)
    assert proc.returncode == code
    assert b"Traceback" not in proc.stdout + proc.stderr


def _fill_under_a_memory_limit(tmp_path, *options):
    """`fill --cycle` on Q(2 e1) - 2 Q(e1) in T^2, which fills in box 1, in a
    subprocess limited to 1 GB of address space: an enumeration built
    before it is counted fails there instead of filling the host."""
    z = presentation_chain(2, 1, ((1, ((2, 0),)), (-2, ((1, 0),))))
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(v2_chain_obj(z)))
    return subprocess.run(
        ["sh", "-c", 'ulimit -v 1000000 && exec "$@"', "sh", sys.executable,
         "-m", "torfill.cli", "fill", "--cycle", str(path), *options],
        env=_cli_env(), capture_output=True, text=True, timeout=300)


def test_fill_counts_each_box_before_it_builds_it(tmp_path):
    # the first box fills, so a huge --max-expand changes nothing
    small = _fill_under_a_memory_limit(tmp_path, "--max-expand", "3")
    huge = _fill_under_a_memory_limit(tmp_path, "--max-expand", "1000000000")
    assert small.returncode == huge.returncode == 0
    assert huge.stdout == small.stdout == "cost=7\nwitness_simplices=5\n"
    assert huge.stderr == ""


def test_fill_stops_at_the_first_box_over_the_cap(tmp_path):
    proc = _fill_under_a_memory_limit(tmp_path, "--box", "100000",
                                      "--max-expand", "100000")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("verification failure: box 100000 would enumerate"
                           " %d vertex tuples\n" % math.perm(100001 ** 2, 3))


def test_a_full_disk_is_not_taken_for_a_closed_stream():
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    with pytest.raises(OSError, match="No space left"):
        cli._deliver(Full(), "n=2\n")


def test_output_digest_covers_every_group():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "tools" / "output_digest.py")],
        env=_cli_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    counts = [line.split()[:2] for line in proc.stdout.splitlines()]
    assert counts == [["group=round_trip", "calls=400"],
                      ["group=reduce_3x3", "calls=50"],
                      ["group=reduce_trace", "calls=3"],
                      ["group=fvupper", "calls=3"],
                      ["group=bounds", "calls=280"],
                      ["group=fill", "calls=74"],
                      ["group=failing", "calls=9"]]


def test_selftest_quick_smoke(tmp_path, monkeypatch, capsys):
    # the full quick suite runs in the acceptance module; here make sure the
    # command works end to end on the cheapest criteria by running it whole,
    # and that it leaves nothing in the temporary directory
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    code = main(["selftest", "--level", "quick"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") >= 10
    assert list(scratch.iterdir()) == []


def test_selftest_reports_every_criterion_when_a_library_call_raises(
        monkeypatch, capsys):
    # an empty walk fails reduce_parallelogram's own exact check, so every
    # reduction raises: criterion 1 must report that as a FAIL naming the
    # matrix, and the suite must go on and print the other nine verdicts
    monkeypatch.setattr(reduction, "_column_walk",
                        lambda gens, det: Piece.zero(len(gens), len(gens)))
    # the cold DEHN/3 solve is most of a quick run and plays no part here
    monkeypatch.setattr(selftest, "BASE_KEYS",
                        tuple(k for k in base.BASE_KEYS if k != ("DEHN", 3)))
    code = main(["selftest"])
    verdicts = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith(("PASS ", "FAIL "))]
    assert code == 2
    assert len(verdicts) == 10
    first = selftest.random_sl2_word(selftest.random.Random(12001))
    assert verdicts[0].startswith("FAIL reduction_exactness")
    assert repr(first.data) in verdicts[0]
    # fv_upper_experiment names the power whose reduction raised
    assert verdicts[9].startswith("FAIL bounds_consistency")
    assert "A^1" in verdicts[9]


def test_selftest_cost_scaling_fails_without_reduction_data(monkeypatch):
    monkeypatch.setattr(selftest, "verify_certificate",
                        lambda cert: (False, "tampered"))
    data = []
    first = selftest.criterion_reduction_exactness(data, "quick")
    assert not first.passed and first.detail.startswith("failure: tampered")
    assert data == []
    result = selftest.criterion_cost_scaling(data, "quick")
    assert (result.name, result.passed) == ("cost_scaling", False)
    assert "no (log2 norm, cost) data" in result.detail


def test_selftest_criterion_reports_a_raising_library_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise Unfillable("no filling within the box")

    monkeypatch.setattr(selftest, "fill_by_solve", refuse)
    result = selftest.criterion_base_bootstrap("quick")
    assert (result.name, result.passed, result.detail) == (
        "base_bootstrap", False, "no filling within the box")

    # only package errors are verdicts: a programming error still raises
    def broken(*args, **kwargs):
        raise ZeroDivisionError("a bug")

    monkeypatch.setattr(selftest, "fill_by_solve", broken)
    with pytest.raises(ZeroDivisionError):
        selftest.criterion_base_bootstrap("quick")
