"""Command-line surface: dispatch, formats, exit codes, round trips."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest

from torfill.chains import TorusChain, faces
from torfill.cli import build_parser, main
from torfill.filling import base
from torfill.filling.certificate import Piece, lifted
from torfill.formats import load_certificate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    kv = dict(line.split("=", 1) for line in out.splitlines()
              if "=" in line and not line.startswith("row "))
    rows = [line[4:] for line in out.splitlines() if line.startswith("row ")]
    return code, kv, rows


def test_bounds(capsys):
    code, kv, rows = run(capsys, "bounds", "-m", "2,1;1,1")
    assert code == 0
    assert abs(float(kv["rho"]) - 2.618033988749895) < 1e-9
    assert abs(float(kv["fv_lower_ln"]) - 0.2921) < 5e-4
    assert kv["unit_root_flag"] == "False"
    assert kv["charpoly"] == "1,-3,1"


def test_bounds_unit_circle(capsys):
    code, kv, rows = run(capsys, "bounds", "-m", "0,-1;1,0")
    assert code == 0
    assert kv["unit_root_flag"] == "True"
    assert float(kv["fv_lower_ln"]) == 0.0


def test_bounds_singular_matrix(capsys):
    # x^3 - 3x^2: the zero root keeps its multiplicity 2 through the division
    code, kv, rows = run(capsys, "bounds", "-m", "3,0,0;0,0,0;0,0,0")
    assert code == 0
    assert kv["entropy_ln"] == kv["ln_rho"] == "1.09861228867"
    assert rows == ["root_0 3+0i mult=1 radius=0 circle=False",
                    "root_1 0+0i mult=2 radius=0 circle=False"]


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
    from torfill.formats import chain_to_obj
    z = (parallelogram_cycle([(1, 0), (0, 1)])
         + parallelogram_cycle([(-1, 0), (0, 1)]))
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(chain_to_obj(z)))
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
    from torfill.formats import chain_to_obj
    z = parallelogram_cycle([(1, 0), (0, 1)])  # fundamental class
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(chain_to_obj(z)))
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
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    fresh = [json.loads(subprocess.run(
        [sys.executable, "-c", _ONE_CALL, json.dumps(argv)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=300, check=True).stdout) for argv in calls]
    assert [code for code, _, _ in same_process] == [3, 0, 0, 0]
    assert same_process == fresh
    assert build_parser() is build_parser()


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
    ("trace.params", None),
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
    cert, _ = load_certificate(path)
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
    ("2,1;1,1", "27", "14", "05d5937b163e8a25"),
    ("3,-1,-5;5,3,-4;-1,0,1", "2068", "313", "8ec4e53440a1da7b"),
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
    assert code == 0 and kv["k_hat_log2"] == "123.768561978"


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


def test_input_errors_exit_3(capsys):
    assert main(["bounds", "-m", "2,x;1,1"]) == 3
    capsys.readouterr()
    assert main(["bounds"]) == 3
    capsys.readouterr()
    assert main(["reduce", "-m", "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"]) == 3
    capsys.readouterr()


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


@pytest.mark.parametrize("tamper", [_flip_first_witness_coeff,
                                    _other_keys_certificate, _missing_file])
def test_bad_base_certificate_exit_2(tmp_path, monkeypatch, capsys, tamper):
    table = tmp_path / "base_table"
    shutil.copytree(base.TABLE_DIR, table)
    tamper(table / "negate_2.json")
    monkeypatch.setattr(base, "TABLE_DIR", table)
    base.base_certificate.cache_clear()
    lifted.cache_clear()  # lifted base witnesses are memoised per process too
    try:
        assert main(["reduce", "--matrix=2,1;1,1"]) == 2
    finally:
        base.base_certificate.cache_clear()
        lifted.cache_clear()
    err = capsys.readouterr().err
    assert "('NEGATE', 2)" in err and "Traceback" not in err


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
    from dataclasses import replace
    from torfill.cli import main
    from torfill.errors import VerificationFailure
    from torfill.exactlinalg import IntMatrix, _verify_snf, snf
    from torfill.filling import base
    from torfill.filling.moves import move_negate, move_split
    from torfill.spectral import poly_div_exact

    assert False, "python -O strips plain asserts"
    res = snf(IntMatrix(((2, 4), (6, 8))))
    try:
        _verify_snf(replace(res, d=IntMatrix(((1, 0), (0, 8)))))
    except VerificationFailure:
        print("tampered SNF refused")
    # a NEGATE presentation of class 2, not 0, after the shipped certificate
    # was loaded against the true one: the per-(key, d) check refuses it
    key = ("NEGATE", 2)
    base.base_certificate(key)
    true = base._PRESENTATIONS[key]
    base._PRESENTATIONS[key] = ((1, ((1, 0), (0, 1))), (1, ((1, 0), (0, 1))))
    try:
        move_negate(((1, 0), (0, 1)), 0).assemble()
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
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", _UNDER_O],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:4] == ["tampered SNF refused", "class sum refused",
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
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, str(tmp_path / "cert.json")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "codes=0,0 scipy=False"


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
