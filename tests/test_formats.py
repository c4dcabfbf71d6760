"""Serialization round-trips: matrices, chains, certificate containers."""

import io
import json
import sys

import pytest

from torfill import formats
from torfill.chains import TorusChain, parallelogram_cycle
from torfill.cli import main
from torfill.errors import InputParseError
from torfill.exactlinalg import IntMatrix
from torfill.filling import BASE_KEYS, base_certificate, reduce_parallelogram
from torfill.formats import (chain_to_obj, load_certificate,
                             obj_to_certificate, obj_to_chain,
                             parse_matrix_inline, parse_matrix_text,
                             save_certificate, write_certificate)


# --- reference layouts --------------------------------------------------------

# version 1: every record spells out its vertices; its files were
# json.dump(obj, indent=1, sort_keys=True) and a newline

def v1_chain_obj(c):
    return {"ambient_dim": c.ambient_dim, "degree": c.degree, "terms": [
        {"coeff": str(coeff), "vertices": [[str(x) for x in v] for v in simplex]}
        for simplex, coeff in sorted(c.terms.items())]}


def _ints_to_strings(value):
    if isinstance(value, int):
        return str(value)
    return [_ints_to_strings(v) for v in value]


def v1_certificate_obj(cert, trace=()):
    return {
        "version": 1,
        "ambient_dim": cert.target.ambient_dim,
        "degree": cert.target.degree,
        "target": v1_chain_obj(cert.target),
        "witness": v1_chain_obj(cert.witness),
        "cost": str(cert.cost),
        "trace": [{"kind": r.kind, "params": _ints_to_strings(r.params),
                   "cost": str(r.cost),
                   "class_delta": [str(x) for x in r.class_delta]}
                  for r in trace],
    }


def v1_text(obj):
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


# version 2: each distinct vertex once, in order of first use over the sorted
# simplices, and each record's vertices as indices into that table; its files
# are json.dumps(obj, sort_keys=True) and a newline

def v2_chain_obj(c):
    terms = v1_chain_obj(c)["terms"]
    points = list(dict.fromkeys(tuple(v) for r in terms for v in r["vertices"]))
    position = {p: i for i, p in enumerate(points)}
    return {"ambient_dim": c.ambient_dim, "degree": c.degree,
            "points": [list(p) for p in points],
            "terms": [{"coeff": r["coeff"], "vertices": [
                position[tuple(v)] for v in r["vertices"]]} for r in terms]}


def v2_certificate_obj(cert, trace=()):
    return dict(v1_certificate_obj(cert, trace), version=2,
                target=v2_chain_obj(cert.target),
                witness=v2_chain_obj(cert.witness))


def v2_text(obj):
    return json.dumps(obj, sort_keys=True) + "\n"


def test_matrix_inline_and_text():
    a = parse_matrix_inline("2,1;1,1")
    assert a.data == ((2, 1), (1, 1))
    b = parse_matrix_text("2 1\n1 1")
    assert b.data == a.data
    with pytest.raises(InputParseError):
        parse_matrix_inline("2,x;1,1")
    with pytest.raises(InputParseError):
        parse_matrix_text("")


def test_chain_round_trip_big_integers():
    big = 10 ** 40 + 7
    z = parallelogram_cycle([(big, 1), (1, 2)])
    again = obj_to_chain(chain_to_obj(z))
    assert again == z


def test_chain_rejects_non_canonical():
    obj = {"ambient_dim": 1, "degree": 1,
           "terms": [{"coeff": "1", "vertices": [["3"], ["4"]]}]}
    with pytest.raises(InputParseError):
        obj_to_chain(obj)


def test_certificate_round_trip(tmp_path):
    cert = base_certificate(("DOUBLE_HALVE",))
    path = tmp_path / "cert.json"
    save_certificate(path, cert, trace=())
    loaded, trace = load_certificate(path)
    assert loaded.target == cert.target
    assert loaded.witness == cert.witness
    assert loaded.cost == cert.cost
    assert trace == ()


def test_failed_save_leaves_old_file(tmp_path, monkeypatch):
    cert = base_certificate(("DOUBLE_HALVE",))
    path = tmp_path / "cert.json"
    save_certificate(path, cert)
    before = path.read_bytes()
    write = formats.write_certificate

    def partial_write(fh, cert, trace=()):
        buf = io.StringIO()
        write(buf, cert, trace)
        fh.write(buf.getvalue()[:100])
        raise OSError("disk full")

    monkeypatch.setattr(formats, "write_certificate", partial_write)
    with pytest.raises(OSError):
        save_certificate(path, base_certificate(("SPLIT", 2)))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cert.json"]


def test_certificate_trace_round_trip():
    rep = reduce_parallelogram(IntMatrix(((2, 1), (1, 1))))
    obj = v1_certificate_obj(rep.certificate, rep.trace)
    cert2, trace2 = obj_to_certificate(obj)
    assert cert2.cost == rep.cost
    assert len(trace2) == len(rep.trace)
    assert [r.kind for r in trace2] == [r.kind for r in rep.trace]
    assert [r.cost for r in trace2] == [r.cost for r in rep.trace]


def test_bad_certificate_object():
    with pytest.raises(InputParseError):
        obj_to_certificate({"version": 99})


def test_deeply_nested_trace_params_input_error():
    # json.load's depth limit shrinks with the caller's stack, so a file can
    # load whose trace params are nested deeper than the reader can recurse
    rep = reduce_parallelogram(IntMatrix(((2, 1), (1, 1))))
    sink = io.StringIO()
    write_certificate(sink, rep.certificate, rep.trace)
    obj = json.loads(sink.getvalue())
    params = []
    for _ in range(sys.getrecursionlimit()):
        params = [params]
    obj["trace"][0]["params"] = params
    with pytest.raises(InputParseError, match="recursion"):
        obj_to_certificate(obj)


# --- the writer against the reference layouts ---------------------------------

def _reduced(rows):
    rep = reduce_parallelogram(IntMatrix(rows))
    return rep.certificate, rep.trace


def _same_certificate(loaded, cert, trace):
    got, got_trace = loaded
    assert (got.target, got.witness, got.cost) == (cert.target, cert.witness,
                                                   cert.cost)
    assert got_trace == tuple(trace)


@pytest.mark.parametrize("make", [
    *[lambda key=key: (base_certificate(key), ()) for key in BASE_KEYS],
    lambda: _reduced(((2, 1), (1, 1))),
    lambda: _reduced(((3, -1, -5), (5, 3, -4), (-1, 0, 1))),
], ids=["/".join(map(str, k)) for k in BASE_KEYS] + ["2x2", "3x3-negative"])
def test_certificate_writer_matches_reference(tmp_path, make):
    cert, trace = make()
    want = v2_text(v2_certificate_obj(cert, trace))
    path = tmp_path / "out.json"
    save_certificate(path, cert, trace)
    assert path.read_text() == want
    buf = io.StringIO()
    write_certificate(buf, cert, trace)
    assert buf.getvalue() == want
    _same_certificate(load_certificate(path), cert, trace)
    # the version-1 file of the same certificate loads to the same one
    path.write_text(v1_text(v1_certificate_obj(cert, trace)))
    _same_certificate(load_certificate(path), cert, trace)


@pytest.mark.parametrize("make", [
    lambda: base_certificate(("REARR", 2)).target,  # the empty chain
    lambda: parallelogram_cycle([(10 ** 40 + 7, 1), (1, 2)]),
    lambda: TorusChain(0, 1, {((), ()): 1}),  # vertices with no coordinate
], ids=["empty", "big-coordinate", "T^0"])
def test_chain_writer_matches_reference(make):
    chain = make()
    obj = chain_to_obj(chain)
    assert obj == v2_chain_obj(chain)
    assert obj_to_chain(json.loads(v2_text(obj))) == chain
    assert obj_to_chain(json.loads(v1_text(v1_chain_obj(chain)))) == chain


def test_version_1_files_load_and_verify(tmp_path, capsys):
    rep = reduce_parallelogram(IntMatrix(((2, 1), (1, 1))))
    cert_path, cycle_path = tmp_path / "cert.json", tmp_path / "cycle.json"
    cert_path.write_text(v1_text(v1_certificate_obj(rep.certificate,
                                                    rep.trace)))
    # null-homologous with a small-box witness: Q(e1,e2) + Q(-e1,e2)
    z = (parallelogram_cycle([(1, 0), (0, 1)])
         + parallelogram_cycle([(-1, 0), (0, 1)]))
    cycle_path.write_text(v1_text(v1_chain_obj(z)))
    assert main(["fill", "--verify", str(cert_path)]) == 0
    assert main(["fill", "--cycle", str(cycle_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["cost=%d" % rep.cost, "verified=True"]
