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
from torfill.filling import (BASE_KEYS, FillingCertificate, base_certificate,
                             reduce_parallelogram)
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


# trace records were {kind, params, cost, class_delta} in version 1 files and
# in version 2 files written before records became {kind, cost}; the reader
# checks the legacy fields' integers and drops them
LEGACY_FIELDS = {"params": ["1", [["2", "1"], ["1", "1"]], ["1", "0"]],
                 "class_delta": ["0"]}


def record_obj(r, legacy=False):
    return dict({"cost": str(r.cost), "kind": r.kind},
                **(LEGACY_FIELDS if legacy else {}))


def v1_certificate_obj(cert):
    return {
        "version": 1,
        "ambient_dim": cert.target.ambient_dim,
        "degree": cert.target.degree,
        "target": v1_chain_obj(cert.target),
        "witness": v1_chain_obj(cert.witness),
        "cost": str(cert.cost),
        "trace": [record_obj(r, legacy=True) for r in cert.trace],
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


def v2_certificate_obj(cert):
    return dict(v1_certificate_obj(cert), version=2,
                target=v2_chain_obj(cert.target),
                witness=v2_chain_obj(cert.witness),
                trace=[record_obj(r) for r in cert.trace])


def v2_text(obj):
    return json.dumps(obj, sort_keys=True) + "\n"


def test_matrix_inline_and_text():
    a = parse_matrix_inline("2,1;1,1")
    assert a.data == ((2, 1), (1, 1))
    assert parse_matrix_inline(" 2, 1; 1 ,1 ").data == a.data
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
    save_certificate(path, cert)
    loaded = load_certificate(path)
    assert loaded.target == cert.target
    assert loaded.witness == cert.witness
    assert loaded.cost == cert.cost
    assert loaded.trace == ()


def test_failed_save_leaves_old_file(tmp_path, monkeypatch):
    cert = base_certificate(("DOUBLE_HALVE",))
    path = tmp_path / "cert.json"
    save_certificate(path, cert)
    before = path.read_bytes()
    write = formats.write_certificate

    def partial_write(fh, cert):
        buf = io.StringIO()
        write(buf, cert)
        fh.write(buf.getvalue()[:100])
        raise OSError("disk full")

    monkeypatch.setattr(formats, "write_certificate", partial_write)
    with pytest.raises(OSError):
        save_certificate(path, base_certificate(("SPLIT", 2)))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cert.json"]


def test_certificate_trace_round_trip():
    cert = reduce_parallelogram(IntMatrix(((2, 1), (1, 1)))).certificate
    cert2 = obj_to_certificate(v1_certificate_obj(cert))
    assert cert2.cost == cert.cost
    assert len(cert2.trace) == len(cert.trace)
    assert [r.kind for r in cert2.trace] == [r.kind for r in cert.trace]
    assert [r.cost for r in cert2.trace] == [r.cost for r in cert.trace]


def test_bad_certificate_object():
    with pytest.raises(InputParseError):
        obj_to_certificate({"version": 99})


def test_deeply_nested_trace_params_input_error():
    # json.load's depth limit shrinks with the caller's stack, so a file can
    # load whose trace params are nested deeper than the reader can recurse
    rep = reduce_parallelogram(IntMatrix(((2, 1), (1, 1))))
    sink = io.StringIO()
    write_certificate(sink, rep.certificate)
    obj = json.loads(sink.getvalue())
    params = []
    for _ in range(sys.getrecursionlimit()):
        params = [params]
    obj["trace"][0]["params"] = params
    with pytest.raises(InputParseError, match="recursion"):
        obj_to_certificate(obj)


# --- the writer against the reference layouts ---------------------------------

def _reduced(rows):
    return reduce_parallelogram(IntMatrix(rows)).certificate


def _same_certificate(got, cert):
    assert (got.target, got.witness, got.cost) == (cert.target, cert.witness,
                                                   cert.cost)
    assert got.trace == cert.trace


@pytest.mark.parametrize("make", [
    *[lambda key=key: base_certificate(key) for key in BASE_KEYS],
    lambda: _reduced(((2, 1), (1, 1))),
    lambda: _reduced(((3, -1, -5), (5, 3, -4), (-1, 0, 1))),
    lambda: FillingCertificate.build(TorusChain.zero(2, 2),
                                     TorusChain.zero(2, 3)),
], ids=["/".join(map(str, k)) for k in BASE_KEYS]
    + ["2x2", "3x3-negative", "empty"])
def test_certificate_writer_matches_reference(tmp_path, make):
    cert = make()
    want = v2_text(v2_certificate_obj(cert))
    path = tmp_path / "out.json"
    save_certificate(path, cert)
    assert path.read_text() == want
    buf = io.StringIO()
    write_certificate(buf, cert)
    assert buf.getvalue() == want
    _same_certificate(load_certificate(path), cert)
    # the version-1 file of the same certificate loads to the same one
    path.write_text(v1_text(v1_certificate_obj(cert)))
    _same_certificate(load_certificate(path), cert)


@pytest.mark.parametrize("make", [
    lambda: TorusChain.zero(2, 2),
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
    cert_path.write_text(v1_text(v1_certificate_obj(rep.certificate)))
    # null-homologous with a small-box witness: Q(e1,e2) + Q(-e1,e2)
    z = (parallelogram_cycle([(1, 0), (0, 1)])
         + parallelogram_cycle([(-1, 0), (0, 1)]))
    cycle_path.write_text(v1_text(v1_chain_obj(z)))
    assert main(["fill", "--verify", str(cert_path)]) == 0
    assert main(["fill", "--cycle", str(cycle_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["cost=%d" % rep.certificate.cost, "verified=True"]


def test_legacy_trace_fields_load_and_verify(tmp_path, capsys):
    # a version 2 file whose records still carry params and class_delta
    # verifies to the same output as the file reduce writes today
    path, legacy = tmp_path / "cert.json", tmp_path / "legacy.json"
    assert main(["reduce", "--matrix=2,1;1,1", "--out", str(path)]) == 0
    capsys.readouterr()
    obj = json.loads(path.read_text())
    assert obj["trace"] and all(sorted(r) == ["cost", "kind"]
                                for r in obj["trace"])
    for record in obj["trace"]:
        record.update(LEGACY_FIELDS)
    legacy.write_text(v2_text(obj))
    assert main(["fill", "--verify", str(path)]) == 0
    want = capsys.readouterr().out
    assert main(["fill", "--verify", str(legacy)]) == 0
    assert capsys.readouterr().out == want
    assert want.splitlines()[:2] == ["cost=2", "verified=True"]
    assert load_certificate(legacy) == load_certificate(path)
