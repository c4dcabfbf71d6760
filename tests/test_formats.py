"""Serialization round-trips: matrices, chains, certificate containers."""

import io
import json

import pytest

from torfill import formats
from torfill.chains import TorusChain, parallelogram_cycle
from torfill.errors import InputParseError
from torfill.exactlinalg import IntMatrix
from torfill.filling import BASE_KEYS, base_certificate, reduce_parallelogram
from torfill.formats import (load_certificate, obj_to_certificate,
                             obj_to_chain, parse_matrix_inline,
                             parse_matrix_text, save_certificate, save_chain,
                             write_certificate)


# --- reference layout: a file is json.dump of one of these objects ----------

def chain_to_obj(c):
    return {"ambient_dim": c.ambient_dim, "degree": c.degree, "terms": [
        {"coeff": str(coeff), "vertices": [[str(x) for x in v] for v in simplex]}
        for simplex, coeff in sorted(c.terms.items())]}


def _ints_to_strings(value):
    if isinstance(value, int):
        return str(value)
    return [_ints_to_strings(v) for v in value]


def certificate_to_obj(cert, trace=()):
    return {
        "version": 1,
        "ambient_dim": cert.target.ambient_dim,
        "degree": cert.target.degree,
        "target": chain_to_obj(cert.target),
        "witness": chain_to_obj(cert.witness),
        "cost": str(cert.cost),
        "trace": [{"kind": r.kind, "params": _ints_to_strings(r.params),
                   "cost": str(r.cost),
                   "class_delta": [str(x) for x in r.class_delta]}
                  for r in trace],
    }


def _reference_text(obj):
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


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
    cert_path, chain_path = tmp_path / "cert.json", tmp_path / "chain.json"
    save_certificate(cert_path, cert)
    save_chain(chain_path, cert.target)
    before = {p: p.read_bytes() for p in (cert_path, chain_path)}

    def broken_write(fh, c, pad):
        fh.write('{\n%s "ambient_dim": ' % pad)
        raise OSError("disk full")

    # both writers stream every chain through _write_chain
    monkeypatch.setattr(formats, "_write_chain", broken_write)
    with pytest.raises(OSError):
        save_certificate(cert_path, cert)
    with pytest.raises(OSError):
        save_chain(chain_path, cert.witness)
    assert {p: p.read_bytes() for p in (cert_path, chain_path)} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cert.json", "chain.json"]


def test_certificate_trace_round_trip():
    rep = reduce_parallelogram(IntMatrix(((2, 1), (1, 1))))
    obj = certificate_to_obj(rep.certificate, rep.trace)
    cert2, trace2 = obj_to_certificate(obj)
    assert cert2.cost == rep.cost
    assert len(trace2) == len(rep.trace)
    assert [r.kind for r in trace2] == [r.kind for r in rep.trace]
    assert [r.cost for r in trace2] == [r.cost for r in rep.trace]


def test_bad_certificate_object():
    with pytest.raises(InputParseError):
        obj_to_certificate({"version": 99})


# --- byte identity with the reference layout ----------------------------------

def _saved_text(tmp_path, save, *args):
    path = tmp_path / "out.json"
    save(path, *args)
    return path.read_text()


def _reduced(rows):
    rep = reduce_parallelogram(IntMatrix(rows))
    return rep.certificate, rep.trace


@pytest.mark.parametrize("make", [
    *[lambda key=key: (base_certificate(key), ()) for key in BASE_KEYS],
    lambda: _reduced(((2, 1), (1, 1))),
    lambda: _reduced(((3, -1, -5), (5, 3, -4), (-1, 0, 1))),
], ids=["/".join(map(str, k)) for k in BASE_KEYS] + ["2x2", "3x3-negative"])
def test_certificate_writer_matches_reference(tmp_path, make):
    cert, trace = make()
    want = _reference_text(certificate_to_obj(cert, trace))
    assert _saved_text(tmp_path, save_certificate, cert, trace) == want
    buf = io.StringIO()
    write_certificate(buf, cert, trace)
    assert buf.getvalue() == want
    for c in (cert.target, cert.witness):
        assert (_saved_text(tmp_path, save_chain, c)
                == _reference_text(chain_to_obj(c)))


@pytest.mark.parametrize("make", [
    lambda: base_certificate(("REARR", 2)).target,  # the empty chain
    lambda: parallelogram_cycle([(10 ** 40 + 7, 1), (1, 2)]),
    lambda: TorusChain(0, 1, {((), ()): 1}),  # vertices with no coordinate
], ids=["empty", "big-coordinate", "T^0"])
def test_chain_writer_matches_reference(tmp_path, make):
    chain = make()
    text = _saved_text(tmp_path, save_chain, chain)
    assert text == _reference_text(chain_to_obj(chain))
    assert obj_to_chain(json.loads(text)) == chain
