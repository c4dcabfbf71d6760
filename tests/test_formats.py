"""Serialization round-trips: matrices, chains, certificate containers."""

import json

import pytest

from torfill.chains import parallelogram_cycle
from torfill.errors import InputParseError
from torfill.exactlinalg import IntMatrix
from torfill.filling import base_certificate
from torfill.formats import (certificate_to_obj, chain_to_obj,
                             load_certificate, obj_to_certificate,
                             obj_to_chain, parse_matrix_inline,
                             parse_matrix_text, save_certificate, save_chain)


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

    def broken_dump(obj, fh, **kwargs):
        fh.write('{"version": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", broken_dump)
    with pytest.raises(OSError):
        save_certificate(cert_path, cert)
    with pytest.raises(OSError):
        save_chain(chain_path, cert.witness)
    assert {p: p.read_bytes() for p in (cert_path, chain_path)} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cert.json", "chain.json"]


def test_certificate_trace_round_trip():
    from torfill.filling import reduce_parallelogram
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
