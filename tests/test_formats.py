"""Serialization round-trips: matrices, chains, certificate containers."""

import pytest

from torfill.chains import parallelogram_cycle
from torfill.errors import InputParseError
from torfill.exactlinalg import IntMatrix
from torfill.filling import CertificateCache
from torfill.formats import (certificate_to_obj, chain_to_obj, format_matrix,
                             load_certificate, obj_to_certificate,
                             obj_to_chain, parse_matrix_inline,
                             parse_matrix_text, save_certificate)


def test_matrix_inline_and_text():
    a = parse_matrix_inline("2,1;1,1")
    assert a.data == ((2, 1), (1, 1))
    b = parse_matrix_text(format_matrix(a))
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
    cache = CertificateCache(tmp_path / "cache")
    cert = cache.get(("DOUBLE_HALVE",))
    path = tmp_path / "cert.json"
    save_certificate(path, cert, trace=())
    loaded, trace = load_certificate(path)
    assert loaded.target == cert.target
    assert loaded.witness == cert.witness
    assert loaded.cost == cert.cost
    assert trace == ()


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
