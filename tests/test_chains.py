"""Chain-calculus unit and property tests."""

import random
from fractions import Fraction

import pytest

from torfill.chains import (TorusChain, boundary, canonicalize,
                            degree_at_point, faces, l1_norm, linear_map,
                            parallelogram_class, parallelogram_cycle, prism_v,
                            pushforward, sample_degree,
                            simplex_chain)
from torfill.errors import DimensionMismatch, NonGenericPoint

E1 = (1, 0)
E2 = (0, 1)


def random_chain(rng, n, degree, n_terms, span=3):
    pairs = []
    for _ in range(n_terms):
        verts = [tuple(rng.randint(-span, span) for _ in range(n))
                 for _ in range(degree + 1)]
        pairs.append((canonicalize(verts), rng.choice([-2, -1, 1, 2, 3])))
    return TorusChain.from_pairs(n, degree, pairs)


def test_canonicalize_examples():
    assert canonicalize([(3, 1), (4, 1)]) == ((0, 0), (1, 0))
    assert canonicalize([(0, 0), (1, 0)]) == ((0, 0), (1, 0))
    s = canonicalize([(5,), (5,)])
    assert s == ((0,), (0,))
    assert len(set(s)) < len(s)  # degenerate: a repeated vertex


def test_canonicalize_translation_invariance():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 3)
        verts = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(3)]
        t = tuple(rng.randint(-4, 4) for _ in range(n))
        moved = [tuple(a + b for a, b in zip(p, t)) for p in verts]
        assert canonicalize(verts) == canonicalize(moved)


def test_canonicalize_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        canonicalize([(0, 0), (1,)])
    with pytest.raises(DimensionMismatch):
        canonicalize([])
    with pytest.raises(DimensionMismatch):
        TorusChain.from_pairs(2, 1, [(canonicalize([(0,), (1,)]), 1)])
    with pytest.raises(DimensionMismatch):
        TorusChain.from_pairs(1, 2, [(canonicalize([(0,), (1,)]), 1)])


def test_boundary_examples():
    assert boundary(simplex_chain([(0,), (1,)])).is_zero()
    c = simplex_chain([(0, 0), E1, (1, 1)])
    expected = (simplex_chain([(0, 0), E2])
                - simplex_chain([(0, 0), (1, 1)])
                + simplex_chain([(0, 0), E1]))
    assert boundary(c) == expected
    assert boundary(parallelogram_cycle([E1, E2])).is_zero()


def test_boundary_squared_zero():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 3)
        k = rng.randint(1, 4)
        c = random_chain(rng, n, k, rng.randint(1, 5))
        assert boundary(boundary(c)).is_zero()


def _boundary_reference(c):
    """The boundary face by face, every face canonicalized by faces()."""
    pairs = [(face, coeff if i % 2 == 0 else -coeff)
             for simplex, coeff in c.terms.items()
             for i, face in enumerate(faces(simplex))]
    return TorusChain.from_pairs(c.ambient_dim, c.degree - 1, pairs)


def test_boundary_matches_face_reference():
    rng = random.Random(29)
    for trial in range(300):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        span = (1, 3, 10 ** 40)[trial % 3]
        pairs = []
        for _ in range(rng.randint(1, 12)):
            verts = [tuple(rng.randint(-span, span) for _ in range(n))
                     for _ in range(k + 1)]
            if rng.random() < 0.3:  # a degenerate simplex: repeat a vertex
                i, j = rng.sample(range(k + 1), 2)
                verts[i] = verts[j]
            pairs.append((canonicalize(verts), rng.choice([-3, -1, 1, 2])))
        c = TorusChain.from_pairs(n, k, pairs)
        # prisms and parallelogram cycles: faces that cancel in bulk
        v = tuple(rng.randint(-span, span) for _ in range(n))
        gens = [tuple(rng.randint(-span, span) for _ in range(n))
                for _ in range(k)]
        for chain in (c, prism_v(v, c), parallelogram_cycle(gens),
                      c - parallelogram_cycle(gens)):
            got = boundary(chain)
            assert got.degree == chain.degree - 1
            assert got.terms == _boundary_reference(chain).terms
            assert all(got.terms.values())


def test_l1_norm():
    assert l1_norm(TorusChain.zero(2, 1)) == 0
    sigma = canonicalize([(0, 0), (1, 0)])
    tau = canonicalize([(0, 0), (0, 1)])
    c = TorusChain.from_pairs(2, 1, [(sigma, 3), (tau, -2)])
    assert l1_norm(c) == 5
    assert l1_norm(parallelogram_cycle([E1, E2])) == 2


def test_pushforward_examples():
    q = parallelogram_cycle([E1, E2])
    assert pushforward([E1, E2], q) == q
    assert pushforward([(2, 1), (1, 1)], q) == parallelogram_cycle([(2, 1), (1, 1)])
    assert pushforward([(2, 0), (1, 1)], q) == parallelogram_cycle([(2, 0), (1, 1)])
    with pytest.raises(DimensionMismatch):
        pushforward([E1], q)
    with pytest.raises(DimensionMismatch):
        pushforward([E1, (1,)], q)


def _columns(matrix):
    """The columns of a matrix given by its rows."""
    return [tuple(col) for col in zip(*matrix)]


def test_pushforward_properties():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        c = random_chain(rng, n, rng.randint(1, 3), rng.randint(1, 4))
        f = _columns([[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)])
        fc = pushforward(f, c)
        assert l1_norm(fc) <= l1_norm(c)
        assert pushforward(f, boundary(c)) == boundary(fc)
        g = _columns([[rng.randint(-2, 2) for _ in range(m)] for _ in range(2)])
        gf = list(map(linear_map(g), f))
        assert pushforward(g, fc) == pushforward(gf, c)
        # pushforward commutes with prism: F_*(prism_v c) = prism_{Fv}(F_* c)
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        assert pushforward(f, prism_v(v, c)) == prism_v(linear_map(f)(v), fc)


def test_prism_examples():
    c = simplex_chain([(0, 0), E1])
    expected = (simplex_chain([(0, 0), E1, (1, 1)])
                - simplex_chain([(0, 0), E2, (1, 1)]))
    assert prism_v(E2, c) == expected
    assert prism_v((1, 1), TorusChain.zero(2, 1)).is_zero()
    # zero-vector prism: degenerate simplices, nonzero chain
    p0 = prism_v((0,) * 2, c)
    assert p0 == (simplex_chain([(0, 0), E1, E1])
                  - simplex_chain([(0, 0), (0, 0), E1]))


def test_prism_chain_map_and_norm():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 3)
        k = rng.randint(0, 3)
        c = random_chain(rng, n, k, rng.randint(1, 4))
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        pc = prism_v(v, c)
        assert boundary(pc) == prism_v(v, boundary(c))
        assert l1_norm(pc) <= (k + 1) * l1_norm(c)


def test_parallelogram_cycles():
    assert parallelogram_cycle([E1]) == simplex_chain([(0, 0), E1])
    v, w = (2, 1), (1, 1)
    assert parallelogram_cycle([v, w]) == (
        simplex_chain([(0, 0), v, (3, 2)]) - simplex_chain([(0, 0), w, (3, 2)]))
    q3 = parallelogram_cycle([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert l1_norm(q3) == 6
    assert boundary(q3).is_zero()


def test_parallelogram_cycle_properties_large_entries():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        vecs = [tuple(rng.randint(-10**6, 10**6) for _ in range(n))
                for _ in range(k)]
        q = parallelogram_cycle(vecs)
        assert boundary(q).is_zero()
        assert l1_norm(q) <= _factorial(k)


def _factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def test_rectangle_cycles():
    # a diagonal parallelogram with a zero side is a degenerate cycle
    r01 = parallelogram_cycle([(0, 0), E2])
    assert parallelogram_class([(0, 0), (0, 1)]) == (0,)
    assert boundary(r01).is_zero()


def test_degree_at_point_examples():
    q = parallelogram_cycle([E1, E2])
    assert degree_at_point(q, (Fraction(1, 3), Fraction(1, 7))) == 1
    r21 = parallelogram_cycle([(2, 0), E2])
    rng = random.Random(23)
    assert sample_degree(r21, rng) == 2
    assert sample_degree(parallelogram_cycle([(2, 1), (1, 1)]), rng) == 1


def test_degree_at_point_nongeneric():
    q = parallelogram_cycle([E1, E2])
    with pytest.raises(NonGenericPoint):
        # on the diagonal edge
        degree_at_point(q, (Fraction(1, 2), Fraction(1, 2)))


def test_degree_sample_independence():
    rng = random.Random(29)
    q = parallelogram_cycle([(3, 1), (-1, 2)])
    values = {sample_degree(q, rng) for _ in range(5)}
    assert values == {7}


def test_degree_equals_det():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 3)
        vecs = [tuple(rng.randint(-10, 10) for _ in range(n)) for _ in range(n)]
        q = parallelogram_cycle(vecs)
        det = parallelogram_class(vecs)[0]
        assert sample_degree(q, rng) == det


def test_parallelogram_class_examples():
    assert parallelogram_class([E1, E2]) == (1,)
    assert parallelogram_class([(2, 1), (1, 1)]) == (1,)
    assert parallelogram_class([E1]) == (1, 0)


def test_parallelogram_class_projection_oracle():
    from itertools import combinations
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(2, 3)
        k = rng.randint(1, n - 1)
        vecs = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
        cls = parallelogram_class(vecs)
        q = parallelogram_cycle(vecs)
        for idx, rows in enumerate(combinations(range(n), k)):
            proj = _columns([[1 if j == r else 0 for j in range(n)]
                             for r in rows])
            projected = pushforward(proj, q)
            assert sample_degree(projected, rng) == cls[idx]
