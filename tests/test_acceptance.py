"""Acceptance gate: every criterion at the stated tolerance, full sample
sizes, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import pytest

import torfill.selftest as st


@pytest.fixture(scope="module")
def reduction_run():
    data = []
    return st.criterion_reduction_exactness(data, "full"), data


def _report(index, result):
    print("criterion %2d %-22s %s (%.1fs): %s"
          % (index, result.name, "PASS" if result.passed else "FAIL",
             result.elapsed, result.detail))
    assert result.passed, result.detail


def test_criterion_01_reduction_exactness(reduction_run):
    result, _ = reduction_run
    _report(1, result)


def test_criterion_02_cost_scaling(reduction_run):
    _, data = reduction_run
    _report(2, st.criterion_cost_scaling(data, "full"))


def test_criterion_03_s1_invariants():
    result = st.criterion_s1_invariants("full")
    _report(3, result)
    assert result.elapsed < 60.0


def test_criterion_04_torsion_growth():
    result = st.criterion_torsion_growth("full")
    _report(4, result)
    assert result.elapsed < 10.0


def test_criterion_05_degree_oracle():
    _report(5, st.criterion_degree_oracle("full"))


def test_criterion_06_chain_invariants():
    _report(6, st.criterion_chain_invariants("full"))


def test_criterion_07_spectral():
    _report(7, st.criterion_spectral("full"))


def test_criterion_08_base_bootstrap():
    result = st.criterion_base_bootstrap("full")
    _report(8, result)
    assert result.elapsed < 120.0


def test_criterion_09_psl2z():
    _report(9, st.criterion_psl2z("full"))


def test_criterion_10_bounds_consistency():
    _report(10, st.criterion_bounds_consistency("full"))
