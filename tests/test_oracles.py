"""Floating-point oracles: closed forms against truncated direct sums,
and the convention resolution certificate."""

import math

import pytest

from qpl import (
    DomainError,
    NoConsistentNormalization,
    choose_M,
    closed_multi_beta,
    oracle_carlitz_beta,
    oracle_carlitz_beta_poly,
    oracle_multi_beta,
    oracle_multi_gen_beta,
    oracle_q_zeta,
    oracle_resolve_conventions,
    principal_char,
)


def test_closed_form_spot_values():
    assert closed_multi_beta(0.3, 1, 1, 0.0) == pytest.approx(
        -1.4285714285714286, rel=1e-12)
    assert closed_multi_beta(0.3, 2, 2, 0.0) == pytest.approx(
        4.0816326530612255, rel=1e-12)


def test_closed_vanishes_below_order():
    for r in (1, 2, 3):
        for n in range(r):
            assert closed_multi_beta(0.5, n, r, 0.0) == pytest.approx(
                0.0, abs=1e-12)


def test_direct_sum_matches_closed_form():
    for q in (0.2, 0.3, 0.5):
        for r in (1, 2, 3):
            for n in range(r, 6):
                for z in (0.0, 0.5):
                    direct = oracle_multi_beta(q, n, r, z)
                    closed = closed_multi_beta(q, n, r, z)
                    assert abs(direct - closed) < 1e-9


def test_truncation_stability():
    a = oracle_multi_beta(0.3, 4, 2, 0.0, M=60)
    b = oracle_multi_beta(0.3, 4, 2, 0.0, M=80)
    assert abs(a - b) < 1e-10


def test_choose_M_meets_tolerance():
    for tol in (1e-6, 1e-10):
        M = choose_M(0.5, 6, 2, 0.0, tol=tol)
        got = oracle_multi_beta(0.5, 6, 2, 0.0, M=M, tol=tol)
        assert abs(got - closed_multi_beta(0.5, 6, 2, 0.0)) < 10 * tol
    assert choose_M(0.5, 6, 2, tol=1e-12) >= choose_M(0.5, 6, 2, tol=1e-6)


def test_carlitz_oracle_closed_forms():
    q = 0.3
    assert oracle_carlitz_beta(q, 0) == pytest.approx(
        (q - 1) / math.log(q), rel=1e-12)
    assert oracle_carlitz_beta(q, 1) == pytest.approx(
        1 / (q - 1) - 1 / math.log(q), rel=1e-12)


def test_carlitz_poly_oracle_expansion():
    q, z, n = 0.3, 1.0, 3
    betas = [oracle_carlitz_beta(q, k) for k in range(n + 1)]
    bracket = (1 - q ** z) / (1 - q)
    expansion = sum(math.comb(n, k) * q ** (k * z) * betas[k]
                    * bracket ** (n - k) for k in range(n + 1))
    assert oracle_carlitz_beta_poly(q, n, z) == pytest.approx(
        expansion, rel=1e-10)


def test_gen_oracle_principal_shifts():
    one = principal_char(5)
    for n in (1, 2, 3):
        for r in (1, 2):
            got = oracle_multi_gen_beta(0.3, n, r, one, 0.0)
            assert got.imag == pytest.approx(0.0, abs=1e-12)
            assert got.real == pytest.approx(
                closed_multi_beta(0.3, n, r, float(r)), rel=1e-9)


def test_q_zeta_domain_and_stability():
    with pytest.raises(DomainError):
        oracle_q_zeta(0.3, 4.0, 2, 0.0)
    with pytest.raises(DomainError):
        oracle_q_zeta(0.3, 1.0, 2, 1.0)
    b = oracle_q_zeta(0.3, 4.0, 2, 1.0, M=600)
    # a fixed M and the one the tail bound chooses
    for M in (300, None):
        assert abs(oracle_q_zeta(0.3, 4.0, 2, 1.0, M=M) - b) < 1e-10


def test_resolution_certificate():
    cert = oracle_resolve_conventions(r_max=1)
    assert cert["normalization"] == "n+r"
    assert cert["single_beta"] == "pure_sum"
    assert cert["r_max"] == 1
    rows = cert["residuals"]
    assert len(rows) == 4
    passing = [row for row in rows if row["passes"]]
    assert len(passing) == 1
    assert all(res < 1e-8 for res in passing[0]["worst_residual_per_q"])
    assert len(passing[0]["worst_residual_per_q"]) == 2


def test_resolution_reproducible():
    a = oracle_resolve_conventions(r_max=1)
    b = oracle_resolve_conventions(r_max=1)
    assert a == b


def test_resolution_fails_beyond_order_one():
    with pytest.raises(NoConsistentNormalization) as info:
        oracle_resolve_conventions(r_max=2)
    assert len(info.value.residuals) == 4
