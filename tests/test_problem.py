import numpy as np
import pytest

from ifipm import (
    Iterate,
    LinearProgram,
    errors,
    in_neighborhood,
    preprocess,
    residuals,
)

from conftest import neighborhood_iterate


def test_rank_deficient_rejected():
    with pytest.raises(errors.RankDeficient):
        LinearProgram(np.array([[1.0, 1.0], [2.0, 2.0]]), np.ones(2), np.ones(2))


def test_dimension_order_rejected():
    with pytest.raises(errors.DimensionOrder):
        LinearProgram(np.array([[1.0, 0], [0, 1.0], [1.0, 1.0]]), np.ones(3), np.ones(2))


def test_non_finite_rejected():
    with pytest.raises(errors.NonFinite):
        LinearProgram(np.array([[1.0, np.nan]]), np.ones(1), np.ones(2))


def test_residuals_identity_case():
    n = 4
    lp = LinearProgram(np.eye(n), np.ones(n), np.ones(n))
    it = Iterate(np.ones(n), np.zeros(n), np.ones(n))
    rep = residuals(lp, it)
    assert rep.primal_inf == 0.0
    assert rep.dual_inf == 0.0
    assert rep.gap == float(n)
    assert rep.mu == 1.0
    # gap and mu come from the same dot product
    assert rep.mu == rep.gap / n


def test_residuals_null_space_perturbation():
    # shifting x along null(A) cannot change the primal residual
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    lp = LinearProgram(A, np.array([2.0, 2.0]), np.ones(3))
    x = np.array([1.0, 1.0, 1.0])
    v = np.array([1.0, -1.0, 1.0])  # A v = 0
    assert np.allclose(A @ v, 0.0)
    base = residuals(lp, Iterate(x, np.zeros(2), np.ones(3)))
    moved = residuals(lp, Iterate(x + 0.3 * v, np.zeros(2), np.ones(3)))
    assert base.primal_inf == pytest.approx(0.0, abs=1e-15)
    assert moved.primal_inf == pytest.approx(0.0, abs=1e-14)


def test_neighborhood_central_point():
    it = Iterate(np.ones(5), np.zeros(2), np.ones(5))
    for theta in (0.0, 0.3, 0.99):
        assert in_neighborhood(it, theta)


def test_neighborhood_rejects_detuned_products():
    # products (1.4, 1), mu = 1.2, deviation ||(0.2, -0.2)|| = 0.2828 > 0.2*1.2
    it = Iterate(np.array([1.0, 1.0]), np.zeros(1), np.array([1.4, 1.0]))
    assert not in_neighborhood(it, 0.2)
    assert in_neighborhood(it, 0.3)  # 0.2828 <= 0.36


def test_neighborhood_requires_interior():
    it = Iterate(np.array([1.0, -0.1]), np.zeros(1), np.array([1.0, 1.0]))
    assert not in_neighborhood(it, 0.9)
    zero = Iterate(np.array([1.0, 0.0]), np.zeros(1), np.array([1.0, 1.0]))
    assert not in_neighborhood(zero, 0.9)


def test_neighborhood_componentwise_bound():
    # 2-norm membership implies (1-theta) mu <= x_i s_i <= (1+theta) mu
    rng = np.random.default_rng(3)
    theta = 0.6
    for _ in range(200):
        n = int(rng.integers(2, 9))
        x = rng.uniform(0.1, 3.0, n)
        s = rng.uniform(0.1, 3.0, n)
        it = Iterate(x, np.zeros(1), s)
        if in_neighborhood(it, theta):
            mu = it.mu
            assert np.all(x * s >= (1 - theta) * mu - 1e-12)
            assert np.all(x * s <= (1 + theta) * mu + 1e-12)


@pytest.mark.parametrize("n", [1, 2, 9])
def test_neighborhood_iterate_helper(n):
    # at n = 1 the helper once divided by a zero norm and returned s = [nan]
    rng = np.random.default_rng(n)
    it = neighborhood_iterate(rng, n, 1, 0.4, 1e-3)
    assert np.isfinite(it.s).all()
    assert in_neighborhood(it, 0.4)
    assert it.mu == pytest.approx(1e-3, rel=1e-12)


def test_preprocess_identity_prefix():
    rng = np.random.default_rng(0)
    N = rng.standard_normal((3, 4))
    A = np.hstack([np.eye(3), N])
    lp = LinearProgram(A, np.arange(1.0, 4.0), np.ones(7))
    prep = preprocess(lp, basis=[0, 1, 2])
    np.testing.assert_allclose(prep.factors.A_hat_N, N, atol=1e-14)


def test_preprocess_duplicate_columns_rejected():
    A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
    lp = LinearProgram(A, np.ones(2), np.ones(3))
    with pytest.raises(errors.SingularBasis):
        preprocess(lp, basis=[0, 1])


def test_preprocess_identity_block_postcondition():
    rng = np.random.default_rng(5)
    lp = LinearProgram(rng.standard_normal((3, 5)), rng.standard_normal(3),
                       rng.standard_normal(5))
    prep = preprocess(lp)
    # the identity block is implied by storage; the stored nonbasic block
    # must reproduce the nonbasic columns through the basis
    A_B, A_N = lp.A[:, list(prep.factors.index)], lp.A[:, prep.factors.nonbasic]
    np.testing.assert_allclose(A_B @ prep.factors.A_hat_N, A_N, atol=1e-10)


def test_preprocess_idempotent_in_effect():
    rng = np.random.default_rng(6)
    lp = LinearProgram(rng.standard_normal((4, 9)), rng.standard_normal(4),
                       rng.standard_normal(9))
    prep = preprocess(lp)
    again = preprocess(lp, basis=prep.factors.index)
    np.testing.assert_allclose(again.factors.A_hat_N, prep.factors.A_hat_N, atol=1e-12)
