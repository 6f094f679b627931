import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.linalg import lapack

from ifipm import (
    GeneratorSpec,
    Iterate,
    LinearProgram,
    errors,
    generate,
    in_neighborhood,
    preprocess,
    residuals,
)
from ifipm.problem import BASIS_TOL

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


def _parent_auto_basis(A):
    # the basis rule as it read with its own QR: the first m pivots of
    # scipy's column-pivoted QR, refused on a small last pivot
    m = A.shape[0]
    _, R, piv = scipy.linalg.qr(A, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag[m - 1] <= BASIS_TOL * max(diag[0], 1.0):
        return None
    return sorted(int(j) for j in piv[:m])


def _svd_rule_fires(A_B):
    sv = np.linalg.svd(A_B, compute_uv=False)
    return sv[-1] <= BASIS_TOL * max(sv[0], 1.0)


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 6), extra=st.integers(0, 5), seed=st.integers(0, 2**32 - 1),
       copy=st.sampled_from(["row", "column", "none"]),
       log_delta=st.one_of(st.none(), st.floats(-17.0, -6.0)),
       log_scale=st.floats(0.0, 4.0))
def test_set_up_decisions_match_the_svd_rules(m, extra, seed, copy, log_delta, log_scale):
    # a planted near-dependence (a row or column copied plus delta noise)
    # and random column scales; every decision the pivoted QR and the
    # basis record take must be the one the SVD and scipy's QR took
    n = m + extra
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    delta = 0.0 if log_delta is None else 10.0 ** log_delta
    if copy == "row" and m > 1:
        A[-1] = A[0] + delta * rng.standard_normal(n)
    elif copy == "column" and n > 1:
        A[:, -1] = A[:, 0] + delta * rng.standard_normal(m)
    A *= 10.0 ** rng.uniform(-log_scale, log_scale, n)
    b, c = np.ones(m), np.ones(n)
    if np.linalg.matrix_rank(A) < m:
        with pytest.raises(errors.RankDeficient):
            LinearProgram(A, b, c)
        return
    lp = LinearProgram(A, b, c)
    basis = sorted(rng.permutation(n)[:m].tolist())
    if _svd_rule_fires(A[:, basis]):
        with pytest.raises(errors.SingularBasis, match="linearly dependent"):
            preprocess(lp, basis)
    else:
        assert preprocess(lp, basis).factors.index.tolist() == basis
    expected = _parent_auto_basis(A)
    if expected is None:
        with pytest.raises(errors.SingularBasis):
            preprocess(lp)
    elif _svd_rule_fires(A[:, expected]):
        with pytest.raises(errors.SingularBasis, match="linearly dependent"):
            preprocess(lp)
    else:
        assert preprocess(lp).factors.index.tolist() == expected


def _count_set_up(monkeypatch):
    """Counts set-up's factorizations: ``dgeqp3`` calls that factor (a
    workspace query, ``lwork=-1``, factors nothing) and SVDs, each
    ``matrix_rank`` call counting as one."""
    counts = {"qr": 0, "svd": 0}

    def count(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += kwargs.get("lwork") != -1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(lapack, "dgeqp3", "qr")
    count(np.linalg, "svd", "svd")
    count(np.linalg, "matrix_rank", "svd")
    return counts


def test_certified_set_up_runs_one_qr_and_no_svd(monkeypatch):
    inst = generate(GeneratorSpec(m=20, n=40, kappa_target=100.0, seed=7))
    counts = _count_set_up(monkeypatch)
    lp = LinearProgram(inst.lp.A, inst.lp.b, inst.lp.c)
    prep = preprocess(lp)
    assert counts == {"qr": 1, "svd": 0}
    assert prep.factors.index.tolist() == _parent_auto_basis(inst.lp.A)


def test_near_deficient_set_up_falls_back_to_one_svd(monkeypatch):
    # sigma_2(A) ~ 1.4e-15 sits just above matrix_rank's tolerance (~9e-16):
    # the QR cannot certify rank 2, one SVD decides it
    A = np.array([[1.0, 0.0, 0.0], [1.0, 2e-15, 0.0]])
    counts = _count_set_up(monkeypatch)
    lp = LinearProgram(A, np.ones(2), np.ones(3))
    assert counts == {"qr": 1, "svd": 1}
    # a certified rank with an uncertified basis: preprocessing takes one SVD
    A = np.array([[1.0, 0.0, 1.0], [0.0, 1.5e-10, 1.0]])
    lp = LinearProgram(A, np.ones(2), np.ones(3))
    assert counts == {"qr": 2, "svd": 1}
    prep = preprocess(lp, basis=[0, 1])
    assert counts == {"qr": 2, "svd": 2}
    assert prep.factors.index.tolist() == [0, 1]
