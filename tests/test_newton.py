from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ifipm import (
    BasisFactors,
    GeneratorSpec,
    Iterate,
    LinearProgram,
    SystemKind,
    assemble,
    chi_bar,
    condition_number,
    errors,
    generate,
    null_space_basis,
    preprocess,
    recover_direction,
    recover_direction_nes_procA,
    recover_direction_oss,
    select_basis_mwb,
    short_step,
    verify_direction,
)
from ifipm.newton import ETA, THETA, proc_a_residual_bound, solve_target
from ifipm.solvers import solve_exact

from conftest import (
    dense_newton_direction,
    feasible_iterate,
    interior_iterate,
    neighborhood_iterate,
)

ALL_KINDS = list(SystemKind)


def test_system_sizes_match_table():
    inst = generate(GeneratorSpec(m=3, n=7, seed=1))
    prep = preprocess(inst.lp)
    expected = {SystemKind.FNS: 17, SystemKind.AS: 10, SystemKind.NES: 3,
                SystemKind.OSS: 7, SystemKind.MNES: 3, SystemKind.PNES: 3}
    for kind, size in expected.items():
        sys = assemble(kind, inst.start, prep, beta=0.9)
        assert sys.matrix.shape == (size, size)
        assert sys.rhs.shape == (size,)


def test_table_flags_verified_numerically(central_instance):
    prep = preprocess(central_instance.lp)
    rng = np.random.default_rng(0)
    it = feasible_iterate(rng, central_instance)
    for kind in ALL_KINDS:
        sys = assemble(kind, it, prep, beta=0.9)
        is_sym = np.allclose(sys.matrix, sys.matrix.T, atol=1e-12)
        assert is_sym == sys.symmetric, kind
        if sys.symmetric:
            eigs = np.linalg.eigvalsh(sys.matrix)
            assert (eigs.min() > 0) == sys.positive_definite, kind
        else:
            assert not sys.positive_definite


def test_nes_identity_instance():
    n = 3
    lp = LinearProgram(np.eye(n), np.ones(n), 2 * np.ones(n))
    prep = preprocess(lp)
    it = Iterate(np.ones(n), np.zeros(n), np.ones(n))
    beta = 0.75
    sys = assemble(SystemKind.NES, it, prep, beta)
    np.testing.assert_allclose(sys.matrix, np.eye(n), atol=1e-14)
    # rhs evaluated literally: A x - beta mu A S^{-1} e with mu = 1
    np.testing.assert_allclose(sys.rhs, np.ones(n) - beta * np.ones(n), atol=1e-14)


def test_centered_iterate_zeroes_rhs(central_instance):
    prep = preprocess(central_instance.lp)
    for kind in (SystemKind.NES, SystemKind.MNES):
        sys = assemble(kind, central_instance.start, prep, beta=1.0)
        assert np.linalg.norm(sys.rhs, np.inf) <= 1e-10


def test_mnes_matrix_is_factor_product(central_instance):
    prep = preprocess(central_instance.lp)
    rng = np.random.default_rng(1)
    it = interior_iterate(rng, central_instance.lp)
    for kind in (SystemKind.MNES, SystemKind.PNES):
        sys = assemble(kind, it, prep, beta=0.9)
        np.testing.assert_allclose(sys.matrix, np.eye(sys.matrix.shape[0])
                                   + sys.E_N @ sys.E_N.T, atol=1e-10)
        assert sys.basis is not None


def test_boundary_iterate_rejected(central_instance):
    prep = preprocess(central_instance.lp)
    bad = Iterate(np.zeros(central_instance.lp.n), np.zeros(central_instance.lp.m),
                  np.ones(central_instance.lp.n))
    with pytest.raises(errors.SingularDiagonal):
        assemble(SystemKind.NES, bad, prep, beta=0.9)


def test_null_space_basis_line():
    V = null_space_basis(np.array([[1.0, 1.0]]))
    assert V.shape == (2, 1)
    np.testing.assert_allclose(np.abs(V[:, 0]), np.full(2, np.sqrt(0.5)), atol=1e-12)


def test_null_space_basis_properties():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 6))
    V = null_space_basis(A)
    assert V.shape == (6, 3)
    assert np.linalg.norm(A @ V, np.inf) <= 1e-10
    np.testing.assert_allclose(V.T @ V, np.eye(3), atol=1e-10)


def test_mwb_identity_matrix():
    n = 5
    rng = np.random.default_rng(3)
    x = rng.uniform(0.5, 2.0, n)
    s = rng.uniform(0.5, 2.0, n)
    it = Iterate(x, np.zeros(n), s)
    basis = select_basis_mwb(it, np.eye(n))
    assert set(basis) == set(np.argsort(x / s)[-n:])  # m = n here: all columns
    # acceptance order follows decreasing ratio
    ratios = x / s
    assert list(basis) == sorted(range(n), key=lambda j: -ratios[j])


def test_mwb_duplicate_column_takes_one():
    A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])  # columns 0 and 1 identical
    it = Iterate(np.array([3.0, 2.9, 0.1]), np.zeros(2), np.ones(3))
    basis = select_basis_mwb(it, A)
    assert len(basis) == 2
    assert basis[0] == 0  # highest ratio
    assert basis[1] == 2  # duplicate rejected by the rank check


def test_mwb_tie_breaks_to_lower_index():
    A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    it = Iterate(np.ones(3), np.zeros(2), np.ones(3))  # all ratios tie
    assert select_basis_mwb(it, A) == [0, 1]


def _reference_mwb(it, A):
    """The column-by-column Gram-Schmidt greedy the blocked selection replaced."""
    m, n = A.shape
    order = np.lexsort((np.arange(n), -(it.x / it.s)))
    Q = np.empty((m, 0))
    chosen = []
    for j in order:
        col = A[:, j]
        norm = np.linalg.norm(col)
        if norm == 0.0:
            continue
        resid = col - Q @ (Q.T @ col)
        resid = resid - Q @ (Q.T @ resid)
        if np.linalg.norm(resid) > 1e-10 * norm:
            Q = np.hstack([Q, (resid / np.linalg.norm(resid))[:, None]])
            chosen.append(int(j))
            if len(chosen) == m:
                return chosen
    raise errors.BasisNotFound(f"only {len(chosen)} independent columns found, need {m}")


def _mwb_outcome(select, it, A, *args):
    try:
        return select(it, A, *args)
    except errors.BasisNotFound:
        return "BasisNotFound"


def _factors_for(rng, A, records):
    """``factors_for`` argument for a draw: none, or one that builds the
    record of the set it is asked for, in ratio or in shuffled order, and
    raises ``SingularBasis`` on a set it cannot invert."""
    if records == "none":
        return None

    def factors_for(basis):
        basis = np.asarray(basis)
        if records == "shuffled":
            basis = rng.permutation(basis)
        return BasisFactors.of(A, basis)

    return factors_for


@settings(max_examples=400, deadline=None)
@given(m=st.integers(1, 6), extra=st.integers(0, 8),
       structure=st.sampled_from(["generic", "duplicates", "zeros", "low_rank", "integer",
                                  "near_dependent"]),
       tied=st.booleans(), records=st.sampled_from(["none", "ordered", "shuffled"]),
       seed=st.integers(0, 2**32 - 1))
def test_mwb_matches_column_by_column_greedy(m, extra, structure, tied, records, seed):
    # with or without records of the top-m set, the selection is the
    # column loop's
    rng = np.random.default_rng(seed)
    n = m + extra
    A = rng.standard_normal((m, n))
    if structure == "duplicates":
        for _ in range(rng.integers(1, n + 1)):
            A[:, rng.integers(n)] = rng.choice([1.0, -2.0]) * A[:, rng.integers(n)]
    elif structure == "zeros":
        A[:, rng.choice(n, rng.integers(1, n + 1), replace=False)] = 0.0
    elif structure == "low_rank":
        rank = int(rng.integers(1, m + 1))
        A = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    elif structure == "integer":
        A = rng.integers(-2, 3, (m, n)).astype(float)
    x = rng.uniform(0.1, 2.0, n)
    if tied:  # few distinct ratios, so the lower-index tie break decides
        x = rng.integers(1, 4, n).astype(float)
    if structure == "near_dependent" and n >= 2:
        # column j is column i plus noise of 1e-11 to 1e-8 of its norm, so
        # the certificate of a set holding both straddles its threshold;
        # both lead the ratio order
        i, j = rng.choice(n, 2, replace=False)
        noise = rng.standard_normal(m)
        scale = 10.0 ** rng.uniform(-11.0, -8.0) * np.linalg.norm(A[:, i])
        A[:, j] = A[:, i] + scale * noise / np.linalg.norm(noise)
        x[[i, j]] = x.max() + 1.0
    it = Iterate(x, np.zeros(m), np.ones(n))
    assert (_mwb_outcome(select_basis_mwb, it, A, _factors_for(rng, A, records))
            == _mwb_outcome(_reference_mwb, it, A))


def test_pnes_assembly_independent_of_kept_factors(central_instance):
    # the basis products are kept per basis set and built in sorted order,
    # so a warm and a cold assembly agree bit for bit
    lp = central_instance.lp
    prep = preprocess(lp)
    chosen = [j for j in range(lp.n) if j not in prep.factors.index][:lp.m]
    x = np.ones(lp.n)
    x[chosen] = 2.0 + np.arange(lp.m)
    it = Iterate(x, np.zeros(lp.m), np.ones(lp.n))
    x_other = x.copy()
    x_other[chosen] = x[chosen][::-1]  # same basis set, other acceptance order
    other = Iterate(x_other, np.zeros(lp.m), np.ones(lp.n))
    assert set(select_basis_mwb(it, lp.A)) == set(chosen) != set(prep.factors.index)
    assert select_basis_mwb(it, lp.A) != select_basis_mwb(other, lp.A)

    cold = assemble(SystemKind.PNES, it, preprocess(lp), beta=0.9)
    warm_prep = preprocess(lp)
    assemble(SystemKind.PNES, other, warm_prep, beta=0.9)
    warm = assemble(SystemKind.PNES, it, warm_prep, beta=0.9)
    np.testing.assert_array_equal(warm.matrix, cold.matrix)
    np.testing.assert_array_equal(warm.rhs, cold.rhs)
    np.testing.assert_array_equal(warm.basis.A_hat_N, cold.basis.A_hat_N)


def test_assemblies_share_one_basis_record(central_instance):
    # MNES reads the program's own record; PNES assemblies that select one
    # other set, in any acceptance order, read the one record kept for it
    lp = central_instance.lp
    prep = preprocess(lp)
    assert assemble(SystemKind.MNES, central_instance.start, prep, 0.9).basis is prep.factors
    chosen = [j for j in range(lp.n) if j not in prep.factors.index][:lp.m]
    systems = []
    for lead in (chosen, chosen[::-1]):
        x = np.ones(lp.n)
        x[lead] = 2.0 + np.arange(lp.m)
        it = Iterate(x, np.zeros(lp.m), np.ones(lp.n))
        systems.append(assemble(SystemKind.PNES, it, prep, 0.9))
    first, second = systems
    assert first.basis is second.basis is prep.factors_for(chosen)
    assert first.basis.index.tolist() == sorted(chosen)


def test_mwb_recovers_optimal_partition(optimal_instance):
    inst = optimal_instance
    B, N = inst.partition
    mu = 1e-6
    x = inst.optimal.x.copy()
    s = inst.optimal.s.copy()
    x[list(N)] = mu / s[list(N)]
    s[list(B)] = mu / x[list(B)]
    it = Iterate(x, inst.optimal.y, s)
    assert sorted(select_basis_mwb(it, inst.lp.A)) == sorted(B)


def test_mnes_exact_matches_dense_full_system(central_instance):
    lp = central_instance.lp
    prep = preprocess(lp)
    rng = np.random.default_rng(4)
    beta = 0.9
    for _ in range(10):
        it = feasible_iterate(rng, central_instance)
        sys = assemble(SystemKind.MNES, it, prep, beta)
        z = solve_exact(sys.matrix, sys.rhs).solution
        direction = recover_direction(sys, z, it, prep)
        dx, dy, ds = dense_newton_direction(lp, it, beta)
        scale = 1.0 + np.linalg.norm(dx)
        assert np.linalg.norm(direction.dx - dx) <= 1e-8 * scale
        assert np.linalg.norm(direction.dy - dy) <= 1e-8 * scale
        assert np.linalg.norm(direction.ds - ds) <= 1e-8 * scale


@cache
def _recovery_instances():
    """Well and ill-conditioned programs, with and without degeneracy."""
    specs = [GeneratorSpec(m=6, n=14, kappa_target=kappa, mode="known-optimal",
                           degenerate=degenerate, seed=3 + i)
             for i, (kappa, degenerate) in enumerate(
                 [(10.0, False), (1e6, False), (100.0, True), (1e6, True)])]
    programs = [generate(spec).lp for spec in specs]
    return [(lp, preprocess(lp)) for lp in programs]


def _spread_iterate(rng, lp, log_mu, log_spread):
    """Interior iterate with measure mu and x spread over 10^(+-log_spread)."""
    mu = 10.0 ** log_mu
    x = rng.uniform(0.2, 3.0, lp.n) * 10.0 ** rng.uniform(-log_spread, log_spread, lp.n)
    deviation = rng.standard_normal(lp.n)
    deviation -= deviation.mean()
    deviation *= 0.4 * mu * rng.uniform() / np.linalg.norm(deviation)
    return x, rng.standard_normal(lp.m), (mu + deviation) / x


@settings(max_examples=200, deadline=None)
@given(index=st.integers(0, 3), kind=st.sampled_from([SystemKind.MNES, SystemKind.PNES]),
       log_mu=st.floats(-10.0, 0.0), log_residual=st.floats(-3.0, 3.0),
       log_spread=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
# A dx read 1.5 times the bound here before recovery took a residual-correction pass
@example(index=2, kind=SystemKind.PNES, log_mu=0.0, log_residual=0.0, log_spread=0.0,
         seed=1537)
def test_recovered_step_stays_in_null_space(index, kind, log_mu, log_residual,
                                            log_spread, seed):
    # A dx = 0 up to the rounding of dx itself, however large the injected
    # residual and with it the correction v = D_B r_hat
    lp, prep = _recovery_instances()[index]
    rng = np.random.default_rng(seed)
    mu = 10.0 ** log_mu
    it = Iterate(*_spread_iterate(rng, lp, log_mu, log_spread))
    sys = assemble(kind, it, prep, beta=0.9)
    r_hat = rng.standard_normal(lp.m)
    r_hat *= 10.0 ** log_residual * 0.1 * np.sqrt(mu) / np.linalg.norm(r_hat)
    z = solve_exact(sys.matrix, sys.rhs + r_hat).solution
    d = recover_direction(sys, z, it, prep)
    eps = np.finfo(float).eps
    bound = 4.0 * eps * np.linalg.norm(lp.A, np.inf) * (
        np.linalg.norm(it.x, np.inf) + np.linalg.norm(d.dx, np.inf))
    assert np.linalg.norm(lp.A @ d.dx, np.inf) <= bound


def _reference_basis_scaled(it, lp, basis, A_hat_N, beta):
    """The full-width assembly and recovery the nonbasic-block ones replaced.

    ``A_hat`` is the whole basis-scaled matrix, the identity on ``basis``
    and ``A_hat_N`` off it; the system is ``E E^T`` with ``E = A_hat D / d_B``, symmetrized, and
    the right-hand side ``(A_hat x - beta mu A_hat s^{-1}) / d_B``.
    """
    m, n = lp.m, lp.n
    N = np.setdiff1d(np.arange(n), basis)
    A_hat = np.zeros((m, n))
    A_hat[:, basis] = np.eye(m)
    A_hat[:, N] = A_hat_N
    d = np.sqrt(it.x / it.s)
    d_B = d[basis]
    E = A_hat * d / d_B[:, None]
    matrix = E @ E.T
    matrix = 0.5 * (matrix + matrix.T)
    rhs = (A_hat @ it.x - beta * it.mu * (A_hat @ (1.0 / it.s))) / d_B
    basis_inverse = np.linalg.inv(lp.A[:, basis])

    def recover(z):
        r_hat = matrix @ z - rhs
        dy = basis_inverse.T @ (z / d_B)
        v = np.zeros(n)
        v[basis] = d_B * r_hat
        ds = -lp.A.T @ dy
        dx = beta * it.mu / it.s - it.x - (it.x / it.s) * ds - v
        dx[basis] = -A_hat[:, N] @ dx[N]
        dx[basis] -= basis_inverse @ (lp.A @ dx)
        return dx, dy, ds, r_hat

    return matrix, rhs, A_hat, basis_inverse, recover


@settings(max_examples=200, deadline=None)
@given(index=st.integers(0, 3), path=st.sampled_from(["mnes", "pnes-kept", "pnes-changed"]),
       log_mu=st.floats(-10.0, 0.0), log_residual=st.floats(-3.0, 3.0),
       log_spread=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_nonbasic_block_matches_full_width_reference(index, path, log_mu, log_residual,
                                                     log_spread, seed):
    # I + E_N E_N^T and x_B + A_hat_N x_N are the full-width E E^T and
    # A_hat x with the identity block multiplied out, so both sides agree
    # to rounding; "pnes-kept" selects the preprocessing basis set,
    # "pnes-changed" another one, whose record factors_for builds
    lp, prep = _recovery_instances()[index]
    rng = np.random.default_rng(seed)
    x, y, s = _spread_iterate(rng, lp, log_mu, log_spread)
    if path != "mnes":
        lead = (list(prep.factors.index) if path == "pnes-kept"
                else [int(rng.choice(prep.factors.nonbasic))])
        x[lead] = s[lead] * (x / s).max() * rng.uniform(10.0, 20.0, len(lead))
    it = Iterate(x, y, s)
    beta = 0.9
    kind = SystemKind.MNES if path == "mnes" else SystemKind.PNES
    sys = assemble(kind, it, prep, beta)
    basis = list(prep.factors.index)
    if path == "pnes-changed":
        basis = sorted(select_basis_mwb(it, lp.A))
        assert set(basis) != set(prep.factors.index)
    assert sys.basis.index.tolist() == basis

    eps = np.finfo(float).eps
    tol = lp.n * eps
    matrix, rhs, A_hat, basis_inverse, recover = _reference_basis_scaled(
        it, lp, basis, sys.basis.A_hat_N, beta)
    # the stored block is the old full-width product's nonbasic block
    A_B = lp.A[:, basis]
    full = basis_inverse @ lp.A
    full += basis_inverse @ (lp.A - A_B @ full)
    np.testing.assert_allclose(full[:, sys.basis.nonbasic], sys.basis.A_hat_N, rtol=0,
                               atol=tol * np.linalg.cond(A_B) * np.abs(full).max())

    assert np.abs(sys.matrix - matrix).max() <= tol * np.abs(matrix).max()
    terms = (np.abs(A_hat) @ np.abs(it.x)
             + beta * it.mu * (np.abs(A_hat) @ (1.0 / it.s))) / np.sqrt(it.x / it.s)[basis]
    assert np.abs(sys.rhs - rhs).max() <= tol * terms.max()

    r_hat = rng.standard_normal(lp.m)
    r_hat *= 10.0 ** log_residual * 0.1 * np.sqrt(it.mu) / np.linalg.norm(r_hat)
    z = solve_exact(sys.matrix, sys.rhs + r_hat).solution
    d = recover_direction(sys, z, it, prep)
    dx, dy, ds, r_ref = recover(z)
    product = np.linalg.norm(matrix, np.inf) * np.linalg.norm(z, np.inf)
    assert np.abs(d.residual_hat - r_ref).max() <= tol * (product + np.abs(rhs).max())
    assert np.abs(d.dy - dy).max() <= tol * np.abs(dy).max()
    assert np.abs(d.ds - ds).max() <= tol * np.abs(ds).max()
    # dx on the basis cancels terms as large as |A_hat| |dx|
    dx_terms = np.abs(A_hat) @ np.abs(dx) + np.abs(basis_inverse) @ (np.abs(lp.A) @ np.abs(dx))
    assert np.abs(d.dx - dx).max() <= tol * dx_terms.max()
    bound = 4.0 * eps * np.linalg.norm(lp.A, np.inf) * (
        np.linalg.norm(it.x, np.inf) + np.linalg.norm(d.dx, np.inf))
    assert np.linalg.norm(lp.A @ d.dx, np.inf) <= bound


@settings(max_examples=200, deadline=None)
@given(index=st.integers(0, 3), path=st.sampled_from(["mnes", "pnes-kept", "pnes-changed"]),
       log_mu=st.floats(-10.0, 0.0), log_spread=st.floats(0.0, 3.0),
       log_z=st.floats(-6.0, 6.0), seed=st.integers(0, 2**32 - 1))
def test_basis_scaled_matvec_matches_matrix(index, path, log_mu, log_spread, log_z, seed):
    # the operator the solvers apply, z + E_N (E_N^T z), is the dense
    # I + E_N E_N^T to rounding of the terms |z| + |E_N| |E_N|^T |z|
    lp, prep = _recovery_instances()[index]
    rng = np.random.default_rng(seed)
    x, y, s = _spread_iterate(rng, lp, log_mu, log_spread)
    if path != "mnes":
        lead = (list(prep.factors.index) if path == "pnes-kept"
                else [int(rng.choice(prep.factors.nonbasic))])
        x[lead] = s[lead] * (x / s).max() * rng.uniform(10.0, 20.0, len(lead))
    it = Iterate(x, y, s)
    sys = assemble(SystemKind.MNES if path == "mnes" else SystemKind.PNES, it, prep, 0.9)
    kept = set(sys.basis.index.tolist()) == set(prep.factors.index)
    assert kept == (path != "pnes-changed")
    z = 10.0 ** log_z * rng.standard_normal(lp.m)
    terms = np.abs(z) + np.abs(sys.E_N) @ (np.abs(sys.E_N).T @ np.abs(z))
    tol = lp.n * np.finfo(float).eps
    assert np.abs(sys.matvec(z) - sys.matrix @ z).max() <= tol * terms.max()
    np.testing.assert_allclose(sys.diagonal(), np.diag(sys.matrix), rtol=tol, atol=0)


@pytest.mark.parametrize("m, n", [(4, 9), (120, 240)])
@pytest.mark.parametrize("kind", [SystemKind.MNES, SystemKind.PNES])
def test_basis_scaled_matrix_structure(kind, m, n):
    # exactly symmetric, so the solvers' exact-equality test takes it as
    # symmetric, and lambda_min >= 1 up to rounding: the identity block
    # behind the conditioning bounds of MNES and PNES
    inst = generate(GeneratorSpec(m=m, n=n, kappa_target=1e4, mode="known-optimal",
                                  degenerate=True, seed=m))
    lp, prep = inst.lp, preprocess(inst.lp)
    rng = np.random.default_rng(n)
    eps = np.finfo(float).eps
    for log_spread in (0.0, 0.5, 1.0, 2.0):
        it = Iterate(*_spread_iterate(rng, lp, -2.0, log_spread))
        sys = assemble(kind, it, prep, beta=0.9)
        assert np.array_equal(sys.matrix, sys.matrix.T)
        norm = np.linalg.norm(sys.matrix, 2)
        assert np.linalg.eigvalsh(sys.matrix).min() >= 1.0 - m * eps * norm


def test_mnes_centered_zero_direction(central_instance):
    prep = preprocess(central_instance.lp)
    it = central_instance.start
    m = central_instance.lp.m
    sys = assemble(SystemKind.MNES, it, prep, beta=1.0)
    direction = recover_direction(sys, np.zeros(m), it, prep)
    assert np.linalg.norm(direction.dx, np.inf) <= 1e-10
    assert np.linalg.norm(direction.dy, np.inf) <= 1e-10
    assert np.linalg.norm(direction.ds, np.inf) <= 1e-10


def test_residual_correction_bound(central_instance):
    # injected residual at the admissible level keeps ||S v||_inf <= eta mu
    lp = central_instance.lp
    prep = preprocess(lp)
    rng = np.random.default_rng(5)
    eta, theta = 0.1, 0.7
    for _ in range(100):
        x = rng.uniform(0.2, 3.0, lp.n)
        mu = 10.0 ** rng.uniform(-6, 0)
        deviation = rng.standard_normal(lp.n)
        deviation -= deviation.mean()  # keep the measure at exactly mu
        deviation *= theta * mu * rng.uniform(0, 1) / np.linalg.norm(deviation)
        s = (mu + deviation) / x
        it = Iterate(x, rng.standard_normal(lp.m), s)
        assert abs(it.mu - mu) <= 1e-12 * mu

        bound = eta / np.sqrt(1 + theta) * np.sqrt(it.mu)
        r_hat = rng.standard_normal(lp.m)
        r_hat *= bound / np.linalg.norm(r_hat, np.inf)
        sys = assemble(SystemKind.MNES, it, prep, beta=0.9)
        z = solve_exact(sys.matrix, sys.rhs + r_hat).solution
        direction = recover_direction(sys, z, it, prep)
        sv = np.linalg.norm(it.s * direction.correction_v, np.inf)
        assert sv <= eta * it.mu * (1 + 1e-9)
        # the correction lives on the basis positions only
        off_basis = np.setdiff1d(np.arange(lp.n), prep.factors.index)
        assert np.all(direction.correction_v[off_basis] == 0.0)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_recovery_from_the_reported_residual_is_bit_identical(kind, central_instance):
    # a solve's rhs - matvec(z), negated, is the r_hat recovery forms
    # itself, bit for bit; given it, recovery applies no operator
    from ifipm.solvers import CgSolver, ExactSolver

    prep = preprocess(central_instance.lp)
    it = feasible_iterate(np.random.default_rng(13), central_instance)
    sys = assemble(kind, it, prep, beta=0.9)
    handle = CgSolver() if sys.positive_definite else ExactSolver()
    report = handle(sys, sys.rhs, 1e-2 * np.linalg.norm(sys.rhs))
    applied = []
    matvec = sys.matvec
    object.__setattr__(sys, "matvec", lambda z: applied.append(z) or matvec(z))
    itself = recover_direction(sys, report.solution, it, prep)
    needs_residual = kind in (SystemKind.NES, SystemKind.MNES, SystemKind.PNES)
    assert len(applied) == needs_residual
    given_residual = recover_direction(sys, report.solution, it, prep,
                                       residual=report.residual)
    assert len(applied) == needs_residual
    for field in ("dx", "dy", "ds", "residual_hat", "correction_v"):
        np.testing.assert_array_equal(getattr(given_residual, field),
                                      getattr(itself, field))


def test_proc_a_zero_residual_matches_exact(central_instance):
    lp = central_instance.lp
    prep = preprocess(lp)
    rng = np.random.default_rng(6)
    it = feasible_iterate(rng, central_instance)
    beta = 0.9
    sys = assemble(SystemKind.NES, it, prep, beta)
    dy = solve_exact(sys.matrix, sys.rhs).solution
    direction = recover_direction_nes_procA(sys, dy, it, prep)
    dx, dy_ref, ds = dense_newton_direction(lp, it, beta)
    assert np.linalg.norm(direction.dx - dx) <= 1e-8 * (1 + np.linalg.norm(dx))
    assert np.linalg.norm(direction.dy - dy_ref) <= 1e-8
    assert np.linalg.norm(direction.ds - ds) <= 1e-8


def test_proc_a_correction_solves_av_equals_r(central_instance):
    lp = central_instance.lp
    prep = preprocess(lp)
    rng = np.random.default_rng(7)
    it = feasible_iterate(rng, central_instance)
    sys = assemble(SystemKind.NES, it, prep, 0.9)
    for _ in range(5):
        # A v = r holds for any r; A dx = 0 needs r consistent with dy
        dy = rng.standard_normal(lp.m)
        r = sys.matrix @ dy - sys.rhs
        direction = recover_direction_nes_procA(sys, dy, it, prep)
        assert np.linalg.norm(lp.A @ direction.correction_v - r, np.inf) <= 1e-10
        assert np.linalg.norm(lp.A @ direction.dx, np.inf) <= 1e-9


def test_proc_a_admissibility_formula():
    # ||v||_2 <= ||r||_2 / sigma_min(A) for v = A^T (A A^T)^{-1} r, so the
    # level is eta mu sigma_min / ||s||_inf: here sigma_min = 1 (not
    # sigma_max = 1e3), ||s||_inf = 1e3, mu = 1, eta = 0.1 -> 1e-4
    A = np.array([[1e3, 0.0], [0.0, 1.0]])
    lp = LinearProgram(A, np.ones(2), 2e3 * np.ones(2))
    it = Iterate(np.array([1e-3, 1e3]), np.zeros(2), np.array([1e3, 1e-3]))
    assert it.mu == pytest.approx(1.0)
    assert proc_a_residual_bound(it, preprocess(lp)) == pytest.approx(1e-4, rel=1e-12)


def test_oss_zero_solution_zero_direction(central_instance):
    lp = central_instance.lp
    prep = preprocess(lp)
    it = central_instance.start
    sys = assemble(SystemKind.OSS, it, prep, 0.9)
    d = recover_direction_oss(sys, np.zeros(lp.n), it, prep)
    assert np.linalg.norm(d.dx) == 0.0
    assert np.linalg.norm(d.ds) == 0.0


def test_oss_feasibility_unconditional(central_instance):
    lp = central_instance.lp
    prep = preprocess(lp)
    rng = np.random.default_rng(8)
    it = feasible_iterate(rng, central_instance)
    sys = assemble(SystemKind.OSS, it, prep, 0.9)
    for _ in range(10):
        d = recover_direction_oss(sys, rng.standard_normal(lp.n), it, prep)
        assert np.linalg.norm(lp.A @ d.dx, np.inf) <= 1e-10
        assert np.linalg.norm(lp.A.T @ d.dy + d.ds, np.inf) <= 1e-10


def test_oss_exact_matches_dense_full_system(central_instance):
    lp = central_instance.lp
    prep = preprocess(lp)
    rng = np.random.default_rng(9)
    it = feasible_iterate(rng, central_instance)
    beta = 0.9
    sys = assemble(SystemKind.OSS, it, prep, beta)
    sol = solve_exact(sys.matrix, sys.rhs).solution
    d = recover_direction_oss(sys, sol, it, prep)
    dx, dy, ds = dense_newton_direction(lp, it, beta)
    assert np.linalg.norm(d.dx - dx) <= 1e-8 * (1 + np.linalg.norm(dx))
    assert np.linalg.norm(d.dy - dy) <= 1e-8
    assert np.linalg.norm(d.ds - ds) <= 1e-8


def test_verify_direction_exact_step(central_instance):
    lp = central_instance.lp
    prep = preprocess(lp)
    rng = np.random.default_rng(10)
    it = feasible_iterate(rng, central_instance)
    beta = 0.9
    sys = assemble(SystemKind.MNES, it, prep, beta)
    z = solve_exact(sys.matrix, sys.rhs).solution
    d = recover_direction(sys, z, it, prep)
    report = verify_direction(d, it, lp, beta)
    assert report.primal_residual <= 1e-8
    assert report.dual_residual <= 1e-8
    assert report.third_row_residual <= 1e-8
    assert abs(report.dx_dot_ds) <= 1e-10 * (1 + np.linalg.norm(d.dx) * np.linalg.norm(d.ds))
    assert report.sv_ok


def test_verify_direction_flags_missing_correction(central_instance):
    from dataclasses import replace

    lp = central_instance.lp
    prep = preprocess(lp)
    it = central_instance.start
    rng = np.random.default_rng(11)
    beta = 0.9
    sys = assemble(SystemKind.MNES, it, prep, beta)
    r_hat = 1e-2 * rng.standard_normal(lp.m)
    z = solve_exact(sys.matrix, sys.rhs + r_hat).solution
    d = recover_direction(sys, z, it, prep)
    broken = replace(d, dx=d.dx + d.correction_v, correction_v=np.zeros(lp.n))
    report = verify_direction(broken, it, lp, beta)
    assert report.primal_residual > 1e-6  # drift is visible without v


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 7), extra=st.integers(1, 9), log_kappa=st.floats(0, 6),
       kind=st.sampled_from([SystemKind.MNES, SystemKind.PNES, SystemKind.NES]),
       log_mu=st.floats(-8, 0), u=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
def test_correction_lemma_on_injected_residuals(m, extra, log_kappa, kind, log_mu, u,
                                                seed):
    # a solve residual within the kind's target keeps ||S v||_inf <= ETA mu
    # in the THETA neighborhood: for MNES/PNES whichever basis the system
    # holds, for NES's pseudoinverse correction whatever kappa(A) is
    inst = generate(GeneratorSpec(m=m, n=m + extra, kappa_target=10.0 ** log_kappa,
                                  seed=seed))
    lp, prep = inst.lp, preprocess(inst.lp)
    rng = np.random.default_rng(seed)
    it = neighborhood_iterate(rng, lp.n, lp.m, THETA, 10.0 ** log_mu)
    beta = short_step(lp.n)
    sys = assemble(kind, it, prep, beta)
    target = solve_target(kind, it, prep)
    r = rng.standard_normal(lp.m)
    r *= u * target / np.linalg.norm(r)
    d = recover_direction(sys, solve_exact(sys, sys.rhs + r).solution, it, prep)
    if np.linalg.norm(d.residual_hat) <= target:
        assert verify_direction(d, it, lp, beta).sv_ok


def test_condition_number_basics():
    assert condition_number(np.eye(4)) == pytest.approx(1.0)
    assert condition_number(np.diag([1.0, 10.0])) == pytest.approx(10.0)
    with pytest.raises(errors.SingularMatrix):
        condition_number(np.diag([1.0, 0.0]))


def test_chi_bar_identity():
    assert chi_bar(np.eye(3)) == pytest.approx(np.sqrt(3.0))


def test_chi_bar_enumeration_double_identity():
    A = np.hstack([np.eye(2), np.eye(2)])
    # every nonsingular basis maps A to a column permutation of [I | I]
    assert chi_bar(A) == pytest.approx(2.0)


def test_chi_bar_too_large():
    with pytest.raises(errors.TooLarge):
        chi_bar(np.ones((1, 13)))


def test_pnes_condition_bounded_by_chi_bar_squared():
    rng = np.random.default_rng(12)
    for seed in range(4):
        inst = generate(GeneratorSpec(m=2, n=5, kappa_target=10.0, seed=seed))
        prep = preprocess(inst.lp)
        bound = chi_bar(inst.lp.A) ** 2
        for _ in range(10):
            it = interior_iterate(rng, inst.lp)
            sys = assemble(SystemKind.PNES, it, prep, beta=0.9)
            assert condition_number(sys) <= bound * (1 + 1e-6)


def test_preconditioned_stays_bounded_where_plain_normal_eqs_blow_up():
    # near the optimum of an ill-conditioned nondegenerate instance the
    # per-iteration basis keeps the scaled system's condition number tiny
    # while the plain normal equations sit at ~kappa(A)^2. (The *fixed*
    # preprocessing basis gives no such bound: unless it happens to be
    # the optimal support, its scaled system degrades like the plain one.)
    from ifipm import generate

    inst = generate(GeneratorSpec(m=4, n=9, kappa_target=1e6,
                                  mode="known-optimal", seed=4))
    B, N = inst.partition
    prep = preprocess(inst.lp)
    mu = 1e-6
    x = inst.optimal.x.copy()
    s = inst.optimal.s.copy()
    x[list(N)] = mu / s[list(N)]
    s[list(B)] = mu / x[list(B)]
    it = Iterate(x, inst.optimal.y, s)
    kappa_nes = condition_number(assemble(SystemKind.NES, it, prep, 0.9))
    kappa_pnes = condition_number(assemble(SystemKind.PNES, it, prep, 0.9))
    assert kappa_nes >= 1e10
    assert kappa_pnes <= 1e3
    assert kappa_pnes <= kappa_nes / 10.0


def test_pnes_condition_settles_on_nondegenerate_runs():
    # once the iterates approach the optimal face, the per-iteration basis
    # stabilizes and the preconditioned matrix tends to the identity, so
    # its condition number stops growing (5% noise allowance)
    from ifipm import IpmParams, generate
    from ifipm.cli import condition_trace

    inst = generate(GeneratorSpec(m=4, n=9, kappa_target=100.0,
                                  mode="known-optimal", seed=21))
    trace = condition_trace(preprocess(inst.lp), inst.start, IpmParams(zeta=1e-7),
                            [SystemKind.PNES])
    kappas = [row["kappa_PNES"] for row in trace.rows if row["mu"] <= 1e-4]
    assert len(kappas) > 10
    for before, after in zip(kappas, kappas[1:]):
        assert after <= before * 1.05
    assert kappas[-1] <= kappas[0]


def test_assembly_is_parallel_safe(central_instance):
    from concurrent.futures import ThreadPoolExecutor

    prep = preprocess(central_instance.lp)
    it = central_instance.start

    def build(kind):
        return assemble(kind, it, prep, 0.9)

    with ThreadPoolExecutor(max_workers=6) as pool:
        parallel = list(pool.map(build, ALL_KINDS))
    for sys, kind in zip(parallel, ALL_KINDS):
        ref = assemble(kind, it, prep, 0.9)
        np.testing.assert_array_equal(sys.matrix, ref.matrix)
        np.testing.assert_array_equal(sys.rhs, ref.rhs)


def test_kept_basis_factors_are_thread_safe(central_instance):
    # threads that alternate between two basis sets on one program keep
    # replacing its kept factors; every assembly must still equal a cold one
    import sys
    from concurrent.futures import ThreadPoolExecutor

    lp = central_instance.lp
    prep = preprocess(lp)
    iterates = []
    for shift in (0, lp.n - lp.m):
        x = np.ones(lp.n)
        x[shift:shift + lp.m] = 2.0
        iterates.append(Iterate(x, np.zeros(lp.m), np.ones(lp.n)))
    sets = {frozenset(select_basis_mwb(it, lp.A)) for it in iterates}
    assert len(sets) == 2 and frozenset(prep.factors.index) not in sets
    cold = [assemble(SystemKind.PNES, it, preprocess(lp), 0.9) for it in iterates]

    def build(k):
        sys_k = assemble(SystemKind.PNES, iterates[k % 2], prep, 0.9)
        ref = cold[k % 2]
        return (np.array_equal(sys_k.matrix, ref.matrix)
                and np.array_equal(sys_k.rhs, ref.rhs)
                and np.array_equal(sys_k.basis.inverse, ref.basis.inverse))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(build, k) for k in range(400)]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(results)


def test_mnes_equals_pnes_on_matching_basis(central_instance):
    lp = central_instance.lp
    prep = preprocess(lp)
    x = np.ones(lp.n)
    s = np.ones(lp.n)
    x[list(prep.factors.index)] = 2.0  # ratios favor exactly the fixed basis
    it = Iterate(x, np.zeros(lp.m), s)
    assert sorted(select_basis_mwb(it, lp.A)) == sorted(prep.factors.index)
    mnes = assemble(SystemKind.MNES, it, prep, beta=0.9)
    pnes = assemble(SystemKind.PNES, it, prep, beta=0.9)
    perm = [list(pnes.basis.index).index(j) for j in prep.factors.index]
    np.testing.assert_allclose(pnes.matrix[np.ix_(perm, perm)], mnes.matrix,
                               atol=1e-10)
