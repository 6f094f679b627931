import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifipm import GeneratorSpec, errors
from ifipm.solvers import (
    EXACT_RTOL,
    CgSolver,
    ExactSolver,
    Operator,
    OracleSolver,
    PcgSolver,
    RefiningSolver,
    inexact_oracle,
    refine_linear,
    solve_cg,
    solve_exact,
)


def random_spd(rng, n, spread=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.geomspace(1.0, spread, n)
    return q @ np.diag(eigs) @ q.T


def test_solve_exact_identity():
    b = np.array([3.0, -1.0, 2.0])
    rep = solve_exact(np.eye(3), b)
    np.testing.assert_allclose(rep.solution, b)


def test_solve_exact_diagonal():
    rep = solve_exact(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    np.testing.assert_allclose(rep.solution, np.ones(2))


def test_solve_exact_residual_postcondition():
    rng = np.random.default_rng(0)
    M = random_spd(rng, 50, spread=100.0)
    b = rng.standard_normal(50)
    rep = solve_exact(M, b)
    true_resid = np.linalg.norm(b - M @ rep.solution)
    assert true_resid <= 1e-12 * (1.0 + np.linalg.norm(b))
    assert rep.achieved_residual == pytest.approx(true_resid, abs=1e-15)


def test_solve_exact_singular_raises():
    with pytest.raises(errors.SingularMatrix):
        solve_exact(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]))


def test_cg_identity_one_iteration():
    rep = solve_cg(np.eye(4), np.arange(1.0, 5.0), 1e-12)
    assert rep.iterations == 1
    np.testing.assert_allclose(rep.solution, np.arange(1.0, 5.0), atol=1e-12)


def test_cg_converges_on_spd():
    rng = np.random.default_rng(1)
    M = random_spd(rng, 30, spread=100.0)
    b = rng.standard_normal(30)
    rep = solve_cg(M, b, 1e-9)
    assert rep.converged
    assert np.linalg.norm(b - M @ rep.solution) <= 1e-9


def test_cg_indefinite_raises():
    with pytest.raises(errors.NotSPD):
        solve_cg(np.diag([1.0, -1.0]), np.array([1.0, 1.0]), 1e-8)


def test_cg_nonsymmetric_raises():
    with pytest.raises(errors.NotSPD):
        solve_cg(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2), 1e-8)


def test_cg_returns_zero_when_it_meets_the_target():
    b = np.array([3.0, 4.0])
    rep = solve_cg(np.eye(2), b, 5.0)
    assert rep.iterations == 0 and rep.achieved_residual == 5.0
    np.testing.assert_array_equal(rep.solution, np.zeros(2))


def test_cg_budget_returns_best_iterate():
    rng = np.random.default_rng(2)
    M = random_spd(rng, 40, spread=1e4)
    b = rng.standard_normal(40)
    rep = solve_cg(M, b, 1e-14, max_iterations=3)
    assert not rep.converged
    assert rep.iterations == 3
    assert rep.achieved_residual == pytest.approx(
        np.linalg.norm(b - M @ rep.solution))


def test_pcg_with_exact_preconditioner():
    rng = np.random.default_rng(3)
    M = random_spd(rng, 25, spread=1e6)
    b = rng.standard_normal(25)
    Minv = np.linalg.inv(M)
    rep = solve_cg(M, b, 1e-10, precondition=lambda v: Minv @ v)
    assert rep.converged and rep.iterations <= 3
    plain = solve_cg(M, b, 1e-10)
    assert plain.iterations > rep.iterations


@pytest.mark.parametrize("target", [0.0, -1.0])
@pytest.mark.parametrize("solve", [
    solve_cg, inexact_oracle, CgSolver(), PcgSolver(), OracleSolver(),
], ids=["solve_cg", "inexact_oracle", "CgSolver", "PcgSolver", "OracleSolver"])
def test_nonpositive_target_rejected(solve, target):
    with pytest.raises(errors.InvalidParameters):
        solve(np.eye(3), np.ones(3), target)


@pytest.mark.parametrize("target", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("solve", [
    OracleSolver(mode="random"), OracleSolver(mode="adversarial"), solve_cg, PcgSolver(),
    lambda M, b, target: refine_linear(OracleSolver(), M, b, target, 1e-1),
    RefiningSolver(),
], ids=["oracle-random", "oracle-adversarial", "solve_cg", "PcgSolver", "refine_linear",
        "RefiningSolver"])
def test_non_finite_target_rejected(solve, target):
    # the oracle once returned a nan solution as converged, CG reported
    # negative curvature and refinement died in math.ceil
    with pytest.raises(errors.InvalidParameters):
        solve(np.diag([2.0, 1.0]), np.ones(2), target)


def test_oracle_random_residual_window():
    rng = np.random.default_rng(4)
    M = random_spd(rng, 12)
    b = rng.standard_normal(12)
    for seed in range(20):
        rep = inexact_oracle(M, b, 1e-3, seed=seed)
        assert 5e-4 <= rep.achieved_residual <= 1e-3


def test_oracle_tiny_target_the_exact_solve_misses_raises():
    # a target below 1e-15 once returned the exact solve, met or not
    rng = np.random.default_rng(5)
    M = random_spd(rng, 30)
    b = rng.standard_normal(30)
    assert np.linalg.norm(b - M @ solve_exact(M, b).solution) > 1e-16
    with pytest.raises(errors.SolverFailure):
        inexact_oracle(M, b, 1e-16, seed=0)


def test_oracle_adversarial_hits_target_exactly():
    rng = np.random.default_rng(6)
    M = random_spd(rng, 10, spread=1e3)
    b = rng.standard_normal(10)
    target = 1e-4
    rep = inexact_oracle(M, b, target, seed=1, mode="adversarial")
    assert rep.achieved_residual <= target
    assert rep.achieved_residual == pytest.approx(target, rel=1e-8)


def test_oracle_determinism():
    rng = np.random.default_rng(7)
    M = random_spd(rng, 9)
    b = rng.standard_normal(9)
    for mode in ("random", "adversarial"):
        a = inexact_oracle(M, b, 1e-5, seed=42, mode=mode)
        b2 = inexact_oracle(M, b, 1e-5, seed=42, mode=mode)
        np.testing.assert_array_equal(a.solution, b2.solution)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 14), log_spread=st.floats(0, 8), log_target=st.floats(-10, -1),
       seed=st.integers(0, 2**32 - 1), operator=st.booleans(),
       mode=st.sampled_from(["random", "adversarial"]))
def test_oracle_never_exceeds_target(n, log_spread, log_target, seed, operator, mode):
    rng = np.random.default_rng(seed)
    if operator:  # I + E_N E_N^T, as MNES/PNES assemble it, E_N of any width
        E_N = rng.standard_normal((n, int(rng.integers(1, 2 * n))))
        M = Operator(E_N=10 ** (0.5 * log_spread) * E_N)
    else:
        M = random_spd(rng, n, spread=10**log_spread)
    b = rng.standard_normal(n)
    target = 10.0**log_target
    dense = M.matrix if operator else M
    try:
        rep = inexact_oracle(M, b, target, seed=seed, mode=mode)
    except errors.SolverFailure:  # its one refusal: the exact solve misses the target
        assert np.linalg.norm(b - dense @ solve_exact(M, b).solution) > target
        return
    assert np.linalg.norm(b - dense @ rep.solution) <= target
    assert rep.achieved_residual <= target


def test_refine_identity_single_loop():
    rep = refine_linear(ExactSolver(), np.eye(3), np.ones(3), 1e-10, 0.5)
    assert rep.iterations == 1
    np.testing.assert_allclose(rep.solution, np.ones(3), atol=1e-12)


def test_refine_zero_loops_when_zero_meets_target():
    b = np.array([3.0, 4.0])
    rep = refine_linear(ExactSolver(), np.eye(2), b, 5.0, 0.5)
    assert rep.iterations == 0 and rep.achieved_residual == 5.0
    np.testing.assert_array_equal(rep.solution, np.zeros(2))


def test_refine_loop_cap_raises_stalled():
    from ifipm.solvers import SolveReport

    # contracts by 0.35 per loop: never slower than the stall factor 0.4 of
    # eps_inner 0.1, but 14 loops are needed and the cap allows 6 + 2
    def slow(matrix, rhs, target):
        return SolveReport(solution=0.65 * rhs, achieved_residual=0.35 * np.linalg.norm(rhs),
                           iterations=1, method="slow")

    with pytest.raises(errors.Stalled, match="within 8 refinement loops"):
        refine_linear(slow, np.eye(4), np.full(4, 0.5), 1e-6, 0.1)


def test_refine_loop_count_bound():
    rng = np.random.default_rng(9)
    M = random_spd(rng, 30)
    b = rng.standard_normal(30)
    inner = OracleSolver(seed=13)
    rep = refine_linear(inner, M, b, 1e-10, 1e-1)
    assert rep.achieved_residual <= 1e-10
    assert rep.iterations <= 12


def test_refine_adversarial_linear_rate():
    rng = np.random.default_rng(10)
    M = random_spd(rng, 20)
    b = rng.standard_normal(20)
    residuals = [np.linalg.norm(b)]

    class Tracking:
        def __call__(self, matrix, rhs, target):
            rep = OracleSolver(mode="adversarial", seed=3)(matrix, rhs, target)
            return rep

    inner = Tracking()
    rep = refine_linear(inner, M, b, 1e-8, 0.5)
    assert rep.achieved_residual <= 1e-8
    # adversarial inner hits exactly half the current residual each loop
    expected_loops = int(np.ceil(np.log(1e-8 / np.linalg.norm(b)) / np.log(0.5)))
    assert abs(rep.iterations - expected_loops) <= 1


def test_refine_monotone_contraction():
    rng = np.random.default_rng(11)
    M = random_spd(rng, 15)
    b = rng.standard_normal(15)
    seen = []

    def inner(matrix, rhs, target):
        seen.append(np.linalg.norm(rhs))
        return OracleSolver(seed=5)(matrix, rhs, target)

    refine_linear(inner, M, b, 1e-9, 0.3)
    ratios = np.diff(np.log(np.asarray(seen)))
    assert np.all(ratios < np.log(0.3 * 1.5) + 1e-12)


def test_refine_stalls_on_useless_inner():
    from ifipm.solvers import SolveReport

    def useless(matrix, rhs, target):
        return SolveReport(solution=np.zeros(rhs.shape[0]),
                           achieved_residual=float(np.linalg.norm(rhs)),
                           iterations=1, method="noop")

    with pytest.raises(errors.Stalled):
        refine_linear(useless, np.eye(4), np.ones(4), 1e-10, 0.5)


def test_handles_are_reusable_values():
    rng = np.random.default_rng(12)
    M = random_spd(rng, 10)
    b = rng.standard_normal(10)
    cg = CgSolver()
    first = cg(M, b, 1e-8)
    second = cg(M, b, 1e-8)
    np.testing.assert_array_equal(first.solution, second.solution)


def test_cg_on_basis_preconditioned_system_vs_plain():
    # near an optimum of an ill-conditioned instance, CG needs orders of
    # magnitude fewer iterations on the basis-scaled system than on the
    # plain normal equations
    from ifipm import GeneratorSpec, Iterate, SystemKind, assemble, generate, preprocess

    inst = generate(GeneratorSpec(m=40, n=80, kappa_target=1e6,
                                  mode="known-optimal", seed=5))
    B, N = inst.partition
    mu = 1e-6
    x = inst.optimal.x.copy()
    s = inst.optimal.s.copy()
    x[list(N)] = mu / s[list(N)]
    s[list(B)] = mu / x[list(B)]
    it = Iterate(x, inst.optimal.y, s)
    prep = preprocess(inst.lp)

    def iterations(kind):
        sys = assemble(kind, it, prep, 0.9)
        tol = 1e-8 * (1.0 + np.linalg.norm(sys.rhs))
        rep = solve_cg(sys.matrix, sys.rhs, tol, max_iterations=100000)
        assert rep.converged
        return rep.iterations

    plain = iterations(SystemKind.NES)
    preconditioned = iterations(SystemKind.PNES)
    assert preconditioned <= 10
    assert plain >= 10 * preconditioned


def _systems(m=6, n=14, seed=3):
    """One assembled system of every kind at a generated instance's start."""
    from ifipm import SystemKind, assemble, generate, preprocess

    inst = generate(GeneratorSpec(m=m, n=n, kappa_target=100.0, seed=seed))
    prep = preprocess(inst.lp)
    return {kind: assemble(kind, inst.start, prep, 0.9) for kind in SystemKind}


def _refine_bare_spd():
    """A bare 50 x 50 SPD matrix through refinement around the oracle."""
    rng = np.random.default_rng(0)
    M = random_spd(rng, 50)
    b = rng.standard_normal(50)
    refining = RefiningSolver(inner=OracleSolver(seed=1), eps_inner=1e-1)
    return refining(M, b, 1e-12 * np.linalg.norm(b))


def _count_factor_calls(monkeypatch):
    """Patch the BLAS/LAPACK entry points the exact path uses; count calls."""
    from scipy.linalg import blas, lapack

    counts = {"dsyrk": 0, "dpotrf": 0, "dgetrf": 0}
    for module, name in ((blas, "dsyrk"), (lapack, "dpotrf"), (lapack, "dgetrf")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_exact_solver_on_systems_meets_exact_rtol():
    # every kind, as the loop passes it: an operator, not a bare matrix
    for kind, sys in _systems().items():
        rep = ExactSolver()(sys, sys.rhs, 0.0)
        bound = EXACT_RTOL * (1.0 + np.linalg.norm(sys.rhs))
        assert rep.achieved_residual <= bound, kind
        assert np.linalg.norm(sys.rhs - sys.matrix @ rep.solution) <= 2.0 * bound, kind
        expected = "cholesky" if sys.positive_definite else "lu"
        assert rep.method == expected, kind


def test_basis_scaled_factorization_kept_per_system(monkeypatch):
    # one syrk and one potrf per system, however many solves reuse it
    from ifipm import SystemKind

    systems = _systems()
    counts = _count_factor_calls(monkeypatch)
    for kind in (SystemKind.MNES, SystemKind.PNES):
        sys = systems[kind]
        ExactSolver()(sys, sys.rhs, 0.0)
        ExactSolver()(sys, 2.0 * sys.rhs, 0.0)
        refining = RefiningSolver(inner=OracleSolver(seed=1), eps_inner=1e-1)
        rep = refining(sys, sys.rhs, 1e-10 * np.linalg.norm(sys.rhs))
        assert rep.iterations >= 2
    assert counts == {"dsyrk": 2, "dpotrf": 2, "dgetrf": 0}
    # a bare matrix is wrapped once per refinement and factored once
    rep = _refine_bare_spd()
    assert rep.iterations >= 2
    assert counts == {"dsyrk": 2, "dpotrf": 3, "dgetrf": 0}


@pytest.mark.parametrize("handle", [CgSolver(), PcgSolver()], ids=["cg", "pcg"])
def test_iterative_solvers_never_form_the_matrix(handle, monkeypatch):
    # CG and PCG apply z + E_N (E_N^T z); the dense matrix, the symmetry
    # probe and any factorization stay untouched
    from ifipm import SystemKind, newton, solvers

    systems = _systems()
    reference = {kind: systems[kind].matrix.copy()
                 for kind in (SystemKind.MNES, SystemKind.PNES)}
    systems = _systems()

    def forbidden(*args):
        raise AssertionError("dense matrix or symmetry probe used")

    monkeypatch.setattr(newton.AssembledSystem, "matrix", property(forbidden))
    monkeypatch.setattr(solvers, "_is_symmetric", forbidden)
    counts = _count_factor_calls(monkeypatch)
    for kind, dense in reference.items():
        sys = systems[kind]
        target = 1e-10 * np.linalg.norm(sys.rhs)
        rep = handle(sys, sys.rhs, target)
        assert rep.converged and rep.achieved_residual <= target
        assert np.linalg.norm(sys.rhs - dense @ rep.solution) <= 1.01 * target
    assert counts == {"dsyrk": 0, "dpotrf": 0, "dgetrf": 0}


def test_no_system_reaches_the_symmetry_probe(monkeypatch):
    # the flags come from the formulation record; only bare matrices are probed
    from ifipm import solvers

    probed = []
    probe = solvers._is_symmetric
    monkeypatch.setattr(solvers, "_is_symmetric",
                        lambda M: probed.append(M) or probe(M))
    for kind, sys in _systems().items():
        ExactSolver()(sys, sys.rhs, 0.0)
        OracleSolver(seed=2)(sys, sys.rhs, 1e-6)
        if sys.symmetric:
            try:
                CgSolver()(sys, sys.rhs, 1e-6)
            except errors.NotSPD:
                assert not sys.positive_definite
    assert probed == []
    solve_exact(np.eye(3), np.ones(3))
    assert len(probed) == 1
    # a bare matrix is probed once per refinement, not once per loop
    assert _refine_bare_spd().iterations >= 2
    assert len(probed) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("solve", [
    lambda M, b: solve_exact(M, b),
    lambda M, b: solve_cg(M, b, 1e-6),
    lambda M, b: inexact_oracle(M, b, 1e-6),
    lambda M, b: inexact_oracle(M, b, 1e-6, mode="adversarial"),
    lambda M, b: refine_linear(OracleSolver(), M, b, 1e-6, 0.1),
    lambda M, b: PcgSolver()(M, b, 1e-6),
    lambda M, b: RefiningSolver()(M, b, 1e-6),
], ids=["solve_exact", "solve_cg", "oracle-random", "oracle-adversarial",
        "refine_linear", "PcgSolver", "RefiningSolver"])
@pytest.mark.parametrize("operator", [False, True], ids=["dense", "operator"])
def test_non_finite_rhs_is_an_input_error(solve, bad, operator):
    # refinement died in math.ceil with a bare ValueError, CG returned a
    # nan residual and the exact solve called it a singular matrix
    M = Operator(E_N=np.eye(3)) if operator else 2.0 * np.eye(3)
    with pytest.raises(errors.NonFinite):
        solve(M, np.array([1.0, bad, 0.0]))


@pytest.mark.parametrize("solve", [
    lambda M, b: solve_exact(M, b),
    lambda M, b: solve_cg(M, b, 1e-6),
    lambda M, b: solve_cg(M, b, 1e-14, max_iterations=2),
    lambda M, b: PcgSolver()(M, b, 1e-6),
    lambda M, b: refine_linear(OracleSolver(), M, b, 1e-9, 0.1),
    lambda M, b: refine_linear(ExactSolver(), M, b, 1e3, 0.1),
], ids=["solve_exact", "cg", "cg-budget", "pcg", "refine", "refine-zero-loops"])
def test_reports_carry_the_residual_they_measure(solve):
    # rhs - matvec(solution), the vector behind achieved_residual
    rng = np.random.default_rng(11)
    M = Operator(E_N=rng.standard_normal((8, 5)))
    b = rng.standard_normal(8)
    rep = solve(M, b)
    np.testing.assert_array_equal(rep.residual, b - M.matvec(rep.solution))
    assert rep.achieved_residual == np.linalg.norm(rep.residual)


def test_oracle_report_carries_no_residual():
    # it measures with the dense matrix, which recovery does not use
    rep = inexact_oracle(Operator(E_N=np.eye(3)), np.ones(3), 1e-6)
    assert rep.residual is None


def _oracle_direction(seed, n=40):
    # on 2 I the exact solution is b / 2, so the perturbation is the draw
    b = np.linspace(1.0, 2.0, n)
    return inexact_oracle(2.0 * np.eye(n), b, 1e-3, seed=seed).solution - b / 2.0


def test_oracle_draw_ignores_calls_in_between():
    rng = np.random.default_rng(12)
    M = random_spd(rng, 9)
    b = rng.standard_normal(9)
    first = inexact_oracle(M, b, 1e-5, seed=5)
    for seed in (0, 6, 2**63, 2**64 - 1):
        inexact_oracle(random_spd(rng, 4), rng.standard_normal(4), 1e-3, seed=seed)
    OracleSolver(seed=5)(M, b, 1e-5)
    again = inexact_oracle(M, b, 1e-5, seed=5)
    np.testing.assert_array_equal(again.solution, first.solution)
    assert again.achieved_residual == first.achieved_residual


def test_oracle_draws_per_thread_match_serial():
    import threading

    seeds = list(range(40))
    serial = [_oracle_direction(seed) for seed in seeds]
    start = threading.Barrier(2)
    results = {}

    def work(name, order):
        start.wait()
        results[name] = {seed: _oracle_direction(seed) for seed in order}

    threads = [threading.Thread(target=work, args=("up", seeds)),
               threading.Thread(target=work, args=("down", seeds[::-1]))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for got in results.values():
        for seed, expected in zip(seeds, serial):
            np.testing.assert_array_equal(got[seed], expected)


@pytest.mark.parametrize("seed", [0, 1, 41, 2**40])
def test_oracle_neighbouring_seeds_are_not_shifted_copies(seed):
    # each seed owns its own substream: seed + 1 does not start a few draws
    # further along seed's
    d0, d1 = _oracle_direction(seed), _oracle_direction(seed + 1)
    for a, b in ((d0, d1), (d1, d0)):
        for shift in range(4):
            ratio = a[shift:] / b[:b.size - shift]
            assert not np.allclose(ratio, ratio[0], rtol=1e-6)


def test_oracle_seed_none_is_seed_zero():
    np.testing.assert_array_equal(inexact_oracle(np.eye(5), np.ones(5), 1e-4).solution,
                                  inexact_oracle(np.eye(5), np.ones(5), 1e-4, seed=0).solution)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_oracle_seed_outside_its_range_rejected(seed):
    with pytest.raises(errors.InvalidParameters):
        inexact_oracle(np.eye(3), np.ones(3), 1e-4, seed=seed)
