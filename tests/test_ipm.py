import math
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifipm import (
    BasisFactors,
    GeneratorSpec,
    IpmParams,
    Iterate,
    LinearProgram,
    SystemKind,
    check_parameters,
    errors,
    generate,
    if_ipm,
    in_neighborhood,
    ir_if_ipm,
    preprocess,
    residuals,
    short_step,
)
from ifipm.ipm import FEAS_RTOL
from ifipm.newton import ETA, THETA
from ifipm.problem import BASIS_TOL
from ifipm.solvers import CgSolver, ExactSolver, OracleSolver, RefiningSolver


def test_check_parameters_beta_one_fails():
    details = check_parameters(50, 0.4, 0.1, 1.0)
    assert not details.ok
    assert not details.con1_ok


def test_check_parameters_validated_preset():
    details = check_parameters(100, 0.4, 0.1, 1.0 - 0.2 / 10.0)
    assert details.ok
    assert details.con1_lhs == pytest.approx(0.98)
    assert details.con1_rhs == pytest.approx(1.0 - 0.11 / 10.0)
    assert details.con2_lhs == pytest.approx(0.21 / (2**1.5 * 0.6) + 0.1)
    assert details.con2_rhs == pytest.approx(0.4 * (0.98 - 0.01))


def test_preset_meets_both_conditions_for_every_n():
    # if_ipm does not evaluate the conditions at run time; this is where
    # they are shown to hold for the only values it can run
    assert THETA == 0.4 and ETA == 0.1
    for n in [*range(1, 10**4 + 1), 10**5, 10**6, 10**7]:
        assert check_parameters(n, THETA, ETA, short_step(n)).ok, n


def test_check_parameters_large_theta_fails_second_condition():
    # the often-quoted theta=0.7, eta=0.1 pair violates the second
    # condition for every n when beta = 1 - 0.2/sqrt(n)
    for n in (4, 100, 10000):
        details = check_parameters(n, 0.7, 0.1, 1.0 - 0.2 / math.sqrt(n))
        assert details.con1_ok
        assert not details.con2_ok
        assert not details.ok


def test_if_ipm_converges_with_exact_solver():
    inst = generate(GeneratorSpec(m=10, n=20, kappa_target=1.0, seed=0))
    prep = preprocess(inst.lp)
    params = IpmParams(zeta=1e-2)
    final, trace = if_ipm(prep, inst.start, params)
    assert final.mu <= 1e-2
    bound = 10.0 * math.sqrt(20) * math.log(inst.start.mu / 1e-2)
    assert len(trace.records) <= bound


def test_if_ipm_inexact_oracle_keeps_guarantees():
    inst = generate(GeneratorSpec(m=6, n=12, kappa_target=10.0, seed=1))
    lp = inst.lp
    prep = preprocess(lp)
    params = IpmParams(zeta=1e-4, solver=OracleSolver(mode="adversarial", seed=5))
    final, trace = if_ipm(prep, inst.start, params)
    assert final.mu <= 1e-4
    beta = short_step(lp.n)
    half_width = ETA / math.sqrt(1.0 + THETA)
    b_scale = 1.0 + np.linalg.norm(lp.b, np.inf)
    c_scale = 1.0 + np.linalg.norm(lp.c, np.inf)
    for rec in trace.records:
        assert rec.in_neighborhood
        assert rec.primal_inf <= 1e-8 * b_scale
        assert rec.dual_inf <= 1e-8 * c_scale
        assert beta - half_width - 1e-10 <= rec.mu_ratio <= beta + half_width + 1e-10


def test_if_ipm_rejects_start_outside_neighborhood():
    inst = generate(GeneratorSpec(m=3, n=6, seed=2))
    prep = preprocess(inst.lp)
    skewed = Iterate(inst.start.x * np.linspace(0.2, 3.0, 6), inst.start.y,
                     inst.start.s)
    with pytest.raises(errors.NotInNeighborhood):
        if_ipm(prep, skewed, IpmParams(zeta=1e-2))


def test_if_ipm_rejects_infeasible_start():
    inst = generate(GeneratorSpec(m=3, n=6, seed=3))
    prep = preprocess(inst.lp)
    shifted = Iterate(inst.start.x, inst.start.y, inst.start.s * 1.5)
    with pytest.raises(errors.NotInNeighborhood):
        if_ipm(prep, shifted, IpmParams(zeta=1e-2))


def test_if_ipm_max_iterations_carries_state(monkeypatch):
    from ifipm import ipm

    monkeypatch.setattr(ipm, "_iteration_budget", lambda n, mu0, zeta: 3)
    inst = generate(GeneratorSpec(m=3, n=6, seed=5))
    prep = preprocess(inst.lp)
    with pytest.raises(errors.MaxIterations) as info:
        if_ipm(prep, inst.start, IpmParams(zeta=1e-12))
    assert info.value.iterate is not None
    assert len(info.value.trace.records) == 3


@pytest.mark.parametrize("zeta", [0.0, -1.0, math.nan, math.inf])
def test_zeta_must_be_positive_and_finite(zeta):
    # a nan zeta once ran refinement to "solved" after one loop, and an
    # unrefined run died in math.ceil with a ValueError
    with pytest.raises(errors.InvalidParameters):
        IpmParams(zeta=zeta)
    inst = generate(GeneratorSpec(m=3, n=8, seed=3))
    with pytest.raises(errors.InvalidParameters):
        ir_if_ipm(inst.lp, inst.start, zeta=zeta, zeta_hat=1e-2, params=IpmParams())


def test_system_must_be_a_system_kind():
    # a string once constructed and then failed in the loop with a KeyError
    with pytest.raises(errors.InvalidParameters):
        IpmParams(system="mnes")


@pytest.mark.parametrize("zeta_hat", [0.0, 0.5, 0.55, 0.7, 1.0, math.nan])
def test_ir_zeta_hat_must_lie_below_one_half(zeta_hat):
    # from 1/2 up the no-progress check allows a loop that does not
    # contract the gap; from 0.56 up runs used up a 64-loop budget
    inst = generate(GeneratorSpec(m=3, n=7, seed=0))
    with pytest.raises(errors.InvalidParameters):
        ir_if_ipm(inst.lp, inst.start, zeta=1e-8, zeta_hat=zeta_hat, params=IpmParams())


@pytest.mark.parametrize("failure, records, message", [
    ("solver", 3, "iteration 3: residual"),
    ("neighborhood", 4, "iterate 4 left the theta=0.4 neighborhood"),
    ("feasibility", 4, "iterate 4 lost feasibility"),
], ids=["solver", "neighborhood", "feasibility"])
def test_loop_failures_carry_partial_trace(failure, records, message, monkeypatch):
    # the step at iteration 3 fails; the error carries the iterate it
    # started from and the records so far, the failed step's included
    # once it was taken
    from dataclasses import replace as dc_replace

    from ifipm import ipm

    inst = generate(GeneratorSpec(m=4, n=9, kappa_target=10.0, seed=6))
    calls = []
    solver, recover = ExactSolver(), ipm.recover_direction

    def failing_solver(matrix, rhs, target):
        calls.append(1)
        report = solver(matrix, rhs, target)
        return dc_replace(report, converged=False) if len(calls) == 4 else report

    def failing_recover(system, solution, it, prep, residual=None):
        calls.append(1)
        direction = recover(system, solution, it, prep, residual=residual)
        if len(calls) != 4:
            return direction
        if failure == "neighborhood":  # halve half of x: off-center
            dx = direction.dx.copy()
            dx[::2] -= 0.5 * (it.x + direction.dx)[::2]
        else:  # grow x by 0.1%: still centered, A dx = 1e-3 b
            dx = direction.dx + 1e-3 * it.x
        return dc_replace(direction, dx=dx)

    if failure == "solver":
        params = IpmParams(zeta=1e-6, solver=failing_solver)
    else:
        params = IpmParams(zeta=1e-6)
        monkeypatch.setattr(ipm, "recover_direction", failing_recover)
    taken = []
    with pytest.raises(errors.SolveError, match=message) as info:
        if_ipm(preprocess(inst.lp), inst.start, params,
               observer=lambda k, it, system, d, new: taken.append(new))
    assert len(info.value.trace.records) == records
    assert info.value.iterate is taken[2]
    assert [r.k for r in info.value.trace.records] == list(range(records))


@pytest.mark.parametrize("where", ["solver", "assembly", "recovery"])
def test_errors_raised_inside_a_step_carry_partial_trace(where, monkeypatch):
    # a NotSPD from the handle, a BasisNotFound from PNES assembly and a
    # SingularMatrix from NES recovery, each at iteration 3, leave the loop
    # with the iterate that step started from and the three records before
    from ifipm import ipm, newton

    inst = generate(GeneratorSpec(m=4, n=9, kappa_target=10.0, seed=6))
    calls = []
    raised = {"solver": errors.NotSPD, "assembly": errors.BasisNotFound,
              "recovery": errors.SingularMatrix}[where]

    def failing(original):
        def wrapped(*args, **kwargs):
            calls.append(1)
            if len(calls) == 4:
                raise raised("injected")
            return original(*args, **kwargs)
        return wrapped

    kind = {"solver": SystemKind.MNES, "assembly": SystemKind.PNES,
            "recovery": SystemKind.NES}[where]
    params = IpmParams(zeta=1e-6, system=kind)
    if where == "solver":
        params = IpmParams(zeta=1e-6, system=kind, solver=failing(ExactSolver()))
    elif where == "assembly":
        monkeypatch.setattr(newton, "select_basis_mwb", failing(newton.select_basis_mwb))
    else:
        monkeypatch.setattr(ipm, "recover_direction", failing(ipm.recover_direction))
    taken = []
    with pytest.raises(raised, match="injected") as info:
        if_ipm(preprocess(inst.lp), inst.start, params,
               observer=lambda k, it, system, d, new: taken.append(new))
    assert info.value.iterate is taken[2]
    assert [r.k for r in info.value.trace.records] == [0, 1, 2]


@pytest.mark.parametrize("kind", [SystemKind.MNES, SystemKind.PNES])
def test_exact_basis_scaled_step_one_syrk_one_potrf(kind, monkeypatch):
    # each exact MNES/PNES step factors its system once, from E_N, without
    # the dense matrix or the symmetry probe
    from scipy.linalg import blas, lapack

    from ifipm import newton, solvers

    counts = {"dsyrk": 0, "dpotrf": 0}
    for module, name in ((blas, "dsyrk"), (lapack, "dpotrf")):
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def forbidden(*args):
        raise AssertionError("dense matrix or symmetry probe used")

    monkeypatch.setattr(newton.AssembledSystem, "matrix", property(forbidden))
    monkeypatch.setattr(solvers, "_is_symmetric", forbidden)
    inst = generate(GeneratorSpec(m=10, n=20, kappa_target=100.0, seed=4))
    _, trace = if_ipm(preprocess(inst.lp), inst.start,
                      IpmParams(zeta=1e-4, system=kind, solver=ExactSolver()))
    assert len(trace.records) > 10
    assert counts == {"dsyrk": len(trace.records), "dpotrf": len(trace.records)}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_residual_is_a_solver_failure(bad):
    # a nan residual once passed the check "residual > target" unnoticed
    from dataclasses import replace as dc_replace

    inst = generate(GeneratorSpec(m=4, n=9, kappa_target=10.0, seed=6))
    calls = []

    def stub(matrix, rhs, target):
        report = ExactSolver()(matrix, rhs, target)
        calls.append(1)
        return dc_replace(report, achieved_residual=bad) if len(calls) == 3 else report

    taken = []
    with pytest.raises(errors.SolverFailure, match="iteration 2") as info:
        if_ipm(preprocess(inst.lp), inst.start, IpmParams(zeta=1e-6, solver=stub),
               observer=lambda k, it, system, d, new: taken.append(new))
    assert info.value.iterate is taken[1]
    assert [r.k for r in info.value.trace.records] == [0, 1]


def _count_step_matvecs(monkeypatch, params, counted=()):
    """Per step of a 10x20 run: the Operator.matvec calls, those made
    inside recovery, and the calls of ``counted``, a list of
    (module, name) pairs."""
    from ifipm import ipm, solvers

    counts = {"matvec": 0, "recover_matvec": 0}
    in_recovery = []

    def count(name, original):
        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            if name == "matvec" and in_recovery:
                counts["recover_matvec"] += 1
            return original(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(solvers.Operator, "matvec", count("matvec", solvers.Operator.matvec))
    for module, name in counted:
        monkeypatch.setattr(module, name, count(name, getattr(module, name)))
    recover = ipm.recover_direction

    def recovering(*args, **kwargs):
        in_recovery.append(1)
        try:
            return recover(*args, **kwargs)
        finally:
            in_recovery.pop()

    monkeypatch.setattr(ipm, "recover_direction", recovering)
    steps, seen = [], dict(counts)

    def observer(k, it, system, direction, new):
        steps.append({key: counts.get(key, 0) - seen.get(key, 0) for key in counts})
        seen.update(counts)

    inst = generate(GeneratorSpec(m=10, n=20, kappa_target=100.0, seed=4))
    if_ipm(preprocess(inst.lp), inst.start, params, observer=observer)
    assert len(steps) > 10
    return steps


@pytest.mark.parametrize("kind", [SystemKind.MNES, SystemKind.PNES])
def test_exact_step_applies_its_operator_once_per_factor_solve(kind, monkeypatch):
    # one residual for the solve and one per refinement pass, each pass one
    # potrs; recovery takes the residual the report carries
    from scipy.linalg import lapack

    steps = _count_step_matvecs(monkeypatch, IpmParams(zeta=1e-4, system=kind),
                                counted=[(lapack, "dpotrs")])
    for step in steps:
        assert step["recover_matvec"] == 0
        assert step["matvec"] == step["dpotrs"] >= 1


@pytest.mark.parametrize("kind", [SystemKind.MNES, SystemKind.PNES])
def test_cg_step_applies_its_operator_once_per_cg_step_plus_one(kind, monkeypatch):
    cg_steps = []

    def cg(matrix, rhs, target):
        report = CgSolver()(matrix, rhs, target)
        cg_steps.append(report.iterations)
        return report

    steps = _count_step_matvecs(monkeypatch,
                                IpmParams(zeta=1e-4, system=kind, solver=cg))
    assert [step["matvec"] for step in steps] == [k + 1 for k in cg_steps[:len(steps)]]
    assert all(step["recover_matvec"] == 0 for step in steps)


def test_oracle_step_recovery_applies_the_operator_itself(monkeypatch):
    # the oracle's report carries no residual, so recovery forms it
    steps = _count_step_matvecs(
        monkeypatch, IpmParams(zeta=1e-4, solver=OracleSolver(seed=3)))
    assert all(step["recover_matvec"] == 1 for step in steps)


@pytest.mark.parametrize("kind", list(SystemKind))
def test_all_systems_reach_target(kind):
    inst = generate(GeneratorSpec(m=4, n=9, kappa_target=10.0, seed=6))
    prep = preprocess(inst.lp)
    params = IpmParams(zeta=1e-3, system=kind, solver=ExactSolver())
    final, _ = if_ipm(prep, inst.start, params)
    assert final.mu <= 1e-3
    rep = residuals(inst.lp, final)
    assert rep.primal_inf <= 1e-8 * (1 + np.linalg.norm(inst.lp.b, np.inf))
    assert rep.dual_inf <= 1e-8 * (1 + np.linalg.norm(inst.lp.c, np.inf))


def test_mu_strictly_decreasing_in_trace():
    inst = generate(GeneratorSpec(m=5, n=11, seed=7))
    prep = preprocess(inst.lp)
    _, trace = if_ipm(prep, inst.start, IpmParams(zeta=1e-3))
    mus = [rec.mu for rec in trace.records]
    assert all(a > b > 0 for a, b in zip(mus, mus[1:]))


def test_observer_sees_every_iteration():
    inst = generate(GeneratorSpec(m=3, n=7, seed=8))
    prep = preprocess(inst.lp)
    seen = []
    if_ipm(prep, inst.start, IpmParams(zeta=1e-2),
           observer=lambda k, it, system, direction, new: seen.append(k))
    assert seen == list(range(len(seen)))
    assert seen


def test_ir_contraction_and_loop_budget():
    inst = generate(GeneratorSpec(m=4, n=10, kappa_target=10.0, seed=9))
    final, states = ir_if_ipm(inst.lp, inst.start, zeta=1e-8, zeta_hat=1e-2,
                              params=IpmParams())
    assert final.mu <= 1e-8
    assert len(states) <= 5
    gaps = [float(inst.start.x @ inst.start.s)] + [st.gap for st in states]
    for before, after in zip(gaps, gaps[1:]):
        assert after <= 2e-2 * before * (1 + 1e-12)
    scales = [st.scale for st in states]
    assert all(a <= b for a, b in zip(scales, scales[1:]))


def test_ir_single_loop_when_hat_below_target():
    inst = generate(GeneratorSpec(m=3, n=6, seed=10))
    final, states = ir_if_ipm(inst.lp, inst.start, zeta=1e-2, zeta_hat=1e-3,
                              params=IpmParams())
    assert len(states) == 1
    assert final.mu <= 1e-3


@pytest.mark.parametrize("seed", range(4))
def test_ir_lands_on_zeta_with_least_contraction_per_loop(seed):
    # a loop stopping less than one 1.8 * zeta_hat contraction above zeta
    # used to leave the next loop to overshoot it, down to 0.03 zeta
    inst = generate(GeneratorSpec(m=10, n=20, kappa_target=100.0, seed=seed))
    for zeta, zeta_hat in [(1e-8, 1e-2), (1e-4, 1e-2), (1e-3, 1e-2), (5e-3, 1e-2),
                           (1e-6, 1e-1)]:
        final, states = ir_if_ipm(inst.lp, inst.start, zeta=zeta, zeta_hat=zeta_hat,
                                  params=IpmParams())
        assert 0.5 * zeta <= final.mu <= zeta, (zeta, zeta_hat)
        for before, after in zip(states, states[1:]):
            assert after.gap <= 1.8 * zeta_hat * before.gap * (1 + 1e-9), (zeta, zeta_hat)


def test_ir_single_loop_from_a_start_within_one_contraction():
    # from mu = 0.05, a loop stopping at zeta_hat would leave the next one
    # to contract 1e-2 -> 1.8e-4; one loop runs to zeta instead
    inst = generate(GeneratorSpec(m=10, n=20, kappa_target=100.0, seed=0))
    start, _ = if_ipm(preprocess(inst.lp), inst.start, IpmParams(zeta=0.05))
    final, states = ir_if_ipm(inst.lp, start, zeta=5e-3, zeta_hat=1e-2,
                              params=IpmParams())
    assert len(states) == 1
    assert 0.5 * 5e-3 <= final.mu <= 5e-3


def test_ir_final_point_is_feasible():
    inst = generate(GeneratorSpec(m=5, n=12, kappa_target=100.0, seed=11))
    final, _ = ir_if_ipm(inst.lp, inst.start, zeta=1e-8, zeta_hat=1e-2,
                         params=IpmParams())
    rep = residuals(inst.lp, final)
    assert rep.primal_inf <= 1e-8 * (1 + np.linalg.norm(inst.lp.b, np.inf))
    assert rep.dual_inf <= 1e-8 * (1 + np.linalg.norm(inst.lp.c, np.inf))
    assert final.x.min() > 0 and final.s.min() > 0


@cache
def _degenerate_10x20(seed):
    return generate(GeneratorSpec(m=10, n=20, kappa_target=1e6, mode="known-optimal",
                                  degenerate=True, seed=seed))


def _assert_refinement_contract(seed, zeta, solver):
    """Refinement raises a SolveError or returns an interior iterate at zeta."""
    inst = _degenerate_10x20(seed)
    lp = inst.lp
    try:
        final, _ = ir_if_ipm(lp, inst.start, zeta=zeta, zeta_hat=1e-2,
                             params=IpmParams(solver=solver))
    except errors.SolveError:
        return
    rep = residuals(lp, final)
    assert final.x.min() > 0 and final.s.min() > 0
    assert rep.gap / lp.n <= zeta
    assert rep.primal_inf <= FEAS_RTOL * (1 + np.linalg.norm(lp.b, np.inf))
    assert rep.dual_inf <= FEAS_RTOL * (1 + np.linalg.norm(lp.c, np.inf))


@pytest.mark.parametrize("seed, zeta", [(14, 1e-10), (1, 1e-12)])
def test_refinement_returns_interior_iterates(seed, zeta):
    # recomputing the slack as c - A^T y once returned min s = -8.3e-11
    # (seed 14) and -9.2e-11 with a negative gap (seed 1) as solutions
    _assert_refinement_contract(seed, zeta, ExactSolver())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 59), zeta=st.sampled_from([1e-10, 1e-11, 1e-12]),
       refine=st.booleans())
def test_refinement_contract_on_degenerate_grid(seed, zeta, refine):
    solver = (RefiningSolver(inner=OracleSolver(seed=0), eps_inner=1e-1) if refine
              else ExactSolver())
    _assert_refinement_contract(seed, zeta, solver)


def test_rejected_warm_start_names_the_loop(monkeypatch):
    from ifipm import ipm

    calls = []
    original = ipm.if_ipm

    def second_call_rejects(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise errors.NotInNeighborhood("start is outside the neighborhood")
        return original(*args, **kwargs)

    monkeypatch.setattr(ipm, "if_ipm", second_call_rejects)
    inst = generate(GeneratorSpec(m=4, n=10, kappa_target=10.0, seed=9))
    with pytest.raises(errors.LeftNeighborhood, match="loop 2"):
        ir_if_ipm(inst.lp, inst.start, zeta=1e-8, zeta_hat=1e-2, params=IpmParams())


@pytest.mark.parametrize("failure", ["no-progress", "warm-start", "inner"])
def test_refinement_raises_carry_partial_state(failure, monkeypatch):
    # the driver's own raises carry the accumulated iterate and the last
    # inner loop's trace; an inner loop's raise carries its own trace and
    # its iterate mapped back to the caller's program, and names the loop
    from ifipm import ipm

    inst = generate(GeneratorSpec(m=4, n=10, kappa_target=10.0, seed=9))
    original, runs = ipm.if_ipm, []

    def second_loop_fails(prep, start, params, observer=None):
        if failure == "warm-start" and len(runs) == 1:
            raise errors.NotInNeighborhood("start is outside the neighborhood")
        final, trace = original(prep, start, params, observer)
        runs.append((final, trace))
        if failure == "no-progress" and len(runs) == 2:
            return start, trace  # back at its warm start: the gap does not contract
        if failure == "inner" and len(runs) == 2:
            raise errors.LeftNeighborhood("injected", iterate=final, trace=trace)
        return final, trace

    monkeypatch.setattr(ipm, "if_ipm", second_loop_fails)
    raised = {"no-progress": errors.NoProgress, "warm-start": errors.LeftNeighborhood,
              "inner": errors.LeftNeighborhood}[failure]
    with pytest.raises(raised) as info:
        ir_if_ipm(inst.lp, inst.start, zeta=1e-8, zeta_hat=1e-2, params=IpmParams())
    assert info.value.trace is runs[-1][1]
    if failure == "no-progress":  # loop 1's iterate, rescaled there and back
        np.testing.assert_allclose(info.value.iterate.x, runs[0][0].x, rtol=1e-12)
        np.testing.assert_allclose(info.value.iterate.s, runs[0][0].s, rtol=1e-12)
    elif failure == "inner":  # loop 2's subproblem iterate, scaled back
        current, sub = runs[0][0], runs[1][0]
        scale = 1.0 / float(current.x @ current.s)
        assert str(info.value) == "loop 2: injected"
        np.testing.assert_allclose(info.value.iterate.x, sub.x / scale, rtol=1e-12)
        np.testing.assert_allclose(info.value.iterate.y, current.y + sub.y / scale,
                                   rtol=1e-12)
        np.testing.assert_allclose(info.value.iterate.s, sub.s / scale, rtol=1e-12)
    else:
        assert info.value.iterate is runs[0][0]


def _with_copied_column(inst, j, t=0.5):
    """``inst`` with column ``j`` of A appended again: the copy's x is
    ``t`` (b grows by ``t a_j``) and its c makes the start's new product
    exactly its measure, so the start stays in the neighborhood."""
    lp, start = inst.lp, inst.start
    mu = start.mu
    A = np.hstack([lp.A, lp.A[:, [j]]])
    c = np.append(lp.c, lp.A[:, j] @ start.y + mu / t)
    copied = LinearProgram(A, lp.b + t * lp.A[:, j], c)
    return copied, Iterate(np.append(start.x, t), start.y, np.append(start.s, mu / t))


def test_refinement_falls_back_from_a_dependent_basis(monkeypatch):
    # a loop's maximum-weight set that preprocessing refuses is a numerical
    # event of the run, not bad input: the subproblem's pivoted-QR basis
    # takes over, and the run still meets its target
    from ifipm import ipm

    inst = generate(GeneratorSpec(m=4, n=9, kappa_target=10.0, seed=3))
    lp, start = _with_copied_column(inst, j=2)
    dependent = [2, lp.n - 1, 0, 1]  # two equal columns
    assert np.array_equal(lp.A[:, 2], lp.A[:, -1])
    offered = []

    def dependent_set(it, A, factors_for=None):
        offered.append(dependent)
        return dependent

    monkeypatch.setattr(ipm, "select_basis_mwb", dependent_set)
    with pytest.raises(errors.SingularBasis):
        preprocess(lp, dependent)
    final, states = ir_if_ipm(lp, start, zeta=1e-8, zeta_hat=1e-2, params=IpmParams())
    assert len(offered) == len(states) - 1 >= 1
    assert final.mu <= 1e-8
    assert residuals(lp, final).primal_inf <= FEAS_RTOL * (1.0 + np.abs(lp.b).max())


def test_refinement_without_an_admissible_basis_is_a_solve_error(monkeypatch):
    # when the pivoted-QR basis fails too, the loop raises a SolveError
    # with its prefix, the accumulated iterate and the last trace
    from ifipm import ipm

    inst = generate(GeneratorSpec(m=4, n=9, kappa_target=10.0, seed=3))
    original, runs = ipm.preprocess, []

    def only_the_first_passes(lp, basis=None):
        runs.append(basis)
        if len(runs) > 1:
            raise errors.SingularBasis("supplied basis columns are linearly dependent")
        return original(lp, basis)

    monkeypatch.setattr(ipm, "preprocess", only_the_first_passes)
    with pytest.raises(errors.BasisNotFound, match="^loop 2: ") as info:
        ir_if_ipm(inst.lp, inst.start, zeta=1e-8, zeta_hat=1e-2, params=IpmParams())
    assert isinstance(info.value, errors.SolveError)
    assert len(runs) == 3 and runs[2] is None  # the MWB set, then the QR basis
    assert info.value.iterate is not None and info.value.iterate.mu > 1e-8
    assert info.value.trace is not None


def test_refinement_first_loop_failure_names_loop_1():
    # CG cannot solve the nonsymmetric orthogonal-subspaces system, so the
    # very first inner loop raises
    inst = generate(GeneratorSpec(m=3, n=6, seed=4))
    params = IpmParams(system=SystemKind.OSS, solver=CgSolver())
    with pytest.raises(errors.NotSPD, match="^loop 1: "):
        ir_if_ipm(inst.lp, inst.start, zeta=1e-8, zeta_hat=1e-2, params=params)


def test_refinement_scale_equivalence():
    # iterates of the scaled run are exactly the scale times the
    # iterates of the unscaled run, and neighborhood membership matches
    inst = generate(GeneratorSpec(m=4, n=8, seed=12))
    lp = inst.lp
    x, y, s = inst.start.x, inst.start.y, inst.start.s
    scale = 1.0 / float(x @ s)

    class Stop(Exception):
        pass

    def run(program, start, steps):
        prep = preprocess(program, basis=preprocess(lp).factors.index)
        captured = []

        def observer(k, it, sy, d, new):
            captured.append(new)
            if len(captured) == steps:
                raise Stop

        with pytest.raises(Stop):
            if_ipm(prep, start, IpmParams(zeta=1e-300), observer=observer)
        return captured

    shifted = LinearProgram(lp.A, lp.b, s)
    scaled = LinearProgram(lp.A, scale * lp.b, scale * s)
    base_run = run(shifted, Iterate(x, np.zeros(lp.m), s), steps=5)
    scaled_run = run(scaled, Iterate(scale * x, np.zeros(lp.m), scale * s), steps=5)
    assert len(base_run) == len(scaled_run) == 5
    for a, b in zip(base_run, scaled_run):
        np.testing.assert_allclose(b.x, scale * a.x, rtol=1e-9)
        np.testing.assert_allclose(b.s, scale * a.s, rtol=1e-9)
        np.testing.assert_allclose(b.y, scale * a.y, rtol=1e-9, atol=1e-12)
        assert in_neighborhood(a, 0.4) == in_neighborhood(b, 0.4)


@pytest.mark.parametrize("kind", [SystemKind.MNES, SystemKind.PNES])
def test_one_basis_assembly_per_iteration(kind, monkeypatch):
    from ifipm import newton

    calls = []
    original = newton._basis_products

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(newton, "_basis_products", counted)
    inst = generate(GeneratorSpec(m=5, n=11, seed=7))
    _, trace = if_ipm(preprocess(inst.lp), inst.start, IpmParams(zeta=1e-3, system=kind))
    assert len(calls) == len(trace.records) > 0


def test_pnes_inverts_once_per_basis_set(monkeypatch):
    # consecutive iterations that select the same basis set share one
    # inversion; only a change of set inverts again
    from ifipm import newton

    inst = generate(GeneratorSpec(m=5, n=11, seed=7))
    prep = preprocess(inst.lp)
    sets, inversions = [], []
    select, inv = newton.select_basis_mwb, np.linalg.inv

    def counted_select(it, A, factors_for=None):
        basis = select(it, A, factors_for)
        sets.append(frozenset(basis))
        return basis

    def counted_inv(a):
        inversions.append(1)
        return inv(a)

    monkeypatch.setattr(newton, "select_basis_mwb", counted_select)
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    _, trace = if_ipm(prep, inst.start, IpmParams(zeta=1e-3, system=SystemKind.PNES))
    fixed = frozenset(prep.factors.index)
    changes = sum(1 for k, basis in enumerate(sets)
                  if basis != fixed and (k == 0 or basis != sets[k - 1]))
    assert len(sets) == len(trace.records)
    assert 0 < len(inversions) == changes < len(trace.records)


def test_pnes_skips_the_qr_on_certified_sets(monkeypatch):
    # a call whose top-m ratio set its own factors certify returns it
    # without a QR, whether the program held the set or not; any other
    # call takes at most one
    from ifipm import newton

    inst = generate(GeneratorSpec(m=20, n=40, kappa_target=100.0, seed=7))
    prep = preprocess(inst.lp)
    select, qr = newton.select_basis_mwb, np.linalg.qr
    qrs, calls, selected = [], [], []

    def counted_qr(*args, **kwargs):
        qrs.append(1)
        return qr(*args, **kwargs)

    def counted_select(it, A, factors_for=None):
        m, n = A.shape
        top = np.sort(np.lexsort((np.arange(n), -(it.x / it.s)))[:m])
        try:
            certified = 2.0 * BASIS_TOL * BasisFactors.of(A, top).certificate < 1.0
        except errors.SingularBasis:
            certified = False
        # the program holds its own set and the one selected last
        held = {frozenset(prep.factors.index), *selected[-1:]}
        new = frozenset(top.tolist()) not in held
        before = len(qrs)
        basis = select(it, A, factors_for)
        calls.append((certified, new, len(qrs) - before))
        selected.append(frozenset(basis))
        return basis

    monkeypatch.setattr(newton, "select_basis_mwb", counted_select)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    _, trace = if_ipm(prep, inst.start, IpmParams(zeta=1e-3, system=SystemKind.PNES))
    assert len(calls) == len(trace.records)
    assert all(count == 0 for certified, _, count in calls if certified)
    assert all(count <= 1 for certified, _, count in calls if not certified)
    assert any(certified and new for certified, new, _ in calls)
    assert len(qrs) < len(trace.records)


def test_nes_program_constants_computed_once(monkeypatch):
    # sigma_min(A) (residual target) and A A^T (correction solve) are constants
    # of the program, computed once however many iterations run, and so is
    # the factorization of A A^T
    from ifipm import solvers

    inst = generate(GeneratorSpec(m=5, n=11, seed=7))
    A = inst.lp.A
    gram = A @ A.T
    norms, grams, factorizations = [], [], []
    norm, solve_exact, factorize = np.linalg.norm, solvers.solve_exact, solvers.factorize

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord == -2 and np.ndim(x) == 2:
            norms.append(x)
        return norm(x, ord, *args, **kwargs)

    def counted_solve(matrix, rhs):
        if np.array_equal(matrix.matrix, gram):
            grams.append(matrix)
        return solve_exact(matrix, rhs)

    def counted_factorize(operator):
        if np.array_equal(operator.matrix, gram):
            factorizations.append(operator)
        return factorize(operator)

    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    monkeypatch.setattr(solvers, "solve_exact", counted_solve)
    monkeypatch.setattr(solvers, "factorize", counted_factorize)
    _, trace = if_ipm(preprocess(inst.lp), inst.start,
                      IpmParams(zeta=1e-3, system=SystemKind.NES))
    assert len(trace.records) > 1
    assert len(norms) == 1
    assert len(grams) == len(trace.records)
    assert all(g is grams[0] for g in grams)
    assert len(factorizations) == 1


def test_condition_numbers_are_opt_in(monkeypatch):
    from ifipm import ipm

    calls = []
    monkeypatch.setattr(ipm, "condition_number",
                        lambda system: calls.append(system.kind) or 1.0)
    inst = generate(GeneratorSpec(m=4, n=10, kappa_target=10.0, seed=9))
    prep = preprocess(inst.lp)
    _, trace = if_ipm(prep, inst.start, IpmParams(zeta=1e-3))
    _, states = ir_if_ipm(inst.lp, inst.start, zeta=1e-8, zeta_hat=1e-2,
                          params=IpmParams())
    assert calls == []
    assert all(rec.kappa_system is None for rec in trace.records)
    assert all(st.max_kappa is None for st in states)

    _, trace = if_ipm(prep, inst.start, IpmParams(zeta=1e-3, condition_numbers=True))
    assert len(calls) == len(trace.records)
    assert all(rec.kappa_system == 1.0 for rec in trace.records)
