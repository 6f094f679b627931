"""Short-step inexact-feasible interior point loop and refinement driver.

The loop takes full Newton steps computed from any of the six system
formulations, solving each to an absolute residual target that keeps the
corrected step convergent:

* basis-scaled kinds (MNES/PNES): ``(ETA / sqrt(1+THETA)) * sqrt(mu)``
  in the 2-norm (the stricter of the two candidate norms);
* OSS: ``ETA * mu`` — its solve residual lands directly in the centering
  row, so it must meet the row bound itself;
* plain NES: the pseudoinverse-correction admissibility level
  ``ETA * mu * sigma_min(A) / ||s||_inf``, capped by the basis-scaled
  target;
* FNS/AS: the basis-scaled target (no correction exists for them, so
  they are only safe with near-exact solvers).

``THETA = 0.4`` and ``ETA = 0.1`` are the method's constants
(:mod:`ifipm.newton`); with the step :func:`short_step` they meet both
conditions of :func:`check_parameters` for every ``n``. Each kind's
target, assembly and recovery are its record in
:data:`ifipm.newton.FORMULATIONS`.

The outer driver re-solves a scaled residual instance per loop: with
``scale = 1 / (x.s)`` the subproblem ``(A, scale*b, scale*s)`` warm-started
at ``(scale*x, 0, scale*s)`` is the nonnegative-variable equivalent of
refining the current point, and every update formula below follows from
substituting the shifted variable back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import errors
from .newton import (
    THETA,
    SystemKind,
    assemble,
    condition_number,
    recover_direction,
    select_basis_mwb,
    solve_target,
)
from .problem import (
    Iterate,
    LinearProgram,
    PreprocessedProgram,
    in_neighborhood,
    preprocess,
    residuals,
)
from .solvers import ExactSolver

__all__ = [
    "IpmParams",
    "IterationRecord",
    "IpmTrace",
    "RefinementState",
    "ParameterCheck",
    "check_parameters",
    "check_zeta_hat",
    "short_step",
    "if_ipm",
    "ir_if_ipm",
]

FEAS_RTOL = 1e-8  # feasibility maintained relative to 1 + ||b||, 1 + ||c||


@dataclass(frozen=True)
class ParameterCheck:
    ok: bool
    con1_ok: bool
    con2_ok: bool
    con1_lhs: float
    con1_rhs: float
    con2_lhs: float
    con2_rhs: float


def check_parameters(n: int, theta: float, eta: float, beta: float) -> ParameterCheck:
    """Evaluate the two convergence conditions literally.

    con1: ``beta <= 1 - (eta + 0.01)/sqrt(n)``
    con2: ``(theta^2 + n (1-beta)^2 + eta^2) / (2^{3/2} (1-theta)) + eta
    <= theta (beta - eta/sqrt(n))``

    Returns the verdict ``ok`` with both sides of each inequality.
    """
    if n < 1:
        raise errors.InvalidParameters("n must be at least 1")
    sqrt_n = math.sqrt(n)
    con1_lhs = beta
    con1_rhs = 1.0 - (eta + 0.01) / sqrt_n
    con2_lhs = (theta**2 + n * (1.0 - beta) ** 2 + eta**2) / (2**1.5 * (1.0 - theta)) + eta
    con2_rhs = theta * (beta - eta / sqrt_n)
    return ParameterCheck(
        ok=(con1_lhs <= con1_rhs and con2_lhs <= con2_rhs),
        con1_ok=con1_lhs <= con1_rhs,
        con2_ok=con2_lhs <= con2_rhs,
        con1_lhs=con1_lhs,
        con1_rhs=con1_rhs,
        con2_lhs=con2_lhs,
        con2_rhs=con2_rhs,
    )


def check_zeta_hat(zeta_hat: float) -> None:
    """Raise :class:`~ifipm.errors.InvalidParameters` unless ``0 < zeta_hat < 1/2``,
    the per-loop precision :func:`ir_if_ipm` accepts."""
    if not 0.0 < zeta_hat < 0.5:
        raise errors.InvalidParameters("zeta_hat must lie in (0, 1/2)")


def short_step(n: int) -> float:
    """The step ``beta = 1 - 0.2/sqrt(n)`` every iteration takes."""
    return 1.0 - 0.2 / math.sqrt(n)


@dataclass(frozen=True, eq=False)
class IpmParams:
    """Run parameters of the short-step loop.

    The neighborhood, the inexactness budget and the step are the
    method's own (``THETA``, ``ETA``, :func:`short_step`), and the
    iteration budget is derived from the start's measure and ``zeta``;
    none is settable. ``condition_numbers=True`` records the spectral
    condition number of every assembled system (one SVD per iteration);
    off, the records carry ``None``. :func:`ir_if_ipm` ignores ``zeta``
    and sets it per inner loop.
    """

    zeta: float = 1e-6
    system: SystemKind = SystemKind.MNES
    solver: Callable = field(default_factory=ExactSolver)
    condition_numbers: bool = False

    def __post_init__(self):
        if not 0.0 < self.zeta < math.inf:
            raise errors.InvalidParameters("zeta must be positive and finite")
        if not isinstance(self.system, SystemKind):
            raise errors.InvalidParameters(
                f"system must be a SystemKind, got {self.system!r}")


def _iteration_budget(n: int, mu0: float, zeta: float) -> int:
    """Steps allowed from ``mu0`` to ``zeta``: twice the short step's need, plus 64."""
    return math.ceil(10.0 * math.sqrt(n) * math.log(max(mu0 / zeta, math.e))) + 64


@dataclass(frozen=True)
class IterationRecord:
    """One accepted step: state before, step quality, state after.

    ``kappa_system`` is None unless ``IpmParams.condition_numbers`` is on.
    """

    k: int
    mu: float
    kappa_system: Optional[float]
    achieved_residual: float
    in_neighborhood: bool
    primal_inf: float
    dual_inf: float
    mu_ratio: float


@dataclass(frozen=True, eq=False)
class IpmTrace:
    """Records of one run.

    ``max_kappa`` is the largest ``kappa_system`` over the records (0.0
    for none), or None unless ``IpmParams.condition_numbers`` is on.
    """

    records: tuple
    max_kappa: Optional[float] = None


@dataclass(frozen=True, eq=False)
class RefinementState:
    """Snapshot after one outer refinement loop.

    ``max_kappa`` is None unless ``IpmParams.condition_numbers`` is on.
    """

    scale: float
    loop_index: int
    gap: float
    mu: float
    inner_iterations: int
    max_kappa: Optional[float]


def _trace(records: list, params: IpmParams) -> IpmTrace:
    max_kappa = (max((r.kappa_system for r in records), default=0.0)
                 if params.condition_numbers else None)
    return IpmTrace(tuple(records), max_kappa)


def if_ipm(prep: PreprocessedProgram, start: Iterate, params: IpmParams,
           observer: Optional[Callable] = None):
    """Short-step loop: assemble, solve to tolerance, correct, full step.

    Runs until ``mu <= params.zeta``. Every produced iterate must stay
    feasible and inside the neighborhood; an exit raises
    :class:`~ifipm.errors.LeftNeighborhood` since under the residual
    contract it signals a bug or a loss of precision. Every
    :class:`~ifipm.errors.SolveError` leaving the loop carries the
    ``iterate`` the failing step started from and the ``trace`` so far,
    whose last record is the failing step when it got that far: the
    loop's own (that one, :class:`~ifipm.errors.SolverFailure` and
    :class:`~ifipm.errors.MaxIterations`) and those raised inside
    assembly, the solver or recovery. The solver is called as
    ``params.solver(system, system.rhs, target)`` with the
    :class:`~ifipm.newton.AssembledSystem` as its operator; the report's
    ``residual`` vector, when it carries one, is what recovery absorbs.
    ``observer(k, iterate, system, direction, new_iterate)`` is invoked
    after each accepted step.

    Returns ``(final_iterate, trace)``.
    """
    lp = prep.base
    n = lp.n
    beta = short_step(n)
    if not in_neighborhood(start, THETA):
        raise errors.NotInNeighborhood(
            f"start is outside the theta={THETA} neighborhood")
    b_scale = 1.0 + float(np.linalg.norm(lp.b, np.inf))
    c_scale = 1.0 + float(np.linalg.norm(lp.c, np.inf))
    r0 = residuals(lp, start)
    if r0.primal_inf > FEAS_RTOL * b_scale or r0.dual_inf > FEAS_RTOL * c_scale:
        raise errors.NotInNeighborhood(
            f"start infeasible: primal {r0.primal_inf:.2e}, dual {r0.dual_inf:.2e}")

    max_it = _iteration_budget(n, start.mu, params.zeta)
    it = start
    records = []
    try:
        for k in range(max_it + 1):
            mu = it.mu
            if mu <= params.zeta:
                return it, _trace(records, params)
            if k == max_it:
                raise errors.MaxIterations(
                    f"mu={mu:.3e} above zeta={params.zeta:.3e} after {max_it} iterations")
            system = assemble(params.system, it, prep, beta)
            target = solve_target(params.system, it, prep)
            report = params.solver(system, system.rhs, target)
            # written so that a NaN residual fails it too
            if not (report.converged
                    and report.achieved_residual <= target * (1.0 + 1e-9)):
                raise errors.SolverFailure(
                    f"iteration {k}: residual {report.achieved_residual:.3e} "
                    f"misses target {target:.3e} ({report.method})")
            direction = recover_direction(system, report.solution, it, prep,
                                          residual=report.residual)
            new_it = Iterate(it.x + direction.dx, it.y + direction.dy,
                             it.s + direction.ds)
            r_new = residuals(lp, new_it)
            inside = in_neighborhood(new_it, THETA)
            records.append(IterationRecord(
                k=k,
                mu=mu,
                kappa_system=(condition_number(system) if params.condition_numbers
                              else None),
                achieved_residual=report.achieved_residual,
                in_neighborhood=inside,
                primal_inf=r_new.primal_inf,
                dual_inf=r_new.dual_inf,
                mu_ratio=new_it.mu / mu,
            ))
            if observer is not None:
                observer(k, it, system, direction, new_it)
            if not inside:
                raise errors.LeftNeighborhood(
                    f"iterate {k + 1} left the theta={THETA} neighborhood")
            if (r_new.primal_inf > FEAS_RTOL * b_scale
                    or r_new.dual_inf > FEAS_RTOL * c_scale):
                raise errors.LeftNeighborhood(
                    f"iterate {k + 1} lost feasibility: primal {r_new.primal_inf:.2e}, "
                    f"dual {r_new.dual_inf:.2e}")
            it = new_it
    except errors.SolveError as exc:
        # the loop's own raises and those inside assembly, the solver or
        # recovery: carry the step's start and the partial trace
        if exc.iterate is None and exc.trace is None:
            exc.iterate, exc.trace = it, _trace(records, params)
        raise
    raise AssertionError("unreachable")  # loop always returns or raises


def _unscaled(sub: Iterate, current: Iterate, scale: float) -> Iterate:
    """A subproblem iterate in the caller's coordinates. Its own slack is
    kept; ``c - A^T y``, equal in exact arithmetic, can cancel to <= 0."""
    return Iterate(sub.x / scale, current.y + sub.y / scale, sub.s / scale)


def ir_if_ipm(lp: LinearProgram, start: Iterate, zeta: float, zeta_hat: float,
              params: IpmParams, basis=None):
    """Outer iterative refinement: repeat limited-precision solves.

    Each loop solves the current instance to roughly ``zeta_hat``
    precision, then rescales the residual problem by ``scale = 1/(x.s)``
    and warm-starts the next loop from ``(scale*x, 0, scale*s)``, until
    ``x.s / n <= zeta``. ``zeta_hat`` lies in ``(0, 1/2)``, so a loop that
    does not finish must contract the gap to at most ``2 * zeta_hat < 1``
    times its previous value, or :class:`~ifipm.errors.NoProgress` is
    raised; every run therefore ends. A rescaled warm start that the
    inner loop rejects raises :class:`~ifipm.errors.LeftNeighborhood`.
    Both carry the accumulated iterate as ``iterate`` and the last inner
    loop's ``trace``. An error raised inside an inner loop
    carries that loop's own, its message prefixed with ``loop k: `` and
    its iterate mapped back to the caller's program.

    Stop levels: the first loop stops at ``zeta_hat``; each later loop
    at whichever of ``zeta_hat`` and ``1.8 * zeta_hat`` times its warm
    start's measure its subproblem reaches first, so every loop after the
    first contracts the gap to at most ``1.8 * zeta_hat`` times its
    previous value. No stop level lies below ``0.9 * zeta`` in the
    caller's coordinates unless that contraction demands it (running a
    heavily rescaled subproblem further pushes its absolute residual
    targets below what double precision can certify).
    A loop that would stop less than one such contraction above ``0.9 *
    zeta`` stops at ``0.9 * zeta / (1.8 * zeta_hat)`` instead, from where
    the next loop lands on ``0.9 * zeta`` rather than overshooting it;
    when its own least contraction already passes that level, it runs on
    to ``0.9 * zeta`` (the first loop: to ``zeta``) and finishes. Unless
    ``zeta >= zeta_hat``, which takes one loop, the final measure lies at
    most two inner steps' contraction below ``0.9 * zeta`` (``zeta`` for
    a single loop).

    Every inner loop derives its iteration budget from its own stop
    level. Each refinement subproblem is re-preprocessed with the
    maximum-weight basis of its warm start, which keeps the basis-scaled
    system bounded even when the warm start sits close to an optimal
    face (any basis is admissible for the preprocessing, and this choice
    is the preconditioning one).

    Returns ``(final_iterate, states)`` with one
    :class:`RefinementState` per loop.
    """
    if not 0.0 < zeta < math.inf:
        raise errors.InvalidParameters("zeta must be positive and finite")
    check_zeta_hat(zeta_hat)
    prep = preprocess(lp, basis)
    least = 1.8 * zeta_hat  # the least contraction of every loop after the first

    first_zeta = zeta_hat
    if zeta < zeta_hat < 0.9 * zeta / least:
        first_zeta = 0.9 * zeta / least if start.mu > 0.9 * zeta / least else zeta
    try:
        current, trace = if_ipm(prep, start, replace(params, zeta=first_zeta))
    except errors.SolveError as exc:
        exc.args = (f"loop 1: {exc}",)
        raise
    gap = float(current.x @ current.s)
    states = [RefinementState(
        scale=1.0, loop_index=1, gap=gap,
        mu=gap / lp.n, inner_iterations=len(trace.records),
        max_kappa=trace.max_kappa)]

    while gap / lp.n > zeta:
        prev_gap = gap
        scale = 1.0 / gap
        mu_warm = scale / lp.n  # warm-start measure of the scaled subproblem
        deep = 0.9 * zeta * scale * scale  # the subproblem level that lands on zeta
        sub_zeta = min(max(zeta_hat, deep), least * mu_warm)
        if deep < sub_zeta < deep / least:
            # stopping here leaves the next loop less than its least
            # contraction, so it would overshoot: leave it exactly one,
            # or finish now if this loop's least contraction passes that
            sub_zeta = deep / least if mu_warm >= deep / least**2 else deep
        sub_lp = LinearProgram(lp.A, scale * lp.b, scale * current.s)
        warm = Iterate(scale * current.x, np.zeros(lp.m), scale * current.s)
        sub_prep = preprocess(sub_lp, basis=select_basis_mwb(warm, lp.A))
        try:
            refined, trace = if_ipm(sub_prep, warm, replace(params, zeta=sub_zeta))
        except errors.NotInNeighborhood as exc:
            # the warm start is derived from a valid run, so this is a
            # numerical failure of the refinement, not an input error
            raise errors.LeftNeighborhood(
                f"loop {len(states) + 1}: rescaled warm start rejected: {exc}",
                iterate=current, trace=trace) from exc
        except errors.SolveError as exc:
            exc.args = (f"loop {len(states) + 1}: {exc}",)
            if exc.iterate is not None:
                exc.iterate = _unscaled(exc.iterate, current, scale)
            raise
        current = _unscaled(refined, current, scale)
        gap = float(current.x @ current.s)
        states.append(RefinementState(
            scale=scale, loop_index=len(states) + 1,
            gap=gap, mu=gap / lp.n, inner_iterations=len(trace.records),
            max_kappa=trace.max_kappa))
        if gap / lp.n > zeta and gap > 2.0 * zeta_hat * prev_gap:
            raise errors.NoProgress(
                f"loop {len(states)}: gap contracted only {gap / prev_gap:.3e}, "
                f"needs <= {2.0 * zeta_hat:.3e}",
                iterate=current, trace=trace)
    return current, states
