"""Linear-system solving layer with an explicit residual contract.

The routines take ``(matrix, rhs, target_residual, ...)``, apart from
:func:`solve_exact`, whose target is fixed. Every one returns a
:class:`SolveReport` whose ``achieved_residual``, a 2-norm, is
recomputed from the returned solution, never taken from the method's
internal recurrence. The :func:`inexact_oracle` emulates a bounded-error
solver: it never exceeds its residual target, which is the only property
the interior point loop relies on. :func:`refine_linear` wraps any
low-precision solver in a residual-correction loop.
"""

from __future__ import annotations

import math
import warnings
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from . import errors

__all__ = [
    "SolveReport",
    "solve_exact",
    "solve_cg",
    "inexact_oracle",
    "refine_linear",
    "ExactSolver",
    "CgSolver",
    "PcgSolver",
    "OracleSolver",
    "RefiningSolver",
]

EXACT_RTOL = 1e-12  # solve_exact residual target, relative to 1 + ||rhs||


def _check_target(target_residual: float) -> None:
    if target_residual <= 0:
        raise errors.InvalidParameters("target_residual must be positive")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solution plus its independently recomputed 2-norm residual."""

    solution: np.ndarray
    achieved_residual: float
    iterations: int
    method: str
    converged: bool = True


def _report(matrix, rhs, solution, iterations, method, converged=True):
    residual = float(np.linalg.norm(rhs - matrix @ solution))
    return SolveReport(
        solution=solution,
        achieved_residual=residual,
        iterations=iterations,
        method=method,
        converged=converged,
    )


def _is_symmetric(M: np.ndarray) -> bool:
    # exact equality first: it decides the exactly symmetric assemblies at
    # a fraction of the cost of the tolerance test
    return M.shape[0] == M.shape[1] and (
        np.array_equal(M, M.T) or np.allclose(M, M.T, rtol=1e-12, atol=1e-14))


def solve_exact(matrix: np.ndarray, rhs: np.ndarray) -> SolveReport:
    """Direct factorization solve, refined to near machine-level residual.

    Symmetric positive definite inputs take a Cholesky path, everything
    else partial-pivoted LU. A few residual-correction passes with the
    cached factorization push the residual to ``1e-12 * (1 + ||rhs||)``
    even for ill-conditioned systems.
    """
    M = np.asarray(matrix, dtype=float)
    r0 = np.asarray(rhs, dtype=float)
    apply_inverse = None
    method = "lu"
    if _is_symmetric(M):
        try:
            cho = scipy.linalg.cho_factor(M, check_finite=False)
            apply_inverse = lambda v: scipy.linalg.cho_solve(cho, v, check_finite=False)
            method = "cholesky"
        except scipy.linalg.LinAlgError:
            apply_inverse = None
    if apply_inverse is None:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                lu = scipy.linalg.lu_factor(M, check_finite=False)
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise errors.SingularMatrix(str(exc)) from exc
        apply_inverse = lambda v: scipy.linalg.lu_solve(lu, v, check_finite=False)

    z = apply_inverse(r0)
    if not np.isfinite(z).all():
        raise errors.SingularMatrix("factorization produced non-finite solution")
    tol = EXACT_RTOL * (1.0 + float(np.linalg.norm(r0)))
    residual = r0 - M @ z
    for _ in range(5):
        rn = float(np.linalg.norm(residual))
        if rn <= tol:
            break
        d = apply_inverse(residual)
        z_new = z + d
        residual_new = r0 - M @ z_new
        if float(np.linalg.norm(residual_new)) >= rn:
            break  # refinement saturated, keep the better iterate
        z, residual = z_new, residual_new
    if float(np.linalg.norm(residual)) > 0.5 * (1.0 + float(np.linalg.norm(r0))):
        raise errors.SingularMatrix("matrix is numerically singular")
    return _report(M, r0, z, 1, method)


def solve_cg(matrix: np.ndarray, rhs: np.ndarray, target_residual: float,
             max_iterations: int = 0,
             precondition: Optional[Callable] = None) -> SolveReport:
    """Conjugate gradient for symmetric positive definite systems.

    Stops at ``||rhs - M z|| <= target_residual`` or after
    ``max_iterations`` (``0``: ten times the dimension), returning the
    best iterate with ``converged=False``. ``precondition``, if given,
    applies the inverse of a preconditioner to a vector once per
    iteration. Raises :class:`~ifipm.errors.NotSPD` on detected negative
    curvature.
    """
    _check_target(target_residual)
    M = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if not _is_symmetric(M):
        raise errors.NotSPD("matrix is not symmetric")
    n = rhs.shape[0]
    max_it = max_iterations if max_iterations > 0 else 10 * n
    method = "pcg" if precondition is not None else "cg"

    z = np.zeros(n)
    r = rhs.copy()
    best_z, best_rn = z.copy(), float(np.linalg.norm(r))
    if best_rn <= target_residual:
        return _report(M, rhs, z, 0, method)
    w = precondition(r) if precondition is not None else r
    p = w.copy()
    rho = float(r @ w)
    iterations = 0
    for iterations in range(1, max_it + 1):
        Mp = M @ p
        curvature = float(p @ Mp)
        if curvature <= 0.0:
            raise errors.NotSPD(f"negative curvature at iteration {iterations}")
        alpha = rho / curvature
        z = z + alpha * p
        r = r - alpha * Mp
        rn = float(np.linalg.norm(r))
        if rn < best_rn:
            best_z, best_rn = z.copy(), rn
        if rn <= target_residual:
            return _report(M, rhs, z, iterations, method)
        w = precondition(r) if precondition is not None else r
        rho_new = float(r @ w)
        p = w + (rho_new / rho) * p
        rho = rho_new
    return _report(M, rhs, best_z, iterations, method, converged=False)


def inexact_oracle(matrix: np.ndarray, rhs: np.ndarray, target_residual: float,
                   mode: str = "random", seed: Optional[int] = None) -> SolveReport:
    """Bounded-residual solver emulating an inexact linear-system oracle.

    Computes the exact solution, then injects a controlled perturbation:

    * ``random`` — a direction drawn from ``seed`` (``None``: 0), scaled
      so the achieved residual lands in ``[0.5, 1.0] * target_residual``;
    * ``adversarial`` — the error aligned with the smallest singular
      direction of the matrix, scaled so the residual equals the target
      (shaved by 1e-9 relative so the hard bound is never crossed).

    The achieved residual never exceeds ``target_residual``.
    """
    _check_target(target_residual)
    if mode not in ("random", "adversarial"):
        raise errors.InvalidParameters(f"unknown oracle mode {mode!r}")
    M = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    tol = target_residual
    exact = solve_exact(M, rhs)
    if tol < 1e-15:
        return _report(M, rhs, exact.solution, 1, f"oracle-{mode}-exact")
    r0 = rhs - M @ exact.solution
    base = float(np.linalg.norm(r0))
    if base > tol:
        raise errors.SolverFailure(
            f"residual target {tol:g} unreachable (exact solve leaves {base:g})"
        )

    if mode == "random":
        rng = np.random.default_rng(0 if seed is None else seed)
        u = rng.standard_normal(rhs.shape[0])
        wn = float(np.linalg.norm(M @ u))
        if wn == 0.0:
            raise errors.SingularMatrix("random direction annihilated by matrix")
        t = rng.uniform(0.5, 0.98) * tol
        delta = (t / wn) * u
    else:
        _, sig, Vt = np.linalg.svd(M)
        if sig[-1] < 1e-300:
            raise errors.SingularMatrix("smallest singular value underflows")
        w_dir = M @ Vt[-1] / sig[-1]  # unit left singular vector of sigma_min
        tol_eff = tol * (1.0 - 1e-9)
        c = float(r0 @ w_dir)
        disc = c * c - base * base + tol_eff * tol_eff
        a = c + math.sqrt(max(disc, 0.0))
        delta = (a / sig[-1]) * Vt[-1]

    z = exact.solution + delta
    for _ in range(60):  # hard contract: never exceed the target
        if float(np.linalg.norm(rhs - M @ z)) <= tol:
            break
        delta = 0.5 * delta
        z = exact.solution + delta
    return _report(M, rhs, z, 1, f"oracle-{mode}")


def refine_linear(
    inner: Callable,
    matrix: np.ndarray,
    rhs: np.ndarray,
    eps_outer: float,
    eps_inner: float,
) -> SolveReport:
    """Residual-correction loop around a limited-precision inner solver.

    Repeats ``z += d`` where ``inner(matrix, residual, eps_inner * ||residual||)``
    supplies the correction, until the true residual drops below the
    absolute target ``eps_outer``. Each loop contracts the residual by at
    least ``eps_inner`` when the inner solver honors its contract, so the
    loop count is bounded by ``ceil(log(eps_outer/||rhs||)/log(eps_inner)) + 2``.
    """
    if not 0.0 < eps_inner < 1.0:
        raise errors.InvalidParameters("eps_inner must lie in (0, 1)")
    if eps_outer <= 0.0:
        raise errors.InvalidParameters("eps_outer must be positive")
    M = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    z = np.zeros(b.shape[0])
    r = b.copy()
    rn = float(np.linalg.norm(r))
    if rn <= eps_outer:
        return _report(M, b, z, 0, "refine")
    cap = math.ceil(math.log(eps_outer / rn) / math.log(eps_inner)) + 2
    stall_factor = (eps_inner + 0.5) / 1.5
    consecutive_slow = 0
    loops = 0
    while rn > eps_outer:
        if loops >= cap:
            raise errors.Stalled(f"no convergence within {cap} refinement loops")
        step = inner(M, r, eps_inner * rn)
        z = z + step.solution
        r = b - M @ z
        new_rn = float(np.linalg.norm(r))
        loops += 1
        if rn > 0 and new_rn / rn > stall_factor:
            consecutive_slow += 1
            if consecutive_slow >= 2:
                raise errors.Stalled(
                    f"residual contracted slower than {stall_factor:.3f} twice in a row"
                )
        else:
            consecutive_slow = 0
        rn = new_rn
    return _report(M, b, z, loops, "refine")


# --- stateless solver handles -------------------------------------------
#
# A handle is a value with signature handle(matrix, rhs, target_residual)
# -> SolveReport; the interior point loop is written against this shape.

def _derived_seed(seed: int, rhs: np.ndarray) -> int:
    # per-call seed: reproducible, but distinct across iterations
    return (seed * 0x9E3779B1 + zlib.crc32(rhs.tobytes())) % (2**63)


@dataclass(frozen=True)
class ExactSolver:
    """Handle for :func:`solve_exact` (target ignored, always met)."""

    def __call__(self, matrix, rhs, target_residual=0.0):
        return solve_exact(matrix, rhs)


@dataclass(frozen=True)
class CgSolver:
    """Handle for :func:`solve_cg` with the default iteration cap."""

    def __call__(self, matrix, rhs, target_residual):
        return solve_cg(matrix, rhs, target_residual)


@dataclass(frozen=True)
class PcgSolver:
    """CG with a diagonal (Jacobi) preconditioner."""

    def __call__(self, matrix, rhs, target_residual):
        d = np.diag(np.asarray(matrix, dtype=float)).copy()
        d[d <= 0] = 1.0
        return solve_cg(matrix, rhs, target_residual, precondition=lambda v: v / d)


@dataclass(frozen=True)
class OracleSolver:
    mode: str = "random"
    seed: int = 0

    def __call__(self, matrix, rhs, target_residual):
        return inexact_oracle(matrix, rhs, target_residual, mode=self.mode,
                              seed=_derived_seed(self.seed, np.asarray(rhs)))


@dataclass(frozen=True)
class RefiningSolver:
    """Inner iterative refinement wrapped around a low-precision handle."""

    inner: Callable = OracleSolver()
    eps_inner: float = 1e-1

    def __call__(self, matrix, rhs, target_residual):
        return refine_linear(self.inner, matrix, rhs, target_residual, self.eps_inner)
