"""Linear-system solving layer with an explicit residual contract.

The routines take ``(matrix, rhs, target_residual, ...)``, apart from
:func:`solve_exact`, whose target is fixed. ``matrix`` is an
:class:`Operator`, like the :class:`~ifipm.newton.AssembledSystem` the
loop passes, whose ``matvec``, flags and kept factorization are used,
or a bare matrix, which each routine wraps once and passes on. Every
one returns a :class:`SolveReport` whose ``achieved_residual``, a 2-norm, is
recomputed from the returned solution, never taken from the method's
internal recurrence; all but the oracle also return that residual vector.
A right-hand side holding NaN or Inf raises
:class:`~ifipm.errors.NonFinite`. The :func:`inexact_oracle` emulates a
bounded-error solver: it never exceeds its residual target, which is the
only property the interior point loop relies on. :func:`refine_linear`
wraps any low-precision solver in a residual-correction loop.
"""

from __future__ import annotations

import math
import threading
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.linalg import blas, lapack

from . import errors

__all__ = [
    "Operator",
    "SolveReport",
    "Factorization",
    "factorize",
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
    if not 0.0 < target_residual < math.inf:
        raise errors.InvalidParameters("target_residual must be positive and finite")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solution plus its independently recomputed 2-norm residual.

    ``residual``, when given, is the vector ``rhs - matvec(solution)``
    whose norm ``achieved_residual`` is; a recovery that needs it takes
    it from here instead of applying the operator again.
    """

    solution: np.ndarray
    achieved_residual: float
    iterations: int
    method: str
    converged: bool = True
    residual: Optional[np.ndarray] = None


def _norm(v: np.ndarray) -> float:
    """2-norm of a contiguous vector, bit for bit ``np.linalg.norm(v)``,
    whose own formula this is, without its argument dispatch."""
    return math.sqrt(v.dot(v))


def _rhs_norm(rhs: np.ndarray) -> float:
    """:func:`_norm` of a right-hand side, which must hold no NaN or Inf."""
    rn = _norm(rhs)
    if not math.isfinite(rn) and not np.isfinite(rhs).all():
        raise errors.NonFinite("right-hand side contains NaN or Inf")
    return rn


def _report(matrix, rhs, solution, iterations, method, converged=True):
    residual = rhs - _operator(matrix).matvec(solution)
    return SolveReport(
        solution=solution,
        achieved_residual=_norm(residual),
        iterations=iterations,
        method=method,
        converged=converged,
        residual=residual,
    )


def _is_symmetric(M: np.ndarray) -> bool:
    # exact equality first: it decides exactly symmetric matrices at a
    # fraction of the cost of the tolerance test
    return M.shape[0] == M.shape[1] and (
        np.array_equal(M, M.T) or np.allclose(M, M.T, rtol=1e-12, atol=1e-14))


@dataclass(frozen=True, eq=False)
class Operator:
    """A system matrix as the solvers see it: ``dense``, or ``I + E_N E_N^T``.

    ``matvec`` never forms ``I + E_N E_N^T``; ``matrix``, its dense form,
    and ``factorization`` are built on first use and kept, since an
    operator's matrix never changes. ``I + E_N E_N^T`` is symmetric
    positive definite. A dense matrix is probed, and a symmetric one
    taken as possibly positive definite: the exact solver tries Cholesky
    before LU, and CG stops on negative curvature.
    """

    dense: Optional[np.ndarray] = field(default=None, repr=False)
    E_N: Optional[np.ndarray] = None

    @cached_property
    def symmetric(self) -> bool:
        return self.dense is None or _is_symmetric(self.dense)

    @property
    def positive_definite(self) -> bool:
        return self.symmetric

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense system matrix."""
        if self.dense is not None:
            return self.dense
        # numpy evaluates E_N @ E_N.T as one symmetric rank-k update (syrk),
        # so the matrix is exactly symmetric without a 0.5 * (M + M.T) pass
        matrix = self.E_N @ self.E_N.T
        matrix.flat[::matrix.shape[0] + 1] += 1.0
        return matrix

    def matvec(self, z: np.ndarray) -> np.ndarray:
        """The system matrix applied to ``z``."""
        if self.dense is not None:
            return self.dense @ z
        return z + self.E_N @ (self.E_N.T @ z)

    def diagonal(self) -> np.ndarray:
        """The diagonal of the system matrix, a new array."""
        if self.dense is not None:
            return np.diag(self.dense).copy()
        return 1.0 + np.einsum("ij,ij->i", self.E_N, self.E_N)

    @cached_property
    def factorization(self) -> "Factorization":
        """:func:`factorize` of this operator, kept."""
        return factorize(self)


def _operator(matrix) -> Operator:
    """An operator as it is; a bare matrix wrapped as a dense one."""
    if isinstance(matrix, Operator):
        return matrix
    return Operator(dense=np.asarray(matrix, dtype=float))


@dataclass(frozen=True, eq=False)
class Factorization:
    """An exact factorization: its ``method`` and ``solve(v) = M^{-1} v``."""

    method: str
    solve: Callable


def factorize(operator: Operator) -> Factorization:
    """Cholesky or partial-pivoted LU factorization of an operator's matrix.

    ``I + E_N E_N^T`` never forms its dense matrix here: one ``syrk``
    writes the lower triangle of ``E_N E_N^T`` in Fortran order, 1 is
    added on its diagonal and ``potrf`` factors it in place. Other
    symmetric positive definite operators take ``potrf`` on the upper
    triangle of a copy of ``matrix``, as ``scipy.linalg.cho_factor``
    does; the rest, and a Cholesky that fails, take ``getrf``. A singular
    LU factor is not an error here: its solves come out non-finite.
    """
    E_N = operator.E_N
    if E_N is not None and E_N.size:  # syrk needs at least one column
        gram = blas.dsyrk(1.0, E_N.T, trans=1, lower=1)
        gram.flat[::gram.shape[0] + 1] += 1.0
        factor, info = lapack.dpotrf(gram, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            return Factorization(
                "cholesky", lambda v: lapack.dpotrs(factor, v, lower=1)[0])
    elif operator.symmetric and operator.positive_definite:
        factor, info = lapack.dpotrf(operator.matrix, clean=0)
        if info == 0:
            return Factorization("cholesky", lambda v: lapack.dpotrs(factor, v)[0])
    try:
        lu, piv, _ = lapack.dgetrf(operator.matrix)
    except ValueError as exc:
        raise errors.SingularMatrix(str(exc)) from exc
    return Factorization("lu", lambda v: lapack.dgetrs(lu, piv, v)[0])


def solve_exact(matrix, rhs: np.ndarray) -> SolveReport:
    """Direct factorization solve, refined to near machine-level residual.

    ``matrix`` is an :class:`Operator` or a bare matrix. The
    factorization is :func:`factorize`'s; an operator keeps it, so
    repeated solves of one operator factor it once. A few
    residual-correction passes with it push the residual to
    ``1e-12 * (1 + ||rhs||)`` even for ill-conditioned systems.
    """
    op = _operator(matrix)
    r0 = np.asarray(rhs, dtype=float)
    r0_norm = _rhs_norm(r0)
    factor = op.factorization
    z = factor.solve(r0)
    if not np.isfinite(z).all():
        raise errors.SingularMatrix("factorization produced non-finite solution")
    tol = EXACT_RTOL * (1.0 + r0_norm)
    residual = r0 - op.matvec(z)
    rn = _norm(residual)  # the residual norm of z, as _report takes it
    for _ in range(5):
        if rn <= tol:
            break
        z_new = z + factor.solve(residual)
        residual_new = r0 - op.matvec(z_new)
        rn_new = _norm(residual_new)
        if rn_new >= rn:
            break  # refinement saturated, keep the better iterate
        z, residual, rn = z_new, residual_new, rn_new
    if rn > 0.5 * (1.0 + r0_norm):
        raise errors.SingularMatrix("matrix is numerically singular")
    return SolveReport(solution=z, achieved_residual=rn, iterations=1,
                       method=factor.method, residual=residual)


def solve_cg(matrix, rhs: np.ndarray, target_residual: float,
             max_iterations: int = 0,
             precondition: Optional[Callable] = None) -> SolveReport:
    """Conjugate gradient for symmetric positive definite systems.

    ``matrix`` is an :class:`Operator`, applied through its ``matvec``
    and never formed, or a bare matrix. Stops at
    ``||rhs - M z|| <= target_residual`` or after ``max_iterations``
    (``0``: ten times the dimension), returning the best iterate with
    ``converged=False``. ``precondition``, if given, applies the inverse
    of a preconditioner to a vector once per iteration. Raises
    :class:`~ifipm.errors.NotSPD` on a nonsymmetric operator and on
    detected negative curvature.
    """
    _check_target(target_residual)
    op = _operator(matrix)
    rhs = np.asarray(rhs, dtype=float)
    if not op.symmetric:
        raise errors.NotSPD("matrix is not symmetric")
    n = rhs.shape[0]
    max_it = max_iterations if max_iterations > 0 else 10 * n
    method = "pcg" if precondition is not None else "cg"

    z = np.zeros(n)
    r = rhs.copy()
    best_z, best_rn = z.copy(), _rhs_norm(r)
    if best_rn <= target_residual:
        return _report(op, rhs, z, 0, method)
    w = precondition(r) if precondition is not None else r
    p = w.copy()
    rho = float(r @ w)
    iterations = 0
    for iterations in range(1, max_it + 1):
        Mp = op.matvec(p)
        curvature = float(p @ Mp)
        if curvature <= 0.0:
            raise errors.NotSPD(f"negative curvature at iteration {iterations}")
        alpha = rho / curvature
        z = z + alpha * p
        r = r - alpha * Mp
        rn = _norm(r)
        if rn < best_rn:
            best_z, best_rn = z.copy(), rn
        if rn <= target_residual:
            return _report(op, rhs, z, iterations, method)
        w = precondition(r) if precondition is not None else r
        rho_new = float(r @ w)
        p = w + (rho_new / rho) * p
        rho = rho_new
    return _report(op, rhs, best_z, iterations, method, converged=False)


_STREAMS = threading.local()  # each thread's PCG64 and its base state


def _stream(seed: int) -> np.random.Generator:
    """This thread's generator at the start of ``seed``'s substream.

    One ``PCG64`` per thread, seeded once, is reset to its base state and
    jumped ahead by ``seed * 2**64`` draws, so every seed below ``2**64``
    owns a disjoint substream of ``2**64`` draws and what is drawn from it
    depends on ``seed`` alone, not on earlier calls or other threads.
    A jump costs a fraction of seeding a new generator.
    """
    if not 0 <= seed < 2**64:
        raise errors.InvalidParameters("oracle seed must lie in [0, 2**64)")
    gen = getattr(_STREAMS, "gen", None)
    if gen is None:
        gen = _STREAMS.gen = np.random.Generator(np.random.PCG64(0))
        _STREAMS.base = gen.bit_generator.state
    bits = gen.bit_generator
    bits.state = _STREAMS.base
    bits.advance(int(seed) << 64)
    return gen


def inexact_oracle(matrix, rhs: np.ndarray, target_residual: float,
                   mode: str = "random", seed: Optional[int] = None) -> SolveReport:
    """Bounded-residual solver emulating an inexact linear-system oracle.

    Computes the exact solution with :func:`solve_exact` (an
    :class:`Operator` keeps its factorization across calls), then
    injects a controlled perturbation, working on the dense
    ``matrix``:

    * ``random`` — a standard normal direction drawn from ``seed``'s own
      substream (``None``: 0) of a per-thread ``PCG64``, scaled so that
      the perturbation's own residual is ``uniform(0.5, 0.98) *
      target_residual``, the factor drawn next;
    * ``adversarial`` — the error aligned with the smallest singular
      direction of the matrix, scaled so the residual equals the target
      (shaved by 1e-9 relative so the hard bound is never crossed).

    The achieved residual never exceeds ``target_residual``: a target
    the exact solve already misses raises
    :class:`~ifipm.errors.SolverFailure`, however small. The report
    carries no ``residual`` vector: the oracle measures ``rhs - M @ z``
    with the dense ``M``, not with ``matvec``.
    """
    _check_target(target_residual)
    if mode not in ("random", "adversarial"):
        raise errors.InvalidParameters(f"unknown oracle mode {mode!r}")
    op = _operator(matrix)
    M = op.matrix
    rhs = np.asarray(rhs, dtype=float)
    tol = target_residual
    exact = solve_exact(op, rhs)
    r0 = rhs - M @ exact.solution
    base = _norm(r0)
    if base > tol:
        raise errors.SolverFailure(
            f"residual target {tol:g} unreachable (exact solve leaves {base:g})"
        )

    if mode == "random":
        rng = _stream(0 if seed is None else seed)
        u = rng.standard_normal(rhs.shape[0])
        wn = _norm(M @ u)
        if wn == 0.0:
            raise errors.SingularMatrix("random direction annihilated by matrix")
        t = (0.5 + 0.48 * rng.random()) * tol  # uniform(0.5, 0.98)
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
    residual = _norm(rhs - M @ z)  # _report's expression
    for _ in range(60):  # hard contract: never exceed the target
        if residual <= tol:
            break
        delta = 0.5 * delta
        z = exact.solution + delta
        residual = _norm(rhs - M @ z)
    return SolveReport(solution=z, achieved_residual=residual, iterations=1,
                       method=f"oracle-{mode}")


def refine_linear(
    inner: Callable,
    matrix,
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
    ``inner`` receives ``matrix`` as an :class:`Operator`, a bare matrix
    wrapped once, so its symmetry probe and an exact inner solve's
    factorization are kept across loops. The reported residual is the
    loop's own ``rhs - M z`` of the returned ``z``, with its norm, not
    recomputed.
    """
    if not 0.0 < eps_inner < 1.0:
        raise errors.InvalidParameters("eps_inner must lie in (0, 1)")
    if not 0.0 < eps_outer < math.inf:
        raise errors.InvalidParameters("eps_outer must be positive and finite")
    op = _operator(matrix)
    b = np.asarray(rhs, dtype=float)
    z = np.zeros(b.shape[0])
    r = b.copy()
    rn = _rhs_norm(r)
    if rn <= eps_outer:
        return SolveReport(solution=z, achieved_residual=rn, iterations=0,
                           method="refine", residual=r)
    cap = math.ceil(math.log(eps_outer / rn) / math.log(eps_inner)) + 2
    stall_factor = (eps_inner + 0.5) / 1.5
    consecutive_slow = 0
    loops = 0
    while rn > eps_outer:
        if loops >= cap:
            raise errors.Stalled(f"no convergence within {cap} refinement loops")
        step = inner(op, r, eps_inner * rn)
        z = z + step.solution
        r = b - op.matvec(z)
        new_rn = _norm(r)
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
    return SolveReport(solution=z, achieved_residual=rn, iterations=loops,
                       method="refine", residual=r)


# --- stateless solver handles -------------------------------------------
#
# A handle is a value with signature handle(matrix, rhs, target_residual)
# -> SolveReport; the interior point loop is written against this shape
# and passes an AssembledSystem, an Operator, as ``matrix``. Every handle
# also takes a bare matrix.

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
    """CG with a diagonal (Jacobi) preconditioner.

    The diagonal is the operator's: ``1 + rowsum(E_N**2)`` for MNES/PNES.
    """

    def __call__(self, matrix, rhs, target_residual):
        op = _operator(matrix)
        d = op.diagonal()
        d[d <= 0] = 1.0
        return solve_cg(op, rhs, target_residual, precondition=lambda v: v / d)


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
