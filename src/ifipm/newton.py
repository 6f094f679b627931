"""Newton-system formulations and direction recovery.

Six formulations of the centering step are assembled from one iterate:

======  ==============  =========  =================  ==========
kind    size            symmetric  positive definite  unknowns
======  ==============  =========  =================  ==========
FNS     2n + m          no         no                 (dy, dx, ds)
AS      n + m           yes        no                 (dy, dx)
NES     m               yes        yes                dy
OSS     n               no         no                 (dy, lambda)
MNES    m               yes        yes                z (basis-scaled)
PNES    m               yes        yes                z (basis-scaled)
======  ==============  =========  =================  ==========

MNES rescales the normal equations by the inverse of a fixed basis
submatrix chosen once during preprocessing; PNES rebuilds that scaling
every call from the maximum-weight basis of the current iterate, which
acts as a preconditioner. The selection runs every call, but when the
inverse of the iterate's top-m ratio columns, held by the program or
built for the assembly anyway, certifies the set well-conditioned, it
returns them without a QR. For both, an inexact solve with residual
``r_hat`` is repaired into an exactly primal-feasible direction by the
basis-supported correction ``v = (D_B r_hat, 0)``.

Each kind is one :class:`Formulation` record in :data:`FORMULATIONS`:
its flags, its assembly, the residual target its solve must meet and
the recovery of a direction from that solve. The loop reaches
them through :func:`assemble`, :func:`solve_target` and
:func:`recover_direction`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import errors
from .problem import (BASIS_TOL, BasisFactors, Iterate, LinearProgram,
                      PreprocessedProgram, nonsingular_bases)
from .solvers import Operator

__all__ = [
    "SystemKind",
    "Formulation",
    "FORMULATIONS",
    "AssembledSystem",
    "Direction",
    "DirectionReport",
    "assemble",
    "solve_target",
    "recover_direction",
    "null_space_basis",
    "select_basis_mwb",
    "recover_direction_basis_scaled",
    "recover_direction_nes_procA",
    "recover_direction_oss",
    "recover_direction_fns",
    "recover_direction_as",
    "proc_a_residual_bound",
    "verify_direction",
    "condition_number",
    "chi_bar",
    "THETA",
    "ETA",
]

#: the method's neighborhood radius and inexactness budget, fixed: with
#: :func:`ifipm.ipm.short_step` they meet both conditions of
#: :func:`ifipm.ipm.check_parameters` for every n >= 1
THETA = 0.4
ETA = 0.1


class SystemKind(enum.Enum):
    FNS = "fns"
    AS = "as"
    NES = "nes"
    MNES = "mnes"
    OSS = "oss"
    PNES = "pnes"


@dataclass(frozen=True)
class Formulation:
    """Everything the loop knows about one Newton-system kind.

    :data:`FORMULATIONS` holds one record per kind.
    ``build(kind, it, prep, beta)`` assembles the system,
    ``target(it, prep)`` is the absolute residual its solve must meet,
    and ``recover(system, solution, it, prep, residual)`` turns that
    solve into a :class:`Direction`. The entries call
    ``_basis_products``, :func:`select_basis_mwb` and the
    ``recover_direction_*`` functions by module-global name at call time,
    so a replaced module attribute is the one that runs.
    """

    symmetric: bool
    positive_definite: bool
    build: Callable
    target: Callable
    recover: Callable


@dataclass(frozen=True, eq=False, kw_only=True)
class AssembledSystem(Operator):
    """One Newton-system formulation as an operator, with its right-hand
    side and metadata.

    This is what the loop hands its solver: an
    :class:`~ifipm.solvers.Operator`, whose ``matvec``, ``matrix``,
    ``diagonal`` and kept ``factorization`` it inherits. FNS, AS, NES and
    OSS are assembled dense, into ``dense``; MNES/PNES as
    ``I + E_N E_N^T``, from ``E_N``, the scaled nonbasic block. The
    symmetry flags are those of the kind's :class:`Formulation`.

    The basis-scaled kinds also carry what their recovery consumes: the
    :class:`~ifipm.problem.BasisFactors` record of the basis behind them
    (``basis``), ``d_B``, the scaling ``sqrt(x/s)`` on the basis, and
    ``E_N``.
    """

    kind: SystemKind
    rhs: np.ndarray
    beta: float
    basis: Optional[BasisFactors] = None
    d_B: Optional[np.ndarray] = None

    @property
    def symmetric(self) -> bool:
        return FORMULATIONS[self.kind].symmetric

    @property
    def positive_definite(self) -> bool:
        return FORMULATIONS[self.kind].positive_definite


@dataclass(frozen=True, eq=False)
class Direction:
    """Primal-dual step plus the solver residual it absorbed.

    ``residual_hat`` is the injected linear-system residual (length m,
    zero for exact solves). ``correction_v`` restores primal feasibility;
    for basis-corrected directions it is supported on the basis positions
    only, for the pseudoinverse correction it is dense.
    """

    dx: np.ndarray
    dy: np.ndarray
    ds: np.ndarray
    residual_hat: np.ndarray
    correction_v: np.ndarray


@dataclass(frozen=True)
class DirectionReport:
    primal_residual: float  # ||A dx||_inf
    dual_residual: float  # ||A^T dy + ds||_inf
    third_row_residual: float  # ||X ds + S dx - (beta mu e - x*s) + S v||_inf
    dx_dot_ds: float
    sv_inf: float  # ||S v||_inf
    sv_bound: float  # ETA * mu
    sv_ok: bool
    rhat_inf: float
    rhat_two: float
    rhat_bound: float  # (ETA / sqrt(1+THETA)) * sqrt(mu)
    mu: float


def null_space_basis(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis V of the null space of A, shape n x (n - m)."""
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    _, _, vh = np.linalg.svd(A, full_matrices=True)
    return vh[m:].T.copy()


def select_basis_mwb(it: Iterate, A: np.ndarray, factors_for=None) -> list:
    """Maximum-weight basis: greedy over columns sorted by x_i / s_i.

    Columns are visited in decreasing ratio order (ties broken by lower
    index) and accepted iff they increase the rank of the selection,
    measured by the orthogonal remainder exceeding ``BASIS_TOL`` of the
    column norm. Returns exactly m indices in acceptance order.

    ``factors_for``, a program's
    :meth:`~ifipm.problem.PreprocessedProgram.factors_for`, maps the
    first m columns in ratio order to the
    :class:`~ifipm.problem.BasisFactors` record of that set ``B``: one the
    program holds, or one it builds and keeps for the assembly that
    follows. Only the record's ``certificate``, ``max_{j in B} ||a_j|| *
    ||A_B^{-1}||_F``, is read. When
    ``1 / ||A_B^{-1}||_F > 2e-10 max_{j in B} ||a_j||``,
    the greedy would accept them all, and they are returned without
    running it: the remainder of any column of ``B`` against any subset
    of the others is at least ``sigma_min(A_B) >= 1 / ||A_B^{-1}||_F``,
    above its acceptance threshold with a factor 2 to spare for rounding.
    The columns of an invertible ``A_B`` are nonzero, so the greedy
    skips no column before them.

    Otherwise, when the set fails the certificate or its inversion raises
    :class:`~ifipm.errors.SingularBasis`, or without ``factors_for``, the
    greedy runs in blocks: the next ``m - k`` nonzero
    columns, with the ``k`` accepted directions projected out twice, take
    one Householder QR, whose ``|R_ii|`` is the remainder of column ``i``
    against everything before it. The block's prefix up to the first
    failing column is accepted and the failing column skipped. When any
    m columns are independent, that is one QR per call.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    if not it.is_interior:
        raise errors.SingularDiagonal("basis selection needs a strictly interior iterate")
    order = np.lexsort((np.arange(n), -(it.x / it.s)))
    if factors_for is not None:
        try:
            certified = 2.0 * BASIS_TOL * factors_for(order[:m]).certificate < 1.0
        except errors.SingularBasis:
            certified = False
        if certified:
            return order[:m].tolist()
    norms = np.linalg.norm(A, axis=0)
    order = order[norms[order] > 0.0]
    Q = np.empty((m, m))
    chosen: list = []
    start = 0
    while len(chosen) < m and start < order.size:
        k = len(chosen)
        block = order[start:start + m - k]
        W = A[:, block]
        if k:
            # two projection passes keep the remainders trustworthy
            Q_k = Q[:, :k]
            W = W - Q_k @ (Q_k.T @ W)
            W = W - Q_k @ (Q_k.T @ W)
        Q_block, R = np.linalg.qr(W)
        passed = np.abs(np.diag(R)) > BASIS_TOL * norms[block]
        accepted = block.size if passed.all() else int(np.argmin(passed))
        Q[:, k:k + accepted] = Q_block[:, :accepted]
        chosen.extend(block[:accepted].tolist())
        start += accepted + 1
    if len(chosen) < m:
        raise errors.BasisNotFound(f"only {len(chosen)} independent columns found, need {m}")
    return chosen


def _basis_products(kind: SystemKind, it: Iterate, beta: float,
                    factors: BasisFactors) -> AssembledSystem:
    """Assembly of the basis-scaled normal equations from one basis record.

    MNES passes the program's ``factors``, PNES the record
    :meth:`~ifipm.problem.PreprocessedProgram.factors_for` gives for the
    selected basis. The basis block of ``A_hat = A_B^{-1} A`` is the
    identity, so with ``E_N = A_hat_N D_N / d_B`` the matrix is
    ``I + E_N E_N^T`` and ``A_hat @ x = x_B + A_hat_N @ x_N``; only the
    nonbasic block is multiplied. The scaled right-hand side is built from
    ``A_hat @ x``, not from ``A_B^{-1} b``: with it, the solved
    system gives ``A_hat dx = 0``, so recovery can take ``dx`` on the
    basis from ``dx`` off it. The ``b`` form would have the step also
    absorb the iterate's float-level primal infeasibility, which that
    re-derivation discards.
    """
    B, N, A_hat_N = factors.index, factors.nonbasic, factors.A_hat_N
    d = np.sqrt(it.x / it.s)
    d_B = d[B]
    E_N = A_hat_N * d[N]
    E_N /= d_B[:, None]
    x, inv_s, weight = it.x, 1.0 / it.s, beta * it.mu
    sigma_hat = (x[B] + A_hat_N @ x[N] - weight * (inv_s[B] + A_hat_N @ inv_s[N])) / d_B
    return AssembledSystem(
        kind=kind,
        rhs=sigma_hat,
        beta=beta,
        E_N=E_N,
        basis=factors,
        d_B=d_B,
    )


def _assemble_fns(kind, it, prep, beta) -> AssembledSystem:
    A, x, s = prep.base.A, it.x, it.s
    m, n = A.shape
    matrix = np.block([
        [np.zeros((m, m)), A, np.zeros((m, n))],
        [A.T, np.zeros((n, n)), np.eye(n)],
        [np.zeros((n, m)), np.diag(s), np.diag(x)],
    ])
    rhs = np.concatenate([np.zeros(m + n), beta * it.mu - x * s])
    return AssembledSystem(kind=kind, rhs=rhs, beta=beta, dense=matrix)


def _assemble_as(kind, it, prep, beta) -> AssembledSystem:
    A, x, s = prep.base.A, it.x, it.s
    m, n = A.shape
    d2 = x / s
    matrix = np.block([
        [np.zeros((m, m)), A],
        [A.T, -np.diag(1.0 / d2)],
    ])
    matrix = 0.5 * (matrix + matrix.T)
    rhs = np.concatenate([np.zeros(m), s - beta * it.mu / x])
    return AssembledSystem(kind=kind, rhs=rhs, beta=beta, dense=matrix)


def _assemble_nes(kind, it, prep, beta) -> AssembledSystem:
    A, x, s = prep.base.A, it.x, it.s
    d2 = x / s
    matrix = (A * d2[None, :]) @ A.T
    matrix = 0.5 * (matrix + matrix.T)
    rhs = A @ x - beta * it.mu * (A @ (1.0 / s))
    return AssembledSystem(kind=kind, rhs=rhs, beta=beta, dense=matrix)


def _assemble_oss(kind, it, prep, beta) -> AssembledSystem:
    A, x, s = prep.base.A, it.x, it.s
    matrix = np.hstack([-(x[:, None] * A.T), s[:, None] * prep.null_basis])
    rhs = beta * it.mu - x * s
    return AssembledSystem(kind=kind, rhs=rhs, beta=beta, dense=matrix)


def assemble(kind: SystemKind, it: Iterate, prep: PreprocessedProgram,
             beta: float) -> AssembledSystem:
    """Build the requested formulation at the given iterate.

    The matrix and right-hand side follow the defining equations
    literally. MNES uses the fixed preprocessing basis; PNES reselects
    the maximum-weight basis on every call, passing the program's
    :meth:`~ifipm.problem.PreprocessedProgram.factors_for`, so that a
    top-m ratio set its own record certifies skips the QR. OSS uses the
    program's null-space basis. Symmetric kinds are exactly symmetric: AS
    and NES are built as ``0.5 * (M + M.T)``, MNES and PNES as
    ``I + E_N E_N^T`` from one symmetric product. Raises
    :class:`~ifipm.errors.SingularDiagonal` on boundary iterates.
    """
    if not it.is_interior:
        raise errors.SingularDiagonal("assembly needs x > 0 and s > 0")
    return FORMULATIONS[kind].build(kind, it, prep, beta)


def solve_target(kind: SystemKind, it: Iterate, prep: PreprocessedProgram) -> float:
    """Absolute residual the solve of a ``kind`` system must meet at ``it``."""
    return FORMULATIONS[kind].target(it, prep)


def recover_direction(system: AssembledSystem, solution: np.ndarray, it: Iterate,
                      prep: PreprocessedProgram,
                      residual: Optional[np.ndarray] = None) -> Direction:
    """Direction from an assembly and a solve of it, by the kind's recovery.

    Every ``recover_direction_*`` takes these same arguments. ``residual``
    is the solve's ``system.rhs - system.matvec(solution)``, as a
    :class:`~ifipm.solvers.SolveReport` carries it; the recoveries that
    need it (MNES/PNES and NES) apply ``system`` to ``solution`` to get
    it when it is None, and the others ignore it.
    """
    return FORMULATIONS[system.kind].recover(system, solution, it, prep, residual)


def _residual_hat(system: AssembledSystem, solution: np.ndarray,
                  residual: Optional[np.ndarray]) -> np.ndarray:
    # matvec(solution) - rhs; negating the solver's rhs - matvec(solution)
    # gives the same bits
    if residual is None:
        return system.matvec(solution) - system.rhs
    return -residual


def recover_direction_basis_scaled(system: AssembledSystem, z_tilde: np.ndarray,
                                   it: Iterate, prep: PreprocessedProgram,
                                   residual: Optional[np.ndarray] = None) -> Direction:
    """Direction from an MNES/PNES assembly and a solve of it.

    With ``r_hat = system.matvec(z_tilde) - system.rhs`` (``-residual``
    when given) and ``B``/``N`` the basis and nonbasic positions of
    ``system.basis``, the recovery is

        dy    = (A_B^{-1})^T (z_tilde / d_B)
        v     = (d_B * r_hat) on B, 0 on N
        ds    = -A^T dy
        dx    = beta mu / s - x - (x/s) ds - v
        dx[B] = -A_hat_N @ dx[N]
        dx[B] -= A_B^{-1} @ (A @ dx)

    ``v`` is zero on ``N`` and the fifth line sets ``dx[B]`` from
    ``dx[N]`` alone, so ``- v`` never reaches the result; the code omits it.
    In exact arithmetic the last two lines change nothing:
    ``A_B^{-1} @ A @ dx = dx[B] + A_hat_N @ dx[N] = 0`` already
    holds. In floating point the formula's terms on ``B`` are orders of
    magnitude larger than the result when ``||v||`` is large, and their
    cancellation would leave ``A dx`` at ``eps * ||v||``; taking ``dx[B]``
    from ``dx[N]`` keeps ``A dx`` at the rounding level of ``dx`` itself,
    and one residual-correction pass removes what the rounding of
    ``A_hat_N`` leaves. The step perturbs only the centering row, by
    ``-S v``.
    (On dual-feasible iterates ``-A^T dy`` equals the
    infeasibility-restoring form ``c - A^T y - s - A^T dy``; the plain
    form is used because the restoring variant feeds machine-level dual
    noise through the ``x/s`` scaling, which grows unbounded near the
    optimal face.)
    """
    lp = prep.base
    r_hat = _residual_hat(system, z_tilde, residual)
    factors = system.basis
    B, N = factors.index, factors.nonbasic
    dy = factors.inverse.T @ (z_tilde / system.d_B)
    v = np.zeros(lp.n)
    v[B] = system.d_B * r_hat
    ds = -(lp.A.T @ dy)
    dx = system.beta * it.mu / it.s - it.x - (it.x / it.s) * ds
    dx[B] = -(factors.A_hat_N @ dx[N])
    dx[B] -= factors.inverse @ (lp.A @ dx)
    return Direction(dx=dx, dy=dy, ds=ds, residual_hat=r_hat, correction_v=v)


def proc_a_residual_bound(it: Iterate, prep: PreprocessedProgram) -> float:
    """Admissible normal-equation residual for the pseudoinverse correction.

    ``ETA * mu * sigma_min(A) / ||s||_inf`` — the level below which the
    dense correction keeps ``||S v||_inf <= ETA * mu``: ``v = A^T (A
    A^T)^{-1} r`` has ``||v||_2 <= ||r||_2 / sigma_min(A)``. Often
    impractically small, which is what motivates the basis-supported
    correction.
    """
    return ETA * it.mu * prep.sigma_min / float(np.linalg.norm(it.s, np.inf))


def recover_direction_nes_procA(system: AssembledSystem, dy: np.ndarray, it: Iterate,
                                prep: PreprocessedProgram,
                                residual: Optional[np.ndarray] = None) -> Direction:
    """Direction from an inexact plain normal-equation solve.

    The primal drift ``A dx = r``, with ``r = system.matvec(dy) -
    system.rhs`` (``-residual`` when given), is repaired with the dense
    minimum-norm correction ``v = A^T (A A^T)^{-1} r``.
    """
    from .solvers import solve_exact

    lp = prep.base
    r = _residual_hat(system, dy, residual)
    u = solve_exact(prep.gram, r).solution
    v = lp.A.T @ u
    ds = -(lp.A.T @ dy)
    dx = system.beta * it.mu / it.s - it.x - (it.x / it.s) * ds - v
    return Direction(dx=dx, dy=dy, ds=ds, residual_hat=r, correction_v=v)


def recover_direction_oss(system: AssembledSystem, solution: np.ndarray, it: Iterate,
                          prep: PreprocessedProgram, residual=None) -> Direction:
    """Direction from the orthogonal-subspaces formulation.

    The solution stacks ``(dy, lam)``. ``dx = V lam``, with ``V`` the
    program's null-space basis, lies in the null space and
    ``ds = -A^T dy`` in the row space, so primal and dual feasibility hold
    no matter how inexact the solve was; any residual lands in the
    centering row alone.
    """
    lp = prep.base
    m = lp.m
    dy, lam = solution[:m], solution[m:]
    dx = prep.null_basis @ lam
    ds = -(lp.A.T @ dy)
    return Direction(dx=dx, dy=dy, ds=ds,
                     residual_hat=np.zeros(m), correction_v=np.zeros(lp.n))


def recover_direction_fns(system: AssembledSystem, solution: np.ndarray, it: Iterate,
                          prep: PreprocessedProgram, residual=None) -> Direction:
    """Split a full-system solution vector into (dy, dx, ds)."""
    m, n = prep.base.m, prep.base.n
    return Direction(dx=solution[m:m + n], dy=solution[:m], ds=solution[m + n:],
                     residual_hat=np.zeros(m), correction_v=np.zeros(n))


def recover_direction_as(system: AssembledSystem, solution: np.ndarray, it: Iterate,
                         prep: PreprocessedProgram, residual=None) -> Direction:
    """Recover ds from an augmented-system solution via the centering row."""
    m, n = prep.base.m, prep.base.n
    dy, dx = solution[:m], solution[m:]
    ds = (system.beta * it.mu - it.x * it.s - it.s * dx) / it.x
    return Direction(dx=dx, dy=dy, ds=ds, residual_hat=np.zeros(m),
                     correction_v=np.zeros(n))


def _base_target(it, prep) -> float:
    # the stricter 2-norm form of the basis-scaled admissibility level
    return ETA / math.sqrt(1.0 + THETA) * math.sqrt(it.mu)


def _nes_target(it, prep) -> float:
    return min(_base_target(it, prep), proc_a_residual_bound(it, prep))


def _oss_target(it, prep) -> float:
    # the solve residual lands in the centering row, which must meet ETA mu
    return ETA * it.mu


FORMULATIONS = {
    SystemKind.FNS: Formulation(
        False, False, _assemble_fns, _base_target,
        lambda *args: recover_direction_fns(*args)),
    SystemKind.AS: Formulation(
        True, False, _assemble_as, _base_target,
        lambda *args: recover_direction_as(*args)),
    SystemKind.NES: Formulation(
        True, True, _assemble_nes, _nes_target,
        lambda *args: recover_direction_nes_procA(*args)),
    SystemKind.OSS: Formulation(
        False, False, _assemble_oss, _oss_target,
        lambda *args: recover_direction_oss(*args)),
    SystemKind.MNES: Formulation(
        True, True,
        lambda kind, it, prep, beta: _basis_products(kind, it, beta, prep.factors),
        _base_target, lambda *args: recover_direction_basis_scaled(*args)),
    SystemKind.PNES: Formulation(
        True, True,
        lambda kind, it, prep, beta: _basis_products(
            kind, it, beta,
            prep.factors_for(select_basis_mwb(it, prep.base.A, prep.factors_for))),
        _base_target, lambda *args: recover_direction_basis_scaled(*args)),
}


def verify_direction(direction: Direction, it: Iterate, lp: LinearProgram,
                     beta: float) -> DirectionReport:
    """Measure how well a direction satisfies the corrected Newton system."""
    dx, dy, ds = direction.dx, direction.dy, direction.ds
    v = direction.correction_v
    mu = it.mu
    third = it.x * ds + it.s * dx - (beta * mu - it.x * it.s) + it.s * v
    sv_inf = float(np.linalg.norm(it.s * v, np.inf))
    r_hat = direction.residual_hat
    return DirectionReport(
        primal_residual=float(np.linalg.norm(lp.A @ dx, np.inf)),
        dual_residual=float(np.linalg.norm(lp.A.T @ dy + ds, np.inf)),
        third_row_residual=float(np.linalg.norm(third, np.inf)),
        dx_dot_ds=float(dx @ ds),
        sv_inf=sv_inf,
        sv_bound=ETA * mu,
        sv_ok=bool(sv_inf <= ETA * mu * (1.0 + 1e-12) + 1e-12),
        rhat_inf=float(np.linalg.norm(r_hat, np.inf)) if r_hat.size else 0.0,
        rhat_two=float(np.linalg.norm(r_hat)),
        rhat_bound=ETA / np.sqrt(1.0 + THETA) * np.sqrt(mu),
        mu=mu,
    )


def condition_number(system) -> float:
    """Spectral condition number sigma_max / sigma_min of a system matrix.

    Accepts an :class:`AssembledSystem` or a bare square matrix.
    """
    matrix = getattr(system, "matrix", system)
    sv = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    if not np.isfinite(sv).all():
        raise errors.SingularMatrix("singular values are not finite")
    if sv[-1] < 1e-300:
        raise errors.SingularMatrix("matrix numerically singular")
    return float(sv[0] / sv[-1])


def chi_bar(A: np.ndarray) -> float:
    """Exact max over bases B of ||A_B^{-1} A||_F by enumeration.

    Only feasible for tiny instances (n <= 12); bounds the condition
    number of the basis-preconditioned normal matrix by its square.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    if n > 12:
        raise errors.TooLarge(f"basis enumeration limited to n <= 12, got n = {n}")
    norms = [float(np.linalg.norm(np.linalg.solve(A_B, A), "fro"))
             for _, A_B in nonsingular_bases(A)]
    if not norms:
        raise errors.RankDeficient("no nonsingular basis exists")
    return max(norms)
