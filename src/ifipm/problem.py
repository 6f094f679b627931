"""Standard-form linear programs and primal-dual iterates.

A program is ``min c.x  s.t.  A x = b, x >= 0`` with full-row-rank A
(m rows, n >= m columns). The dual variables are (y, s) with
``A^T y + s = c, s >= 0``. Everything here is an immutable value; all
functions are pure. A :class:`PreprocessedProgram` computes some derived
products on first use and keeps them, which changes no result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.linalg import lapack

from . import errors
from .solvers import Operator, _norm

__all__ = [
    "LinearProgram",
    "Iterate",
    "BasisFactors",
    "PreprocessedProgram",
    "ResidualReport",
    "residuals",
    "in_neighborhood",
    "preprocess",
    "nonsingular_bases",
]

#: rank threshold of every basis test: preprocessing, MWB greedy, enumeration
BASIS_TOL = 1e-10


def _as_vector(v, length: int, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim != 1 or a.shape[0] != length:
        raise errors.DimensionMismatch(
            f"{name} must be a vector of length {length}, got shape {a.shape}"
        )
    return a


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Validated standard-form instance.

    Construction fails on non-finite entries, on m > n, and on rank(A) < m
    as ``np.linalg.matrix_rank`` decides it. One column-pivoted QR of A
    decides the rank without an SVD when its leading m x m triangle
    ``R11`` certifies it: ``sigma_m(A) >= sigma_min(R11) >= 1 /
    ||R11^{-1}||_F``, and ``matrix_rank``'s tolerance is at most
    ``||A||_F max(m, n) eps``, so rank m is certain when ``2 ||A||_F
    max(m, n) eps ||R11^{-1}||_F < 1``. Only an uncertified A runs
    ``matrix_rank``. The pivots and ``|diag(R)|`` are kept for
    :func:`preprocess`'s own choice of basis.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    _pivoted: tuple = field(init=False, repr=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        object.__setattr__(self, "A", A)
        m, n = A.shape
        object.__setattr__(self, "b", _as_vector(self.b, m, "b"))
        object.__setattr__(self, "c", _as_vector(self.c, n, "c"))
        if not (np.isfinite(A).all() and np.isfinite(self.b).all()
                and np.isfinite(self.c).all()):
            raise errors.NonFinite("problem data contains NaN or Inf")
        if m > n:
            raise errors.DimensionOrder(f"m={m} exceeds n={n}")
        qr, pivots = _pivoted_qr(A)
        object.__setattr__(self, "_pivoted", (pivots, np.abs(np.diag(qr))))
        if not _full_rank_certified(A, qr) and np.linalg.matrix_rank(A) < m:
            raise errors.RankDeficient(f"rank(A) < m={m}")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True, eq=False)
class Iterate:
    """Primal-dual point (x, y, s).

    ``mu`` is the duality measure x.s / n. Interior iterates have x > 0
    and s > 0 componentwise; the class itself also admits boundary points
    (e.g. optimal solutions), which simply fail :func:`in_neighborhood`.
    """

    x: np.ndarray
    y: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "s", np.asarray(self.s, dtype=float))
        if self.x.shape != self.s.shape or self.x.ndim != 1 or self.y.ndim != 1:
            raise errors.DimensionMismatch("x and s must be vectors of equal length")

    @cached_property
    def mu(self) -> float:
        """Duality measure x.s / n."""
        return float(self.x @ self.s) / self.x.shape[0]

    @cached_property
    def is_interior(self) -> bool:
        """x > 0 and s > 0 componentwise."""
        return bool((self.x > 0).all() and (self.s > 0).all())


@dataclass(frozen=True, eq=False)
class BasisFactors:
    """The products of one basis that MNES/PNES assembly, the
    maximum-weight basis selection and recovery read.

    ``index`` lists the m basis columns as an integer index array and
    ``nonbasic`` the remaining n - m in increasing order; ``inverse``
    inverts ``A[:, index]`` and ``A_hat_N = inverse @ A[:, nonbasic]`` is
    the nonbasic block of the basis-scaled matrix ``inverse @ A``, whose
    basis block is the identity and is not stored. ``certificate`` is
    ``max_{j in B} ||a_j|| * ||inverse||_F``, which
    :func:`~ifipm.newton.select_basis_mwb` compares with its rank
    threshold. :meth:`of` builds the record.
    """

    index: np.ndarray
    nonbasic: np.ndarray
    inverse: np.ndarray
    A_hat_N: np.ndarray
    certificate: float

    @classmethod
    def of(cls, A: np.ndarray, basis) -> "BasisFactors":
        """The record of ``basis``, its columns in the order given.

        One residual-correction pass on ``A_hat_N`` pushes ``A_B @ A_hat_N
        - A_N`` from the ``eps * kappa(A_B)`` level down to machine level,
        which keeps the per-step feasibility drift of the basis-corrected
        directions flat on ill-conditioned instances. Raises
        :class:`~ifipm.errors.SingularBasis` if the inversion fails.
        """
        index = np.array(basis, dtype=np.intp)
        nonbasic = np.setdiff1d(np.arange(A.shape[1]), index)
        A_B, A_N = A[:, index], A[:, nonbasic]
        try:
            inverse = np.linalg.inv(A_B)
        except np.linalg.LinAlgError as exc:
            raise errors.SingularBasis(str(exc)) from exc
        A_hat_N = inverse @ A_N
        A_hat_N += inverse @ (A_N - A_B @ A_hat_N)
        certificate = float(np.linalg.norm(A_B, axis=0).max() * np.linalg.norm(inverse))
        return cls(index, nonbasic, inverse, A_hat_N, certificate)


@dataclass(frozen=True, eq=False)
class PreprocessedProgram:
    """A program together with a fixed basis and its derived products.

    ``factors`` is the :class:`BasisFactors` record of m columns whose
    submatrix is invertible; ``factors.index`` lists them. The cached
    properties are per-program constants that some Newton-system kinds
    need, each computed on first use. :meth:`factors_for` gives the
    record of any other basis and keeps the last one, so a program holds
    at most two records; :func:`~ifipm.newton.select_basis_mwb` asks it
    for the record of the iterate's top-m ratio set.
    """

    base: LinearProgram
    factors: BasisFactors
    _kept: Optional[BasisFactors] = field(default=None, init=False, repr=False)

    def factors_for(self, basis) -> BasisFactors:
        """:attr:`factors` if ``basis`` is the preprocessing set, else the
        record of ``basis`` in increasing index order.

        Whatever the order of ``basis``, the result is the same: the
        record of the last other set asked for is kept, so a repeated set
        costs nothing, and a kept record equals a newly built one. Raises
        :class:`~ifipm.errors.SingularBasis` if a new set is singular.
        """
        key = np.sort(np.asarray(basis, dtype=np.intp))
        raw = key.tobytes()  # equal bytes of two intp arrays: equal arrays
        if raw == self._basis_key:
            return self.factors
        kept = self._kept
        if kept is None or kept.index.tobytes() != raw:
            kept = BasisFactors.of(self.base.A, key)
            object.__setattr__(self, "_kept", kept)
        return kept

    @cached_property
    def _basis_key(self) -> bytes:
        # the preprocessing set in increasing order, as factors_for keys it
        return np.sort(self.factors.index).tobytes()

    @cached_property
    def null_basis(self) -> np.ndarray:
        """Orthonormal null-space basis of A, shape n x (n - m) (OSS)."""
        from .newton import null_space_basis

        return null_space_basis(self.base.A)

    @cached_property
    def sigma_min(self) -> float:
        """Smallest singular value of A (NES residual admissibility)."""
        return float(np.linalg.norm(self.base.A, -2))

    @cached_property
    def gram(self):
        """``A @ A.T`` as a solver operator that keeps its factorization
        (NES pseudoinverse correction); its ``matrix`` is the product."""
        return Operator(dense=self.base.A @ self.base.A.T)


@dataclass(frozen=True)
class ResidualReport:
    """Feasibility residuals of an iterate against a program.

    ``primal_inf`` = max-norm of A x - b, ``dual_inf`` = max-norm of
    A^T y + s - c, ``gap`` = x.s, ``mu`` = gap / n.
    """

    primal_inf: float
    dual_inf: float
    gap: float
    mu: float


def residuals(lp: LinearProgram, it: Iterate) -> ResidualReport:
    """Exact feasibility residuals, duality gap and measure for an iterate."""
    if it.x.shape[0] != lp.n or it.y.shape[0] != lp.m:
        raise errors.DimensionMismatch("iterate does not match program dimensions")
    gap = float(it.x @ it.s)
    return ResidualReport(
        primal_inf=float(np.abs(lp.A @ it.x - lp.b).max()),
        dual_inf=float(np.abs(lp.A.T @ it.y + it.s - lp.c).max()),
        gap=gap,
        mu=gap / lp.n,
    )


def in_neighborhood(it: Iterate, theta: float) -> bool:
    """Membership in the 2-norm central-path neighborhood.

    True iff x > 0, s > 0 and ``||x*s - mu e||_2 <= theta * mu`` where
    ``*`` is the componentwise product. Feasibility with respect to a
    particular program is checked separately via :func:`residuals`.
    """
    if not 0.0 <= theta < 1.0:
        raise errors.InvalidParameters(f"theta must lie in [0, 1), got {theta}")
    if not it.is_interior:
        return False
    products = it.x * it.s
    mu = it.mu
    return bool(_norm(products - mu) <= theta * mu)


def _pivoted_qr(A: np.ndarray):
    """The packed ``R`` and 0-based pivots of A's column-pivoted QR.

    The raw LAPACK call, given the workspace size ``scipy.linalg.qr``
    queries, gives the same bits as ``scipy.linalg.qr(A, pivoting=True)``
    without forming Q. Below the diagonal the packed array holds the
    reflectors.
    """
    m, n = A.shape
    query = lapack.dgeqp3(np.empty((m, n), order="F"), lwork=-1, overwrite_a=1)
    qr, pivots, _, _, _ = lapack.dgeqp3(A, lwork=int(query[3][0]))
    return qr, pivots - 1


def _full_rank_certified(A: np.ndarray, qr: np.ndarray) -> bool:
    """True when the QR's leading triangle certifies rank(A) = m (see
    :class:`LinearProgram`); False leaves the decision to an SVD."""
    m, n = A.shape
    inverse, info = lapack.dtrtri(qr[:m, :m])
    if info != 0:
        return False
    bound = (2.0 * float(np.linalg.norm(A)) * max(m, n) * np.finfo(float).eps
             * float(np.linalg.norm(np.triu(inverse))))
    return bound < 1.0


def _auto_basis(lp: LinearProgram) -> list:
    """Column-pivoted elimination: the first m pivot columns of the
    program's rank-revealing QR."""
    m = lp.m
    pivots, diag = lp._pivoted
    if diag[m - 1] <= BASIS_TOL * max(diag[0], 1.0):
        raise errors.SingularBasis("no invertible m-column basis found")
    return sorted(int(j) for j in pivots[:m])


def preprocess(lp: LinearProgram, basis=None) -> PreprocessedProgram:
    """Fix a basis and precompute its inverse products.

    With ``basis`` omitted, a basis is selected deterministically by
    column-pivoted elimination (pivot threshold ``BASIS_TOL``), read from
    the QR the program was validated with. The basis is rejected when
    ``sigma_min(A_B) <= BASIS_TOL * max(sigma_max(A_B), 1)``. Its record
    decides that without an SVD when ``2 * BASIS_TOL * max(sqrt(m) *
    certificate, ||A_B^{-1}||_F) < 1``, since ``sigma_max(A_B) /
    sigma_min(A_B) <= sqrt(m) * certificate`` and ``1 / sigma_min(A_B) <=
    ||A_B^{-1}||_F``; only an uncertified basis takes the SVD. The cost is
    one inversion of ``A_B`` and the O(m^2 n) products of
    :meth:`BasisFactors.of`; the result is reused for every
    normal-equation modification built from the program.
    """
    if basis is None:
        basis = _auto_basis(lp)
    basis = [int(j) for j in basis]
    if len(basis) != lp.m or len(set(basis)) != lp.m:
        raise errors.SingularBasis(f"basis must hold {lp.m} distinct indices")
    if min(basis) < 0 or max(basis) >= lp.n:
        raise errors.SingularBasis("basis index out of range")
    dependent = "supplied basis columns are linearly dependent"
    try:
        factors = BasisFactors.of(lp.A, basis)
    except errors.SingularBasis as exc:
        raise errors.SingularBasis(dependent) from exc
    bound = max(math.sqrt(lp.m) * factors.certificate,
                float(np.linalg.norm(factors.inverse)))
    if not 2.0 * BASIS_TOL * bound < 1.0:
        sv = np.linalg.svd(lp.A[:, basis], compute_uv=False)
        if sv[-1] <= BASIS_TOL * max(sv[0], 1.0):
            raise errors.SingularBasis(dependent)
    return PreprocessedProgram(lp, factors)


def nonsingular_bases(A: np.ndarray):
    """``(cols, A[:, cols])`` for each m-subset ``cols`` of columns, in
    ``itertools.combinations`` order, whose smallest singular value exceeds
    ``BASIS_TOL * max(||A||_2, 1)``. Enumeration: for tiny instances only."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    floor = BASIS_TOL * max(float(np.linalg.norm(A, 2)), 1.0)
    for cols in itertools.combinations(range(n), m):
        A_B = A[:, cols]
        if np.linalg.svd(A_B, compute_uv=False)[-1] > floor:
            yield cols, A_B
