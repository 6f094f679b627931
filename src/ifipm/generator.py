"""Random standard-form instances with controlled conditioning.

Two construction modes:

* ``central-start`` — draws a strictly positive primal-dual pair with all
  componentwise products equal (an exactly centered start) and defines
  b, c backwards from it.
* ``known-optimal`` — plants a strictly complementary optimal solution on
  a chosen support, then searches the null space / row space for a
  strictly interior start and centers it with a few damped Newton steps.

The constraint matrix is built as U diag(sig) V^T with geometrically
spaced singular values, so its condition number hits the target exactly
up to roundoff. Degenerate instances use an optimal support of size
m - 1, whose columns cannot span the row space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import errors
from .problem import Iterate, LinearProgram, in_neighborhood, nonsingular_bases, residuals

__all__ = ["GeneratorSpec", "GeneratedInstance", "CertReport", "generate", "certify"]

MODES = ("central-start", "known-optimal")

#: proximity the centering loop drives known-optimal starts to,
#: comfortably inside every neighborhood used by the solver presets
START_PROXIMITY = 0.2


@dataclass(frozen=True)
class GeneratorSpec:
    m: int
    n: int
    kappa_target: float = 1.0
    degenerate: bool = False
    mode: str = "central-start"
    mu0: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < self.m:
            raise errors.DimensionOrder(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        if not 1.0 <= self.kappa_target < math.inf:
            raise errors.InvalidParameters("kappa_target must be finite and >= 1")
        if not 0.0 < self.mu0 < math.inf:
            raise errors.InvalidParameters("mu0 must be positive and finite")
        if self.mode not in MODES:
            raise errors.InvalidParameters(f"mode must be one of {MODES}")
        if self.degenerate and self.mode != "known-optimal":
            raise errors.InvalidParameters("degeneracy control needs known-optimal mode")
        if self.degenerate and self.m < 2:
            raise errors.InvalidParameters("degenerate instances need m >= 2")


@dataclass(frozen=True, eq=False)
class GeneratedInstance:
    lp: LinearProgram
    start: Iterate
    optimal: Optional[Iterate] = None
    partition: Optional[tuple] = None  # (B, N) index tuples


@dataclass(frozen=True)
class CertReport:
    passed: bool
    checks: dict
    details: dict


def _orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    g = rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))  # sign-fixed for determinism


def _conditioned_matrix(rng, m, n, kappa):
    if m == 1:
        sig = np.array([1.0])
    else:
        sig = kappa ** (-np.arange(m) / (m - 1))  # geometric from 1 to 1/kappa
    U = _orthonormal(rng, m, m)
    V = _orthonormal(rng, n, m)
    return U @ (sig[:, None] * V.T)


def _most_interior_on_ray(base, step, hi=1e3):
    """Maximize the smallest component of ``base + alpha * step`` over alpha > 0.

    The objective is concave piecewise-linear, so a ternary search suffices.
    Returns the best point, or None if it never becomes positive.
    """
    lo = 0.0
    for _ in range(80):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if (base + m1 * step).min() < (base + m2 * step).min():
            lo = m1
        else:
            hi = m2
    cand = base + 0.5 * (lo + hi) * step
    return cand if cand.min() > 0.0 else None


def _center(A, b, c, x, y, s, mu_target, max_steps=80):
    """Damped Newton centering toward products == mu_target.

    Keeps positivity via a fraction-to-boundary rule; on success snaps the
    point back onto the affine constraints (the Newton steps only preserve
    them up to solver residual, which matters at large kappa). Returns
    None if the merit stalls.
    """
    from .solvers import solve_exact

    n = x.shape[0]
    gram = A @ A.T
    for _ in range(max_steps):
        products = x * s
        mu = products.sum() / n
        if (np.linalg.norm(products - mu) <= 0.75 * START_PROXIMITY * mu
                and abs(mu - mu_target) <= 0.5 * mu_target):
            try:
                u = solve_exact(gram, A @ x - b).solution
            except errors.SingularMatrix:
                return None
            x = x - A.T @ u
            s = c - A.T @ y
            products = x * s
            mu = products.sum() / n
            if (x.min() > 0 and s.min() > 0
                    and np.linalg.norm(products - mu) <= START_PROXIMITY * mu):
                return x, y, s
            return None
        d2 = x / s
        M = (A * d2[None, :]) @ A.T
        sigma = A @ x - mu_target * (A @ (1.0 / s))
        try:
            dy = solve_exact(0.5 * (M + M.T), sigma).solution
        except errors.SingularMatrix:
            return None
        ds = -(A.T @ dy)
        dx = mu_target / s - x - d2 * ds
        alpha = 1.0
        for vec, dvec in ((x, dx), (s, ds)):
            neg = dvec < 0
            if neg.any():
                alpha = min(alpha, 0.95 * float(np.min(-vec[neg] / dvec[neg])))
        phi = np.linalg.norm(products - mu_target)
        accepted = False
        for _ in range(30):
            xn, sn = x + alpha * dx, s + alpha * ds
            if xn.min() > 0 and sn.min() > 0:
                if np.linalg.norm(xn * sn - mu_target) < phi * (1.0 - 0.01 * alpha):
                    x, y, s = xn, y + alpha * dy, sn
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            return None
    return None


def _positive_in_hyperplane(q, rng):
    """Random strictly positive vector w with q.T w = 0.

    Requires q to carry both signs; scales the negative-sign block of a
    random positive draw until the inner product cancels.
    """
    w = rng.uniform(1.0, 2.0, q.shape[0])
    pos = q > 0
    neg = q < 0
    s_pos = float(q[pos] @ w[pos])
    s_neg = float(q[neg] @ w[neg])
    if s_pos <= 0.0 or s_neg >= 0.0:
        return None
    w[neg] *= -s_pos / s_neg
    return w


def generate(spec: GeneratorSpec) -> GeneratedInstance:
    """Build an instance per the spec; deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    m, n = spec.m, spec.n
    A = _conditioned_matrix(rng, m, n, spec.kappa_target)

    if spec.mode == "central-start":
        x0 = rng.uniform(0.5, 2.0, n)
        s0 = spec.mu0 / x0
        y0 = rng.standard_normal(m)
        lp = LinearProgram(A, A @ x0, A.T @ y0 + s0)
        return GeneratedInstance(lp=lp, start=Iterate(x0, y0, s0))

    # known-optimal: plant a strictly complementary solution on support B
    size_b = m - 1 if spec.degenerate else m
    B = obstruction = None
    for _ in range(50):
        cand = np.sort(rng.permutation(n)[:size_b])
        sv = np.linalg.svd(A[:, cand], compute_uv=False)
        if sv[-1] <= 1e-8 * sv[0]:
            continue
        if spec.degenerate:
            # a support is usable only if the single left-null direction of
            # A_B is sign-mixed on the complement; a one-signed direction
            # certifies that no strictly interior feasible point exists
            rest = np.setdiff1d(np.arange(n), cand)
            y0 = np.linalg.svd(A[:, cand].T, full_matrices=True)[2][-1]
            q = A[:, rest].T @ y0
            margin = 1e-8 * float(np.abs(q).max())
            if q.min() >= -margin or q.max() <= margin:
                continue
            obstruction = q
        B = cand
        break
    if B is None:
        raise errors.InteriorSearchFailed("no usable optimal support found")
    N = np.setdiff1d(np.arange(n), B)
    x_star = np.zeros(n)
    x_star[B] = rng.uniform(1.0, 2.0, size_b)
    s_star = np.zeros(n)
    s_star[N] = rng.uniform(1.0, 2.0, n - size_b)
    y_star = rng.standard_normal(m)
    b = A @ x_star
    c = A.T @ y_star + s_star
    lp = LinearProgram(A, b, c)
    optimal = Iterate(x_star, y_star, s_star)
    partition = (tuple(int(i) for i in B), tuple(int(i) for i in N))

    idx_B, idx_N = list(B), list(N)
    A_B, A_N = A[:, idx_B], A[:, idx_N]
    for _ in range(100):
        # primal: pick a positive null-space component on the zero support
        # (orthogonal to the obstruction direction when the support is
        # rank-deficient), complete it by least squares on the support,
        # and ray-search for the most interior point
        if obstruction is not None:
            w_N = _positive_in_hyperplane(obstruction, rng)
            if w_N is None:
                continue
        else:
            w_N = rng.uniform(1.0, 2.0, len(idx_N))
        w = np.zeros(n)
        w[idx_N] = w_N
        w[idx_B] = np.linalg.lstsq(A_B, -A_N @ w_N, rcond=None)[0]
        x0 = _most_interior_on_ray(x_star, w)
        if x0 is None or x0.min() <= 1e-3:
            continue
        # dual: a row-space direction lifting the basis slacks from zero,
        # damped so the nonbasis slacks stay positive
        w_B = rng.uniform(1.0, 2.0, len(idx_B))
        u = np.linalg.lstsq(A_B.T, w_B, rcond=None)[0]
        g = A.T @ u
        g_N_max = float(np.abs(g[idx_N]).max()) if idx_N else 0.0
        gamma_pos = 1.0
        if g_N_max > 0.0 and idx_N:
            gamma_pos = 0.45 * float(s_star[idx_N].min()) / g_N_max
        denom = float(x0 @ g)
        gamma = gamma_pos
        if denom > 0.0:  # nudge the measure toward mu0 when admissible
            gamma_mu = (spec.mu0 * n - float(x0 @ s_star)) / denom
            if 0.0 < gamma_mu <= gamma_pos:
                gamma = gamma_mu
        s0 = s_star + gamma * g
        if s0.min() <= 0.0:
            continue
        centered = _center(A, b, c, x0, y_star - gamma * u, s0, spec.mu0)
        if centered is None:
            continue
        x0, y0, s0 = centered
        return GeneratedInstance(lp=lp, start=Iterate(x0, y0, s0),
                                 optimal=optimal, partition=partition)
    raise errors.InteriorSearchFailed(
        "no strictly interior centered start within 100 attempts")


def _vertex_optimum(lp: LinearProgram) -> Optional[float]:
    """Brute-force optimal value over basic feasible solutions (tiny n only)."""
    best = None
    for cols, A_B in nonsingular_bases(lp.A):
        x_B = np.linalg.solve(A_B, lp.b)
        if x_B.min() >= -1e-9:
            value = float(lp.c[list(cols)] @ x_B)
            if best is None or value < best:
                best = value
    return best


def certify(inst: GeneratedInstance) -> CertReport:
    """Re-check every invariant the generator promises.

    On tiny instances (n <= 8) with a planted optimum, additionally
    verifies optimality against brute-force vertex enumeration.
    """
    lp = inst.lp
    checks: dict = {}
    details: dict = {}

    b_scale = 1.0 + float(np.linalg.norm(lp.b, np.inf))
    c_scale = 1.0 + float(np.linalg.norm(lp.c, np.inf))
    r = residuals(lp, inst.start)
    details["start_primal_inf"] = r.primal_inf
    details["start_dual_inf"] = r.dual_inf
    checks["start_primal"] = r.primal_inf <= 1e-10 * b_scale
    checks["start_dual"] = r.dual_inf <= 1e-10 * c_scale
    checks["start_interior"] = inst.start.is_interior
    checks["start_neighborhood"] = in_neighborhood(inst.start, 0.7)

    if inst.optimal is not None:
        ro = residuals(lp, inst.optimal)
        details["optimal_gap"] = ro.gap
        checks["optimal_primal"] = ro.primal_inf <= 1e-10 * b_scale
        checks["optimal_dual"] = ro.dual_inf <= 1e-10 * c_scale
        checks["optimal_nonnegative"] = bool(
            inst.optimal.x.min() >= 0.0 and inst.optimal.s.min() >= 0.0)
        checks["optimal_gap_zero"] = ro.gap <= 1e-12 * lp.n
        if inst.partition is not None:
            B, N = inst.partition
            checks["partition_complementary"] = bool(
                np.all(inst.optimal.x[list(N)] == 0.0)
                and np.all(inst.optimal.s[list(B)] == 0.0))
        if lp.n <= 8:
            vertex = _vertex_optimum(lp)
            planted = float(lp.c @ inst.optimal.x)
            details["vertex_value"] = vertex if vertex is not None else float("nan")
            details["planted_value"] = planted
            checks["vertex_optimal"] = (
                vertex is not None and abs(vertex - planted) <= 1e-8 * (1.0 + abs(vertex)))

    return CertReport(passed=all(checks.values()), checks=checks, details=details)
