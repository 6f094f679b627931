import os

import numpy as np
import pytest
from hypothesis import settings

from ifipm import GeneratorSpec, Iterate, generate, null_space_basis

# HYPOTHESIS_PROFILE=ci checks the same examples on every run; the default
# profile explores new ones
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def interior_iterate(rng, lp):
    """Random strictly interior (not necessarily feasible) iterate."""
    x = rng.uniform(0.5, 2.0, lp.n)
    s = rng.uniform(0.5, 2.0, lp.n)
    return Iterate(x, rng.standard_normal(lp.m), s)


def feasible_iterate(rng, inst, scale=0.05):
    """Strictly feasible interior iterate near an instance's certified start."""
    lp = inst.lp
    V = null_space_basis(lp.A)
    for _ in range(50):
        x = inst.start.x + V @ (scale * rng.standard_normal(V.shape[1]))
        y = inst.start.y + scale * rng.standard_normal(lp.m)
        s = lp.c - lp.A.T @ y
        if x.min() > 0 and s.min() > 0:
            return Iterate(x, y, s)
        scale *= 0.5
    raise AssertionError("could not perturb inside the feasible region")


def neighborhood_iterate(rng, n, m, theta, mu):
    """Random iterate with measure exactly mu and deviation within theta*mu.

    At n = 1 the centred deviation is zero and the iterate is centred.
    """
    x = rng.uniform(0.2, 3.0, n)
    deviation = rng.standard_normal(n)
    deviation -= deviation.mean()
    radius = theta * mu * rng.uniform(0, 1)
    norm = np.linalg.norm(deviation)
    if norm > 0.0:
        deviation *= radius / norm
    return Iterate(x, rng.standard_normal(m), (mu + deviation) / x)


def dense_newton_direction(lp, it, beta):
    """Independent full-system oracle.

    Builds the three-row block system directly from its defining
    equations (not via the library assembler) and solves it densely.
    Returns (dx, dy, ds).
    """
    m, n = lp.m, lp.n
    A, x, s = lp.A, it.x, it.s
    top = np.hstack([np.zeros((m, m)), A, np.zeros((m, n))])
    mid = np.hstack([A.T, np.zeros((n, n)), np.eye(n)])
    bot = np.hstack([np.zeros((n, m)), np.diag(s), np.diag(x)])
    M = np.vstack([top, mid, bot])
    rhs = np.concatenate([np.zeros(m + n), beta * it.mu - x * s])
    sol = np.linalg.solve(M, rhs)
    return sol[m:m + n], sol[:m], sol[m + n:]


@pytest.fixture(scope="session")
def central_instance():
    """Well-conditioned 3x7 instance with an exactly centered start."""
    return generate(GeneratorSpec(m=3, n=7, kappa_target=10.0, seed=7))


@pytest.fixture(scope="session")
def optimal_instance():
    """Nondegenerate 3x7 instance with a planted optimum."""
    return generate(GeneratorSpec(m=3, n=7, kappa_target=10.0,
                                  mode="known-optimal", seed=11))
