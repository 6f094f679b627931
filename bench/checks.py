"""Correctness checks on what the library returned.

These are separate from counted failures: a solver that raises an
``IfipmError`` counts toward the failure share, while a returned result
that violates one of the checks below makes the benchmark exit non-zero.
Every bound is computed here from the data, independently of the
library's own invariant checks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

#: feasibility kept relative to 1 + ||b||_inf and 1 + ||c||_inf
FEAS_RTOL = 1e-8

TRACE_HEADER = ["k", "mu", "kappa_FNS", "kappa_AS", "kappa_NES", "kappa_OSS",
                "kappa_MNES", "kappa_PNES"]


@dataclass(frozen=True, eq=False)
class Outcome:
    """One attempted solve: the instance and, when it solved, the final point."""

    label: str
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    zeta: float
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    s: Optional[np.ndarray] = None
    x_opt: Optional[np.ndarray] = None  # planted optimum, if known
    y_opt: Optional[np.ndarray] = None
    error: Optional[str] = None

    @property
    def solved(self) -> bool:
        return self.error is None


def check_solution(out: Outcome) -> list:
    """Problems with one solved instance; an empty list means it passed."""
    x, y, s = out.x, out.y, out.s
    problems = []
    n = x.shape[0]
    mu = float(x @ s) / n
    if not mu <= out.zeta:
        problems.append(f"mu={mu:.3e} above zeta={out.zeta:.3e}")
    if not (x.min() > 0.0 and s.min() > 0.0):
        problems.append("x or s not strictly positive")
    primal = float(np.linalg.norm(out.A @ x - out.b, np.inf))
    dual = float(np.linalg.norm(out.A.T @ y + s - out.c, np.inf))
    if not primal <= FEAS_RTOL * (1.0 + float(np.linalg.norm(out.b, np.inf))):
        problems.append(f"primal infeasibility {primal:.3e}")
    if not dual <= FEAS_RTOL * (1.0 + float(np.linalg.norm(out.c, np.inf))):
        problems.append(f"dual infeasibility {dual:.3e}")
    if out.x_opt is not None:
        # c.x - c.x* = y*.(Ax - b) + s*.x >= 0 and c.x - b.y = x.s plus
        # residual terms, so c.x lies in [c.x*, c.x* + x.s] up to the
        # residual-weighted slack below and dot-product rounding
        cx = float(out.c @ x)
        cx_opt = float(out.c @ out.x_opt)
        slack = (float(np.abs(out.y_opt).sum()) * primal
                 + float(np.abs(y).sum()) * primal + float(np.abs(x).sum()) * dual
                 + 1e-12 * (1.0 + float(np.abs(out.c * x).sum())))
        if not cx_opt - slack <= cx <= cx_opt + float(x @ s) + slack:
            problems.append(f"objective {cx!r} outside [{cx_opt!r}, {cx_opt!r} + x.s]")
    return [f"{out.label}: {p}" for p in problems]


def check_trace_csv(path, mu_start: float, zeta: float) -> list:
    """Problems with a condition-trace CSV written by ``ifipm trace``."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != TRACE_HEADER:
        return [f"{path}: header {rows[0] if rows else None} is not {TRACE_HEADER}"]
    body = rows[1:]
    if not body:
        return [f"{path}: no iterations"]
    problems = []
    try:
        mus = [float(r[1]) for r in body]
        kappas = [float(v) for r in body for v in r[2:]]
        ks = [int(r[0]) for r in body]
    except (ValueError, IndexError) as exc:
        return [f"{path}: malformed row ({exc})"]
    if ks != list(range(len(body))):
        problems.append("k column is not 0, 1, 2, ...")
    if any(not b < a for a, b in zip(mus, mus[1:])) or mus[-1] <= 0.0:
        problems.append("mu is not positive and strictly decreasing")
    if not math.isclose(mus[0], mu_start, rel_tol=1e-12):
        problems.append(f"first mu {mus[0]!r} is not the start's {mu_start!r}")
    if not mus[-1] > zeta:
        problems.append("a row was written after mu reached zeta")
    if any(not (math.isfinite(v) and v >= 1.0 - 1e-9) for v in kappas):
        problems.append("a condition number is missing, non-finite or below 1")
    return [f"{path}: {p}" for p in problems]
