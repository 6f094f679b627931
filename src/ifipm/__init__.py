"""Inexact-feasible interior point method for linear optimization.

Library layout:

* :mod:`ifipm.problem` — standard-form programs, iterates, neighborhood
  and feasibility predicates, basis preprocessing;
* :mod:`ifipm.generator` — seeded random instances with certified starts
  and (optionally) planted optimal solutions;
* :mod:`ifipm.newton` — the six Newton-system formulations, feasibility
  correction, maximum-weight-basis preconditioning, condition numbers;
* :mod:`ifipm.solvers` — exact / CG / bounded-residual-oracle solvers and
  inner iterative refinement;
* :mod:`ifipm.ipm` — the short-step loop and the outer refinement driver;
* :mod:`ifipm.cli` — the ``ifipm`` command (generate / solve / trace / batch).

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless the variable
is already set. numpy and scipy each load their own OpenBLAS, and two
thread pools contending for the cores make the per-iteration dense
kernels several times slower than one thread. The setting reaches a BLAS
library only if it is loaded after this import.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads

from . import errors
from .problem import (
    BasisFactors,
    Iterate,
    LinearProgram,
    PreprocessedProgram,
    ResidualReport,
    in_neighborhood,
    preprocess,
    residuals,
)
from .generator import GeneratedInstance, GeneratorSpec, certify, generate
from .newton import (
    AssembledSystem,
    Direction,
    SystemKind,
    assemble,
    chi_bar,
    condition_number,
    null_space_basis,
    recover_direction,
    recover_direction_nes_procA,
    recover_direction_oss,
    select_basis_mwb,
    verify_direction,
)
from .solvers import (
    CgSolver,
    ExactSolver,
    OracleSolver,
    PcgSolver,
    RefiningSolver,
    SolveReport,
    inexact_oracle,
    refine_linear,
    solve_cg,
    solve_exact,
)
from .ipm import (
    IpmParams,
    IpmTrace,
    RefinementState,
    check_parameters,
    if_ipm,
    ir_if_ipm,
    short_step,
)
from .io import LoadedInstance, load_instance, save_instance

__version__ = "0.1.0"
