"""Tour of the six Newton-system formulations on one small instance.

Assembles each formulation at the certified interior start, prints the
size / symmetry / definiteness / condition-number table, and checks the
basis-scaled route against a dense solve of the full primal-dual system.
"""

from ifipm import (
    GeneratorSpec,
    SystemKind,
    assemble,
    condition_number,
    generate,
    preprocess,
    recover_direction,
    short_step,
    solve_exact,
    verify_direction,
)

inst = generate(GeneratorSpec(m=3, n=7, kappa_target=10.0,
                              mode="known-optimal", seed=7))
prep = preprocess(inst.lp)
beta = short_step(inst.lp.n)

print(f"instance: m={inst.lp.m}, n={inst.lp.n}, "
      f"kappa(A)={condition_number(inst.lp.A):.2f}, start mu={inst.start.mu:.3f}\n")
print(f"{'system':8s} {'size':>6s} {'symmetric':>10s} {'pos.def.':>9s} {'kappa':>12s}")
for kind in SystemKind:
    sys = assemble(kind, inst.start, prep, beta)
    print(f"{kind.name:8s} {sys.matrix.shape[0]:6d} {str(sys.symmetric):>10s} "
          f"{str(sys.positive_definite):>9s} {condition_number(sys):12.4e}")

# solve the basis-scaled system exactly and recover the step
sys = assemble(SystemKind.MNES, inst.start, prep, beta)
z = solve_exact(sys.matrix, sys.rhs).solution
direction = recover_direction(sys, z, inst.start, prep)
report = verify_direction(direction, inst.start, inst.lp, beta)
print("\nexact basis-scaled step:")
print(f"  ||A dx||_inf          = {report.primal_residual:.3e}")
print(f"  ||A^T dy + ds||_inf   = {report.dual_residual:.3e}")
print(f"  centering row residual= {report.third_row_residual:.3e}")
print(f"  dx . ds               = {report.dx_dot_ds:.3e}")
