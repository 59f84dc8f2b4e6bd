"""Adaptive refinement, and a discontinuous solution on an aligned mesh.

Two studies:
* the smooth quadratic problem reaches machine accuracy with four basis
  functions via automatic degree raising;
* the piecewise solution with a jump at t = 0.5 (and a kernel vanishing on
  the diagonal, so the problem has no second-kind reformulation) converges
  spectrally once an element boundary sits on the jump.
"""

import numpy as np

from abelhp import (
    AdaptiveOptions,
    adaptive_solve,
    error_E1,
    make_benchmark,
    solve,
    uniform_mesh,
)

print("adaptive degree raising on the smooth quadratic problem:")
b4 = make_benchmark("ex4")
opts = AdaptiveOptions(tol=1e-13, strategy="p_first", max_L=16)
solution, trace = adaptive_solve(b4.spec, uniform_mesh(1, 1.0, 1), opts,
                                 reference=b4.exact)
print(trace.to_csv())

print("discontinuous solution, mesh aligned with the jump at t = 0.5:")
b5 = make_benchmark("ex5")
for degree in (2, 4, 6, 8):
    sol = solve(b5.spec, uniform_mesh(2, 1.0, degree), b5.solver_options())
    print(f"  degree {degree}: E1 = {error_E1(sol, b5.exact):.3e}")

print()
print("values straddling the jump (exact: exp(-0.5) ~ 0.6065 and 2 - t^2):")
sol = solve(b5.spec, uniform_mesh(2, 1.0, 8), b5.solver_options())
for t in (0.5, 0.5000001):
    print(f"  u({t}) = {sol(t):.6f}")
