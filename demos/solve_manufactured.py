"""Build a problem from scratch, manufacture its right-hand side, solve it.

The forward operator evaluates the weakly singular integral for any candidate
solution, so choosing u and computing f = K u gives a problem with a known
answer.  Here: alpha = 0.5, a cubic nonlinearity, and u(t) = t.
"""

import numpy as np

from abelhp import ProblemSpec, SolverOptions, evaluate, forward_apply, solve, uniform_mesh

ones = lambda t, s: np.ones_like(np.asarray(s, dtype=float) + t)
exact = lambda s: np.asarray(s, dtype=float)

skeleton = ProblemSpec(
    alpha=0.5,
    T=1.0,
    kappa=ones,
    psi=lambda t, s, u: u**3,
    dpsi_du=lambda t, s, u: 3.0 * u**2,
    f=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
)


def f(t):
    # each time of the array t is integrated on its own
    return forward_apply(skeleton, exact, t)


problem = ProblemSpec(
    alpha=0.5,
    T=1.0,
    kappa=ones,
    psi=lambda t, s, u: u**3,
    dpsi_du=lambda t, s, u: 3.0 * u**2,
    f=f,
)

# u^3 has zero derivative at u = 0, so Newton needs a nonzero seed
options = SolverOptions(init_constant=0.5)

print("N  degree  max error on (0, 1]")
for N, degree in [(1, 2), (2, 2), (2, 4), (4, 4)]:
    solution = solve(problem, uniform_mesh(N, 1.0, degree), options)
    ts = np.linspace(0.01, 1.0, 101)
    err = np.max(np.abs(evaluate(solution, ts) - exact(ts)))
    print(f"{N}  {degree}       {err:.3e}")

print()
print("The recovered solution is the line u(t) = t; evaluating a few points:")
solution = solve(problem, uniform_mesh(2, 1.0, 4), options)
for t in (0.1, 0.5, 0.9):
    print(f"  u({t}) = {evaluate(solution, t):.12f}")
