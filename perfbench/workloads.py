"""Workload definitions: which cases each workload runs, why, and the
accuracy target each case must meet.

A case is judged by E2, the max-norm error on 65 equispaced points per
element (``abelhp.bench.error_E2``), against the problem's exact solution.

Fixed-mesh cases whose solve works today must keep the E2 they reach today,
within ``E2_SLACK``: a speed-up may not be bought with accuracy.  Adaptive
cases must reach their own tolerance.

ex6 is not run: its stored reference is coarser than the errors it would
judge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: relative slack on the E2 a fixed-mesh case reached when this benchmark was
#: written; changes that only reorder floating-point work move E2 by far less
E2_SLACK = 0.02

#: E2 of the fixed-mesh cases when this benchmark was written, keyed by
#: (problem, alpha, N, M); M counts basis functions per element (degree + 1)
SEED_E2 = {
    ("ex2", None, 256, 2): 2.1389486672407365e-05,
    ("ex2", None, 512, 2): 5.455988781433163e-06,
    ("ex2", None, 1024, 2): 1.3813295515197055e-06,
    ("ex3", None, 40, 3): 1.915650643558031e-06,
    ("ex3", None, 80, 3): 2.378603335406737e-07,
    ("ex3", None, 160, 3): 2.9476182383803007e-08,
    ("ex1", 0.3, 8, 4): 0.00045558898117125827,
    ("ex1", 0.3, 16, 4): 0.00018502144835619478,
    ("ex1", 0.5, 8, 4): 0.00024030685247678678,
    ("ex1", 0.5, 16, 4): 8.493036581381612e-05,
    ("ex1", 0.7, 8, 4): 0.00011856251571258289,
    ("ex1", 0.7, 16, 4): 3.651874755155292e-05,
}

# Every ex5 case on the grid below fails Newton today, so it has no E2 of its
# own to keep.  Its target is what a correct solve must reach instead.  The
# meshes put the solution's jump at t = 0.5 on a breakpoint, so the solution
# is smooth on every element, and a correct collocation solve lands within a
# small factor of the error of interpolating the exact solution at each
# element's Gauss-Legendre nodes: that factor is 1.6 to 2.5 for ex2 and ex3
# on the same kinds of meshes.  The target allows 10 times the interpolation
# error, and never less than EX5_FLOOR, the level where the solver's own
# tolerances take over (the adaptive ex5 run below stops at E2 = 2.7e-10).
EX5_FLOOR = 1e-9
EX5_INTERP_E2 = {
    (8, 2): 2.604e-03, (8, 3): 1.506e-05, (8, 5): 9.383e-10, (8, 8): 1.776e-15,
    (16, 2): 6.510e-04, (16, 3): 1.957e-06, (16, 5): 3.041e-11, (16, 8): 2.442e-15,
    (32, 2): 1.628e-04, (32, 3): 2.494e-07, (32, 5): 9.693e-13, (32, 8): 2.665e-15,
}

EX1_ALPHAS = (0.3, 0.5, 0.7)


@dataclass(frozen=True)
class FixedCase:
    """Solve once on the uniform mesh ``mesh_for(problem, N, M)``."""

    problem: str
    N: int
    M: int
    target_E2: float
    alpha: float | None = None

    @property
    def label(self) -> str:
        a = f" a={self.alpha}" if self.alpha is not None else ""
        return f"{self.problem}{a} N={self.N} M={self.M}"


@dataclass(frozen=True)
class AdaptiveCase:
    """``adaptive_solve`` from ``uniform_mesh(N0, T, degree0)`` to ``tol``."""

    problem: str
    strategy: str
    tol: float
    N0: int = 1
    degree0: int = 1
    max_L: int = 200
    alpha: float | None = None

    @property
    def target_E2(self) -> float:
        return self.tol

    @property
    def label(self) -> str:
        a = f" a={self.alpha}" if self.alpha is not None else ""
        return f"{self.problem}{a} {self.strategy} tol={self.tol:g} max_L={self.max_L}"


def _seeded(problem, alpha, N, M) -> FixedCase:
    target = SEED_E2[(problem, alpha, N, M)] * (1.0 + E2_SLACK)
    return FixedCase(problem, N, M, target, alpha)


def hist_linear(rng: random.Random) -> list:
    # ex2 is linear with a closed-form right-hand side, so a solve is one LU
    # per element plus the O(N^2) history sum over all earlier elements, which
    # takes nearly all of the time at these N.  No Newton, no descent and no
    # manufactured right-hand side run here: it is the workload on which
    # history work must show and on which nonlinear-solver work must not.
    return [_seeded("ex2", None, N, 2) for N in (256, 512, 1024)]


def nonlinear_march(rng: random.Random) -> list:
    # Nonlinear element marches, where descent plus Newton dominate and the
    # history sum is a minor share.
    # - ex3 (smooth cubic, quadratic nonlinearity) at M=3 on three h levels:
    #   the longest nonlinear marches, closed-form right-hand side.
    # - ex1 (singular t^(1+alpha), squared nonlinearity) at M=4: a manufactured
    #   right-hand side, so forward_apply runs; alpha is drawn by the seed, as
    #   a user picks the singularity of the problem at hand.
    # - ex5 (jump at t=0.5, u^5, kernel vanishing on the diagonal) on the
    #   N x M grid where Newton fails today; a fix must show here.
    alpha = rng.choice(EX1_ALPHAS)
    cases = [_seeded("ex3", None, N, 3) for N in (40, 80, 160)]
    cases += [_seeded("ex1", alpha, N, 4) for N in (8, 16)]
    for N in (8, 16, 32):
        for M in (2, 3, 5, 8):
            target = max(10.0 * EX5_INTERP_E2[(N, M)], EX5_FLOOR)
            cases.append(FixedCase("ex5", N, M, target))
    return cases


def adaptive_tol(rng: random.Random) -> list:
    # Time to a stated tolerance through repeated re-solves.  Each run starts
    # from the coarsest mesh, one element of degree 1; ex5 starts from two so
    # that its jump at t=0.5 is a breakpoint.
    # - ex1 p_first: spectral degree raising on one element with a singular
    #   solution, up to degree 23 (max_L=24): high-degree operators and the
    #   manufactured right-hand side at many nodes.
    # - ex1, ex3, ex2, ex4 alternate: mixed h/p refinement on singular,
    #   nonlinear smooth, linear and polynomial-kernel problems.
    # - ex5 p_first: the discontinuous problem, which solves when its jump is
    #   a breakpoint and h stays large.
    # - ex2 h_first with max_L=100: bisection alone cannot reach 1e-6 on ex2
    #   within the budget; it fails today with BudgetExceededError after 50
    #   solves and is the heaviest run of the pass.
    return [
        AdaptiveCase("ex1", "p_first", 1e-5, max_L=24, alpha=0.3),
        AdaptiveCase("ex1", "alternate", 1e-6, alpha=0.3),
        AdaptiveCase("ex3", "alternate", 1e-10),
        AdaptiveCase("ex5", "p_first", 1e-9, N0=2),
        AdaptiveCase("ex2", "alternate", 1e-9),
        AdaptiveCase("ex4", "alternate", 1e-13),
        AdaptiveCase("ex2", "h_first", 1e-6, max_L=100),
    ]


WORKLOADS = {
    "hist_linear": hist_linear,
    "nonlinear_march": nonlinear_march,
    "adaptive_tol": adaptive_tol,
}
