"""Registry of the benchmark problems.

Six registered problems cover singular, smooth, noisy, degenerate-kernel,
discontinuous, and reference-free cases.  Each right-hand side is in closed
form, ex1's and ex5's as series accurate to about 1e-15 relative.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discretization import ProblemSpec
from .solver import SolverOptions

__all__ = ["BenchmarkProblem", "PROBLEM_IDS", "make_benchmark"]

PROBLEM_IDS = (
    "ex1_singular",
    "ex2_plato",
    "ex3_branca",
    "ex4_liu",
    "ex5_discontinuous",
    "ex6_unknown",
)

_ALIASES = {f"ex{i}": pid for i, pid in enumerate(PROBLEM_IDS, start=1)}


@dataclass
class BenchmarkProblem:
    """A registered equation instance plus everything a sweep needs."""

    id: str
    spec: ProblemSpec
    exact: Callable | None
    init_constant: float = 0.0
    mesh_hints: tuple[float, ...] = ()
    description: str = ""

    def solver_options(self, **overrides) -> SolverOptions:
        return SolverOptions(**{"init_constant": self.init_constant, **overrides})


def _series_length(x: float) -> int:
    """Terms of sum_k x^k / k! to keep: the first one left out is below 2^-60 min(1, x)."""
    k, term = 0, 1.0
    while term > 2.0**-60 * min(1.0, x):
        k += 1
        term *= x / k
    return k


def _times(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Coefficients of p times q, lowest power first, for each column of p (q's rows broadcast)."""
    out = np.zeros((len(p) + len(q) - 1, *p.shape[1:]))
    for i, qi in enumerate(q):
        out[i : i + len(p)] += qi * p
    return out


def _ex1_rhs(alpha: float):
    """ex1's f: int_0^t (t-s)^(alpha-1) e^(ts) s^(2+2 alpha) ds, 0 for t <= 0.

    With e^(ts) = sum_k (ts)^k / k! each term is a Beta integral, so
    f(t) = t^(2+3 alpha) sum_k t^(2k) / k! B(alpha, 3+2 alpha+k), a series of
    positive terms summed by Horner's scheme in t^2.
    """
    beta0 = math.gamma(alpha) * math.gamma(3.0 + 2.0 * alpha) / math.gamma(3.0 + 3.0 * alpha)

    def f(t):
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        x = t * t
        k = np.arange(_series_length(float(x.max(initial=0.0))) - 1)
        ratios = (3.0 + 2.0 * alpha + k) / ((3.0 + 3.0 * alpha + k) * (k + 1.0))
        # t^(2+3 alpha) as t^2 (t^alpha)^3, with no rounded exponent
        return x * (t**alpha) ** 3 * np.polyval(beta0 * np.cumprod(np.r_[1.0, ratios])[::-1], x)

    return f


def _ex5_rhs(t):
    """ex5's f: int_0^t (t-s)^(alpha-1) sin(t-s) u(s)^5 ds with alpha = 0.8, 0 for t <= 0.

    In sigma = t - s, on s <= 1/2 the integrand is e^(-5t) sigma^(alpha-1)
    Im e^((5+i) sigma), which integrates to e^(-5t) Im[Phi(t) - Phi(max(t - 1/2, 0))]
    with Phi(x) = sum_k (5+i)^k x^(k+alpha) / (k! (k+alpha)).  On s > 1/2,
    (2 - (t - sigma)^2)^5 is a polynomial in sigma; times the series of
    sin(sigma) / sigma it integrates term by term over [0, t - 1/2].
    """
    alpha, z = 0.8, 5.0 + 1.0j
    t = np.maximum(np.asarray(t, dtype=float), 0.0)
    k = np.arange(_series_length(abs(z) * float(t.max(initial=0.0))))
    z_pow = np.cumprod(np.r_[1.0, np.full(k.size - 1, z) / k[1:]])  # z^k / k!
    im_phi = lambda x: x**alpha * np.polyval((z_pow.imag / (k + alpha))[::-1], x)
    x0 = np.maximum(t - 0.5, 0.0)
    out = np.exp(-5.0 * t) * (im_phi(t) - im_phi(x0))
    late = t > 0.5
    if late.any():
        tl, x = t[late], x0[late]
        q = np.stack([2.0 - tl * tl, 2.0 * tl, np.full_like(tl, -1.0)])
        u5 = functools.reduce(_times, [q] * 5)
        j = np.arange(_series_length(float(x.max())))
        sine = np.where(j % 2 == 1, (-1.0) ** (j // 2) / np.cumprod(np.maximum(j, 1)), 0.0)
        d = _times(u5, sine[1:, None])  # sigma^-1 sin(sigma) (2 - s^2)^5, by powers of sigma
        n = np.arange(len(d))[:, None]
        # np.polyval's Horner loop runs over rows: one polynomial per column of x
        out[late] += x * x**alpha * np.polyval((d / (n + alpha + 1.0))[::-1], x)
    return out


def make_benchmark(problem_id: str, alpha: float | None = None) -> BenchmarkProblem:
    """Build a registered benchmark problem (alpha is required for ex1)."""
    pid = _ALIASES.get(problem_id, problem_id)
    if pid not in PROBLEM_IDS:
        raise ValueError(f"unknown benchmark id {problem_id!r}")

    if pid == "ex1_singular":
        if alpha is None:
            raise ValueError("ex1_singular takes the singularity exponent alpha")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        exact = lambda t: np.asarray(t, dtype=float) ** (1.0 + alpha)
        spec = ProblemSpec(
            alpha=alpha,
            T=1.0,
            kappa=lambda t, s: np.exp(t * s),
            psi=lambda t, s, u: u**2,
            dpsi_du=lambda t, s, u: 2.0 * u,
            f=_ex1_rhs(alpha),
            # the solution is >= 0; abs keeps a slightly negative z from a NaN
            psi_inv=lambda s, z: np.sqrt(np.abs(z)),
        )
        return BenchmarkProblem(
            pid,
            spec,
            exact,
            description="singular solution t^(1+alpha), squared nonlinearity, exp kernel",
        )
    if alpha is not None:
        raise ValueError(f"{pid} has a fixed alpha")

    if pid == "ex2_plato":
        # the classic data pair for this problem normalizes the operator by
        # Gamma(1/2); with the unnormalized kernel used here the solution
        # absorbs that factor so that K(exact) == f holds
        c4 = 24.0 / math.gamma(4.5) / math.gamma(0.5)
        c6 = 720.0 / math.gamma(6.5) / math.gamma(0.5)

        def exact(t):
            t = np.asarray(t, dtype=float)
            return np.exp(-t) * (c4 * t**3.5 + c6 * t**5.5)

        spec = ProblemSpec(
            alpha=0.5,
            T=1.0,
            kappa=lambda t, s: np.exp(s - t),
            psi=lambda t, s, u: u,
            dpsi_du=lambda t, s, u: np.ones_like(np.asarray(u, dtype=float)),
            f=lambda t: np.exp(-np.asarray(t, dtype=float))
            * (np.asarray(t, dtype=float) ** 4 + np.asarray(t, dtype=float) ** 6),
            linear=True,
        )
        return BenchmarkProblem(
            pid, spec, exact, description="linear, exp kernel, noise-perturbation study"
        )

    if pid == "ex3_branca":

        def f(t):
            t = np.asarray(t, dtype=float)
            return 32.0 / 45045.0 * (1287.0 + 1144.0 * t + 960.0 * t**4) * t**3.5

        spec = ProblemSpec(
            alpha=0.5,
            T=1.0,
            kappa=lambda t, s: np.ones_like(np.asarray(s, dtype=float) + t),
            psi=lambda t, s, u: (1.0 + s + t * u) * u,
            dpsi_du=lambda t, s, u: 1.0 + s + 2.0 * t * u,
            f=f,
        )
        return BenchmarkProblem(
            pid,
            spec,
            lambda t: np.asarray(t, dtype=float) ** 3,
            description="smooth cubic solution, quadratic nonlinearity",
        )

    if pid == "ex4_liu":

        def f(t):
            t = np.asarray(t, dtype=float)
            return 128.0 * t**2.75 * (3933.0 + 256.0 * t**4 * (8.0 + 9.0 * t)) / 908523.0

        spec = ProblemSpec(
            alpha=0.75,
            T=1.0,
            kappa=lambda t, s: t**2 * s**3 + s**4 + 1.0,
            psi=lambda t, s, u: u,
            dpsi_du=lambda t, s, u: np.ones_like(np.asarray(u, dtype=float)),
            f=f,
            linear=True,
        )
        return BenchmarkProblem(
            pid,
            spec,
            lambda t: np.asarray(t, dtype=float) ** 2,
            description="linear, polynomial kernel, smooth quadratic solution",
        )

    if pid == "ex5_discontinuous":
        # left-continuous representative: the jump point belongs to the
        # element ending there, matching the half-open element convention
        def exact(t):
            t = np.asarray(t, dtype=float)
            return np.where(t <= 0.5, np.exp(-t), 2.0 - t**2)

        spec = ProblemSpec(
            alpha=0.8,
            T=1.0,
            kappa=lambda t, s: np.sin(t - s),
            psi=lambda t, s, u: u**5,
            dpsi_du=lambda t, s, u: 5.0 * u**4,
            f=_ex5_rhs,
        )
        return BenchmarkProblem(
            pid,
            spec,
            exact,
            init_constant=1.0,
            mesh_hints=(0.5,),
            description="discontinuous solution, kernel vanishing on the diagonal",
        )

    # ex6_unknown; np.where evaluates all branches, so divisions are guarded
    def kamp(t, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                s < 0.5,
                t**2 - s + 5.0,
                np.where(s < 1.0, np.exp(s * t) + 4.0 / (s + 1.0) - 2.0, t / s),
            )

    def psi6(t, s, u):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.cos(2.0 * s * u) - 3.0 * np.log(u) - np.sqrt(s * u)

    def dpsi6(t, s, u):
        with np.errstate(divide="ignore", invalid="ignore"):
            return -2.0 * s * np.sin(2.0 * s * u) - 3.0 / u - 0.5 * s / np.sqrt(s * u)

    spec = ProblemSpec(
        alpha=0.6,
        T=1.5,
        kappa=kamp,
        psi=psi6,
        dpsi_du=dpsi6,
        f=lambda t: np.asarray(t, dtype=float) ** 1.5 - np.asarray(t, dtype=float),
    )
    return BenchmarkProblem(
        pid,
        spec,
        None,
        init_constant=1.0,
        mesh_hints=(0.5, 1.0),
        description="piecewise kernel, no closed-form solution (high-res baseline)",
    )
