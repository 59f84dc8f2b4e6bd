"""Per-element collocation systems for the weakly singular Volterra equation.

For element n the unknowns are the shifted-Legendre coefficients of the local
solution.  The equation is collocated in coefficient space: the weighted
moment of the current-element integral (assembled with Gauss-Jacobi product
quadrature) must match the corresponding moments of the right-hand side and
of the history accumulated over elements 1..n-1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .mesh import Mesh
from .orthopoly import JacobiParams, legendre_table
from .quadrature import RuleKind, gauss_rule, history_weights_batch, shift_nodes

__all__ = [
    "ProblemSpec",
    "ElementOperator",
    "ElementSystem",
    "ElementSolution",
    "ProblemAssumptionWarning",
    "element_system",
    "validate_problem",
]


class ProblemAssumptionWarning(UserWarning):
    """A well-posedness assumption failed a spot check (never an error)."""


@dataclass(frozen=True)
class ProblemSpec:
    """One Abel integral equation instance.

    The equation is ``int_0^t (t-s)^(alpha-1) kappa(t, s) psi(t, s, u(s)) ds
    = f(t)`` on (0, T].  All callables must accept numpy arrays and broadcast;
    ``psi`` and ``dpsi_du`` take the evaluation time t as first argument since
    some nonlinearities couple t into the integrand.  Set ``linear`` when
    psi(t, s, u) == u (so dpsi_du == 1) to enable the direct linear-solve
    path, which takes the Jacobian at u = 0 as the system matrix.
    """

    alpha: float
    T: float
    kappa: Callable
    psi: Callable
    dpsi_du: Callable
    f: Callable
    linear: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not self.T > 0.0:
            raise ValueError("T must be positive")
        if self.linear:
            s = np.linspace(0.1, 0.9, 4) * self.T
            u = np.array([-1.3, -0.2, 0.4, 2.0])
            if np.max(np.abs(self.psi(s, s, u) - u)) > 1e-12:
                raise ValueError("linear flag set but psi(t, s, u) != u")
            if np.max(np.abs(self.dpsi_du(s, s, u) - 1.0)) > 1e-12:
                raise ValueError("linear flag set but dpsi_du(t, s, u) != 1")


@dataclass
class ElementSolution:
    """Solved coefficients of one element plus cached Lobatto-point samples.

    The cached solution values at the shifted Lobatto points are what later
    elements contract against the product-integration weights, so history
    assembly never re-evaluates the local expansion.
    """

    n: int
    coeffs: np.ndarray
    lobatto_points: np.ndarray
    lobatto_u: np.ndarray


@dataclass
class ElementSystem:
    """Residual/Jacobian closure for one element's nonlinear system."""

    n: int
    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    history: np.ndarray
    rhs: np.ndarray


class ElementOperator:
    """Precomputed quadrature tables for one element.

    Everything that does not depend on the coefficient vector (node images,
    Legendre tables, the kernel values at the tensor quadrature grid) is
    built once; residual and Jacobian evaluations are then a handful of
    vectorized contractions.
    """

    def __init__(self, problem: ProblemSpec, mesh: Mesh, n: int):
        self.problem = problem
        self.mesh = mesh
        self.n = n
        elem = mesh.element(n)
        a, h, M = elem.left, elem.width, elem.degree
        alpha = problem.alpha

        gl = gauss_rule(RuleKind.GAUSS_LEGENDRE, None, M)
        gj = gauss_rule(RuleKind.GAUSS_JACOBI, JacobiParams(alpha - 1.0, 0.0), M)
        self.gl = gl
        self.t_nodes = shift_nodes(gl, elem)
        # reference image of the rescaled inner nodes is mesh independent
        x_sigma = 0.5 * (1.0 + gl.nodes)[:, None] * (1.0 + gj.nodes)[None, :] - 1.0
        self.sigma_nodes = a + 0.25 * h * (1.0 + gl.nodes)[:, None] * (1.0 + gj.nodes)[None, :]
        self.P = legendre_table(M, gl.nodes)            # (p, i)
        self.Q = legendre_table(M, x_sigma)             # (q, i, j)
        # (t_i - t_{n-1})^alpha from the width, not a difference of times
        self.prefac = (0.5 * h * (1.0 + gl.nodes)) ** alpha * gl.weights
        self.w_inner = gj.weights
        self.proj_scale = (2.0 * np.arange(M + 1) + 1.0) / 2.0
        self.sys_scale = (2.0 * np.arange(M + 1) + 1.0) / 2.0 ** (1.0 + alpha)
        self.kappa_grid = np.broadcast_to(
            problem.kappa(self.t_nodes[:, None], self.sigma_nodes),
            self.sigma_nodes.shape,
        )

    def u_at_sigma(self, coeffs: np.ndarray) -> np.ndarray:
        return np.einsum("q,qij->ij", coeffs, self.Q)

    def weighted_moments(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficient-space image of the current-element singular integral."""
        psi = self.problem.psi(
            self.t_nodes[:, None], self.sigma_nodes, self.u_at_sigma(coeffs)
        )
        inner = (self.kappa_grid * psi) @ self.w_inner
        return self.sys_scale * (self.P @ (self.prefac * inner))

    def jacobian(self, coeffs: np.ndarray) -> np.ndarray:
        """Derivative of the element residual with respect to the coefficients."""
        dpsi = self.problem.dpsi_du(
            self.t_nodes[:, None], self.sigma_nodes, self.u_at_sigma(coeffs)
        )
        core = self.kappa_grid * dpsi * self.w_inner[None, :]
        J = np.einsum("pi,ij,qij->pq", self.P * self.prefac[None, :], core, self.Q)
        return self.sys_scale[:, None] * J

    def project(self, values_at_nodes: np.ndarray) -> np.ndarray:
        """Discrete Legendre coefficients of values sampled at the Gauss nodes."""
        return self.proj_scale * (self.P @ (self.gl.weights * values_at_nodes))

    def rhs(self) -> np.ndarray:
        """Legendre moments of f on the element (Gauss-point projection)."""
        return self.project(np.broadcast_to(self.problem.f(self.t_nodes), self.t_nodes.shape))

    def history(self, prior: Sequence[ElementSolution]) -> np.ndarray:
        """Legendre moments of the history integral over elements 1..n-1.

        One weight call and one contraction per distinct prior degree, for
        all Gauss nodes at once.
        """
        if len(prior) != self.n - 1:
            raise ValueError(f"element {self.n} needs solutions for 1..{self.n - 1}")
        problem, bp = self.problem, self.mesh.breakpoints
        degrees = self.mesh.degrees[: self.n - 1]
        t = self.t_nodes[:, None, None]
        vals = np.zeros(self.t_nodes.size)
        for d in np.unique(degrees):
            idx = np.flatnonzero(degrees == d)
            w = history_weights_batch(bp[idx], bp[idx + 1], int(d), self.t_nodes, problem.alpha)
            S = np.array([prior[k].lobatto_points for k in idx])
            U = np.array([prior[k].lobatto_u for k in idx])
            vals += np.sum(w * problem.kappa(t, S) * problem.psi(t, S, U), axis=(1, 2))
        return self.project(vals)


def element_system(
    problem: ProblemSpec, mesh: Mesh, n: int, prior: Sequence[ElementSolution]
) -> ElementSystem:
    """Assemble residual and Jacobian closures for element n."""
    op = ElementOperator(problem, mesh, n)
    rhs = op.rhs()
    hist = op.history(prior)
    # the accumulated history enters the element equation on the right-hand
    # side with a negative sign: current-element moments = rhs - history
    target = rhs - hist

    def residual(coeffs):
        return op.weighted_moments(np.asarray(coeffs, dtype=float)) - target

    return ElementSystem(n, residual, op.jacobian, hist, rhs)


def _quiet_eval(fn, *args):
    with np.errstate(all="ignore"):
        try:
            return np.asarray(fn(*args), dtype=float)
        except (ValueError, FloatingPointError, ZeroDivisionError):
            return None


def validate_problem(problem: ProblemSpec, mesh: Mesh) -> list[str]:
    """Spot-check well-posedness assumptions; violations only warn.

    Checked: f(0) = 0, the kernel does not vanish on the diagonal, and the
    solution derivative of the nonlinearity stays away from zero on a sample
    box.  Benchmarks with degenerate kernels or sign-changing derivatives are
    still solvable, so none of these aborts a run.
    """
    notes = []
    f0 = _quiet_eval(problem.f, np.array(0.0))
    fs = _quiet_eval(problem.f, np.linspace(0.2, 1.0, 5) * problem.T)
    scale = 1.0 if fs is None else max(1.0, float(np.nanmax(np.abs(fs))))
    if f0 is not None and np.isfinite(f0) and abs(float(f0)) > 1e-10 * scale:
        notes.append(f"f(0) = {float(f0):.3e} is not zero")

    ts = np.linspace(0.05, 1.0, 9) * problem.T
    diag = _quiet_eval(problem.kappa, ts, ts)
    if diag is not None:
        finite = diag[np.isfinite(diag)]
        if finite.size and np.min(np.abs(finite)) <= 1e-12 * max(1.0, np.max(np.abs(finite))):
            notes.append("kernel vanishes on the diagonal at a sampled point")

    uu = np.array([-2.0, -0.75, -0.1, 0.1, 0.75, 2.0])
    tg, ug = np.meshgrid(ts, uu)
    dv = _quiet_eval(problem.dpsi_du, tg, tg, ug)
    if dv is not None:
        finite = dv[np.isfinite(dv)]
        if finite.size and np.min(np.abs(finite)) < 1e-8:
            notes.append(
                "d psi/du approaches zero on the sampled range; "
                "uniqueness assumptions may fail"
            )

    for msg in notes:
        warnings.warn(msg, ProblemAssumptionWarning, stacklevel=2)
    return notes
