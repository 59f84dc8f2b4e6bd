"""Per-element collocation systems for the weakly singular Volterra equation.

For element n the unknowns are the shifted-Legendre coefficients of the local
solution.  The equation is collocated in coefficient space: the weighted
moment of the current-element integral (assembled with Gauss-Jacobi product
quadrature) must match the corresponding moments of the right-hand side and
of the history accumulated over elements 1..n-1.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import Mesh
from .orthopoly import JacobiParams, legendre_table
from .quadrature import QuadRule, RuleKind, gauss_rule, history_weights_batch, shift_nodes

__all__ = [
    "ProblemSpec",
    "ElementOperator",
    "ProblemAssumptionWarning",
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


@dataclass(frozen=True)
class _ReferenceTables:
    """Tables of a degree-M element on [-1, 1]; the same for every mesh."""

    gl: QuadRule
    gj: QuadRule
    node_product: np.ndarray  # (1 + x_gl_i)(1 + x_gj_j)
    P: np.ndarray  # (p, i): Legendre table at the Gauss-Legendre nodes
    Q: np.ndarray  # (q, i, j): Legendre table at the rescaled inner nodes
    Qflat: np.ndarray  # (q, (i, j)): Q with the inner grid flattened row-major
    proj_scale: np.ndarray
    sys_scale: np.ndarray


@functools.lru_cache(maxsize=None)
def _reference_tables(M: int, alpha: float) -> _ReferenceTables:
    """Build (once per degree and alpha) the read-only reference tables."""
    gl = gauss_rule(RuleKind.GAUSS_LEGENDRE, None, M)
    gj = gauss_rule(RuleKind.GAUSS_JACOBI, JacobiParams(alpha - 1.0, 0.0), M)
    node_product = (1.0 + gl.nodes)[:, None] * (1.0 + gj.nodes)[None, :]
    Q = legendre_table(M, 0.5 * node_product - 1.0)
    tables = (
        node_product,
        legendre_table(M, gl.nodes),
        Q,
        Q.reshape(M + 1, -1),
        (2.0 * np.arange(M + 1) + 1.0) / 2.0,
        (2.0 * np.arange(M + 1) + 1.0) / 2.0 ** (1.0 + alpha),
    )
    for table in tables:
        table.flags.writeable = False
    return _ReferenceTables(gl, gj, *tables)


@functools.lru_cache(maxsize=None)
def _lobatto_nodes(degree: int) -> np.ndarray:
    """Read-only Lobatto nodes of a degree on [-1, 1], without the rule lookup."""
    return gauss_rule(RuleKind.GAUSS_LOBATTO, None, degree).nodes


class ElementOperator:
    """Quadrature tables for one element.

    The reference tables come from a cache shared by every element of the
    same degree and alpha; only the affine images (node positions, the
    kernel values at the tensor quadrature grid) are built per element.
    They are folded once into the matrix ``B`` of shape (M+1, (M+1)^2), so
    that a residual evaluation is the one product ``B @ psi`` and a Jacobian
    the one product ``(B * dpsi_du) @ Qflat.T``, with psi and dpsi_du taken
    on the flattened grid.
    """

    def __init__(self, problem: ProblemSpec, mesh: Mesh, n: int):
        self.problem = problem
        self.mesh = mesh
        self.n = n
        elem = mesh.element(n)
        a, h = elem.left, elem.width
        alpha = problem.alpha
        ref = _reference_tables(elem.degree, alpha)
        self.gl = ref.gl
        self.P, self.Qflat = ref.P, ref.Qflat
        self.proj_scale = ref.proj_scale
        self.t_nodes = shift_nodes(ref.gl, elem)
        # the tensor grid (t_i, sigma_ij), flattened row-major as Qflat's columns
        sigma = a + 0.25 * h * ref.node_product
        self.t_grid = np.repeat(self.t_nodes, sigma.shape[1])
        self.sigma_grid = sigma.ravel()
        kappa = np.broadcast_to(problem.kappa(self.t_nodes[:, None], sigma), sigma.shape)
        # (t_i - t_{n-1})^alpha from the width, not a difference of times
        prefac = (0.5 * h * (1.0 + ref.gl.nodes)) ** alpha * ref.gl.weights
        outer = ref.sys_scale[:, None] * ref.P * prefac  # (p, i)
        inner = kappa * ref.gj.weights  # (i, j)
        # B[p, (i, j)] = sys_scale_p P_pi prefac_i kappa(t_i, sigma_ij) w_j
        self.B = (outer[:, :, None] * inner).reshape(outer.shape[0], -1)

    def u_at_sigma(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs @ self.Qflat

    def weighted_moments(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficient-space image of the current-element singular integral."""
        psi = self.problem.psi(self.t_grid, self.sigma_grid, self.u_at_sigma(coeffs))
        if np.shape(psi) != self.sigma_grid.shape:
            psi = np.broadcast_to(psi, self.sigma_grid.shape)
        return self.B @ psi

    def jacobian(self, coeffs: np.ndarray) -> np.ndarray:
        """Derivative of the element residual with respect to the coefficients."""
        dpsi = self.problem.dpsi_du(self.t_grid, self.sigma_grid, self.u_at_sigma(coeffs))
        return (self.B * dpsi) @ self.Qflat.T

    def project(self, values_at_nodes: np.ndarray) -> np.ndarray:
        """Discrete Legendre coefficients of values sampled at the Gauss nodes."""
        return self.proj_scale * (self.P @ (self.gl.weights * values_at_nodes))

    def rhs(self) -> np.ndarray:
        """Legendre moments of f on the element (Gauss-point projection)."""
        return self.project(np.broadcast_to(self.problem.f(self.t_nodes), self.t_nodes.shape))

    def history(self, prior_u: np.ndarray) -> np.ndarray:
        """Legendre moments of the history integral over elements 1..n-1.

        ``prior_u`` holds the solution values at the shifted Lobatto points of
        elements 1..n-1, concatenated in the ``mesh.offsets`` layout.  One
        weight call and one contraction per distinct prior degree, for all
        Gauss nodes at once; the prior Lobatto points are rebuilt from the
        breakpoints exactly as ``shift_nodes`` places them.
        """
        mesh, problem = self.mesh, self.problem
        offsets, prior = mesh.offsets, self.n - 1
        prior_u = np.asarray(prior_u, dtype=float)
        if prior_u.shape != (offsets[prior],):
            raise ValueError(
                f"element {self.n} needs the {offsets[prior]} Lobatto values of "
                f"elements 1..{prior}, got shape {prior_u.shape}"
            )
        bp = mesh.breakpoints
        t = self.t_nodes[:, None, None]
        vals = np.zeros(self.t_nodes.size)
        for d, idx in mesh.degree_groups:
            idx = idx[: np.searchsorted(idx, prior)]  # elements 1..n-1 of degree d
            if idx.size == 0:
                continue
            lefts, rights = bp[idx], bp[idx + 1]
            w = history_weights_batch(lefts, rights, d, self.t_nodes, problem.alpha)
            x = _lobatto_nodes(d)
            S = 0.5 * ((rights - lefts)[:, None] * x + lefts[:, None] + rights[:, None])
            U = prior_u[offsets[idx, None] + np.arange(d + 1)]
            vals += np.sum(w * problem.kappa(t, S) * problem.psi(t, S, U), axis=(1, 2))
        return self.project(vals)


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
