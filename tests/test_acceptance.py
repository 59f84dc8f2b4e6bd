"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.  Every tolerance is pinned here.
"""

import dataclasses
import time

import numpy as np
import pytest

import abelhp.bench as bench
from abelhp.adaptive import AdaptiveOptions, adaptive_solve
from abelhp.mesh import uniform_mesh
from abelhp.quadrature import RuleKind, _shift_rows, gauss_rule, history_weights_batch
from abelhp.solver import SolverOptions, evaluate, solve

from oracles import jacobi_monomial_moment, lagrange_history_integral


def _verdict(num, name, checks, elapsed, budget):
    checks = list(checks) + [(f"runtime {elapsed:.1f}s < {budget}s", elapsed < budget)]
    ok = all(flag for _, flag in checks)
    detail = "; ".join(f"{label}: {'ok' if flag else 'FAIL'}" for label, flag in checks)
    print(f"\nACCEPTANCE CRITERION {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_gauss_jacobi_oracle_equivalence():
    tic = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        alpha = float(rng.choice([0.2, 0.5, 0.8]))
        M = int(rng.integers(1, 11))
        a = alpha - 1.0
        rule = gauss_rule(RuleKind.GAUSS_JACOBI, a, M)
        coeffs = rng.uniform(-1.0, 1.0, 2 * M + 2)
        mine = float(rule.weights @ np.polynomial.polynomial.polyval(rule.nodes, coeffs))
        moments = [jacobi_monomial_moment(a, 0.0, j) for j in range(2 * M + 2)]
        oracle = float(np.dot(coeffs, moments))
        scale = float(np.abs(coeffs) @ np.abs(moments))
        worst = max(worst, abs(mine - oracle) / scale)
    elapsed = time.perf_counter() - tic
    _verdict(
        1,
        "Gauss-Jacobi rules vs closed-form moments",
        [(f"worst relative error {worst:.2e} <= 1e-10", worst <= 1e-10)],
        elapsed,
        5.0,
    )


def test_criterion_2_history_weight_oracle():
    tic = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(100):
        left = float(rng.uniform(0.0, 2.0))
        h = float(rng.uniform(0.05, 1.5))
        M = int(rng.integers(1, 9))
        alpha = float(rng.uniform(0.1, 1.0))
        if trial % 4 == 0:  # near-singular band, down to 1e-3 element widths
            gap = 1e-3 * h * float(rng.uniform(0.05, 1.0))
        elif trial % 4 == 1:
            gap = float(rng.uniform(0.0, 0.5 * h))
        else:
            gap = float(rng.uniform(0.0, 8.0))
        lefts, rights = np.array([left]), np.array([left + h])
        t = rights[0] + gap
        w = history_weights_batch(lefts, rights, M, t, alpha)[0]
        pts = _shift_rows(gauss_rule(RuleKind.GAUSS_LOBATTO, None, M).nodes, lefts, rights)[0]
        for j in range(M + 1):
            oracle = lagrange_history_integral(pts, j, left, rights[0], t, alpha)
            worst = max(worst, abs(float(w[j]) - oracle))
    elapsed = time.perf_counter() - tic
    _verdict(
        2,
        "history weights vs closed-form integrals",
        [(f"worst absolute error {worst:.2e} <= 1e-9", worst <= 1e-9)],
        elapsed,
        30.0,
    )


def test_criterion_3_smooth_cubic_table():
    tic = time.perf_counter()
    sweep = [(N, 3) for N in (10, 20, 40, 80, 160, 320)]
    report = bench.run_sweep(bench.make_benchmark("ex3"), sweep)
    E10 = report.rows[0].E2
    rhos = [r.rho_N for r in report.rows[1:]]
    mean_rho = float(np.mean(rhos))
    elapsed = time.perf_counter() - tic
    _verdict(
        3,
        "cubic-solution refinement table",
        [
            (f"E2(N=10) = {E10:.3e} within 10x of 9.42e-5",
             9.42e-6 <= E10 <= 9.42e-4),
            (f"mean order {mean_rho:.2f} in [2.6, 3.5]", 2.6 <= mean_rho <= 3.5),
            ("no failed rows", not report.any_failed),
        ],
        elapsed,
        60.0,
    )


def test_criterion_4_noisy_linear_table():
    tic = time.perf_counter()
    sweep = [(2**q, 2) for q in range(5, 12)]
    report = bench.run_sweep(bench.make_benchmark("ex2"), sweep, noise="h^2.5")
    E32 = report.rows[0].E2
    rhos = [r.rho_N for r in report.rows[1:]]
    mean_rho = float(np.mean(rhos))
    elapsed = time.perf_counter() - tic
    _verdict(
        4,
        "noisy linear problem, orders under mesh doubling",
        [
            (f"E_delta(N=32) = {E32:.3e} within 10x of 7.29e-4",
             7.29e-5 <= E32 <= 7.29e-3),
            (f"mean order {mean_rho:.2f} in [1.6, 2.3]", 1.6 <= mean_rho <= 2.3),
            ("no failed rows", not report.any_failed),
        ],
        elapsed,
        300.0,
    )


def test_criterion_5_spectral_accuracy_adaptive():
    tic = time.perf_counter()
    b = bench.make_benchmark("ex4")
    opts = AdaptiveOptions(tol=1e-13, strategy="p_first", max_L=16)
    sol, trace = adaptive_solve(b.spec, uniform_mesh(1, 1.0, 1), opts,
                                reference=b.exact)
    final = bench.error_E2(sol, b.exact)
    elapsed = time.perf_counter() - tic
    _verdict(
        5,
        "smooth-solution adaptive degree raising",
        [
            (f"final E2 = {final:.2e} <= 1e-12", final <= 1e-12),
            (f"L = {sol.mesh.L} <= 8", sol.mesh.L <= 8),
        ],
        elapsed,
        10.0,
    )


def test_criterion_6_singular_solution_hp_sweep():
    tic = time.perf_counter()
    b = bench.make_benchmark("ex1", alpha=0.3)
    errors = {}
    for N in (1, 2, 4):
        for deg in range(2, 8):
            sol = solve(b.spec, uniform_mesh(N, 1.0, deg), b.solver_options())
            errors[(N, deg)] = bench.error_E1(sol, b.exact)
    monotone = all(
        errors[(N, d + 1)] < errors[(N, d)] for N in (1, 2, 4) for d in range(2, 7)
    )
    e24, e44 = errors[(2, 4)], errors[(4, 4)]
    elapsed = time.perf_counter() - tic
    _verdict(
        6,
        "singular-solution hp sweep",
        [
            (f"E1(N=2, deg 4) = {e24:.3e} within 10x of 1.68e-4",
             1.68e-5 <= e24 <= 1.68e-3),
            (f"E1(N=4, deg 4) = {e44:.3e} within 10x of 1.64e-5",
             1.64e-6 <= e44 <= 1.64e-4),
            ("E1 strictly decreasing in the degree at fixed N", monotone),
        ],
        elapsed,
        60.0,
    )


def test_criterion_7_discontinuous_solution():
    tic = time.perf_counter()
    b = bench.make_benchmark("ex5")
    sol = solve(b.spec, uniform_mesh(2, 1.0, 9), b.solver_options())
    e1 = bench.error_E1(sol, b.exact)
    elapsed = time.perf_counter() - tic
    _verdict(
        7,
        "discontinuous solution on an aligned mesh",
        [(f"E1(N=2, deg 9) = {e1:.3e} <= 2e-6", e1 <= 2e-6)],
        elapsed,
        30.0,
    )


def test_criterion_8_property_suite():
    tic = time.perf_counter()
    checks = []

    # causality: perturbing f beyond t = 0.5 leaves earlier elements bitwise
    b3 = bench.make_benchmark("ex3")
    mesh = uniform_mesh(4, 1.0, 2)
    bumped = dataclasses.replace(
        b3.spec, f=lambda t: b3.spec.f(t) + 1e-3 * (np.asarray(t, dtype=float) > 0.5)
    )
    s0 = solve(b3.spec, mesh, b3.solver_options())
    s1 = solve(bumped, mesh, b3.solver_options())
    causal = all(
        np.array_equal(s0.coefficients(k + 1), s1.coefficients(k + 1)) for k in (0, 1)
    )
    checks.append(("causality (early elements bitwise equal)", causal))

    # linear flag vs Newton path on the two linear problems
    worst_lin = 0.0
    for pid in ("ex2", "ex4"):
        bb = bench.make_benchmark(pid)
        m = uniform_mesh(4, 1.0, 3)
        direct = solve(bb.spec, m)
        newton_path = solve(dataclasses.replace(bb.spec, linear=False), m)
        for k in range(m.N):
            e1, e2 = direct.coefficients(k + 1), newton_path.coefficients(k + 1)
            worst_lin = max(worst_lin, float(np.max(np.abs(e1 - e2))))
    checks.append((f"linear path equivalence {worst_lin:.2e} <= 1e-11", worst_lin <= 1e-11))

    # analytic Jacobian vs central finite differences
    from abelhp.discretization import ElementOperator
    from abelhp.solver import _lobatto_values

    m = uniform_mesh(2, 1.0, 3)
    c1 = np.array([0.01, 0.02, 0.0, 0.0])
    op = ElementOperator(b3.spec, m, 2, 2)
    target = op.rhs(2) - op.history(2, _lobatto_values(c1, 3))

    def residual(u):
        return op.weighted_moments(2, u) - target

    rng = np.random.default_rng(3)
    worst_jac = 0.0
    for _ in range(3):
        u = rng.uniform(-0.5, 0.5, 4)
        J = op.jacobian(2, u)
        fd = np.empty_like(J)
        for q in range(4):
            hstep = 1e-7 * (1.0 + abs(u[q]))
            up, um = u.copy(), u.copy()
            up[q] += hstep
            um[q] -= hstep
            fd[:, q] = (residual(up) - residual(um)) / (2 * hstep)
        worst_jac = max(worst_jac, float(np.max(np.abs(J - fd)) / max(1.0, np.max(np.abs(J)))))
    checks.append((f"Jacobian vs finite differences {worst_jac:.2e} <= 1e-6", worst_jac <= 1e-6))

    # two independent discrete-L2 error paths agree
    from numpy.polynomial.legendre import leggauss, legval

    sol = solve(b3.spec, uniform_mesh(4, 1.0, 3), b3.solver_options())
    total = 0.0
    bp = sol.mesh.breakpoints
    for n in range(1, 5):
        left, right = bp[n - 1], bp[n]
        x, w = leggauss(sol.mesh.degrees[n - 1] + 1)
        pts = 0.5 * ((right - left) * x + left + right)
        diff = b3.exact(pts) - legval(x, sol.coefficients(n))
        total += 0.5 * (right - left) * float(w @ diff**2)
    gap = abs(bench.error_E1(sol, b3.exact) - np.sqrt(total))
    checks.append((f"E1 double-path consistency {gap:.2e} <= 1e-12", gap <= 1e-12))

    # polynomial reproduction when every quadrature is exact
    from abelhp.discretization import ProblemSpec

    poly_spec = ProblemSpec(
        alpha=1.0,
        T=1.0,
        kappa=lambda t, s: 1.0 + s,
        psi=lambda t, s, u: u,
        dpsi_du=lambda t, s, u: np.ones_like(np.asarray(u, dtype=float)),
        f=lambda t: np.asarray(t) ** 3 / 3.0 + np.asarray(t) ** 4 / 4.0,
        linear=True,
    )
    psol = solve(poly_spec, uniform_mesh(3, 1.0, 3))
    ts = np.linspace(0.01, 1.0, 60)
    perr = float(np.max(np.abs(evaluate(psol, ts) - ts**2)))
    checks.append((f"polynomial reproduction {perr:.2e} <= 1e-10", perr <= 1e-10))

    elapsed = time.perf_counter() - tic
    _verdict(8, "always-on property suite", checks, elapsed, 60.0)
