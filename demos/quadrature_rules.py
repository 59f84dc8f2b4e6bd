"""Gauss rules and the exact singular-weight element integral.

Shows the three rule families used by the collocation scheme and checks the
Gauss-Jacobi identity that integrates (t-s)^(alpha-1) times a polynomial over
part of an element without ever sampling the singularity.
"""

import numpy as np

from abelhp import RuleKind, gauss_rule

alpha = 0.5
M = 4

print("Three rule families with", M + 1, "nodes on [-1, 1]:")
for kind, a in [
    (RuleKind.GAUSS_LEGENDRE, None),
    (RuleKind.GAUSS_JACOBI, alpha - 1.0),  # weight (1 - x)^(alpha - 1)
    (RuleKind.GAUSS_LOBATTO, None),
]:
    rule = gauss_rule(kind, a, M)
    print(f"  {kind.value:15s} nodes {np.round(rule.nodes, 4)}")
    print(f"  {'':15s} weights {np.round(rule.weights, 4)} (sum {rule.weights.sum():.6f})")

print()
print("Exactness: a 5-point Gauss-Jacobi rule integrates degree-9 polynomials")
rng = np.random.default_rng(1)
coeffs = rng.uniform(-1, 1, 10)
rule = gauss_rule(RuleKind.GAUSS_JACOBI, alpha - 1.0, M)
vals = np.polynomial.polynomial.polyval(rule.nodes, coeffs)
print(f"  rule value     : {rule.weights @ vals:.15f}")
# reference by very fine composite midpoint on the open interval
s = np.linspace(-1, 1, 4_000_001)[:-1] + 0.5 / 2_000_000
ref = np.mean((1 - s) ** (alpha - 1.0) * np.polynomial.polynomial.polyval(s, coeffs)) * 2
print(f"  brute midpoint : {ref:.10f}  (first-order reference)")

print()
print("Singular element integral of g(tau) = tau over (0, t) against (t-tau)^(-1/2):")
left = 0.0
for t in (0.25, 1.0):
    tau = left + 0.5 * (t - left) * (rule.nodes + 1.0)  # Jacobi nodes mapped onto (left, t)
    mine = (0.5 * (t - left)) ** alpha * rule.weights @ tau
    exact = 4.0 / 3.0 * t**1.5  # Beta(2, 1/2) scaling
    print(f"  t = {t:4.2f}: rule {mine:.15f}   closed form {exact:.15f}")
