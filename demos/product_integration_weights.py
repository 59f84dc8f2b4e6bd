"""History weights: exact product integration of the Abel kernel.

For a solved element, the integral of (t-s)^(alpha-1) times any polynomial of
the element's degree reduces to a weighted sum over the Lobatto points.  The
weights depend on the evaluation time t and stay accurate even when t sits a
fraction of an element width past the element (the nearly singular case that
dominates the error budget of naive quadrature).
"""

from math import comb

from abelhp import RuleKind, gauss_rule
from abelhp.quadrature import history_weights_batch

left, right, degree = 0.0, 1.0, 4
alpha = 0.3
nodes = gauss_rule(RuleKind.GAUSS_LOBATTO, None, degree).nodes
pts = left + 0.5 * (right - left) * (nodes + 1.0)


def weights(t):
    """Weights of the element's Lobatto points at a time t >= right."""
    return history_weights_batch([left], [right], degree, t, alpha)[0]


def monomial_integral(k, t):
    """int_left^right (t-s)^(alpha-1) s^k ds in closed form.

    With u = t - s, s^k = sum_m C(k, m) t^(k-m) (-u)^m, and u^(alpha-1+m)
    integrates to u^(alpha+m) / (alpha+m) over [t - right, t - left].
    """
    near, far = t - right, t - left
    return sum(
        comb(k, m) * t ** (k - m) * (-1) ** m * (far ** (alpha + m) - near ** (alpha + m))
        / (alpha + m)
        for m in range(k + 1)
    )


print(f"element [{left}, {right}], degree {degree}, alpha = {alpha}")
print("evaluation point t, weights, and the constant-sum identity:")
for t in (2.0, 1.1, 1.0 + 1e-4):
    expected = ((t - left) ** alpha - (t - right) ** alpha) / alpha
    print(f"  t = {t:<10.6g} sum w = {weights(t).sum():.12f}  expected {expected:.12f}")

print()
print("Against the closed form for s^k, k <= degree (exact up to rounding):")
for t in (2.0, 1.002):
    w = weights(t)
    for k in (1, 2, degree):
        mine, exact = float(w @ pts**k), monomial_integral(k, t)
        print(f"  t = {t:<6.4g} k = {k}  product rule {mine:.15f}  closed form {exact:.15f}"
              f"  gap {abs(mine - exact):.1e}")
