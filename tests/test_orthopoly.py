import math

import numpy as np
import pytest
from numpy.polynomial.legendre import legvander

from abelhp.orthopoly import legendre_table
from abelhp.quadrature import RuleKind, gauss_rule


def test_degree_zero_is_one():
    assert legendre_table(0, 0.3)[0] == 1.0


def test_legendre_at_right_endpoint():
    assert np.allclose(legendre_table(12, 1.0), 1.0, rtol=0.0, atol=1e-14)


def test_domain_errors():
    # the Jacobi weight (1-x)^a needs a > -1 (NaN is not); degrees start at 0
    for a in (-1.0, -1.5, math.nan):
        with pytest.raises(ValueError, match="weight exponent > -1"):
            gauss_rule(RuleKind.GAUSS_JACOBI, a, 3)
    with pytest.raises(ValueError, match="kmax"):
        legendre_table(-1, 0.0)


def test_legendre_bound():
    x = np.linspace(-1.0, 1.0, 2001)
    table = legendre_table(30, x)
    assert np.max(np.abs(table)) <= 1.0 + 1e-12


def test_legendre_table_matches_legvander():
    x = np.linspace(-1.0, 1.0, 33)
    assert np.allclose(legendre_table(12, x), legvander(x, 12).T, atol=1e-12)
