import numpy as np
import pytest
from numpy.polynomial.legendre import legvander

from abelhp.orthopoly import Element, JacobiParams, legendre_table


def test_degree_zero_is_one():
    assert legendre_table(0, 0.3)[0] == 1.0


def test_legendre_at_right_endpoint():
    assert np.allclose(legendre_table(12, 1.0), 1.0, rtol=0.0, atol=1e-14)


def test_domain_errors():
    with pytest.raises(ValueError):
        JacobiParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        Element(1.0, 1.0, 2)


def test_legendre_bound():
    x = np.linspace(-1.0, 1.0, 2001)
    table = legendre_table(30, x)
    assert np.max(np.abs(table)) <= 1.0 + 1e-12


def test_legendre_table_matches_legvander():
    x = np.linspace(-1.0, 1.0, 33)
    assert np.allclose(legendre_table(12, x), legvander(x, 12).T, atol=1e-12)
