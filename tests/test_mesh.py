import dataclasses
import re
import warnings

import numpy as np
import pytest

from abelhp.mesh import Mesh, locate, uniform_mesh
from abelhp.quadrature import RuleKind, _shift_rows, gauss_rule


def test_uniform_mesh_basics():
    m = uniform_mesh(2, 1.0, 3)
    assert m.breakpoints == pytest.approx([0.0, 0.5, 1.0])
    assert list(m.degrees) == [3, 3]
    assert m.L == 8

    single = uniform_mesh(1, 1.5, 12)
    assert single.breakpoints == pytest.approx([0.0, 1.5])
    assert single.L == 13

    assert uniform_mesh(4, 1.0, 1).L == 8


def test_uniform_mesh_needs_a_finite_positive_T():
    for T in (np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match=f"T must be finite and positive, got {T}"):
            uniform_mesh(2, T, 2)


def test_mesh_validation():
    # each bad mesh raises its own message, and no check warns on the way
    table = [
        ([0.0, np.nan, 1.0], [2, 2], "breakpoints must be finite"),
        ([0.0, 0.5, np.inf], [2, 2], "breakpoints must be finite"),
        # inf - inf would warn, so finiteness is checked before any width
        ([0.0, np.inf, np.inf], [2, 2], "breakpoints must be finite"),
        ([0.0, np.nan], [2], "breakpoints must be finite"),
        ([0.0, 0.6, 0.4, 1.0], [1, 1, 1], "breakpoints must be strictly increasing"),
        ([0.0, 0.5, 0.5], [1, 1], "breakpoints must be strictly increasing"),
        ([0.1, 1.0], [1], "mesh must start at t = 0"),
        ([0.0, 1.0], [1, 1], "need one degree per element"),
        ([0.0, 1.0], [0], "element degrees must be >= 1"),
        ([0.0, 0.5, 1.0], [2, 2.5], "element degrees must be integers, got [2, 2.5]"),
        # the int conversion itself refuses a NaN degree, before any cast warns
        ([0.0, 1.0], [np.nan], "cannot convert float NaN to integer"),
    ]
    for breakpoints, degrees, message in table:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Mesh(np.array(breakpoints), degrees)


def test_non_integral_degrees_raise():
    # the degrees used to be cast to int, so 1.5 and 2.9 ran as degrees 1 and 2
    for degrees in ([1.5, 2.9], [2, 2.5], np.array([3.0, 0.25 + 1.0])):
        with pytest.raises(ValueError, match="integers"):
            Mesh([0.0, 0.5, 1.0], degrees)
    with pytest.raises(ValueError, match="integers"):
        uniform_mesh(2, 1.0, 2.7)
    # integral floats are integer values
    assert Mesh([0.0, 0.5, 1.0], [2.0, 3.0]).degrees.tolist() == [2, 3]
    assert uniform_mesh(2, 1.0, 2.0).degrees.tolist() == [2, 2]


def test_mesh_arrays_are_read_only_copies():
    # offsets, widths and the degree groups are built once per mesh from these
    # arrays, so they must not change under it; the caller's arrays are copied
    bp, degrees = np.array([0.0, 0.3, 1.0]), np.array([2, 3])
    m = Mesh(bp, degrees)
    for arr in (m.breakpoints, m.degrees, m.offsets, m.widths):
        with pytest.raises(ValueError):
            arr[0] = arr[1]
    bp[1], degrees[0] = 0.4, 5
    assert m.breakpoints[1] == 0.3 and m.degrees[0] == 2
    assert m.offsets is m.offsets and m.widths is m.widths
    assert list(m.offsets) == [0, 3, 7]
    # a frozen record: assigning new degrees used to pass unchecked and leave
    # L and offsets describing the old ones
    for name, value in (("breakpoints", [0.0, 1.0]), ("degrees", [3, 3]),
                        ("offsets", [0, 4, 8]), ("history_points", np.zeros(7))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, name, value)
    assert list(m.degrees) == [2, 3] and m.L == 7
    assert not hasattr(m, "__dict__")
    with pytest.raises(ValueError):
        m.history_points[0] = 1.0


def test_degree_groups_list_elements_by_degree():
    m = Mesh(np.linspace(0.0, 1.0, 6), [3, 1, 3, 2, 1])
    groups = [(d, list(idx)) for d, idx, _ in m.degree_groups]
    assert groups == [(1, [1, 4]), (2, [3]), (3, [0, 2])]
    assert m.degree_groups is m.degree_groups
    with pytest.raises(ValueError):
        m.degree_groups[0][1][0] = 0
    # each group's slots in the offsets layout, read-only like its indices
    for d, idx, cols in m.degree_groups:
        assert np.array_equal(cols, m.offsets[idx, None] + np.arange(d + 1))
        with pytest.raises(ValueError):
            cols[0, 0] = 0


def test_history_points_are_lobatto_points_with_ends_moved_inside():
    meshes = [
        Mesh([0.0, 0.3, 0.5, 1.0, 1.5], [1, 3, 3, 5]),
        # geometric, with degrees 1..8 interleaved: the points of all degree
        # groups are placed in one pass
        Mesh(np.append(0.0, 0.7 ** np.arange(11, -1, -1)), [4, 1, 8, 2, 2, 7, 3, 5, 1, 6, 8, 4]),
    ]
    for m in meshes:
        pts = m.history_points
        assert m.history_points is pts
        for n in range(1, m.N + 1):
            lefts, rights = m.breakpoints[n - 1 : n], m.breakpoints[n : n + 1]
            got = pts[m.offsets[n - 1] : m.offsets[n]]
            nodes = gauss_rule(RuleKind.GAUSS_LOBATTO, None, m.degrees[n - 1]).nodes
            lobatto = _shift_rows(nodes, lefts, rights)[0]
            assert np.array_equal(got[1:-1], lobatto[1:-1])
            # one ulp inside the element, except at t = 0
            assert got[0] == (0.0 if n == 1 else np.nextafter(lefts[0], rights[0]))
            assert got[-1] == np.nextafter(rights[0], lefts[0])


def test_locate_right_inclusive():
    m = uniform_mesh(2, 1.0, 2)
    assert locate(0.5, m) == 1
    assert locate(0.5 + 1e-9, m) == 2
    assert locate(1.0, m) == 2
    with pytest.raises(ValueError):
        locate(0.0, m)
    with pytest.raises(ValueError):
        locate(1.1, m)
    for t in (np.nan, np.array([0.5, np.nan])):
        with pytest.raises(ValueError, match="point outside"):
            locate(t, m)


def test_locate_breakpoint_consistency():
    m = uniform_mesh(7, 2.1, 2)
    for n in range(1, m.N + 1):
        assert locate(float(m.breakpoints[n]), m) == n
    ts = np.array([0.05, 0.3, 0.30000001, 2.1])
    assert list(locate(ts, m)) == [int(locate(float(t), m)) for t in ts]


def test_derived_quantities():
    m = Mesh(np.array([0.0, 0.2, 1.0]), np.array([4, 2]))
    assert m.h_max == pytest.approx(0.8)
    assert m.L == 8
