"""The breadth-first lane quadrature against the recursive reference."""

import math

import numpy as np
import pytest

from gravinst import ghawking, quadrature
from gravinst.errors import ConvergenceError, PoleError
from gravinst.singularities import Center, CenterConfiguration, QuotientSignature
from fd_reference import recursive_simpson

# one integrand per lane, each f(t, c): a square root near its cusp, a
# narrow bump, a cubic
SHAPES = (
    lambda t, c: math.sqrt(abs(t - c)),
    lambda t, c: 1.0 / (1e-4 + (t - c) * (t - c)),
    lambda t, c: t * t * t - c * t,
)
LANES = [  # (shape, c, a, b)
    (0, -1e-3, 0.0, 1.0),
    (1, 0.51, 0.0, 1.0),
    (2, 2.0, -3.0, 5.0),
    (0, 7.0, 7.0, 7.0),  # zero width
    (1, -2.0, -40.0, 25.0),
    (0, 0.0, 0.0, 1e-3),
    (2, 0.0, 1e6, 1e6 + 1.0),
]


def lane_integrand(t, i):
    """The LANES integrands over a node array, node by node in floats, so
    the lanes see the values the float reference sees."""
    return np.array(
        [SHAPES[LANES[j][0]](tt, LANES[j][1]) for tt, j in zip(t.tolist(), i.tolist())]
    )


def counted(f, calls):
    def g(t, i):
        calls.append(np.asarray(i).copy())
        return f(t, i)

    return g


def test_lanes_match_the_recursion_bit_for_bit():
    # same acceptance, same rule arithmetic and the recursion's left + right
    # summation: every lane's integral and node count equal the reference's
    calls = []
    a = np.array([lane[2] for lane in LANES])
    b = np.array([lane[3] for lane in LANES])
    got = quadrature.adaptive_simpson(counted(lane_integrand, calls), a, b)
    lane_nodes = np.bincount(np.concatenate(calls), minlength=len(LANES))
    for j, (shape, c, lo, hi) in enumerate(LANES):
        nodes = [0]

        def f(t, shape=shape, c=c):
            nodes[0] += 1
            return SHAPES[shape](t, c)

        assert got[j] == recursive_simpson(f, lo, hi)
        assert lane_nodes[j] == nodes[0]
    # one call for the first three nodes of every lane, then one per level
    assert len(calls) <= quadrature.MAX_DEPTH + 2
    assert got[3] == 0.0 and lane_nodes[3] == 0


def test_zero_width_lanes_give_zero():
    calls = []
    f = counted(lambda t, i: np.ones_like(t), calls)
    got = quadrature.adaptive_simpson(f, [0.0, 2.0, -1.0], [1.0, 2.0, 1.0])
    assert got.tolist() == [1.0, 0.0, 2.0]
    assert 1 not in np.concatenate(calls)
    # all lanes empty, or no lanes: no integrand call
    calls.clear()
    assert quadrature.adaptive_simpson(f, [3.0, 4.0], [3.0, 4.0]).tolist() == [0.0, 0.0]
    assert quadrature.adaptive_simpson(f, [], []).shape == (0,)
    assert not calls


@pytest.mark.parametrize(
    "a, b",
    [
        ([0.0, 1.0, 0.0], [1.0, 0.5, 1.0]),  # one lane reversed
        ([0.0, math.nan], [1.0, 1.0]),
        ([0.0, 0.0], [1.0]),  # unequal lengths
        ([[0.0]], [[1.0]]),  # not 1-D
    ],
)
def test_bad_bounds_raise_value_error(a, b):
    with pytest.raises(ValueError):
        quadrature.adaptive_simpson(lambda t, i: np.ones_like(t), a, b)


def test_non_finite_integrand_raises_convergence_error():
    def f(t, i):
        with np.errstate(divide="ignore"):
            return np.where(i == 1, 1.0 / t, 1.0)

    with pytest.raises(ConvergenceError, match="non-finite"):
        quadrature.adaptive_simpson(f, [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ConvergenceError, match="non-finite"):
        quadrature.adaptive_simpson(lambda t, i: np.full_like(t, math.nan), [0.0], [1.0])


def test_depth_exhaustion_raises_convergence_error():
    # a unit jump at 1/3 is never resolved before the width floor: the
    # recursion runs out of depth, and so does every lane holding the jump
    def step(t, i):
        return np.where((i == 1) & (t > 1.0 / 3.0), 1.0, 0.0)

    with pytest.raises(ConvergenceError, match="depth"):
        recursive_simpson(lambda t: float(t > 1.0 / 3.0), 0.0, 1.0)
    with pytest.raises(ConvergenceError, match="depth"):
        quadrature.adaptive_simpson(step, [0.0, 0.0], [1.0, 1.0])


def test_node_on_a_center_raises_pole_error():
    origin = CenterConfiguration(
        centers=(Center(0.0, 0j),), signature=QuotientSignature(1, 1, 0)
    )

    def potential(t, i):
        return ghawking.potential_at(origin, t, np.zeros_like(t, dtype=complex))

    # the midpoint of the second lane is the center
    with pytest.raises(PoleError):
        quadrature.adaptive_simpson(potential, [1.0, -1.0], [2.0, 1.0])
