"""Property tests of the circle-fibered scalar kernels on random polygon
configurations: the plain-float potential and clearance against numpy
norms, d alpha = *dV by central differences, and the theta independence
and constant theta column of the Kahler form that give cycle_period its
closed form."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gravinst import ghawking
from gravinst.errors import SingularFiberError
from gravinst.singularities import QuotientSignature, make_polygon_config
from fd_reference import gh_connection, shifted_points

SIGNATURES = [
    (1, 1, 0),
    (2, 1, 0),
    (1, 2, 1),
    (2, 2, 1),
    (1, 3, 1),
    (1, 3, 2),
    (2, 3, 2),
    (1, 4, 3),
]

# deterministic examples, no example database: the suite stays a pure
# function of the source
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

unit = st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def configs(draw):
    d, n, m = draw(st.sampled_from(SIGNATURES))
    radii = [
        draw(st.floats(min_value=0.5, max_value=2.0))
        * complex(math.cos(phi), math.sin(phi))
        for phi in draw(
            st.lists(
                st.floats(min_value=0.0, max_value=2.0 * math.pi), min_size=d, max_size=d
            )
        )
    ]
    heights = draw(st.lists(unit, min_size=d, max_size=d))
    mode = draw(st.sampled_from(("ale", "alf")))
    try:
        return make_polygon_config(QuotientSignature(d, n, m), radii, heights, mode)
    except SingularFiberError:
        assume(False)


@st.composite
def configs_and_points(draw):
    """A config and a base point (b, a) at least 0.25 * scale from every
    center and every Dirac string."""
    config = draw(configs())
    scale = max(1.0, config.extent())
    b, a1, a2 = (3.0 * scale * draw(unit) for _ in range(3))
    a = complex(a1, a2)
    x = np.array([b, a1, a2])
    assume(min(np.linalg.norm(x - c.as_r3()) for c in config.centers) >= 0.25 * scale)
    assume(ghawking.string_clearance(config, b, a) >= 0.25 * scale)
    return config, b, a


@PROPERTY
@given(configs_and_points())
def test_potential_matches_numpy_norms(case):
    config, b, a = case
    x = np.array([b, a.real, a.imag])
    expected = (1.0 if config.mode == "alf" else 0.0) + sum(
        0.5 / np.linalg.norm(x - c.as_r3()) for c in config.centers
    )
    got = ghawking.potential_at(config, b, a)
    assert isinstance(got, float)
    assert abs(got - expected) <= 1e-14 * expected


@PROPERTY
@given(configs_and_points())
def test_center_clearance_matches_numpy_norms(case):
    config, b, a = case
    x = np.array([b, a.real, a.imag])
    expected = min(np.linalg.norm(x - c.as_r3()) for c in config.centers)
    got = ghawking.center_clearance(config, b, a)
    assert abs(got - expected) <= 1e-14 * expected


@PROPERTY
@given(configs_and_points())
def test_connection_curl_is_grad_potential(case):
    config, b, a = case
    h = 1e-6
    x = shifted_points(b, a, h)
    V = ghawking.potential_at(config, x[:, 1], x[:, 2] + 1j * x[:, 3])
    grad = (V[:3] - V[3:]) / (2 * h)
    # d alpha_1 and d alpha_2 along (b, a1, a2)
    alpha = gh_connection(config, x)
    da1, da2 = ((alpha[:3, j] - alpha[3:, j]) / (2 * h) for j in (0, 1))
    # alpha_b = 0, so curl alpha = grad V reduces to these three lines
    curl = np.array([da2[1] - da1[2], -da2[0], da1[0]])
    assert np.max(np.abs(curl - grad)) < 1e-7


@PROPERTY
@given(configs_and_points(), st.lists(st.floats(0.0, 2.0 * math.pi), min_size=3, max_size=3))
def test_kahler_form_does_not_depend_on_theta(case, thetas):
    config, b, a = case
    # the Kahler scan's omega is kahler_of of the chart's state, so a state
    # that does not depend on theta gives an omega that does not either;
    # the thetas are the lanes of one block
    state, errors = ghawking.potential_jets(
        config, [(theta, b, a.real, a.imag) for theta in [0.0, *thetas]]
    )
    assert not any(errors)
    for jet in state:
        for part in ("val", "grad", "hess"):
            lanes = getattr(jet, part)
            assert np.array_equal(lanes[1:], np.broadcast_to(lanes[0], lanes[1:].shape))
    # the period integrand tangent . omega . d_theta is then -(b_j - b_i)
    w = ghawking.kahler_of(state)[1].val
    assert np.array_equal(w[:, :, 0], np.broadcast_to([0.0, -1.0, 0.0, 0.0], (4, 4)))
