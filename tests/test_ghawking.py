"""Circle-fibered multi-center metrics: potential, connection, volume,
periods."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from gravinst import ghawking, hitchin, quadrature, sampling, tensorcalc, verify
from gravinst.errors import (
    DiracStringError,
    PathBlockedError,
    PoleError,
)
from gravinst.sampling import SampleSpec
from gravinst.singularities import (
    Center,
    CenterConfiguration,
    QuotientSignature,
    make_akl_config,
    make_polygon_config,
)
import test_acceptance as acceptance
from fd_reference import (
    at_point,
    distance,
    fd_derivatives,
    float_cycle_period,
    gh_connection,
    gh_kahler_forms,
    recursive_gauss_kronrod,
    recursive_simpson,
    shifted_points,
    stable_factor,
)
from make_reference_reports import bent_potential


def pair_config():
    return make_polygon_config(QuotientSignature(1, 2, 1), [1.0 + 0j], [0.0])


def taubnut_config():
    return make_polygon_config(
        QuotientSignature(1, 1, 0), [1.0 + 0j], [0.0], mode="alf"
    )


def hexagon_config():
    return make_polygon_config(
        QuotientSignature(2, 3, 2), [1.0 + 0j, 1.4 + 0.3j], [0.0, 0.7]
    )


def two_level_config():
    return make_polygon_config(
        QuotientSignature(2, 2, 1), [1.0 + 0j, 1.3 + 0.2j], [0.0, 1.0]
    )


def square_config():
    return make_polygon_config(
        QuotientSignature(2, 2, 1), [1.0 + 0j, 1.6 + 0j], [0.0, 0.0]
    )


def origin_config():
    return CenterConfiguration(
        centers=(Center(0.0, 0j),), signature=QuotientSignature(1, 1, 0)
    )


def tower_config():
    return CenterConfiguration(
        centers=(Center(-1.0, 0j), Center(1.0, 0j)),
        signature=QuotientSignature(2, 1, 0),
    )


# --- potential ---


def test_potential_values_and_gradient():
    cfg = pair_config()
    b, a = 0.35, 0.8 - 0.6j
    got = ghawking.potential_at(cfg, b, a)
    assert isinstance(got, float)
    dx = [np.array([b - c.b, a.real - c.a.real, a.imag - c.a.imag]) for c in cfg.centers]
    expected = sum(0.5 / np.linalg.norm(d) for d in dx)
    assert abs(got - expected) < 1e-14
    # finite differences of V against the closed-form gradient
    grad = -sum(0.5 * d / np.linalg.norm(d) ** 3 for d in dx)
    h = 1e-6
    fd = np.array(
        [
            (ghawking.potential_at(cfg, b + h, a) - ghawking.potential_at(cfg, b - h, a)),
            (ghawking.potential_at(cfg, b, a + h) - ghawking.potential_at(cfg, b, a - h)),
            (ghawking.potential_at(cfg, b, a + 1j * h) - ghawking.potential_at(cfg, b, a - 1j * h)),
        ]
    ) / (2 * h)
    assert np.max(np.abs(grad - fd)) < 1e-8


def test_potential_is_harmonic():
    cfg = pair_config()
    h = 1e-4
    for b, a in [(0.35, 0.8 - 0.6j), (1.2, -0.3 + 0.9j), (-0.7, 0.2 + 0.1j)]:
        def V(bb, aa):
            return ghawking.potential_at(cfg, bb, aa)

        lap = (
            (V(b + h, a) - 2 * V(b, a) + V(b - h, a))
            + (V(b, a + h) - 2 * V(b, a) + V(b, a - h))
            + (V(b, a + 1j * h) - 2 * V(b, a) + V(b, a - 1j * h))
        ) / h**2
        assert abs(lap) < 1e-6


def test_potential_alf_constant():
    cfg = taubnut_config()
    ale = ghawking.potential_at(replace(cfg, mode="ale"), 0.5, 2.0 + 0j)
    alf = ghawking.potential_at(cfg, 0.5, 2.0 + 0j)
    assert abs(alf - ale - 1.0) < 1e-15


def test_potential_pole():
    cfg = pair_config()
    c = cfg.centers[0]
    with pytest.raises(PoleError):
        ghawking.potential_at(cfg, c.b, c.a)


# --- connection ---


def test_connection_curl_matches_grad_v():
    # d alpha = *dV componentwise, via finite differences of alpha
    cfg = pair_config()
    h = 1e-6
    x = shifted_points(0.4, 0.9 - 0.5j, h)
    V = ghawking.potential_at(cfg, x[:, 1], x[:, 2] + 1j * x[:, 3])
    alpha = gh_connection(cfg, x)
    grad = (V[:3] - V[3:]) / (2 * h)
    # d alpha_1 and d alpha_2 along (b, a1, a2)
    da1, da2 = ((alpha[:3, j] - alpha[3:, j]) / (2 * h) for j in (0, 1))
    # alpha_b = 0, so curl alpha = grad V reduces to these three lines
    assert abs((da2[1] - da1[2]) - grad[0]) < 1e-7
    assert abs(-da2[0] - grad[1]) < 1e-7
    assert abs(da1[0] - grad[2]) < 1e-7


def test_connection_gauge_and_strings():
    cfg = pair_config()
    a = cfg.centers[0].a
    # directly below the a=+1 center: on its Dirac string; then at it
    with pytest.raises(DiracStringError):
        gh_connection(cfg, np.array([(0.0, -0.5, a.real, a.imag)]))
    with pytest.raises(PoleError):
        gh_connection(cfg, np.array([(0.0, 0.0, a.real, a.imag)]))


# --- metric algebra ---


def test_metric_determinant_is_v_squared():
    for cfg in [pair_config(), taubnut_config()]:
        g = at_point(verify.GH.metric(cfg), (0.9, 0.35, 0.8, -0.6))
        V = ghawking.potential_at(cfg, 0.35, 0.8 - 0.6j)
        assert abs(np.linalg.det(g) - V * V) < 1e-12 * V * V
        assert abs(g[0, 0] - 1.0 / V) < 1e-14


def kahler_values(config, x):
    """(g, omega, J) at the point x, the values the Kahler scan takes from
    the chart's jets on the block of x."""
    g, omega, J = ghawking.kahler_of(tensorcalc.every_lane(ghawking.potential_jets(config, [x])))
    return g[0], omega.val[0], J.val[0]


def test_complex_structure_identities():
    cfg = pair_config()
    x = (0.9, 0.35, 0.8, -0.6)
    g, w, J = kahler_values(cfg, x)
    assert np.max(np.abs(J @ J + np.eye(4))) < 1e-13
    assert np.max(np.abs(J.T @ g @ J - g)) < 1e-13
    assert np.max(np.abs(w - J.T @ g)) < 1e-13


def test_kahler_form_squares_to_twice_volume():
    cfg = pair_config()
    x = (0.2, 0.7, -0.4, 1.1)
    g, w, _ = kahler_values(cfg, x)
    wedge = 2.0 * (w[0, 1] * w[2, 3] - w[0, 2] * w[1, 3] + w[0, 3] * w[1, 2])
    vol = math.sqrt(np.linalg.det(g))
    # chart order (theta, b, a1, a2) is negatively oriented for J
    assert abs(wedge / vol + 2.0) < 1e-10


def test_potential_transform_breaks_det_identity():
    cfg = pair_config()
    x = (0.9, 0.35, 0.8, -0.6)
    with bent_potential(lambda v: v * v):
        g = at_point(verify.GH.jet(cfg), x).val
    V = ghawking.potential_at(cfg, 0.35, 0.8 - 0.6j)
    assert abs(np.linalg.det(g) - V * V) > 1e-3


def test_action_jacobian_rotation():
    sig = QuotientSignature(1, 4, 1)
    M, _ = ghawking.action(sig)
    # theta and b axes untouched; a-plane rotated by -pi/2 (a=1 -> -i)
    assert np.allclose(M[:2, :2], np.eye(2))
    got = M @ np.array([0.0, 0.0, 1.0, 0.0])
    assert np.max(np.abs(got - [0.0, 0.0, 0.0, -1.0])) < 1e-14


# --- clearances ---


def test_clearances():
    cfg = pair_config()
    assert abs(ghawking.center_clearance(cfg, 0.0, 0j) - 1.0) < 1e-12
    # just below the a=+1 center, on the down string track
    assert ghawking.string_clearance(cfg, -0.7, 1.0 + 0j) < 1e-9
    assert ghawking.string_clearance(cfg, 0.0, 0j) > 0.5


# --- cycle periods ---


def period(config, i, j):
    """cycle_period of the one pair (i, j), a lane of one: its period, or
    its PathBlockedError raised."""
    return tensorcalc.every_lane(ghawking.cycle_period(config, [i], [j]))[0]


def test_cycle_period_tower():
    tower = tower_config()
    per = period(tower, 0, 1)
    # the closed form -2 pi (b_j - b_i), heights -1 and 1
    assert per == -4.0 * math.pi
    assert period(tower, 1, 0) + per == 0.0


def test_cycle_period_coplanar_vanishes():
    assert period(pair_config(), 0, 1) == 0.0


def test_cycle_period_blocked_segment():
    three = CenterConfiguration(
        centers=(Center(-1.0, 0j), Center(0.0, 0j), Center(1.0, 0j)),
        signature=QuotientSignature(3, 1, 0),
    )
    with pytest.raises(PathBlockedError):
        period(three, 0, 2)
    # adjacent pairs stay unblocked
    assert period(three, 0, 1) == -2.0 * math.pi
    # a tilted line: the middle center blocks the outer pair, and a center
    # on the line's extension past an endpoint does not block
    tilted = CenterConfiguration(
        centers=(Center(-1.0, -1 - 1j), Center(0.5, 0.5 + 0.5j), Center(1.0, 1 + 1j)),
        signature=QuotientSignature(3, 1, 0),
    )
    with pytest.raises(PathBlockedError):
        period(tilted, 0, 2)
    assert period(tilted, 0, 1) == -3.0 * math.pi
    # on lanes, the blocked pair gets its error and the others their periods
    periods, errors = ghawking.cycle_period(tilted, [0, 0, 1, 2], [1, 2, 2, 0])
    assert [type(e) for e in errors] == [type(None), PathBlockedError, type(None), PathBlockedError]
    assert periods.tolist() == [-3.0 * math.pi, -math.pi]


def quadrature_period(config, i, j):
    """The period as the integral the closed form replaces: 2 pi times the
    integral of tangent . omega . d_theta along the segment from center i
    to center j by the recursive reference Simpson rule, cut 1e-9 short of the cone points at
    both ends, with omega the value of the chart's jets."""
    ci, cj = config.centers[i], config.centers[j]
    db, da = cj.b - ci.b, cj.a - ci.a
    tangent = np.array([0.0, db, da.real, da.imag])

    def integrand(t):
        a = ci.a + t * da
        _, w, _ = kahler_values(config, (0.0, ci.b + t * db, a.real, a.imag))
        return float(tangent @ w[:, 0])

    eps = 1e-9
    return 2.0 * math.pi * recursive_simpson(integrand, eps, 1.0 - eps)


@pytest.mark.parametrize("build", [two_level_config, hexagon_config])
def test_cycle_period_matches_quadrature(build):
    # no pair of either config is blocked, and neither has a vertical
    # segment, so no segment runs along a Dirac string; the 5e-8
    # allowance is the 1e-9 endpoint cut
    config = build()
    for i in range(config.k):
        for j in range(i + 1, config.k):
            closed = period(config, i, j)
            reference = quadrature_period(config, i, j)
            assert abs(closed - reference) <= 5e-8 * abs(closed)


def test_cycle_period_index_validation():
    # two distinct indices in range on every lane, on 1-D lanes of
    # integers; no lane at all is a result of no lanes
    for i, j in (([0], [0]), ([0], [5]), ([-1], [0]), (0, 1), ([[0]], [[1]]), ([0.0], [1.0])):
        with pytest.raises(ValueError):
            ghawking.cycle_period(pair_config(), i, j)
    none = np.array([], dtype=int)
    periods, errors = ghawking.cycle_period(pair_config(), none, none)
    assert periods.shape == (0,) and errors == []


AKL_PERIOD_COUNTS = {3: 5, 12: 23, 50: 99}


@pytest.mark.parametrize("j_max", sorted(AKL_PERIOD_COUNTS))
def test_cycle_period_lanes_match_the_per_pair_loop_on_akl(j_max):
    # akl centers are coplanar and collinear in pairs, so most of their
    # segments are blocked: each lane's period and error is the per-pair
    # float loop's, and period_check's record is the one that loop gave
    # (every period 0, the clear pairs counted)
    config = make_akl_config(n=2, m=1, j_max=j_max)
    assert_lanes_match_per_pair_loop(config)
    rec = verify.period_check(config)
    assert (rec.max_residual, rec.passed, rec.count) == (0.0, True, AKL_PERIOD_COUNTS[j_max])
    assert rec.note == "coplanar centers, proportionality vacuous; C = 0"


@pytest.mark.parametrize(
    "build",
    [
        acceptance.pair_unit,
        acceptance.pair_generic,
        acceptance.hexagon,
        acceptance.taubnut,
        acceptance.flat,
        acceptance.square4,
        acceptance.two_level,
    ],
)
def test_cycle_period_lanes_match_the_per_pair_loop_on_acceptance_configs(build):
    # their period records are pinned in tests/reference_reports.json
    assert_lanes_match_per_pair_loop(build())


def assert_lanes_match_per_pair_loop(config):
    """cycle_period on every ordered pair as lanes against
    fd_reference.float_cycle_period pair by pair: the same blocked pairs,
    and bit for bit the same periods."""
    pairs = [(i, j) for i in range(config.k) for j in range(config.k) if i != j]
    periods, errors = ghawking.cycle_period(config, *np.array(pairs, dtype=int).reshape(-1, 2).T)
    periods = iter(periods.tolist())
    for (i, j), err in zip(pairs, errors):
        try:
            expected = float_cycle_period(config, i, j)
        except PathBlockedError:
            assert isinstance(err, PathBlockedError)
            continue
        assert err is None and next(periods) == expected


# --- volume growth ---


def test_flat_volume_closed_forms():
    cfg = origin_config()
    R = 7.0
    vol = ghawking.coordinate_ball_volume(cfg, R)
    assert abs(vol - 2.0 * math.pi**2 * R**2) / vol < 1e-9
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="non-negative"):
            ghawking.coordinate_ball_volume(cfg, bad)
    rho = ghawking.geodesic_radii(cfg, [R])[0]
    assert abs(rho - math.sqrt(2.0 * R)) < 1e-8


def test_flat_growth_slope_is_four():
    fit = ghawking.volume_growth_fit(origin_config(), mode="ale")
    assert abs(fit.slope - 4.0) < 1e-6
    assert fit.rms_residual < 1e-9


def quadrature_ball_volume(config, R):
    """8 pi^2 int_0^R r^2 (c + 1/2 sum_i 1/max(r, |x_i|)) dr by the
    recursive reference Simpson rule, split at the center norms where the
    integrand has kinks."""
    norms = [float(np.linalg.norm(c.as_r3())) for c in config.centers]
    constant = 1.0 if config.mode == "alf" else 0.0

    def radial(r):
        if r == 0.0:
            return 0.0
        return r * r * (constant + 0.5 * sum(1.0 / max(r, s) for s in norms))

    cuts = [0.0] + sorted(s for s in set(norms) if 0.0 < s < R) + [R]
    total = sum(recursive_simpson(radial, lo, hi) for lo, hi in zip(cuts, cuts[1:]))
    return 8.0 * math.pi**2 * total


@pytest.mark.parametrize(
    "build", [pair_config, hexagon_config, two_level_config, taubnut_config]
)
def test_ball_volume_closed_form_matches_quadrature(build):
    cfg = build()
    norms = sorted(float(np.linalg.norm(c.as_r3())) for c in cfg.centers)
    # below, between and above the center norms
    radii = [0.5 * norms[0], 0.5 * (norms[0] + norms[-1]), 2.0 * norms[-1], 50.0]
    for R in radii:
        exact = ghawking.coordinate_ball_volume(cfg, R)
        assert abs(exact - quadrature_ball_volume(cfg, R)) <= 1e-10 * exact


@pytest.mark.parametrize("build", [hexagon_config, square_config, taubnut_config])
def test_geodesic_radii_match_scipy_quad(build):
    # an independent quadrature: QUADPACK on sqrt(V) in t itself, one
    # integral per segment between consecutive fit radii, each to 1e-13
    cfg = build()
    scale = max(1.0, cfg.extent())
    if cfg.mode == "alf":
        radii = np.geomspace(100.0, 1100.0, 6) * scale
    else:
        radii = np.geomspace(1000.0, 110000.0, 6) * scale
    lengths = []
    for d in ghawking._RAY_DIRECTIONS:

        def sqrt_v(t, d=d):
            return math.sqrt(ghawking.potential_at(cfg, t * d[0], complex(t * d[1], t * d[2])))

        with warnings.catch_warnings():
            warnings.simplefilter("error", integrate.IntegrationWarning)
            pieces = [
                integrate.quad(sqrt_v, lo, hi, epsrel=1e-13, epsabs=0.0, limit=200)[0]
                for lo, hi in zip(np.concatenate([[0.0], radii[:-1]]), radii)
            ]
        lengths.append(np.cumsum(pieces))
    reference = np.mean(lengths, axis=0)
    got = ghawking.geodesic_radii(cfg, radii)
    assert np.all(np.abs(got - reference) <= 1e-13 * reference)


def test_volume_growth_fit_potential_work(monkeypatch):
    # each ray is integrated once over all radii, every piece in u = sqrt(t):
    # 2310 potential nodes for the hexagon in 10 calls, where Simpson's rule
    # took 3130 in 15, t-space segments 9270 and one integral per radius
    # 42812; the nodes of one depth level go through one call, one
    # quadrature of at most MAX_DEPTH + 1 levels
    calls, nodes = [0], [0]
    original = ghawking.potential_at

    def counted(config, b, a):
        calls[0] += 1
        nodes[0] += np.size(b)
        return original(config, b, a)

    monkeypatch.setattr(ghawking, "potential_at", counted)
    fit = ghawking.volume_growth_fit(hexagon_config(), mode="ale")
    assert abs(fit.slope - 4.0) < 0.1
    assert 0 < nodes[0] <= 2400
    assert 0 < calls[0] <= quadrature.MAX_DEPTH + 1


def recursive_geodesic_radii(config, radii, nodes):
    """geodesic_radii as one depth-first recursive Gauss-Kronrod integral
    per ray piece in u = sqrt(t), with a one-point potential_at at every
    node; nodes[0] counts the potential evaluations."""
    ends = [math.sqrt(min(1.0, 0.25 * float(radii[0])))] + [math.sqrt(float(R)) for R in radii]
    lengths = np.empty((len(ghawking._RAY_DIRECTIONS), len(radii)))
    for row, d in zip(lengths, ghawking._RAY_DIRECTIONS):

        def substituted(u, d=d):
            nodes[0] += 1
            t = u * u
            return 2.0 * u * math.sqrt(
                ghawking.potential_at(config, t * d[0], complex(t * d[1], t * d[2]))
            )

        acc = recursive_gauss_kronrod(substituted, 0.0, ends[0])
        for j, (lo, hi) in enumerate(zip(ends, ends[1:])):
            acc += recursive_gauss_kronrod(substituted, lo, hi)
            row[j] = acc
    return lengths.mean(axis=0)


def octagon_config():
    return make_polygon_config(
        QuotientSignature(2, 4, 1), [1.0 + 0j, 1.5 + 0.2j], [0.0, 0.8]
    )


@pytest.mark.parametrize(
    "build",
    [hexagon_config, square_config, two_level_config, taubnut_config, octagon_config],
)
def test_geodesic_radii_match_recursive_reference_on_fit_radii(build, monkeypatch):
    # the lane quadrature accepts the subintervals the recursion accepts:
    # the same potential nodes (2310 on the hexagon, 1950 on the square,
    # 1200 on Taub-NUT, 2070 on the octagon) and the same radii bit for
    # bit, though the recursion evaluates the octagon's 8-center potential
    # one point at a time
    cfg = build()
    seen, nodes = [], [0]
    radii_of, potential = ghawking.geodesic_radii, ghawking.potential_at

    def recorded(config, radii):
        seen.append(np.array(radii, dtype=float))
        return radii_of(config, radii)

    def counted(config, b, a):
        nodes[0] += np.size(b)
        return potential(config, b, a)

    monkeypatch.setattr(ghawking, "geodesic_radii", recorded)
    monkeypatch.setattr(ghawking, "potential_at", counted)
    ghawking.volume_growth_fit(cfg)
    monkeypatch.undo()
    (radii,) = seen
    reference_nodes = [0]
    reference = recursive_geodesic_radii(cfg, radii, reference_nodes)
    assert nodes[0] == reference_nodes[0]
    assert ghawking.geodesic_radii(cfg, radii).tolist() == reference.tolist()
    # among the centers too, where no far piece swamps a rounding of the
    # near potential
    near = np.geomspace(0.5, 4.0, 4) * max(1.0, cfg.extent())
    reference = recursive_geodesic_radii(cfg, near, [0])
    assert ghawking.geodesic_radii(cfg, near).tolist() == reference.tolist()


def float_loop_potential(config, b, a):
    """V at one point as a float sum over the centers, in their order."""
    total = 1.0 if config.mode == "alf" else 0.0
    for c in config.centers:
        total += 0.5 / math.hypot(b - c.b, abs(a - c.a))
    return total


@pytest.mark.parametrize(
    "build", [hexagon_config, taubnut_config, lambda: make_akl_config(n=2, m=1, j_max=12)]
)
def test_array_potential_matches_float_loop(build):
    cfg = build()
    rng = np.random.default_rng(3)
    t = np.exp(rng.uniform(-4.0, 10.0, 2000))
    d = ghawking._RAY_DIRECTIONS[rng.integers(0, 6, t.size)]
    b, a = t * d[:, 0], t * d[:, 1] + 1j * (t * d[:, 2])
    V = ghawking.potential_at(cfg, b, a)
    assert V.shape == t.shape
    floats = np.array([float_loop_potential(cfg, bb, aa) for bb, aa in zip(b.tolist(), a.tolist())])
    assert np.all(np.abs(V - floats) <= 4.0 * np.finfo(float).eps * floats)
    # one point at a time, a float within the same margin
    for bb, aa, ref in zip(b.tolist()[:50], a.tolist()[:50], floats[:50]):
        one = ghawking.potential_at(cfg, bb, aa)
        assert type(one) is float
        assert abs(one - ref) <= 4.0 * np.finfo(float).eps * ref
    # arrays broadcast against scalars, and a grid of b against a column of a
    column = ghawking.potential_at(cfg, b, np.full(t.size, 0.3 - 0.1j))
    assert np.array_equal(ghawking.potential_at(cfg, b, 0.3 - 0.1j), column)
    assert ghawking.potential_at(cfg, b[:5], a[:3, None]).shape == (3, 5)


def test_one_point_potential_is_its_value_in_a_block():
    # the center sum runs in the centers' order for any lane count: on akl
    # J = 12 (24 centers) each scalar call, and each block of one, gives
    # the bits of its lane in a 200-point block
    cfg = make_akl_config(n=2, m=1, j_max=12)
    rng = np.random.default_rng(0)
    b = rng.uniform(-3.0, 3.0, 200)
    a = rng.uniform(-150.0, 150.0, 200) + 1j * rng.uniform(-150.0, 150.0, 200)
    block = ghawking.potential_at(cfg, b, a).tolist()
    assert [ghawking.potential_at(cfg, bb, aa) for bb, aa in zip(b.tolist(), a.tolist())] == block
    assert [ghawking.potential_at(cfg, b[i : i + 1], a[i : i + 1])[0] for i in range(200)] == block


def test_array_potential_raises_pole_error_at_a_center():
    cfg = hexagon_config()
    c = cfg.centers[2]
    b = np.array([0.3, c.b, -0.2])
    with pytest.raises(PoleError):
        ghawking.potential_at(cfg, b, np.array([0.1 + 0j, c.a, 2.0 + 0j]))
    with pytest.raises(PoleError):
        ghawking.potential_at(cfg, np.array([c.b]), c.a)


def test_potential_raises_pole_error_where_a_center_term_overflows():
    # 1e-310 above a center 1/2 / Delta_i overflows: metric_at gives that
    # lane a PoleError, and potential_at raises one, with no warning
    cfg = square_config()
    c = cfg.centers[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, errors = ghawking.metric_at(cfg, [(0.0, c.b + 1e-310, c.a.real, c.a.imag)])
        assert type(errors[0]) is PoleError
        for b in (c.b + 1e-310, np.array([0.3, c.b + 1e-310])):
            with pytest.raises(PoleError):
                ghawking.potential_at(cfg, b, c.a)
        # just outside, V is the plain sum, as everywhere else
        b = c.b + np.array([1e-308, 1e-300, 0.5])
        V = ghawking.potential_at(cfg, b, c.a)
    b_i, a_i = ghawking.center_axis(cfg, 1)
    plain = (0.5 / ghawking.center_distance(b - b_i, np.abs(c.a - a_i))).sum(axis=0)
    assert np.all(np.isfinite(V)) and np.array_equal(V, plain)


# --- closed-form curvature ---


def closed_form_riem_norm_sq(config, b, a):
    """|Rm|^2 of the circle-fibered metric from V alone,

        |Rm|^2 = 4 |DDV|^2 / V^4 - 24 DV.DDV.DV / V^5 + 24 |DV|^4 / V^6,

    with flat derivatives on R^3 = (b, Re a, Im a); it holds because V is
    harmonic, and it sees neither the connection nor its Dirac strings."""
    p = np.array([b, a.real, a.imag])
    V = 1.0 if config.mode == "alf" else 0.0
    dV = np.zeros(3)
    ddV = np.zeros((3, 3))
    for c in config.centers:
        d = p - np.array([c.b, c.a.real, c.a.imag])
        r = np.linalg.norm(d)
        V += 0.5 / r
        dV -= 0.5 * d / r**3
        ddV += 0.5 * (3.0 * np.outer(d, d) / r**5 - np.eye(3) / r**3)
    assert abs(V - ghawking.potential_at(config, b, a)) <= 1e-14 * V
    return (
        4.0 * np.sum(ddV * ddV) / V**4
        - 24.0 * (dV @ ddV @ dV) / V**5
        + 24.0 * (dV @ dV) ** 2 / V**6
    )


@pytest.mark.parametrize("build", [pair_config, hexagon_config, taubnut_config])
def test_finite_difference_curvature_matches_closed_form(build):
    cfg = build()
    fd_jet = fd_derivatives(verify.GH.metric(cfg), blocks=True)
    points = sampling.gh_points(cfg, SampleSpec(count=20, seed=7))
    for x, fd in zip(points, tensorcalc.every_lane(tensorcalc.curvature_at(fd_jet, points))):
        exact = closed_form_riem_norm_sq(cfg, x[1], complex(x[2], x[3]))
        assert abs(fd.riem_norm_sq / exact - 1.0) < 1e-4


@pytest.mark.parametrize("build", [pair_config, hexagon_config, taubnut_config])
def test_jet_curvature_matches_closed_form(build):
    # against max(|Rm|^2, 1), the Ricci residual's scale: on the pair far
    # below the centers, where |Rm|^2 is 6.5e-4 and alpha is O(1), the
    # chart's own conditioning leaves 2.5e-9 relative error
    cfg = build()
    points = sampling.gh_points(cfg, SampleSpec(count=20, seed=7))
    bundles = tensorcalc.every_lane(tensorcalc.curvature_at(verify.GH.jet(cfg), points))
    for x, jet in zip(points, bundles):
        exact = closed_form_riem_norm_sq(cfg, x[1], complex(x[2], x[3]))
        assert abs(jet.riem_norm_sq - exact) <= 1e-10 * max(exact, 1.0)


def kahler_jets(config, x):
    """(g, omega, J) over the block x, as the Kahler scan assembles them
    from the chart's state; every lane must be good."""
    (g, omega, J), errors = verify.assembled(verify.GH.state(config), verify.GH.kahler_of)(x)
    assert errors == [None] * len(x)
    return g, omega, J


@pytest.mark.parametrize("build", [pair_config, hexagon_config, taubnut_config])
def test_jet_values_are_the_float_fields(build):
    # the metric against metric_at, omega and J against their closed forms
    cfg = build()
    x = np.array(sampling.gh_points(cfg, SampleSpec(count=20, seed=7)))
    g, omega, J = kahler_jets(cfg, x)
    metric, _ = ghawking.metric_at(cfg, x)
    forms, _ = gh_kahler_forms(cfg, x)
    jet, _ = verify.GH.jet(cfg)(x)
    for got, value in (
        (jet.val, metric),
        (g, metric),
        (omega.val, forms[:, 0]),
        (J.val, forms[:, 1]),
    ):
        scale = np.max(np.abs(value), axis=(1, 2))
        assert np.all(np.max(np.abs(got - value), axis=(1, 2)) <= 1e-14 * scale)


def test_kahler_jets_agree_with_finite_differences():
    # one stencil block per point, against the closed forms of omega and J
    cfg = hexagon_config()
    x = np.array(sampling.gh_points(cfg, SampleSpec(count=10, seed=7)))
    _, omega, J = kahler_jets(cfg, x)
    fd_forms = fd_derivatives(lambda q: gh_kahler_forms(cfg, q), blocks=True)
    fd, errors = fd_forms(x)
    assert errors == [None] * len(x)
    d_fd = fd.partials()[0]  # d_i at axis 2, behind the lane and the form
    for k, jet in enumerate((omega, J)):
        d_jet, d_ref = jet.partials()[0], d_fd[:, k]
        scale = np.maximum(1.0, np.max(np.abs(d_ref), axis=(1, 2, 3)))
        assert np.all(np.max(np.abs(d_jet - d_ref), axis=(1, 2, 3)) <= 1e-10 * scale)


def test_jets_raise_typed_errors_on_the_axis():
    # at the center, on its string below it, and on the axis above it
    cfg = pair_config()
    c = cfg.centers[0]
    x = np.array([(0.3, c.b + db, c.a.real, c.a.imag) for db in (0.0, -0.5, 0.5)])
    expected = [PoleError, DiracStringError, type(None)]
    with np.errstate(all="raise"):
        for field in (
            verify.GH.state(cfg),
            verify.GH.jet(cfg),
            verify.assembled(verify.GH.state(cfg), verify.GH.kahler_of),
        ):
            _, errors = field(x)
            assert [type(e) for e in errors] == expected
        (bundle,), errors = tensorcalc.curvature_at(verify.GH.jet(cfg), x)
    assert [type(e) for e in errors] == expected
    # the down gauge is smooth through the axis above the center
    exact = closed_form_riem_norm_sq(cfg, c.b + 0.5, c.a)
    assert abs(bundle.riem_norm_sq / exact - 1.0) < 1e-10


# --- the one fault pass ---


def lane_errors(errors):
    return [(type(e).__name__, str(e)) if e else None for e in errors]


def fault_block(config, c):
    """Sampled lanes mixed with the center c, a lane on its string, and
    lanes on its axis just either side of the pole cut near 1e-154; where
    the center sits at a = 0, also lanes beside its string either side of
    the string's cut."""
    stream = verify.GH.stream(config, SampleSpec(count=3, seed=7)).tolist()
    lanes = [
        stream[0],
        (0.3, c.b, c.a.real, c.a.imag),  # the center
        (0.1, c.b - 0.5, c.a.real, c.a.imag),  # its string
        stream[1],
        (0.2, c.b + 1e-154, c.a.real, c.a.imag),  # above it, outside the cut
        (0.2, c.b + 1e-155, c.a.real, c.a.imag),  # inside the cut: a pole
        stream[2],
    ]
    if c.a == 0:
        lanes += [(0.4, c.b - 0.5, 1e-154, 0.0), (0.4, c.b - 0.5, 1e-155, 0.0)]
    return np.array(lanes)


def fault_cases():
    akl = make_akl_config(n=2, m=1, j_max=12)
    at_origin = CenterConfiguration(
        centers=(Center(0.0, 0j), Center(1.0, 1.0 + 0.5j)), signature=QuotientSignature(2, 1, 0)
    )
    return [
        (pair_config(), 0, ["", "PoleError", "DiracStringError", "", "", "PoleError", ""]),
        (akl, 0, ["", "PoleError", "DiracStringError", "", "", "PoleError", ""]),
        (akl, 17, ["", "PoleError", "DiracStringError", "", "", "PoleError", ""]),
        (at_origin, 0,
         ["", "PoleError", "DiracStringError", "", "", "PoleError", "", "", "DiracStringError"]),
    ]


@pytest.mark.parametrize("config, center, expected", fault_cases())
def test_both_fields_give_every_lane_the_same_error(config, center, expected, monkeypatch):
    x = fault_block(config, config.centers[center])
    calls = []
    point_jets = ghawking._point_jets

    def counted(config, p):
        calls.append(p)
        return point_jets(config, p)

    monkeypatch.setattr(ghawking, "_point_jets", counted)
    jets, errors = ghawking.potential_jets(config, x)
    g, metric_errors = ghawking.metric_at(config, x)
    assert [e[0] if e else "" for e in lane_errors(errors)] == expected
    assert lane_errors(errors) == lane_errors(metric_errors)
    assert {str(e) for e in errors if e} <= {
        "metric evaluated at a center", "evaluation on the Dirac string of a center"
    }
    # _point_jets once per good lane, in order, and never on a faulty one
    good = [tuple(p) for p, e in zip(x.tolist(), expected) if not e]
    assert calls == good
    assert all(j.val.shape == (len(good),) for j in jets) and g.shape == (len(good), 4, 4)


def test_a_block_with_no_good_lane_gives_empty_jets(monkeypatch):
    cfg = pair_config()
    c = cfg.centers[0]
    x = np.array([(0.3, c.b, c.a.real, c.a.imag), (0.1, c.b - 0.5, c.a.real, c.a.imag)])
    monkeypatch.setattr(ghawking, "_point_jets", None)  # never called
    jets, errors = ghawking.potential_jets(cfg, x)
    assert [type(e) for e in errors] == [PoleError, DiracStringError]
    assert len(jets) == 3
    assert all(
        (j.val.shape, j.grad.shape, j.hess.shape) == ((0,), (0, 4), (0, 4, 4)) for j in jets
    )


@pytest.mark.parametrize("build", [pair_config, origin_config])
def test_walk_to_a_center_and_a_string_raises_no_warning(build):
    # above and beside a center, and beside its string one unit below it,
    # from 1e-20 down past the pole cut to 1e-200: every field ends in a
    # value or a typed error, never a RuntimeWarning (offsets a center's
    # coordinates cannot represent land on the center or its string)
    cfg = build()
    c = cfg.centers[0]
    x = np.array(
        [
            lane
            for eps in 10.0 ** -np.arange(20, 201, 2.0)
            for lane in (
                (0.3, c.b + eps, c.a.real, c.a.imag),
                (0.3, c.b, c.a.real + eps, c.a.imag),
                (0.3, c.b - 1.0, c.a.real + eps, c.a.imag),
            )
        ]
    )
    kahler = verify.assembled(verify.GH.state(cfg), verify.GH.kahler_of)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, errors = ghawking.potential_jets(cfg, x)
        _, metric_errors = ghawking.metric_at(cfg, x)
        _, kahler_errors = kahler(x)
        verify.GH.jet(cfg)(x)
        _, curvature_errors = tensorcalc.curvature_at(verify.GH.jet(cfg), x)
    assert lane_errors(errors) == lane_errors(metric_errors) == lane_errors(kahler_errors)
    assert any(e is None for e in errors) and any(errors)
    # the chart's errors come first, then the curvature types the rest
    assert all(e is None or type(c) is type(e) for e, c in zip(errors, curvature_errors))


# --- the center distance and factors ---


def test_distance_is_within_one_ulp_of_hypot_inside_its_range():
    rng = np.random.default_rng(11)
    scale = 10.0 ** rng.uniform(-140.0, 140.0, (2, 200000))
    u = rng.uniform(-10.0, 10.0, 200000) * scale[0]
    r = rng.uniform(0.0, 10.0, 200000) * scale[1]
    s = u * u + r * r
    inside = (s > 1e-290) & (s < 1e290)
    assert inside.mean() > 0.9
    dist, hyp = ghawking.center_distance(u, r), np.hypot(u, r)
    assert np.all(np.abs(dist - hyp)[inside] <= np.spacing(hyp[inside]))
    # the float reference takes the same value on every pair
    assert [distance(a, b) for a, b in zip(u[:2000].tolist(), r[:2000].tolist())] == dist[:2000].tolist()


def test_distance_is_hypot_where_the_squares_leave_the_range():
    big, small = 1e200 * np.array([1.0, 1.7, 3.3]), 1e-200 * np.array([1.0, 2.9, 7.1])
    mid = np.array([0.0, 1e-3, 1.0, 42.0])
    values = np.concatenate([big, small, mid])
    u = np.concatenate([values, -values])
    u, r = (v.ravel() for v in np.meshgrid(u, np.abs(u)))
    near = (np.abs(u) > 1e100) | (np.abs(u) < 1e-100) | (r > 1e100) | (r < 1e-100)
    assert near.sum() > 100
    # under the caller's np.errstate, as in every lane evaluation
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        assert ghawking.center_distance(u, r)[near].tobytes() == np.hypot(u, r)[near].tobytes()
        assert np.isnan(ghawking.center_distance(np.array([np.nan, 1.0]), np.array([1.0, np.nan]))).all()


def test_stable_factors_at_a_puncture_above_and_below_its_center():
    # r = 0: Delta = |u| exactly, so the factor is 2u above the center and
    # vanishes below it, where the log-sum is -inf
    u = np.array([3.7, 1e-3, 1e120, -3.7, -1e-3, -1e120])
    with np.errstate(invalid="ignore"):
        delta, f = ghawking.stable_factors(u, np.zeros_like(u))
    assert delta.tolist() == np.abs(u).tolist()
    assert f.tolist() == (2.0 * u[:3]).tolist() + [0.0] * 3
    for ui, fi in zip(u.tolist(), f.tolist()):
        assert stable_factor(ui, 0.0) == (abs(ui), fi)
    # inside center_distance's fast range the jets' factors take the same
    # values byte for byte: Delta everywhere, f above a center and on the
    # axis, where f = 0 is the string test both charts take.  Below a
    # center off the axis the jet multiplies by the reciprocal where the
    # floats divide, one rounding apart
    rng = np.random.default_rng(5)
    scale = 10.0 ** rng.uniform(-60.0, 60.0, 2000)
    u = np.concatenate([u, rng.uniform(-10.0, 10.0, 2000) * scale])
    r = np.concatenate([np.zeros(6), rng.uniform(0.0, 10.0, 2000) * scale])
    # the branch not taken divides by zero, and the jets' second
    # derivatives overflow at the largest u
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        floats = ghawking.stable_factors(u, r)
        jets = ghawking.center_factors(tensorcalc.Jet.constant(u), tensorcalc.Jet.constant(r * r))
    assert floats[0].tobytes() == jets[0].val.tobytes()
    same = (u >= 0.0) | (r == 0.0)
    assert floats[1][same].tobytes() == jets[1].val[same].tobytes()
    assert np.all(np.abs(floats[1] - jets[1].val) <= np.spacing(floats[1]))
    b_i, r = np.array([[0.5]]), np.zeros((1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        total, _ = hitchin._lane_log_lhs(b_i, r, np.array([2.0, -1.0]))
    assert total.tolist() == [math.log(3.0), -math.inf]


def test_stable_factors_take_both_branches_from_one_sum_bit_for_bit():
    # f = u + Delta above a center and r^2 / (Delta - u) below it, the
    # two sums of the direct formula, byte for byte: at u = +-0, at r = 0,
    # where |u| is far above r, and on center_distance's np.hypot branch
    values = np.array([0.0, 1e-300, 1e-200, 1e-3, 0.7, 1.0, 42.0, 1e30, 1e200, 1e300])
    u = np.concatenate([values, -values, np.random.default_rng(3).uniform(-5.0, 5.0, 200)])
    u, r = (v.ravel() for v in np.meshgrid(u, np.abs(u)))
    assert np.signbit(u[u == 0.0]).any() and (r == 0.0).any()
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        assert (u * u + r * r > 1e290).any() and (np.abs(u) > 1e100 * r).any()
        delta, f = ghawking.stable_factors(u, r)
        direct = np.where(u >= 0.0, u + delta, (r * r) / (delta - u))
    assert delta.tobytes() == ghawking.center_distance(u, r).tobytes()
    assert f.tobytes() == direct.tobytes()


def test_curvature_makes_one_metric_evaluation(monkeypatch):
    cfg = pair_config()
    point = tuple(verify.GH.stream(cfg, SampleSpec(count=1, seed=0)).tolist()[0])
    calls = {"metric_at": [], "potential_jets": [], "_point_jets": []}

    def counting(name):
        original = getattr(ghawking, name)

        def counted(*args, **kwargs):
            calls[name].append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(ghawking, name, counted)

    for name in calls:
        counting(name)
    (sample,) = verify.ricci_samples(verify.GH, cfg, [point])
    assert sample.error == ""
    # one state call on the block of the one point, which evaluates it once
    assert calls["metric_at"] == [] and calls["_point_jets"] == [point]
    assert [x.tolist() for x in calls["potential_jets"]] == [[list(point)]]


def test_jet_complex_chart_curvature_is_a_quarter_of_closed_form():
    # every distinct base point of the hexagon's cross-validation streams at
    # seeds 0-399; the complex-chart metric is 2x the circle-fibered one
    cfg = hexagon_config()
    points = {
        tuple(x)
        for seed in range(400)
        for x in verify.GH.stream(cfg, SampleSpec(count=verify.CROSS_COUNT, seed=seed)).tolist()
    }
    assert len(points) > 400
    # one block, the way the scans evaluate the complex chart
    points = list(points)
    lifted = tensorcalc.every_lane(hitchin.base_to_chart(cfg, points))
    bundles = tensorcalc.every_lane(tensorcalc.curvature_at(verify.HITCHIN.jet(cfg), lifted))
    for (theta, b, a1, a2), bundle in zip(points, bundles):
        rm = bundle.riem_norm_sq
        assert abs(rm / closed_form_riem_norm_sq(cfg, b, complex(a1, a2)) - 0.25) < 1e-4
