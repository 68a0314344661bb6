"""Configuration data: polygon construction, group action, serialization."""

import cmath
import math
import time
import warnings

import numpy as np
import pytest

from gravinst import ghawking, hitchin, verify
from gravinst.errors import InvalidSignatureError, SingularFiberError
from gravinst.singularities import (
    Center,
    CenterConfiguration,
    QuotientSignature,
    config_from_json,
    make_akl_config,
    make_polygon_config,
)


def pair_config(c=1.0 + 0j):
    return make_polygon_config(QuotientSignature(1, 2, 1), [c], [0.0])


def test_signature_validation():
    QuotientSignature(1, 1, 0)
    QuotientSignature(3, 5, 2)
    with pytest.raises(InvalidSignatureError):
        QuotientSignature(0, 2, 1)
    with pytest.raises(InvalidSignatureError):
        QuotientSignature(1, 4, 2)  # gcd(2,4) = 2
    with pytest.raises(InvalidSignatureError):
        QuotientSignature(1, 1, 1)  # n=1 forces m=0
    with pytest.raises(InvalidSignatureError):
        QuotientSignature(1, 3, 3)  # m must stay below n
    assert QuotientSignature(2, 3, 1).k == 6


def test_pair_polygon_vertices():
    cfg = pair_config()
    assert cfg.k == 2
    got = sorted((c.a.real, c.a.imag) for c in cfg.centers)
    assert abs(got[0][0] + 1.0) < 1e-12 and abs(got[0][1]) < 1e-12
    assert abs(got[1][0] - 1.0) < 1e-12 and abs(got[1][1]) < 1e-12
    assert all(c.b == 0.0 for c in cfg.centers)


def test_polygon_vertex_formula():
    # a_{i,j} = -conj(c_i) * rho^(-j) after principal-branch normalization
    sig = QuotientSignature(1, 4, 1)
    c = 1.2 + 0.4j
    cfg = make_polygon_config(sig, [c], [0.3])
    sector = 2.0 * math.pi / 4
    cn = c * cmath.exp(-2j * math.pi * math.floor(cmath.phase(c) % (2 * math.pi) / sector) / 4)
    rho = cmath.exp(2j * math.pi / 4)
    for j, center in enumerate(cfg.centers, start=1):
        assert abs(center.a - (-cn.conjugate() * rho ** (-j))) < 1e-12
        assert center.b == 0.3


def test_polygon_rejects_bad_radii():
    with pytest.raises(ValueError):
        make_polygon_config(QuotientSignature(1, 2, 1), [0j], [0.0])
    with pytest.raises(SingularFiberError):
        # c and -c share the same square
        make_polygon_config(QuotientSignature(2, 2, 1), [1.0, -1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        make_polygon_config(QuotientSignature(2, 2, 1), [1.0], [0.0, 1.0])


def test_distinct_deformation_values_across_decades_are_accepted():
    # each pair of c_i^n is compared at its own scale, not the largest one's
    cfg = make_polygon_config(QuotientSignature(3, 6, 1), [1.0, 1.1, 100.0], [0.0] * 3)
    assert cfg.k == 18
    akl = config_from_json({"n": 3, "m": 1, "mode": {"akl": 200}})
    assert akl.k == 600 and akl.akl_j_max == 200


def test_coincident_centers_rejected():
    with pytest.raises(SingularFiberError):
        CenterConfiguration(
            centers=(Center(0.0, 1.0 + 0j), Center(0.0, 1.0 + 0j)),
            signature=QuotientSignature(2, 1, 0),
        )


def test_first_coincident_pair_in_row_major_order_is_named():
    # centers 0 and 2, and 1 and 2, are within the collision tolerance;
    # centers 0 and 1 are not: the message names the first pair, (0, 2)
    heights = (0.0, 1.6e-9, 0.8e-9)
    with pytest.raises(SingularFiberError, match="centers 0 and 2 coincide"):
        CenterConfiguration(
            centers=tuple(Center(b, 1.0 + 0j) for b in heights),
            signature=QuotientSignature(3, 1, 0),
        )


def test_six_hundred_center_config_builds_quickly():
    config_from_json({"n": 3, "m": 1, "mode": {"akl": 2}})
    start = time.perf_counter()
    akl = config_from_json({"n": 3, "m": 1, "mode": {"akl": 200}})
    assert time.perf_counter() - start < 0.05
    assert akl.k == 600


def test_center_count_must_match_signature():
    with pytest.raises(ValueError):
        CenterConfiguration(
            centers=(Center(0.0, 1.0 + 0j),),
            signature=QuotientSignature(1, 2, 1),
        )


def test_gh_action_quarter_turn():
    sig = QuotientSignature(1, 4, 1)
    M, shift = verify.GH.action(sig)
    # the plane rotates by rho^(-m): a = 1 goes to -i
    v = M @ np.array([0.0, 0.0, 1.0, 0.0])
    assert np.max(np.abs(v - [0.0, 0.0, 0.0, -1.0])) < 1e-15
    # the fiber coordinate shifts by 2 pi / n
    theta, b, a1, a2 = M @ np.array([0.0, 0.0, 1.0, 0.0]) + shift
    assert abs(theta - math.pi / 2) < 1e-15
    assert b == 0.0
    assert abs(complex(a1, a2) - (-1j)) < 1e-15


@pytest.mark.parametrize("construction", [verify.GH, verify.HITCHIN])
@pytest.mark.parametrize("d,n,m", [(1, 4, 1), (2, 3, 2), (1, 5, 2)])
def test_action_generator_has_order_n(construction, d, n, m):
    # n steps of the generator's affine map return every point, theta
    # taken mod 2 pi (the fiber circle)
    M, shift = construction.action(QuotientSignature(d, n, m))
    x0 = np.array([0.3, -0.7, 1.1, 0.4])
    x = x0
    for _ in range(n):
        x = M @ x + shift
    dx = x - x0
    dx[0] = math.remainder(dx[0], 2.0 * math.pi)
    assert np.max(np.abs(dx)) < 1e-14


def test_gh_action_orbit_size():
    sig = QuotientSignature(1, 4, 1)
    M, shift = ghawking.action(sig)
    x = np.array([0.2, 0.5, 1.0, 0.3])
    pts = set()
    for _ in range(4):
        _, b, a1, a2 = x
        pts.add((round(b, 12), round(a1, 12), round(a2, 12)))
        x = M @ x + shift
    assert len(pts) == 4


def test_hitchin_action_weights():
    sig = QuotientSignature(1, 4, 1)
    zr, zi, yr, yi = hitchin.action(sig)[0] @ np.array(
        [1.0, 0.0, 1.0, 0.0]
    )
    assert abs(complex(zr, zi) - 1j) < 1e-15  # z picks up rho^m
    assert abs(complex(yr, yi) - (-1j)) < 1e-15  # y picks up rho^(-1)


def test_action_permutes_symmetric_centers():
    cfg = make_polygon_config(QuotientSignature(2, 3, 2), [1.0, 1.5 + 0.2j], [0.0, 0.7])
    rot = cmath.exp(-2j * math.pi * 2 / 3)
    for c in cfg.centers:
        image = rot * c.a
        best = min(abs(image - o.a) for o in cfg.centers if o.b == c.b)
        assert best < 1e-12


def deformation_coefficients(cfg):
    """prod_i (z + conj(a_i)), highest degree first."""
    return np.poly([-c.a.conjugate() for c in cfg.centers])


def test_defining_polynomial_pair():
    # centers a = +-1: x*y = (z+1)(z-1) = z^2 - 1
    coeffs = deformation_coefficients(pair_config())
    assert coeffs.shape == (3,)
    assert abs(coeffs[0] - 1.0) < 1e-15
    assert abs(coeffs[1]) < 1e-12  # invariance kills z^1
    assert abs(coeffs[2] + 1.0) < 1e-12
    assert abs(np.polyval(coeffs, 1.0 + 0j)) < 1e-12
    assert abs(np.polyval(coeffs, -1.0 + 0j)) < 1e-12


def test_defining_polynomial_invariant_gaps():
    # Z_3-invariant hexagon: prod_i (z + conj(a_i)) = prod_j (z^3 - c_j^3),
    # so only the z^0, z^3, z^6 coefficients survive
    cfg = make_polygon_config(QuotientSignature(2, 3, 2), [1.0, 1.5 + 0.2j], [0.0, 0.7])
    coeffs = deformation_coefficients(cfg)
    for power, coeff in enumerate(reversed(coeffs)):
        if power % 3 != 0:
            assert abs(coeff) < 1e-9, f"z^{power} coefficient should vanish"


def test_akl_config_layout():
    cfg = make_akl_config(2, 1, 4)
    assert cfg.mode == "akl"
    assert cfg.akl_j_max == 4
    assert cfg.k == 8
    dists = sorted({round(abs(c.a), 9) for c in cfg.centers})
    assert dists == [1.0, 4.0, 9.0, 16.0]
    with pytest.raises(ValueError):
        make_akl_config(2, 1, 0)


def test_config_from_json_round_trip():
    data = {
        "d": 2,
        "n": 2,
        "m": 1,
        "radii": [[1.0, 0.0], [1.3, 0.2]],
        "heights": [0.0, 1.0],
        "mode": "ale",
    }
    cfg = config_from_json(data)
    ref = make_polygon_config(
        QuotientSignature(2, 2, 1), [1.0 + 0j, 1.3 + 0.2j], [0.0, 1.0]
    )
    assert cfg.k == ref.k
    for a, b in zip(cfg.centers, ref.centers):
        assert a.b == b.b and abs(a.a - b.a) < 1e-15


@pytest.mark.parametrize(
    "doc",
    [
        {"d": 1, "n": 2, "m": 1, "radii": [[1e160, 0.0]]},
        {"d": 2, "n": 1, "m": 0, "radii": [[1e160, 0.0], [2e160, 0.0]]},
    ],
    ids=["power-overflows", "extent-overflows"],
)
def test_an_oversized_configuration_is_a_value_error(doc):
    # c**n overflowed with an OverflowError; with n = 1 the configuration
    # was built with extent() = inf, after an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            config_from_json(doc)


def test_config_from_json_defaults_and_strictness():
    cfg = config_from_json({"d": 1, "n": 2, "m": 1, "radii": [[1.0, 0.0]]})
    assert cfg.mode == "ale"
    assert all(c.b == 0.0 for c in cfg.centers)
    with pytest.raises(ValueError):
        config_from_json({"d": 1, "n": 2, "m": 1, "radii": [[1.0, 0.0]], "zz": 1})
    with pytest.raises(ValueError):
        config_from_json({"n": 2, "m": 1})
    with pytest.raises(ValueError):
        config_from_json({"d": True, "n": 2, "m": 1, "radii": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        config_from_json({"d": 1, "n": 2, "m": 1, "radii": [[1.0]]})
    with pytest.raises(InvalidSignatureError):
        config_from_json({"d": 1, "n": 4, "m": 2, "radii": [[1.0, 0.0]]})


@pytest.mark.parametrize(
    "key, value",
    [
        ("radii", [[True, 0.0]]),
        ("radii", [[1.0, False]]),
        ("heights", [True]),
        ("mode", {"akl": True}),
    ],
    ids=["radius-re", "radius-im", "height", "akl-level"],
)
def test_config_from_json_rejects_booleans_as_numbers(key, value):
    doc = {"d": 1, "n": 2, "m": 1, "radii": [[1.0, 0.0]]}
    if key == "mode":
        doc = {"n": 2, "m": 1}
    doc[key] = value
    with pytest.raises(ValueError):
        config_from_json(doc)


def test_config_from_json_modes():
    alf = config_from_json(
        {"d": 1, "n": 1, "m": 0, "radii": [[1.0, 0.0]], "mode": "alf"}
    )
    assert alf.mode == "alf"
    akl = config_from_json({"n": 2, "m": 1, "mode": {"akl": 3}})
    assert akl.mode == "akl" and akl.akl_j_max == 3 and akl.k == 6
    with pytest.raises(ValueError):
        config_from_json(
            {"d": 1, "n": 2, "m": 1, "radii": [[1.0, 0.0]], "mode": {"akl": 3}}
        )
    with pytest.raises(ValueError):
        config_from_json({"d": 1, "n": 2, "m": 1, "radii": [[1.0, 0.0]], "mode": "x"})


def test_geometry_helpers():
    cfg = pair_config()
    assert abs(cfg.extent() - 1.0) < 1e-12
    pts = cfg.points_r3()
    assert pts.shape == (2, 3)
