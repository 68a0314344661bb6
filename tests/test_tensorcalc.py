"""Tensor calculus and its derivative sources against closed-form geometry.

The product of two round spheres and flat space in polar coordinates have
known curvature; they pin down every index convention in curvature_at
before the instanton metrics are trusted to it.  Their derivatives come
from the finite-difference reference, which is itself checked here.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from gravinst import ghawking, sampling, tensorcalc, verify
from gravinst.errors import DegenerateMetricError, NumericOverflowError
from gravinst.tensorcalc import (
    Jet,
    curvature_at,
    exterior_derivative,
    invert_metric,
    nijenhuis_at,
)
from gravinst.sampling import SampleSpec
from gravinst.singularities import QuotientSignature, make_polygon_config
from fd_reference import at_point, default_step, differentiate_field, fd_derivatives

A_RAD = 1.3
B_RAD = 0.9


def sphere_product(x) -> np.ndarray:
    # S^2(A_RAD) x S^2(B_RAD) in spherical angles (t1, p1, t2, p2)
    t1, _, t2, _ = x
    return np.diag(
        [
            A_RAD**2,
            A_RAD**2 * math.sin(t1) ** 2,
            B_RAD**2,
            B_RAD**2 * math.sin(t2) ** 2,
        ]
    )


def polar_flat(x) -> np.ndarray:
    r = x[0]
    return np.diag([1.0, r * r, 1.0, 1.0])


SPHERE_PT = (1.0, 0.7, 0.8, 0.3)


def fd_curvature(field, x, step=1e-3):
    return at_point(lambda block: curvature_at(fd_derivatives(field, step), block), x)


def test_sphere_product_curvature():
    bun = fd_curvature(sphere_product, SPHERE_PT)
    assert abs(bun.scalar - (2.0 / A_RAD**2 + 2.0 / B_RAD**2)) < 1e-8
    assert abs(bun.riem_norm_sq - (4.0 / A_RAD**4 + 4.0 / B_RAD**4)) < 1e-7
    # Einstein blockwise: Ric = (1/rad^2) g on each factor
    expected = np.diag([1.0, math.sin(1.0) ** 2, 1.0, math.sin(0.8) ** 2])
    assert np.max(np.abs(bun.ricci - expected)) < 1e-8


def test_sphere_product_ricci_norm_definition():
    bun = fd_curvature(sphere_product, SPHERE_PT)
    g = sphere_product(SPHERE_PT)
    (ginv,), _ = invert_metric(g[None])
    norm_sq = np.einsum("ij,kl,ik,jl->", bun.ricci, bun.ricci, ginv, ginv)
    assert abs(bun.ricci_norm - math.sqrt(norm_sq)) < 1e-12


def test_homothety_scaling():
    lam = 3.7

    def scaled(x):
        return lam * sphere_product(x)

    base = fd_curvature(sphere_product, SPHERE_PT)
    big = fd_curvature(scaled, SPHERE_PT)
    target = base.riem_norm_sq / lam**2
    assert abs(big.riem_norm_sq - target) / target < 1e-8


def test_polar_coordinates_are_flat():
    pt = (1.7, 0.4, -0.2, 0.9)
    bun = fd_curvature(polar_flat, pt)
    assert bun.riem_norm_sq < 1e-15
    assert np.max(np.abs(bun.ricci)) < 1e-9
    # Gamma^r_{theta theta} = -r despite zero curvature
    assert abs(bun.christoffel[0, 1, 1] + 1.7) < 1e-11


def test_richardson_step_halving_agreement():
    for mi in [(0, 1, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0)]:
        d_h = differentiate_field(sphere_product, SPHERE_PT, mi, step=2e-3)
        d_h2 = differentiate_field(sphere_product, SPHERE_PT, mi, step=1e-3)
        rel = np.max(np.abs(d_h - d_h2)) / max(1.0, np.max(np.abs(d_h2)))
        assert rel < 1e-8


def test_differentiate_field_zero_index_returns_value():
    val = differentiate_field(sphere_product, SPHERE_PT, (0, 0, 0, 0))
    assert np.array_equal(val, sphere_product(SPHERE_PT))


def test_differentiate_field_rejects_bad_multi_index():
    with pytest.raises(ValueError):
        differentiate_field(sphere_product, SPHERE_PT, (3, 0, 0, 0))
    with pytest.raises(ValueError):
        differentiate_field(sphere_product, SPHERE_PT, (1, 0, 0))


def test_bad_steps_are_rejected():
    for step in (0.0, -1e-3, float("nan"), (1e-3, 1e-3, 1e-3, float("inf"))):
        with pytest.raises(ValueError):
            fd_curvature(sphere_product, SPHERE_PT, step)
        with pytest.raises(ValueError):
            differentiate_field(sphere_product, SPHERE_PT, (1, 1, 0, 0), step=step)


def test_exterior_derivative_polynomial_form():
    def wfield(x):
        w = np.zeros((4, 4))
        w[0, 1] = x[2] ** 2
        w[1, 0] = -w[0, 1]
        w[2, 3] = x[0] * x[1]
        w[3, 2] = -w[2, 3]
        return w

    pt = (0.3, -1.2, 0.8, 0.5)
    dw = exterior_derivative(at_point(fd_derivatives(wfield, 1e-2), pt).partials()[0])
    # triples (012), (013), (023), (123)
    assert np.max(np.abs(dw - np.array([1.6, 0.0, -1.2, 0.3]))) < 1e-10


J0 = np.array(
    [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)


def test_nijenhuis_constant_j_vanishes():
    pt = (0.6, -0.3, 1.1, 0.2)
    nij = nijenhuis_at(J0, at_point(fd_derivatives(lambda x: J0, 1e-3), pt).partials()[0])
    assert np.max(np.abs(nij)) == 0.0


def test_nijenhuis_detects_non_integrable_structure():
    # conjugating J0 by the position-dependent shear I + x0*E23 keeps
    # J^2 = -I but breaks integrability
    def jfield(x):
        x0 = x[0]
        s = np.eye(4)
        s[2, 3] = x0
        si = np.eye(4)
        si[2, 3] = -x0
        return s @ J0 @ si

    pt = (0.6, -0.3, 1.1, 0.2)
    nij = nijenhuis_at(jfield(pt), at_point(fd_derivatives(jfield, 1e-3), pt).partials()[0])
    assert abs(nij[2, 1, 3] - 2 * 0.6) < 1e-10
    assert np.max(np.abs(nij)) == pytest.approx(1.2, abs=1e-10)


FROZEN_SPD = np.array(
    [
        [2.0, 0.3, -0.1, 0.2],
        [0.3, 1.5, 0.4, 0.0],
        [-0.1, 0.4, 3.0, -0.2],
        [0.2, 0.0, -0.2, 1.1],
    ]
)


def test_invert_metric_inverse_property():
    (inv,), _ = invert_metric(FROZEN_SPD[None])
    assert np.max(np.abs(FROZEN_SPD @ inv - np.eye(4))) < 1e-12


def test_invert_metric_handles_badly_scaled_blocks():
    g = np.diag([2e-5, 2e-5, 3e9, 3e9])
    g[0, 1] = g[1, 0] = 1e-5
    (inv,), _ = invert_metric(g[None])
    assert np.max(np.abs(g @ inv - np.eye(4))) < 1e-10


def test_invert_metric_rejects_degenerate():
    g = FROZEN_SPD.copy()
    g[3, 3] = 0.0
    sing = np.outer(np.ones(4), np.ones(4)) + np.eye(4) * 1e-17
    for bad in (g, sing):
        inv, (err,) = invert_metric(bad[None])
        assert inv.shape == (0, 4, 4) and isinstance(err, DegenerateMetricError)


def test_invert_metric_block_keeps_each_lane():
    # a singular lane fails alone (a stacked np.linalg.inv would reject
    # the whole block), and every good lane is its single-metric inverse
    block = np.stack(
        [FROZEN_SPD, np.ones((4, 4)), np.diag([1.0, 1.0, 1.0, -1.0]), 2.0 * FROZEN_SPD]
    )
    inv, errors = invert_metric(block)
    assert [type(e).__name__ if e else None for e in errors] == [
        None,
        "DegenerateMetricError",
        "DegenerateMetricError",
        None,
    ]
    assert np.array_equal(inv, np.concatenate([invert_metric(block[[n]])[0] for n in (0, 3)]))
    # no good lane: a value of no lanes
    assert invert_metric(block[1:3])[0].shape == (0, 4, 4)


def test_invert_metric_rejects_an_ill_conditioned_lane():
    # nearly parallel rows: not singular, but the condition number of the
    # equilibrated matrix is about 2e14, past CONDITION_LIMIT
    g = np.eye(4)
    g[0, 1] = g[1, 0] = 1.0 - 1e-14
    inv, errors = invert_metric(np.stack([np.eye(4), g]))
    assert np.array_equal(inv, [np.eye(4)]) and errors[0] is None
    assert isinstance(errors[1], DegenerateMetricError)
    assert "condition number" in str(errors[1])


def test_default_step_uses_pair_scales():
    steps = default_step((3.0, 4.0, 0.0, 0.0), rel_step=1e-3)
    assert np.allclose(steps, [5e-3, 5e-3, 1e-3, 1e-3])


def constant_jet(value):
    """The field of the constant matrix value, every lane good."""
    return lambda x: (Jet.constant(np.stack([value] * len(x))), [None] * len(x))


ORIGIN = (0.0, 0.0, 0.0, 0.0)


def test_curvature_rejects_wrong_shape():
    with pytest.raises(ValueError):
        curvature_at(constant_jet(np.eye(3)), [ORIGIN])


def test_non_finite_field_is_an_overflow_error():
    bundle, (err,) = curvature_at(constant_jet(np.full((4, 4), np.inf)), [ORIGIN])
    assert len(bundle) == 0 and isinstance(err, NumericOverflowError)


def test_a_curvature_assembly_that_leaves_the_floats_is_its_lanes_error():
    # a finite jet whose Christoffel products overflow: that lane gets
    # NumericOverflowError, with no RuntimeWarning, and the flat lane stays
    grad = np.zeros((2, 4, 4, 4))
    grad[1] = 1e200
    jet = Jet(np.stack([np.eye(4)] * 2), grad, np.zeros((2, 4, 4, 4, 4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bundles, errors = curvature_at(lambda x: (jet, [None, None]), [ORIGIN, ORIGIN])
    (flat,) = bundles
    assert flat.riem_norm_sq == 0.0 and errors[0] is None
    assert isinstance(errors[1], NumericOverflowError) and "assembly" in str(errors[1])


def test_curvature_rejects_asymmetric_metric():
    g = np.eye(4)
    g[0, 1] = 1e-3
    with pytest.raises(ValueError):
        curvature_at(constant_jet(g), [ORIGIN])


# --- exact jets ---


def composite(x0, x1, x2, x3):
    """Exercises every jet operation; works on jets and on floats."""
    terms = [x0 * x0 + x1, 2.0 - x3 / 3.0, 1.5 + x2 * x0]
    if isinstance(x0, Jet):
        stacked = Jet.stack(terms)
        picked = Jet.where(stacked.val > 1.2, stacked, 1.0 / stacked)
        total = picked.sum()
        root, logged = stacked[0].sqrt(), stacked[1].log()
    else:
        picked = [t if t > 1.2 else 1.0 / t for t in terms]
        total = sum(picked)
        root, logged = math.sqrt(terms[0]), math.log(terms[1])
    return total * root - logged / (x2 - 5.0) + (1.0 - x1) * x3


def test_jet_matches_finite_differences_of_the_same_expression():
    pt = (0.7, 0.4, 1.1, -0.6)
    jet = composite(*Jet.seed(pt))
    assert abs(jet.val - composite(*pt)) < 1e-15

    def field(x):
        return np.array(composite(*x))

    for i in range(4):
        e = [0, 0, 0, 0]
        e[i] = 1
        assert abs(jet.grad[i] - differentiate_field(field, pt, e, step=1e-3)) < 1e-9
        for j in range(4):
            mi = list(e)
            mi[j] += 1
            fd = differentiate_field(field, pt, mi, step=1e-3)
            assert abs(jet.hess[i, j] - fd) < 1e-7
    assert np.array_equal(jet.hess, jet.hess.T)


def test_jet_sums_index_and_stacks_value_axes():
    # negative axes, an Ellipsis and new axes count among the value axes,
    # never the derivative axes behind them
    pt = (0.7, 0.4, 1.1, -0.6)
    c = Jet.seed(pt)
    terms = [c[0] * c[1], c[2] * c[2] + c[3], c[0] / c[3]]
    vec = Jet.stack(terms)
    total = vec.sum(axis=-1)
    assert total.grad.shape == (4,) and total.hess.shape == (4, 4)
    explicit = vec.sum(axis=0)
    for part in ("val", "grad", "hess"):
        assert np.array_equal(getattr(total, part), getattr(explicit, part))
    # lanes: a block of points, the terms on a last value axis
    block = np.array([pt, (0.2, -0.3, 0.5, 0.9), (1.5, 0.1, -0.4, 2.0)])
    b = Jet.seed(block)
    lanes = Jet.stack([b[0] * b[1], b[2] * b[2] + b[3], b[0] / b[3]], axis=-1)
    assert lanes.val.shape == (3, 3) and lanes.grad.shape == (3, 3, 4)
    summed = lanes.sum(axis=-1)
    leading = Jet.stack([lanes[:, k] for k in range(3)]).sum(axis=0)
    assert summed.grad.shape == (3, 4) and summed.hess.shape == (3, 4, 4)
    for part in ("val", "grad", "hess"):
        assert np.array_equal(getattr(summed, part), getattr(leading, part))
        # the first lane is the point's own jet
        assert np.allclose(getattr(summed[0], part), getattr(total, part), rtol=1e-15, atol=0.0)
    new = lanes[..., None]
    assert new.val.shape == (3, 3, 1) and new.grad.shape == (3, 3, 1, 4)
    assert new.hess.shape == (3, 3, 1, 4, 4)
    assert np.array_equal(new.grad[..., 0, :], lanes.grad)
    assert np.array_equal(lanes[..., 1].hess, lanes.hess[:, 1])
    for bad in (
        lambda: lanes.sum(axis=2),
        lambda: lanes.sum(axis=-3),
        lambda: Jet.stack(terms, axis=2),
    ):
        with pytest.raises(ValueError):
            bad()


def stereographic_sphere_jet(x):
    """Unit round S^4 in stereographic coordinates, g = 4 / (1 + |x|^2)^2,
    as a jet field on the block x."""
    c = Jet.seed(x)
    s = 1.0 + c[0] * c[0] + c[1] * c[1] + c[2] * c[2] + c[3] * c[3]
    return (4.0 / (s * s))[:, None, None] * np.eye(4), [None] * len(x)


def test_curvature_from_supplied_derivatives():
    # constant curvature 1 in dimension 4: Ric = 3 g, R = 12, |Rm|^2 = 24
    pt = (0.3, -0.5, 0.8, 0.1)
    exact = at_point(lambda x: curvature_at(stereographic_sphere_jet, x), pt)
    g = at_point(stereographic_sphere_jet, pt).val
    assert abs(exact.scalar - 12.0) < 1e-12
    assert abs(exact.riem_norm_sq - 24.0) < 1e-12
    assert np.max(np.abs(exact.ricci - 3.0 * g)) < 1e-12
    fd = fd_curvature(lambda x: at_point(stereographic_sphere_jet, x).val, pt)
    assert abs(fd.riem_norm_sq - 24.0) < 1e-7
    assert np.max(np.abs(fd.riemann - exact.riemann)) < 1e-7


def test_supplied_derivatives_are_validated():
    bad_shape = Jet(np.eye(4)[None], np.zeros((1, 4, 4, 4)), np.zeros((1, 4, 4, 4)))
    not_finite = Jet.constant(np.eye(4)[None])
    not_finite.hess[0, 0, 0, 1, 2] = np.nan
    infinite_gradient = Jet.constant(np.eye(4)[None])
    infinite_gradient.grad[0, 2, 2, 3] = np.inf
    with pytest.raises(ValueError):
        curvature_at(lambda x: (bad_shape, [None]), [ORIGIN])
    for jet in (not_finite, infinite_gradient):
        bundle, (err,) = curvature_at(lambda x, jet=jet: (jet, [None]), [ORIGIN])
        assert len(bundle) == 0 and isinstance(err, NumericOverflowError)


def test_riemann_norm_is_the_full_contraction():
    bun = fd_curvature(sphere_product, SPHERE_PT)
    (ginv,), _ = invert_metric(bun.g[None])
    low = np.einsum("lm,mijk->lijk", bun.g, bun.riemann)
    full = np.einsum("lijk,abcd,la,ib,jc,kd->", low, low, ginv, ginv, ginv, ginv)
    assert abs(bun.riem_norm_sq - full) <= 1e-14 * full


# --- the finite-difference reference ---


def test_fd_curvature_calls_the_metric_once_per_distinct_point(monkeypatch):
    # the four first derivatives and the ten second derivatives of the
    # circle-fibered metric share 129 distinct stencil points, x among
    # them, evaluated in one call on the block of them
    pair = make_polygon_config(QuotientSignature(1, 2, 1), [1.0 + 0j], [0.0])
    x = sampling.gh_points(pair, SampleSpec(count=1, seed=0))[0]
    g_field = verify.GH.metric(pair)
    g = at_point(g_field, x)
    calls = []
    metric_at = ghawking.metric_at

    def counted(*args, **kwargs):
        calls.append(args[1])
        return metric_at(*args, **kwargs)

    monkeypatch.setattr(ghawking, "metric_at", counted)
    bundle = at_point(lambda b: curvature_at(fd_derivatives(g_field, blocks=True), b), x)
    (block,) = calls
    assert block.shape == (129, 4)
    points = {tuple(p) for p in block.tolist()}
    assert len(points) == 129 and tuple(x) in points
    assert bundle.g.tobytes() == g.tobytes()


# a degree-4 polynomial in the four coordinates, {exponents: coefficient}
POLY = {
    (4, 0, 0, 0): 0.3,
    (1, 1, 1, 1): -1.2,
    (2, 2, 0, 0): 0.7,
    (0, 1, 3, 0): 0.5,
    (0, 0, 2, 1): -0.9,
    (1, 0, 0, 2): 1.1,
    (0, 3, 0, 0): 0.25,
    (0, 0, 0, 1): 2.0,
    (0, 0, 0, 0): -0.4,
}


def poly_value(terms, x):
    return sum(c * math.prod(xi**e for xi, e in zip(x, exps)) for exps, c in terms.items())


def poly_derivative(terms, mi):
    out = {}
    for exps, c in terms.items():
        if all(e >= k for e, k in zip(exps, mi)):
            rest = tuple(e - k for e, k in zip(exps, mi))
            factor = math.prod(math.perm(e, k) for e, k in zip(exps, mi))
            out[rest] = out.get(rest, 0.0) + c * factor
    return out


def test_differentiate_field_is_exact_on_a_quartic():
    # Richardson extrapolation cancels the h^2 error and the h^4 error needs
    # a fifth derivative, so every weight row of the table is exact here
    def field(x):
        return np.array([poly_value(POLY, x), 2.0 * poly_value(POLY, x) - x[2] ** 3])

    pt = (0.3, -0.7, 0.5, 1.1)
    multi_indices = [mi for mi in itertools.product(range(3), repeat=4) if sum(mi) <= 2]
    multi_indices.append((2, 2, 0, 0))
    assert len(multi_indices) == 16
    for mi in multi_indices:
        exact = poly_value(poly_derivative(POLY, mi), pt)
        cubic = -poly_value(poly_derivative({(0, 0, 3, 0): 1.0}, mi), pt)
        fd = differentiate_field(field, pt, mi, step=0.1)
        assert np.max(np.abs(fd - [exact, 2.0 * exact + cubic])) < 1e-8, mi
