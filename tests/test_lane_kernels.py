"""The lane kernels of the curvature path against their references.

tensorcalc's curvature assembly (matrix products over the lane axis) is
compared with the einsum chain it replaced (fd_reference.einsum_curvature),
hitchin.eta_jets (the height jet by implicit differentiation) with the two
jet Newton steps it replaced (fd_reference.newton_eta_jets), and the
circle-fibered metric jet and Kahler triple assembled once per block
with each point's assembly stacked.  Lane by lane, on blocks of both
charts: the errors are the same, the values agree to round-off.  Every
chart's state holds its good lanes on one leading axis, and every block
field gives its good lanes, none at all included.  A complex-chart lane
evaluated alone has the bits it has in its block at 8 centers and more,
where ghawking.center_sum fixes the order of the center sums.
"""

import contextlib
import dataclasses

import numpy as np
import pytest

import test_acceptance as acceptance
from fd_reference import einsum_curvature, newton_eta_jets
from make_reference_reports import bent, bent_potential

from gravinst import ghawking, hitchin, tensorcalc, verify
from gravinst.sampling import SampleSpec
from gravinst.singularities import (
    Center,
    CenterConfiguration,
    QuotientSignature,
    make_polygon_config,
)
from gravinst.tensorcalc import Jet

CONFIGS = (
    acceptance.hexagon,
    acceptance.pair_generic,
    acceptance.square4,
    acceptance.two_level,
    acceptance.taubnut,
    acceptance.flat,
)
SPEC = SampleSpec(count=16, seed=5)


def chart_blocks():
    """(config name, chart, config, the chart's sample block) for every
    chart of every config."""
    for build in CONFIGS:
        cfg = build()
        for chart in verify.CONSTRUCTIONS:
            if chart.applies(cfg):
                yield build.__name__, chart, cfg, np.array(chart.stream(cfg, SPEC))


CASES = list(chart_blocks())
IDS = [f"{name}-{chart.name}" for name, chart, _, _ in CASES]


def with_bad_lanes(jet: Jet) -> Jet:
    """The jet with two lanes prepended: one whose Hessian is not finite,
    one whose metric is singular (all ones, a positive diagonal)."""
    val, grad, hess = (np.concatenate([a[:2], a]) for a in (jet.val, jet.grad, jet.hess))
    hess[0, 1, 2, 3, 3] = np.inf
    val[1] = 1.0
    return Jet(val, grad, hess)


def same_errors(a, b):
    assert [type(e) for e in a] == [type(e) for e in b]
    assert [str(e) for e in a] == [str(e) for e in b]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_curvature_assembly_matches_the_einsum_chain(case):
    _, chart, cfg, x = case
    jet, chart_errors = chart.jet(cfg)(x)
    assert not any(chart_errors)
    jet = with_bad_lanes(jet)
    block = np.concatenate([x[:2], x])
    got, errors = tensorcalc.curvature_at(lambda _: (jet, [None] * len(block)), block)
    want, want_errors = einsum_curvature(jet)
    same_errors(errors, want_errors)
    assert errors[0] is not None and errors[1] is not None and not any(errors[2:])
    for new, old in zip(got, want, strict=True):
        gamma_scale = np.max(np.abs(old.christoffel))
        assert np.max(np.abs(new.christoffel - old.christoffel)) <= 1e-13 * gamma_scale
        assert abs(new.riem_norm_sq - old.riem_norm_sq) <= 1e-10 * max(old.riem_norm_sq, 1.0)
        riem_scale = max(np.max(np.abs(old.riemann)), 1.0)
        assert np.max(np.abs(new.riemann - old.riemann)) <= 1e-8 * riem_scale
        assert np.array_equal(new.g, old.g)


def failing_lane(chart, cfg) -> list:
    """A point where the chart's state fails: a center of the
    circle-fibered chart, a point below the complex chart's floor."""
    if chart is verify.GH:
        c = cfg.centers[0]
        return [0.3, c.b, c.a.real, c.a.imag]
    return [0.3, 0.2, 1e-9, 0.0]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_every_chart_state_holds_its_good_lanes_on_a_leading_axis(case):
    # the state contract of verify.Construction: a block's state is its
    # good lanes' values over one leading axis, which jet_of and kahler_of
    # take as they are
    _, chart, cfg, x = case
    bad = failing_lane(chart, cfg)
    state, errors = chart.state(cfg)(np.concatenate([[bad], x[:5], [bad], x[5:]]))
    good = len(x)
    assert [e is None for e in errors] == [False] + [True] * 5 + [False] + [True] * (good - 5)
    for part in state:
        assert (part.val if isinstance(part, Jet) else part).shape[0] == good
    assert chart.jet_of(state).val.shape == (good, 4, 4)
    g, omega, J = chart.kahler_of(state)
    assert g.shape == omega.val.shape == (good, 4, 4)
    # J over the lanes, or a constant array where its components are
    assert (J.val if isinstance(J, Jet) else J).shape in ((good, 4, 4), (4, 4))


HITCHIN_CASES = [c for c in CASES if c[1] is verify.HITCHIN]


@pytest.mark.parametrize("case", HITCHIN_CASES, ids=[f"{c[0]}-hitchin" for c in HITCHIN_CASES])
def test_eta_jets_match_two_newton_steps(case):
    _, _, cfg, x = case
    # a lane below the chart floor and a lane on a puncture lead the block
    a = cfg.centers[0].a
    bad = np.array([[0.3, 0.2, 1e-9, 0.0], [-a.real, a.imag, 1.0, 0.5]])
    block = np.concatenate([bad, x])
    got, errors = hitchin.eta_jets(cfg, block)
    want, want_errors = newton_eta_jets(cfg, block)
    same_errors(errors, want_errors)
    assert errors[0] is not None and errors[1] is not None and not any(errors[2:])
    for new, old in zip(got, want, strict=True):
        for part in ("val", "grad", "hess"):
            ref = getattr(old, part)
            scale = np.max(np.abs(ref), axis=tuple(range(1, ref.ndim)), keepdims=True)
            assert np.all(np.abs(getattr(new, part) - ref) <= 1e-13 * scale)


GH_CASES = [c for c in CASES if c[1] is verify.GH]


@pytest.mark.parametrize("f", [None, bent], ids=["plain", "transformed"])
@pytest.mark.parametrize("case", GH_CASES, ids=[f"{c[0]}-gh" for c in GH_CASES])
def test_circle_fibered_block_jet_is_the_stacked_point_jets(case, f):
    # the metric jet, g, omega and J of a block, each assembled in one call
    # from the block's state, against each point's own jets
    # (ghawking._point_jets) assembled on its own
    _, chart, cfg, x = case
    state, errors = chart.state(cfg)(x)
    assert not any(errors)
    points = [ghawking._point_jets(cfg, tuple(p)) for p in x.tolist()]
    with bent_potential(f) if f else contextlib.nullcontext():
        block = (chart.jet_of(state), *chart.kahler_of(state))
        each = [(ghawking.metric_of(s), *ghawking.kahler_of(s)) for s in points]
    for got, *want in zip(block, *each, strict=True):
        if isinstance(got, Jet):
            for part in ("val", "grad", "hess"):
                assert np.array_equal(getattr(got, part), np.stack([getattr(w, part) for w in want]))
        else:
            assert np.array_equal(got, np.stack(want))


def lane_count(value) -> int:
    """The length of a field value's leading lane axis, the same for
    every part of a tuple value."""
    parts = value if isinstance(value, tuple) else (value,)
    (count,) = {len(p.val if isinstance(p, Jet) else p) for p in parts}
    return count


def field_blocks():
    """(name, field, a block of good lanes and two bad ones, a block of
    bad lanes only) for every block field."""
    cfg = acceptance.hexagon()
    for chart in verify.CONSTRUCTIONS:
        x = np.array(chart.stream(cfg, SampleSpec(count=3, seed=5)))
        bad = np.array([failing_lane(chart, cfg)] * 2)
        blocks = (np.concatenate([bad[:1], x, bad[1:]]), bad)
        jet = chart.jet(cfg)
        yield f"{chart.name}-metric", chart.metric(cfg), *blocks
        yield f"{chart.name}-state", chart.state(cfg), *blocks
        yield f"{chart.name}-kahler", tensorcalc.assembled(chart.state(cfg), chart.kahler_of), *blocks
        yield f"{chart.name}-curvature", lambda b, jet=jet: tensorcalc.curvature_at(jet, b), *blocks
    # base points on the y = 0 locus below a center have no lift
    c = cfg.centers[0]
    locus = np.array([[0.5, c.b - 1.0, c.a.real, c.a.imag], [0.1, c.b - 2.0, c.a.real, c.a.imag]])
    base = verify.GH.stream(cfg, SampleSpec(count=3, seed=5))
    lift = lambda b: hitchin.base_to_chart(cfg, b)  # noqa: E731
    yield "base_to_chart", lift, np.concatenate([base, locus]), locus
    # (Re z, Im z, |y|^2) lanes: a huge target and a height-0 puncture with
    # a tiny one stall
    a = c.a
    stalled = np.array([[-3.0, -3.0, 1e192], [-a.real, a.imag, 1e-50]])
    solve = lambda v: hitchin.solve_b(cfg, v[:, 0] + 1j * v[:, 1], v[:, 2])  # noqa: E731
    yield "solve_b", solve, np.concatenate([[[0.4, -0.3, 2.0]], stalled]), stalled
    # three centers on one vertical axis: the outer pair's segment is blocked
    tower = CenterConfiguration(
        centers=(Center(-1.0, 0j), Center(0.0, 0j), Center(1.0, 0j)),
        signature=QuotientSignature(3, 1, 0),
    )
    period = lambda p: ghawking.cycle_period(tower, p[:, 0], p[:, 1])  # noqa: E731
    yield "cycle_period", period, np.array([[0, 2], [0, 1], [1, 2], [2, 0]]), np.array([[0, 2], [2, 0]])
    singular = np.stack([np.ones((4, 4)), np.diag([1.0, 1.0, 1.0, -1.0])])
    mixed = np.concatenate([[np.eye(4)], singular, [2.0 * np.eye(4)]])
    yield "invert_metric", tensorcalc.invert_metric, mixed, singular


FIELDS = list(field_blocks())


@pytest.mark.parametrize("name, field, mixed, bad", FIELDS, ids=[f[0] for f in FIELDS])
def test_every_field_gives_its_good_lanes_zero_included(name, field, mixed, bad):
    # the field contract of tensorcalc: the value's leading axis holds
    # exactly the lanes whose error is None, and a block with no good lane
    # gives a value of no lanes, not None
    for block, good in ((mixed, len(mixed) - 2), (bad, 0)):
        value, errors = field(block)
        assert len(errors) == len(block) and errors.count(None) == good
        assert lane_count(value) == good
        if name.endswith("-curvature"):
            # one bundle with every part on the lane axis, and each lane
            # what the field gives for that lane alone, bit for bit
            assert isinstance(value, tensorcalc.CurvatureBundle)
            parts = [getattr(value, f.name) for f in dataclasses.fields(value)]
            assert [len(p) for p in parts] == [good] * len(parts)
            rows = block[[e is None for e in errors]]
            for i, row in enumerate(rows):
                alone = tensorcalc.every_lane(field(row[None]))
                for f in dataclasses.fields(value):
                    got, want = getattr(value[i], f.name), getattr(alone[0], f.name)
                    assert np.shape(got) == np.shape(want) and got.tobytes() == want.tobytes()


def polygon(k: int) -> CenterConfiguration:
    """k centers on two rings of k / 2, the hexagon's layout at any k."""
    return make_polygon_config(
        QuotientSignature(2, k // 2, 1), [1.0 + 0j, 1.4 + 0.3j], [0.0, 0.7]
    )


def same_bits(got, want):
    assert np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [8, 16, 24])
def test_complex_chart_lanes_alone_are_their_block_bit_for_bit(k):
    # from 8 centers on, numpy's sums round by their order and layout: each
    # lane of the state, the float metric and the curvature, evaluated
    # alone, gives the bits it has in its block, whose first lane fails
    cfg = polygon(k)
    x = np.concatenate([[failing_lane(verify.HITCHIN, cfg)], verify.HITCHIN.stream(cfg, SPEC)])
    jet = verify.HITCHIN.jet(cfg)
    eta, errors = hitchin.eta_jets(cfg, x)
    assert errors[0] is not None and not any(errors[1:])
    g, _ = hitchin.metric_at(cfg, x)
    bundle, _ = tensorcalc.curvature_at(jet, x)
    for i, row in enumerate(x[1:]):
        alone, _ = hitchin.eta_jets(cfg, row[None])
        for got, want in zip(alone, eta, strict=True):
            for part in ("val", "grad", "hess"):
                same_bits(getattr(got, part)[0], getattr(want, part)[i])
        same_bits(hitchin.metric_at(cfg, row[None])[0][0], g[i])
        lone = tensorcalc.curvature_at(jet, row[None])[0][0]
        for f in dataclasses.fields(bundle):
            same_bits(getattr(lone, f.name), getattr(bundle[i], f.name))


def test_center_sum_adds_in_the_centers_order_whatever_the_layout():
    rng = np.random.default_rng(0)
    shape = (24, 60, 4, 4)
    terms = rng.standard_normal(shape) * np.exp(5.0 * rng.standard_normal(shape))
    running = terms[0].copy()
    for t in terms[1:]:
        running += t
    keep = rng.random(60) < 0.7
    jet = Jet(terms[:, :, 0, 0], terms[:, :, 0], terms)
    block = jet[:, keep]
    # boolean indexing leaves the center axis innermost in memory
    assert not block.val.flags.c_contiguous
    total = ghawking.center_sum(block)
    same_bits(total.val, running[keep, 0, 0])
    same_bits(total.grad, running[keep, 0])
    same_bits(total.hess, running[keep])
    # one lane, with or without its lane axis
    same_bits(ghawking.center_sum(terms[:, 7, 0, 0]), running[7, 0, 0])
    same_bits(ghawking.center_sum(terms[:, 7:8, 0, 0]), running[7:8, 0, 0])


@pytest.mark.parametrize("chart", verify.CONSTRUCTIONS, ids=lambda c: c.name)
def test_ricci_samples_of_a_block_with_no_good_lane_are_flagged(chart):
    cfg = acceptance.hexagon()
    samples = verify.ricci_samples(chart, cfg, [failing_lane(chart, cfg)] * 3)
    expected = "PoleError" if chart is verify.GH else "ChartBoundaryError"
    assert [s.error for s in samples] == [expected] * 3
