"""The lane kernels of the curvature path against their references.

tensorcalc's curvature assembly (matrix products over the lane axis) is
compared with the einsum chain it replaced (fd_reference.einsum_curvature),
hitchin.eta_jets (the height jet by implicit differentiation) with the two
jet Newton steps it replaced (fd_reference.newton_eta_jets), and the
circle-fibered metric jet assembled once per block with the per-point
assembly stacked.  Lane by lane, on blocks of both charts: the errors are
the same, the values agree to round-off.
"""

import contextlib

import numpy as np
import pytest

import test_acceptance as acceptance
from fd_reference import einsum_curvature, newton_eta_jets
from make_reference_reports import bent, bent_potential

from gravinst import ghawking, hitchin, tensorcalc, verify
from gravinst.sampling import SampleSpec
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
    _, chart, cfg, x = case
    state, _ = chart.state(cfg)(x)
    with bent_potential(f) if f else contextlib.nullcontext():
        block = chart.jet_of(state)
        points = tensorcalc.stack_lanes([ghawking.metric_of(s) for s in state])
    for part in ("val", "grad", "hess"):
        assert np.array_equal(getattr(block, part), getattr(points, part))
