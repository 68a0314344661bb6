"""Complex-chart metric: implicit solver, metric algebra, decay fit."""

import cmath
import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gravinst import ghawking, hitchin, sampling, tensorcalc, verify
from gravinst.errors import (
    ChartBoundaryError,
    ConvergenceError,
    FitDomainError,
    GeometryError,
    PoleError,
    SingularFiberError,
)
from gravinst.sampling import SampleSpec
from gravinst.singularities import (
    Center,
    CenterConfiguration,
    QuotientSignature,
    make_polygon_config,
)
from fd_reference import (
    at_point,
    chart_step,
    fd_derivatives,
    float_base_to_chart,
    float_solve_b,
    log_lhs,
)


def pair_config():
    return make_polygon_config(QuotientSignature(1, 2, 1), [1.0 + 0j], [0.0])


def square4_config():
    return make_polygon_config(
        QuotientSignature(2, 2, 1), [1.0 + 0j, 1.6 + 0j], [0.0, 0.0]
    )


def origin_config():
    return CenterConfiguration(
        centers=(Center(0.0, 0j),), signature=QuotientSignature(1, 1, 0)
    )


def coplanar_pair():
    return CenterConfiguration(
        centers=(Center(0.0, 1.0 + 0j), Center(0.0, -1.0 + 0j)),
        signature=QuotientSignature(2, 1, 0),
    )


def hexagon_config():
    return make_polygon_config(
        QuotientSignature(2, 3, 2), [1.0 + 0j, 1.4 + 0.3j], [0.0, 0.7]
    )


# --- implicit solver ---


def solve_one(cfg, z, y_sq):
    """solve_b on the one lane (z, |y|^2): its root as a float, or its
    error raised."""
    (root,) = tensorcalc.every_lane(hitchin.solve_b(cfg, [z], [y_sq]))
    return float(root)


def test_solve_b_closed_forms():
    # mathematical roots 1/2, 0, 0; the double evaluation of the product
    # cannot separate roots closer than one ulp of the factor scale, so
    # agreement is asserted at machine precision
    roots, errors = hitchin.solve_b(origin_config(), [0j, 1.0 + 0j], 1.0)
    assert errors == [None, None]
    assert abs(roots[0] - 0.5) < 1e-15
    assert abs(roots[1]) < 1e-15
    assert abs(solve_one(coplanar_pair(), 0j, 1.0)) < 1e-15
    # the roots are floats whose back-substitution residual solve_b has
    # already held to SOLVE_TOL
    assert roots.dtype == float
    assert abs(hitchin.implicit_lhs(origin_config(), 0j, roots[0]) - 1.0) <= hitchin.SOLVE_TOL


def test_solve_b_back_substitution_random():
    cfg = square4_config()
    rng = np.random.default_rng(12)
    inputs = [(complex(*(rng.uniform(-6, 6, 2))), 10.0 ** rng.uniform(-3, 4)) for _ in range(200)]
    z, y = (np.array(v) for v in zip(*inputs))
    roots = tensorcalc.every_lane(hitchin.solve_b(cfg, z, y))
    for (z, y_sq), b in zip(inputs, roots.tolist()):
        lhs = math.exp(
            sum(
                math.log((b - c.b) + math.hypot(b - c.b, abs(z.conjugate() + c.a)))
                for c in cfg.centers
            )
        )
        assert abs(lhs - y_sq) / y_sq < 1e-12


def bisection_root(cfg, z, y_sq):
    """Independent root finder: plain sign bisection of the product, no
    Newton, after doubling the bracket [-1, 1] until it holds the root."""
    lo, hi = -1.0, 1.0
    while hitchin.implicit_lhs(cfg, z, lo) >= y_sq:
        lo *= 2.0
    while hitchin.implicit_lhs(cfg, z, hi) <= y_sq:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hitchin.implicit_lhs(cfg, z, mid) < y_sq:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_solve_b_agrees_with_pure_bisection():
    cfg = square4_config()
    rng = np.random.default_rng(3)
    for _ in range(25):
        z = complex(*(rng.uniform(-5, 5, 2)))
        y_sq = 10.0 ** rng.uniform(-2, 3)
        b = solve_one(cfg, z, y_sq)
        b_oracle = bisection_root(cfg, z, y_sq)
        assert abs(b - b_oracle) < 1e-11 * (1.0 + abs(b_oracle))


def test_solve_b_root_is_bracketed_by_lhs():
    cfg = pair_config()
    b = solve_one(cfg, 0.3 - 0.2j, 2.5)
    assert hitchin.implicit_lhs(cfg, 0.3 - 0.2j, b - 1e-3) < 2.5
    assert hitchin.implicit_lhs(cfg, 0.3 - 0.2j, b + 1e-3) > 2.5


def test_solve_b_rejects_bad_target():
    with pytest.raises(ValueError):
        hitchin.solve_b(pair_config(), [0j], [0.0])
    with pytest.raises(ValueError):
        hitchin.solve_b(pair_config(), [0j], [-1.0])
    with pytest.raises(ValueError):
        hitchin.solve_b(pair_config(), [0j], [float("inf")])


def test_solve_b_regression_value():
    b = solve_one(pair_config(), 0.4 - 0.3j, abs(1.5 + 0.7j) ** 2)
    assert abs(b - 0.5088549448162701) < 1e-13


@contextlib.contextmanager
def factor_calls():
    """Count center factors, one per center per evaluation of the implicit
    product or its log-sum: each element (lane x center) of
    ghawking.stable_factors."""
    calls = [0]
    lanes = ghawking.stable_factors

    def counted(u, r):
        calls[0] += np.broadcast(u, r).size
        return lanes(u, r)

    ghawking.stable_factors = counted
    try:
        yield calls
    finally:
        ghawking.stable_factors = lanes


def test_solve_b_work_on_solver_scan_stream():
    # the first 2000 inputs of criterion 9's stream, solved on lanes; the
    # scan back-substitutes each root once through implicit_lhs, which is
    # one evaluation per input that the solver does not make
    cfg = square4_config()
    count = 2000
    with factor_calls() as calls:
        assert verify.solver_scan(cfg, count=count, seed=1).passed
    per_solve = calls[0] / (cfg.k * count) - 1.0
    assert 1.0 <= per_solve <= 4.2


def test_solve_b_makes_no_evaluation_after_convergence():
    # one center off the axis: the model start is the root, so Newton
    # stops after one log-sum evaluation and its residual is the check
    cfg = origin_config()
    z = [0.3 + 0.2j, 2.0 + 0j, 1.0 + 0j, 0.1j]
    y_sq = [1.7, 0.4, 1.0, 1e5]
    for zi, yi in zip(z, y_sq):
        with factor_calls() as calls:
            solve_one(cfg, zi, yi)
        assert calls[0] == 1
    with factor_calls() as calls:
        tensorcalc.every_lane(hitchin.solve_b(cfg, np.array(z), np.array(y_sq)))
    assert calls[0] == len(z)


@pytest.mark.parametrize("cap", [1, 2, 3, 5])
def test_solve_b_checks_the_root_it_returns_at_the_iteration_cap(cap, monkeypatch):
    # a lane that stops on the cap is evaluated once more, whenever it
    # joined the window (the default one, and one of 3 lanes): whatever it
    # returns passes an independent back-substitution, and each lane
    # stops where the float reference loop does
    monkeypatch.setattr(hitchin, "SOLVE_MAX_ITER", cap)
    cfg = square4_config()
    z, y_sq = solver_scan_inputs(cfg, 40, seed=1)
    for window in (hitchin.NEWTON_WINDOW, 3):
        monkeypatch.setattr(hitchin, "NEWTON_WINDOW", window)
        roots, errors = hitchin.solve_b(cfg, z, y_sq)
        assert all(isinstance(e, ConvergenceError) for e in errors if e is not None)
        if window < len(z) and cap <= 2:
            # lanes that joined the window late stop on the cap too
            assert any(e is not None for e in errors[window:])
        # the roots of the converged lanes, in order
        returned = iter(roots.tolist())
        for err, zi, yi in zip(errors, z.tolist(), y_sq.tolist()):
            try:
                float_b = float_solve_b(cfg, zi, yi)
            except ConvergenceError:
                assert err is not None
                continue
            assert err is None
            b = next(returned)
            assert abs(b - float_b) <= 1e-14 * (1.0 + abs(float_b))
            lhs = float(hitchin.implicit_lhs(cfg, zi, b))
            assert abs(lhs / yi - 1.0) <= hitchin.SOLVE_TOL + 1e-14


def solver_scan_inputs(cfg, count, seed):
    """The solver scan's first count (z, |y|^2) inputs, drawn test-side."""
    scale = max(1.0, cfg.extent())
    idx = np.arange(1 + seed, 1 + seed + count)
    u0, u1, u2 = (sampling.halton(idx, b).tolist() for b in (2, 3, 5))
    z = [complex((2.0 * p - 1.0) * 8.0 * scale, (2.0 * q - 1.0) * 8.0 * scale) for p, q in zip(u0, u1)]
    return np.array(z), np.array([10.0 ** (-3.0 + 7.0 * v) * scale for v in u2])


def test_solve_b_lanes_agree_with_float_loop_on_solver_scan_stream():
    # criterion 9's 10^4 inputs in one batch against one float solve each
    cfg = square4_config()
    z, y_sq = solver_scan_inputs(cfg, 10000, seed=1)
    b = tensorcalc.every_lane(hitchin.solve_b(cfg, z, y_sq))
    assert b.shape == (10000,)
    for bl, zi, yi in zip(b.tolist(), z.tolist(), y_sq.tolist()):
        bs = float_solve_b(cfg, zi, yi)
        assert abs(bl - bs) <= 1e-14 * (1.0 + abs(bs))


@pytest.mark.parametrize(
    "radii, heights",
    [([1.0 + 0j, 1.6 + 0j], [0.0, 0.0]), ([1.0 + 0j, 1.4 + 0.3j], [0.0, 0.7])],
)
def test_solve_b_lanes_agree_with_float_loop_with_eight_centers(radii, heights):
    # from 8 terms on numpy sums a trailing axis pairwise; the lanes keep
    # their centers on a leading axis, which sums in the reference loop's
    # order
    cfg = make_polygon_config(QuotientSignature(2, 4, 1), radii, heights)
    assert cfg.k == 8
    z, y_sq = solver_scan_inputs(cfg, 3000, seed=1)
    b = tensorcalc.every_lane(hitchin.solve_b(cfg, z, y_sq))
    for bl, zi, yi in zip(b.tolist(), z.tolist(), y_sq.tolist()):
        bs = float_solve_b(cfg, zi, yi)
        assert abs(bl - bs) <= 1e-14 * (1.0 + abs(bs))


@pytest.mark.parametrize("n", [4, 200])
def test_solve_b_lanes_of_a_block_are_each_lane_alone_bit_for_bit(n):
    # numpy sums the center terms of a single lane pairwise but a block's
    # row by row, which rounds differently from 8 centers on; the lanes
    # sum in the centers' order for any lane count, so every lane gets the
    # root and the error it gets alone, and the scan's first 64 inputs
    # pass as its first 10^4 do
    cfg = make_polygon_config(QuotientSignature(2, n, 1), [1.0 + 0j, 1.6 + 0j], [0.0, 0.0])
    assert cfg.k == 2 * n >= 8
    z, y_sq = solver_scan_inputs(cfg, 64, seed=0)
    z, y_sq = np.append(z, -cfg.centers[0].a.conjugate()), np.append(y_sq, 1e-50)
    roots, errors = hitchin.solve_b(cfg, z, y_sq)
    alone = [hitchin.solve_b(cfg, [zi], [yi]) for zi, yi in zip(z, y_sq)]
    assert roots.tobytes() == np.concatenate([r for r, _ in alone]).tobytes()
    assert [repr(e) for e in errors] == [repr(e) for _, (e,) in alone]
    assert verify.solver_scan(cfg, count=64, seed=0).passed


def test_solve_b_memory_stays_in_the_window_with_many_centers():
    # 400 centers: the window holds 163 of 2048 lanes, so an evaluation's
    # (k, lanes) tables take about 0.5 MB each, not 6.5 MB
    cfg = make_polygon_config(QuotientSignature(2, 200, 1), [1.0 + 0j, 1.6 + 0j], [0.0, 0.0])
    assert hitchin.lane_window(cfg.k) == 163
    z, y_sq = solver_scan_inputs(cfg, 2048, seed=0)
    tracemalloc.start()
    try:
        roots, errors = hitchin.solve_b(cfg, z, y_sq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert roots.shape == (2048,) and errors == [None] * 2048
    assert peak <= 8e6


def test_solve_b_takes_one_dimensional_lanes():
    # z and |y|^2 broadcast to one 1-D shape, one lane per input; a scalar
    # or a 2-D shape is a ValueError, never a silent lane or a grid
    cfg = pair_config()
    y_sq = np.array([abs(1.5 + 0.7j) ** 2, 2.0, 0.5])
    b, errors = hitchin.solve_b(cfg, 0.4 - 0.3j, y_sq)
    assert b.shape == (3,) and errors == [None] * 3
    assert abs(b[0] - 0.5088549448162701) < 1e-13
    lhs = hitchin.implicit_lhs(cfg, 0.4 - 0.3j, b)
    assert np.all(np.abs(lhs - y_sq) <= hitchin.SOLVE_TOL * y_sq)
    for z, y in ((0.4 - 0.3j, 2.0), (np.array([[0.4 - 0.3j], [0.1 + 0.2j]]), y_sq)):
        with pytest.raises(ValueError, match="1-D lanes"):
            hitchin.solve_b(cfg, z, y)


def test_solve_b_failing_lane_raises_like_the_lane_alone():
    # a height-0 puncture with a tiny target: no float root within
    # SOLVE_TOL in reach (see the extreme-input property test); among
    # eight good lanes it gets the error it gets alone, and the others
    # their roots alone, in order
    cfg = square4_config()
    z_bad, y_bad = -cfg.centers[0].a.conjugate(), 1e-50
    alone, (err,) = hitchin.solve_b(cfg, [z_bad], [y_bad])
    assert alone.shape == (0,) and isinstance(err, ConvergenceError)
    z, y_sq = solver_scan_inputs(cfg, 9, seed=1)
    z[4], y_sq[4] = z_bad, y_bad
    roots, errors = hitchin.solve_b(cfg, z, y_sq)
    assert [type(e) for e in errors] == [type(None)] * 4 + [ConvergenceError] + [type(None)] * 4
    assert str(errors[4]) == str(err)
    good = [solve_one(cfg, zi, yi) for i, (zi, yi) in enumerate(zip(z, y_sq)) if i != 4]
    assert roots.tolist() == good
    with pytest.raises(ConvergenceError) as info:
        tensorcalc.every_lane((roots, errors))
    assert info.value is errors[4]


@pytest.mark.parametrize("build", [hexagon_config, square4_config])
def test_solve_b_lanes_match_the_float_loop_at_punctures(build, monkeypatch):
    # z on each puncture (r_i = 0), targets over 66 decades: below the
    # center's height its factor vanishes, the log-sum is -inf, and the
    # lane's step must leave the bracket as the reference loop's does; many of
    # these solves stall, and the same ones in both loops
    cfg = build()
    z = np.repeat([-c.a.conjugate() for c in cfg.centers], 100)
    y_sq = np.tile(np.geomspace(1e-60, 1e6, 100), cfg.k)
    vanished = []
    lane_log_lhs = hitchin._lane_log_lhs

    def counted(b_i, r, b):
        total, gam = lane_log_lhs(b_i, r, b)
        vanished.append(int(np.isneginf(total).sum()))
        return total, gam

    monkeypatch.setattr(hitchin, "_lane_log_lhs", counted)
    roots, errors = hitchin.solve_b(cfg, z, y_sq)
    assert sum(vanished) > len(z)
    stalled = [e is not None for e in errors]
    assert all(isinstance(e, ConvergenceError) for e in errors if e is not None)
    converged = iter(roots.tolist())
    for lane_stalled, zi, yi in zip(stalled, z.tolist(), y_sq.tolist()):
        try:
            b = float_solve_b(cfg, zi, yi)
        except ConvergenceError:
            assert lane_stalled
            continue
        assert not lane_stalled
        assert abs(next(converged) - b) <= 1e-15 * (1.0 + abs(b))
    assert 0 < sum(stalled) < len(z)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_solve_b_lanes_reject_bad_target_anywhere(bad):
    z, y_sq = solver_scan_inputs(pair_config(), 5, seed=1)
    y_sq[3] = bad
    with pytest.raises(ValueError, match="positive and finite"):
        hitchin.solve_b(pair_config(), z, y_sq)
    with pytest.raises(ValueError, match="positive and finite"):
        hitchin.solve_b(pair_config(), 0.5j, np.array([bad]))


# deterministic examples, no example database: the suite stays a pure
# function of the source
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

SIGNATURES = [(1, 1, 0), (2, 1, 0), (1, 2, 1), (2, 2, 1), (1, 3, 2), (2, 3, 2)]

unit = st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def configs(draw):
    d, n, m = draw(st.sampled_from(SIGNATURES))
    radii = [
        draw(st.floats(min_value=0.5, max_value=2.0))
        * cmath.exp(1j * draw(st.floats(min_value=0.0, max_value=2.0 * math.pi)))
        for _ in range(d)
    ]
    heights = draw(st.lists(unit, min_size=d, max_size=d))
    try:
        config = make_polygon_config(QuotientSignature(d, n, m), radii, heights)
        hitchin.require_smooth_fiber(config)
    except SingularFiberError:
        assume(False)
    return config


@st.composite
def chart_inputs(draw):
    """A polygon config, a z in the solver scan's box and |y|^2 drawn
    log-uniformly from [1e-12, 1e12]."""
    config = draw(configs())
    scale = 8.0 * max(1.0, config.extent())
    z = complex(scale * draw(unit), scale * draw(unit))
    return config, z, 10.0 ** draw(st.floats(min_value=-12.0, max_value=12.0))


@PROPERTY
@given(chart_inputs())
def test_solve_b_property_back_substitution_and_oracle(case):
    config, z, y_sq = case
    b = solve_one(config, z, y_sq)
    assert abs(hitchin.implicit_lhs(config, z, b) - y_sq) <= hitchin.SOLVE_TOL * y_sq
    assert abs(b - bisection_root(config, z, y_sq)) <= 1e-11 * (1.0 + abs(b))


@PROPERTY
@given(chart_inputs())
def test_solve_b_property_one_lane_matches_float_loop(case):
    config, z, y_sq = case
    b = float_solve_b(config, z, y_sq)
    lane, errors = hitchin.solve_b(config, np.array([z]), np.array([y_sq]))
    assert lane.shape == (1,) and errors == [None]
    assert abs(lane[0] - b) <= 1e-14 * (1.0 + abs(b))


@PROPERTY
@given(chart_inputs(), st.floats(min_value=1e-3, max_value=3.0))
def test_solve_b_property_strictly_increasing(case, decades):
    config, z, y_sq = case
    low, high = tensorcalc.every_lane(hitchin.solve_b(config, z, [y_sq, y_sq * 10.0**decades]))
    assert low < high


EXTREME_CONFIGS = [
    make_polygon_config(QuotientSignature(2, 3, 2), [1.0 + 0j, 1.4 + 0.3j], [0.0, 0.7]),
    make_polygon_config(QuotientSignature(2, 2, 1), [1.0 + 0j, 1.6 + 0j], [0.0, 0.0]),
    make_polygon_config(QuotientSignature(2, 2, 1), [1.0 + 0j, 1.3 + 0.2j], [0.0, 1.0]),
    make_polygon_config(QuotientSignature(1, 1, 0), [1.0 + 0j], [0.0], mode="alf"),
]


@st.composite
def extreme_inputs(draw):
    """|y|^2 anywhere in [1e-300, 1e300]; one z in twenty sits exactly on a
    puncture zbar = -a_i, the rest in the solver scan's box."""
    config = draw(st.sampled_from(EXTREME_CONFIGS))
    if draw(st.integers(0, 19)) == 0:
        z = -draw(st.sampled_from(config.centers)).a.conjugate()
    else:
        z = complex(8.0 * draw(unit), 8.0 * draw(unit))
    return config, z, 10.0 ** draw(st.floats(min_value=-300.0, max_value=300.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(extreme_inputs())
def test_solve_b_extreme_targets_end_in_root_or_geometry_error(case):
    # every positive finite |y|^2 ends in a root within SOLVE_TOL or a typed
    # error, after at most SOLVE_MAX_ITER + 1 log-sum evaluations
    config, z, y_sq = case
    with factor_calls() as calls:
        roots, (err,) = hitchin.solve_b(config, [z], [y_sq])
    assert 1 <= calls[0] <= config.k * (hitchin.SOLVE_MAX_ITER + 1)
    assert len(roots) == (err is None) and (err is None or isinstance(err, GeometryError))
    if err is None:
        (b,) = roots.tolist()
        assert math.isfinite(b)
        data = [(c.b, abs(z.conjugate() + c.a)) for c in config.centers]
        assert abs(math.expm1(log_lhs(data, b)[0] - math.log(y_sq))) <= hitchin.SOLVE_TOL


def extreme_sweep(count=5000, seed=2025):
    """A fixed sweep over EXTREME_CONFIGS: |y|^2 log-uniform in [1e-300,
    1e300], one z in twenty on a puncture zbar = -a_i, the rest in the
    solver scan's box; one (config, z, |y|^2) lane array triple per
    config."""
    rng = np.random.default_rng(seed)
    which = rng.integers(0, len(EXTREME_CONFIGS), count)
    on_puncture = rng.integers(0, 20, count) == 0
    center = rng.integers(0, 6, count)
    box = 8.0 * (rng.uniform(-1.0, 1.0, count) + 1j * rng.uniform(-1.0, 1.0, count))
    y_sq = 10.0 ** rng.uniform(-300.0, 300.0, count)
    for n, config in enumerate(EXTREME_CONFIGS):
        lanes = which == n
        a = np.array([c.a for c in config.centers])
        punctures = -np.conj(a[center[lanes] % config.k])
        yield config, np.where(on_puncture[lanes], punctures, box[lanes]), y_sq[lanes]


# stalled lanes of extreme_sweep() with np.hypot as the distance, the
# same with the guarded one: 107 on punctures, 53 off them, each a typed
# ConvergenceError; the solver must not stall more often
EXTREME_SWEEP_STALLS = 160


def test_solve_b_extreme_sweep_stalls_no_more_and_every_root_substitutes_back():
    # every root passes the float log-sum's back-substitution, to within
    # one ulp of log|y|^2, where math.log and np.log may disagree; from
    # |log|y|^2| = 512 on that ulp is over SOLVE_TOL, and it decides one
    # lane of the sweep (with np.hypot as the distance too)
    stalled = 0
    for config, z, y_sq in extreme_sweep():
        roots, errors = hitchin.solve_b(config, z, y_sq)
        stalled += sum(e is not None for e in errors)
        assert all(isinstance(e, ConvergenceError) for e in errors if e is not None)
        good = [e is None for e in errors]
        for b, zi, yi in zip(roots.tolist(), z[good].tolist(), y_sq[good].tolist(), strict=True):
            data = [(c.b, abs(zi.conjugate() + c.a)) for c in config.centers]
            gval = log_lhs(data, b)[0] - math.log(yi)
            assert abs(math.expm1(gval)) <= hitchin.SOLVE_TOL + np.spacing(abs(math.log(yi)))
    assert stalled <= EXTREME_SWEEP_STALLS


def test_solve_b_window_moves_no_lane_of_the_extreme_sweep(monkeypatch):
    # a window of 7 lanes, refilled a few lanes at a time, gives every lane
    # of extreme_sweep the root and the error of the default window
    default = [hitchin.solve_b(config, z, y_sq) for config, z, y_sq in extreme_sweep()]
    monkeypatch.setattr(hitchin, "NEWTON_WINDOW", 7)
    stalled = 0
    for (roots, errors), (config, z, y_sq) in zip(default, extreme_sweep(), strict=True):
        narrow, narrow_errors = hitchin.solve_b(config, z, y_sq)
        assert narrow.tobytes() == roots.tobytes()
        assert [repr(e) for e in narrow_errors] == [repr(e) for e in errors]
        stalled += sum(e is not None for e in errors)
    assert stalled == EXTREME_SWEEP_STALLS


# --- metric algebra ---


def chart_points(pairs):
    """The complex chart's block of points (Re z, Im z, Re y, Im y) at the
    (z, y) pairs."""
    return np.array([(z.real, z.imag, y.real, y.imag) for z, y in pairs])


def metric(cfg):
    return verify.HITCHIN.metric(cfg)


def omega_field(cfg):
    """The Kahler form's values as a field: omega = -Im h, assembled from
    the chart's state as the Kahler scan assembles it."""
    return verify.assembled(verify.HITCHIN.state(cfg), lambda eta: hitchin.kahler_of(eta)[1].val)


def test_metric_symmetric_positive_definite():
    cfg = pair_config()
    x = chart_points([(0.4 - 0.3j, 1.5 + 0.7j), (2.0 + 1.0j, 0.3 - 0.1j), (-1.5j, 4.0j)])
    block, errors = hitchin.metric_at(cfg, x)
    assert errors == [None] * 3
    for g in block:
        assert np.max(np.abs(g - g.T)) == 0.0
        assert np.min(np.linalg.eigvalsh(g)) > 0.0


def test_metric_regression_value():
    g = at_point(metric(pair_config()), (0.4, -0.3, 1.5, 0.7))
    assert abs(g[0, 0] - 1.919332230857747) < 1e-12


def test_single_center_chart_is_flat():
    cfg = origin_config()
    x = chart_points([(1.0 + 0.5j, 2.0 + 1.0j), (3.0j, 0.7 - 0.4j), (-2.0 + 0j, 3.0 + 0j)])
    for jet, fd in zip(jet_curvatures(cfg, x), fd_curvatures(cfg, x)):
        assert jet.riem_norm_sq < 1e-10
        assert fd.riem_norm_sq < 1e-10


def test_kahler_form_closed_and_compatible():
    cfg = pair_config()
    x = (0.4, -0.3, 1.5, 0.7)
    kahler = verify.assembled(verify.HITCHIN.state(cfg), verify.HITCHIN.kahler_of)
    ((g,), omega, J), errors = kahler(np.array([x]))
    assert errors == [None]
    omega = omega[0]
    assert np.max(np.abs(g - at_point(metric(cfg), x))) <= 1e-14 * np.max(np.abs(g))
    # J0 is a jet with zero derivatives
    assert np.array_equal(J.val, [hitchin.STANDARD_J]) and not J.grad.any() and not J.hess.any()
    d_omega = omega.partials()[0]
    assert np.max(np.abs(tensorcalc.exterior_derivative(d_omega))) < 1e-14
    fd_omega = fd_derivatives(omega_field(cfg), chart_step(cfg, x), blocks=True)
    fd = at_point(fd_omega, x).partials()[0]
    assert np.max(np.abs(tensorcalc.exterior_derivative(fd))) < 1e-8
    assert np.max(np.abs(d_omega - fd)) < 1e-8
    # omega's own jet against the metric jet: d_i omega_jl = J0^k_j d_i g_kl
    dg = at_point(verify.HITCHIN.jet(cfg), x).partials()[0]
    via_g = np.einsum("kj,ikl->ijl", hitchin.STANDARD_J, dg)
    assert np.max(np.abs(d_omega - via_g)) <= 1e-15 * np.max(np.abs(dg))
    assert np.max(np.abs(omega.val - hitchin.STANDARD_J.T @ g)) < 1e-12
    assert np.max(np.abs(omega.val + omega.val.T)) < 1e-14


def test_action_matrix_is_a_pullback_isometry():
    cfg = pair_config()
    mat, shift = hitchin.action(cfg.signature)
    assert not shift.any()
    x = np.array([0.4, -0.3, 1.5, 0.7])
    (g_here, g_image), errors = hitchin.metric_at(cfg, np.array([x, mat @ x]))
    assert errors == [None, None]
    assert np.max(np.abs(mat.T @ g_image @ mat - g_here)) < 1e-12


def test_action_matrix_matches_complex_action():
    sig = QuotientSignature(1, 4, 1)
    mat, _ = hitchin.action(sig)
    z, y = 0.7 - 0.2j, 1.1 + 0.4j
    got = mat @ np.array([z.real, z.imag, y.real, y.imag])
    zf = z * cmath.exp(2j * math.pi / 4)
    yf = y * cmath.exp(-2j * math.pi / 4)
    assert np.max(np.abs(got - [zf.real, zf.imag, yf.real, yf.imag])) < 1e-14


def test_chart_step_scales():
    cfg = pair_config()
    steps = chart_step(cfg, (0.0, 0.0, 0.0, 0.01), rel_step=0.01)
    # near the branch locus the y step follows |y|
    assert np.allclose(steps[2:], 0.01 * 0.01)
    # z step capped by 10x the puncture distance (punctures at z = -+1)
    assert steps[0] <= 0.01 * 10.0 * 1.0 + 1e-15
    with pytest.raises(ChartBoundaryError):
        chart_step(cfg, (0.0, 0.5, 0.0, 0.0))
    with pytest.raises(PoleError):
        # the hand-built pair has exact punctures at z = -+1
        chart_step(coplanar_pair(), (1.0, 0.0, 1.0, 0.0))


def test_base_to_chart_round_trip():
    cfg = square4_config()
    b, a = 0.8, 1.7 - 0.9j
    (x,), errors = hitchin.base_to_chart(cfg, [(0.3, b, a.real, a.imag)])
    assert errors == [None]
    zr, zi, yr, yi = x
    z = complex(zr, zi)
    assert abs(z - (-complex(a).conjugate())) < 1e-15
    assert abs(solve_one(cfg, z, abs(complex(yr, yi)) ** 2) - b) < 1e-10


def test_base_to_chart_lanes_match_the_float_lift():
    # the lanes of a block against the float lift, with a base point below
    # a center on its vertical line (the y = 0 locus) among them
    cfg = hexagon_config()
    c = cfg.centers[1]
    x = np.concatenate(
        [
            verify.GH.stream(cfg, SampleSpec(count=4, seed=7)),
            [(0.7, c.b - 0.5, c.a.real, c.a.imag), (0.0, 0.4, -2.0, 3.0)],
        ]
    )
    lifted, errors = hitchin.base_to_chart(cfg, x)
    assert [type(e).__name__ if e else "" for e in errors] == [""] * 4 + ["ChartBoundaryError", ""]
    with pytest.raises(ChartBoundaryError):
        float_base_to_chart(cfg, tuple(x[4]))
    for got, point in zip(lifted, np.delete(x, 4, axis=0)):
        want = np.array(float_base_to_chart(cfg, tuple(point)))
        assert np.array_equal(got[:2], want[:2])
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_smooth_fiber_guard():
    stacked = CenterConfiguration(
        centers=(Center(-1.0, 0j), Center(1.0, 0j)),
        signature=QuotientSignature(2, 1, 0),
    )
    # the whole block: the fiber, not a lane, is singular
    with pytest.raises(SingularFiberError):
        hitchin.metric_at(stacked, chart_points([(1.0, 1.0)]))


def test_smooth_fiber_guard_names_the_first_coincident_pair():
    # plane positions 0 and 2, and 1 and 2, are within the tolerance; 0
    # and 1 are not: the message names the first pair in row-major order
    cfg = CenterConfiguration(
        centers=(Center(0.0, 1.0 + 0j), Center(1.0, 1.0 + 1.6e-9j), Center(2.0, 1.0 + 0.8e-9j)),
        signature=QuotientSignature(3, 1, 0),
    )
    with pytest.raises(SingularFiberError, match="centers 0 and 2"):
        hitchin.require_smooth_fiber(cfg)


def test_metric_rejects_branch_locus_and_punctures():
    with pytest.raises(ChartBoundaryError):
        at_point(metric(pair_config()), (0.0, 0.5, 0.0, 0.0))
    with pytest.raises(PoleError):
        at_point(metric(coplanar_pair()), (1.0, 0.0, 1.0, 0.0))


# --- exact jets ---


def jet_curvatures(cfg, x):
    """The curvature bundles at the points of the block x, every lane good."""
    return tensorcalc.every_lane(tensorcalc.curvature_at(verify.HITCHIN.jet(cfg), x))


def fd_curvatures(cfg, x):
    """Curvature from the finite-difference stencil of metric_at, with
    chart_step at each point; every lane good."""
    fd = fd_derivatives(metric(cfg), lambda p: chart_step(cfg, p), blocks=True)
    return tensorcalc.every_lane(tensorcalc.curvature_at(fd, x))


def test_metric_jet_value_is_the_metric():
    # and J0^T g from the jet is the Kahler form, whose derivative it gives
    for cfg in (pair_config(), hexagon_config(), square4_config()):
        x = np.array(sampling.hitchin_points(cfg, SampleSpec(count=10, seed=3)))
        fields = (metric(cfg), verify.HITCHIN.jet(cfg), omega_field(cfg))
        (g, _), (jet, _), (w, _) = (field(x) for field in fields)
        for got, value in ((jet.val, g), (hitchin.STANDARD_J.T @ jet.val, w)):
            scale = np.max(np.abs(value), axis=(1, 2))
            assert np.all(np.max(np.abs(got - value), axis=(1, 2)) <= 1e-14 * scale)


def test_jet_curvature_agrees_with_finite_differences():
    # the Ricci-scan points of the benchmark's hexagon report at seed 7;
    # the stencil is the independent reference, good to about 1e-3 here
    cfg = hexagon_config()
    x = np.array(sampling.hitchin_points(cfg, SampleSpec(count=30, seed=7)))
    for exact, fd in zip(jet_curvatures(cfg, x), fd_curvatures(cfg, x)):
        assert abs(exact.riem_norm_sq / fd.riem_norm_sq - 1.0) < 5e-3
        assert exact.ricci_norm <= fd.ricci_norm


def test_ricci_scan_makes_one_metric_evaluation_per_curvature(monkeypatch):
    # counted through the module attributes the scan calls; the stencil
    # made 177 metric evaluations, each with its own solve_b, per curvature,
    # and a float metric beside the jet made two solves; the jet of a
    # block solves once, over its lanes
    calls = {"metric_at": [], "solve_b": []}
    inside = [False]

    def counting(name):
        original = getattr(hitchin, name)

        def counted(*args, **kwargs):
            if inside[0]:
                calls[name].append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(hitchin, name, counted)

    for name in calls:
        counting(name)
    curvature_at = tensorcalc.curvature_at

    def traced(*args, **kwargs):
        inside[0] = True
        try:
            return curvature_at(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(tensorcalc, "curvature_at", traced)
    record = verify.ricci_scan("hitchin", hexagon_config(), spec=SampleSpec(count=3, seed=7))
    assert record.count == 3
    assert calls["metric_at"] == []
    # one solve_b call of 3 lanes, no float solve
    (z,) = calls["solve_b"]
    assert isinstance(z, np.ndarray) and z.shape == (3,)


def test_metric_jet_rejects_branch_locus_and_punctures():
    for cfg, x, error in (
        (pair_config(), (0.0, 0.5, 0.0, 0.0), ChartBoundaryError),
        (coplanar_pair(), (1.0, 0.0, 1.0, 0.0), PoleError),
    ):
        with pytest.raises(error):
            at_point(verify.HITCHIN.jet(cfg), x)
        with pytest.raises(error):
            at_point(lambda b: tensorcalc.curvature_at(verify.HITCHIN.jet(cfg), b), x)


def test_decay_fit_domain_checks():
    # 27 centers on the unit circle: the smallest radius, 10, sits at base
    # radius 100 / 54 < 2 (the scale is 1), inside the configuration region
    crowded = make_polygon_config(QuotientSignature(1, 27, 1), [1.0 + 0j], [0.0])
    with pytest.raises(FitDomainError):
        hitchin.ale_curvature_decay(crowded)
    alf = make_polygon_config(QuotientSignature(1, 1, 0), [1.0 + 0j], [0.0], mode="alf")
    with pytest.raises(FitDomainError):
        hitchin.ale_curvature_decay(alf)


def test_hermitian_form_finite_with_positive_definite_real_part():
    # h = g - i omega, from metric_at and the Kahler form's values
    cfg = pair_config()
    x = (0.4, -0.3, 0.7, 0.2)
    h = at_point(metric(cfg), x) - 1j * at_point(omega_field(cfg), x)
    assert np.all(np.isfinite(h))
    assert np.max(np.abs(h - h.conj().T)) < 1e-14 * np.max(np.abs(h))
    assert np.min(np.linalg.eigvalsh(h.real)) > 0.0
