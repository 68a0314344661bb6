"""Chart metric on the smoothing of an A-type singularity.

The chart has one complex coordinate z and one nonvanishing complex
coordinate y.  For centers (b_i, a_i) put

    Delta_i = sqrt((b - b_i)^2 + |zbar + a_i|^2),
    gamma   = sum_i 1 / Delta_i,
    delta   = sum_i ((b - b_i) - Delta_i) / (Delta_i (zbar + a_i)),

where b = b(z, |y|^2) is the unique root of the strictly increasing
implicit equation

    prod_i ((b - b_i) + Delta_i(b)) = |y|^2.

The Hermitian form of the metric is then

    h = gamma dz dzbar + gamma^{-1} eta etabar,
    eta = (2/y) dy + conj(delta) dz,

and the real metric is g = Re h on the real coordinates
(Re z, Im z, Re y, Im y).  With this convention the single-center metric
is twice the flat metric of the underlying C^2 (flat either way).  The
Kahler form is omega = -Im h, which satisfies omega = g(J0 ., .) for the
standard chart complex structure J0.

Fields take blocks of points (see tensorcalc), and each solves for b
over its block in one lane call, each lane with its own typed error.
solve_b returns what a field does, the roots of the converged lanes and
each lane's error, and base_to_chart is the field that lifts a block of
circle-fibered base points (theta, b, a1, a2) to this chart.  metric_at
gives g in floats and metric_of g as a second-order jet
(tensorcalc.Jet), both _metric of _eta, which take float lanes and jets
alike, from ghawking's Delta_i and f_i.  The jets' evaluation, the
chart's state on a block, is eta_jets; metric_of assembles from it
curvature's g with its exact first and second derivatives, and
kahler_of the Kahler scan's g value and omega jet, built separately
from the same eta, with J0 as J, a jet with zero derivatives.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from gravinst import ghawking, tensorcalc
from gravinst.errors import (
    ChartBoundaryError,
    ConvergenceError,
    FitDomainError,
    NumericOverflowError,
    PoleError,
    SingularFiberError,
)
from gravinst.fitting import FitResult, fit_loglog
from gravinst.singularities import CenterConfiguration, QuotientSignature, first_pair, row_blocks

EPS_Y_DEFAULT = 1e-8

# solve_b: largest accepted relative back-substitution residual, and the
# most safeguarded Newton steps (bisections and outward steps included)
SOLVE_TOL = 1e-13
SOLVE_MAX_ITER = 200
# solve_b: the most lanes its Newton loop keeps live at once (lane_window)
NEWTON_WINDOW = 2048

# J0 as a component matrix: J0 @ X rotates (Re z, Im z) and (Re y, Im y)
# the way multiplication by i does.
STANDARD_J = np.array(
    [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)


def require_smooth_fiber(config: CenterConfiguration) -> None:
    """The chart describes a smooth fiber only when all a_i are distinct."""
    a = ghawking.center_axis(config, 0)[1]
    scale = max(1.0, float(np.max(np.abs(a))))
    pair = first_pair(
        len(a), lambda rows: np.abs(a[rows, None] - a[None, rows.start :]) <= 1e-9 * scale
    )
    if pair is not None:
        raise SingularFiberError(
            f"coincident plane positions a_i of centers {pair[0]} and {pair[1]}:"
            " the fiber is singular and outside the scope of this chart"
        )


def _lane_data(
    config: CenterConfiguration, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Center heights b_i and the radii |zbar + a_i| of each lane, the
    centers on a leading axis (ghawking.center_axis): b_i has shape
    (k, 1, ...) with z.ndim ones, r shape (k,) + z.shape."""
    b_i, a_i = ghawking.center_axis(config, z.ndim)
    return b_i, np.abs(np.conj(z) + a_i)


def implicit_lhs(
    config: CenterConfiguration, z: complex | np.ndarray, b: float | np.ndarray
) -> np.ndarray:
    """Product prod_i ((b - b_i) + Delta_i) at height b, elementwise over
    numpy arrays z and b (scalars give a numpy float)."""
    z, b = np.asarray(z), np.asarray(b)
    nd = max(z.ndim, b.ndim)
    b_i, r = _lane_data(config, z.reshape((1,) * (nd - z.ndim) + z.shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        return ghawking.stable_factors(b - b_i, r)[1].prod(axis=0)


def _lane_log_lhs(
    b_i: np.ndarray, r: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(sum_i log f_i, gamma) of each lane at height b, under the caller's
    np.errstate: b has one height per column of the center data (b_i, r),
    r_i = |zbar + a_i|."""
    delta, f = ghawking.stable_factors(b - b_i, r)
    # a vanishing factor (a puncture, r_i = 0, below its center) makes the
    # sum -inf, so the Newton step is not finite and leaves the bracket
    return _center_sum(np.log(f)), _center_sum(1.0 / delta)


def _center_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of (k, lanes) terms over the leading center axis, in the
    centers' order for any lane count, so that no lane's sum depends on
    the lanes beside it: numpy adds a block of two lanes or more row by
    row but a single column pairwise, which rounds differently from 8
    centers on.  The single column takes the running sum."""
    if terms.shape[1] == 1:
        return np.add.accumulate(terms, axis=0)[-1]
    return terms.sum(axis=0)


def solve_b(
    config: CenterConfiguration, z: complex | np.ndarray, y_abs_sq: float | np.ndarray
) -> tuple:
    """Solve prod_i ((b - b_i) + Delta_i(b)) = |y|^2 for b on each lane.

    Every factor is positive and strictly increasing in b, so the product
    is strictly increasing from 0 to infinity and the root is unique.
    Newton steps on g(b) = sum log f_i - log|y|^2, whose derivative is
    exactly gamma, start at the root of the one-center model (exact for
    k = 1).  The signs of g tighten a bracket; a step that is not finite
    or leaves it becomes a bisection, or a doubling step outward while the
    bracket is open.  The root of a lane is the last iterate evaluated,
    and it converged when the relative residual of that evaluation is at
    most SOLVE_TOL; an iterate left after SOLVE_MAX_ITER steps is
    evaluated once more.

    The loop runs over numpy lanes: z and |y|^2 broadcast to one 1-D
    shape (N,), one lane per input.  Anything else, or a |y|^2 that is not
    positive and finite, is a ValueError.  Gives (roots, errors) as a
    field does (see tensorcalc): the roots of the converged lanes in
    order, and per lane None or the ConvergenceError of a stalled solve.
    The fields solve each block in one call, and the solver scan each
    block of up to verify.SOLVER_BLOCK inputs.  At most lane_window(k)
    lanes are live at once (_newton_lanes), so the work tables do not
    grow with N, and a lane's root and error do not depend on the lanes
    beside it.

    Closed forms kept as anchors:
      one center at the origin, z=0, |y|^2=1  ->  b = 1/2
      one center at the origin, z=1, |y|^2=1  ->  b = 0   (b + sqrt(b^2+1) = 1)
      centers (b,a) = (0,+1), (0,-1), z=0, |y|^2=1  ->  b = 0
    """
    z, y_sq = np.broadcast_arrays(
        np.asarray(z, dtype=complex), np.asarray(y_abs_sq, dtype=float)
    )
    if z.ndim != 1:
        raise ValueError("solve_b takes 1-D lanes of z and |y|^2")
    if not np.all((y_sq > 0.0) & (y_sq < math.inf)):
        raise ValueError("y_abs_sq must be positive and finite")
    with np.errstate(all="ignore"):
        out, out_g = _newton_lanes(config, z, np.log(y_sq))
        residual = np.where(np.abs(out_g) < 1.0, np.abs(np.expm1(out_g)), math.inf)
    stalled = residual > SOLVE_TOL
    errors: list = [None] * out.size
    for lane in np.flatnonzero(stalled):
        errors[lane] = ConvergenceError(
            f"implicit height solve stalled at relative residual {residual[lane]:.3e}"
        )
    return out[~stalled], errors


def lane_window(k: int) -> int:
    """The most lanes solve_b keeps live at once for k centers:
    NEWTON_WINDOW, or fewer, so that a (k, lanes) table of the window stays
    within row_blocks' budget."""
    return next(row_blocks(NEWTON_WINDOW, k)).stop


def _newton_lanes(
    config: CenterConfiguration, z: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The lane loop of solve_b, under its np.errstate: each lane's
    root and the log-sum residual evaluated at it.

    The loop runs one window of at most lane_window(k) live lanes.  One
    log-sum evaluation per live lane and step; a lane drops out once it
    stops, its state compacted with the others' in one call, and once half
    the window has ended the next pending lanes join in order, so that the
    slow tails of successive windows share their steps.  Each lane counts
    its steps from the one it joined at, and is evaluated once more after
    SOLVE_MAX_ITER of them.  Only the live lanes whose Newton step leaves
    the bracket work out a bisection or an outward step.  A lane's
    arithmetic never reads another's, so its iterates do not depend on the
    window."""
    b_i = ghawking.center_axis(config, 1)[0]
    k, n = len(b_i), target.size
    window = lane_window(k)
    b_mean = sum(c.b for c in config.centers) / k
    out, out_g = np.empty(n), np.empty(n)
    # the live lanes' state, one row each: the iterate b, the bracket
    # (lo, hi), the outward width, the target, the lane's index, the radii;
    # the lanes stay in index order
    state = np.empty((6 + k, 0))
    # per joined batch of lanes, the step of its last evaluation and the
    # end of its lane indices
    caps = []
    joined = 0
    for it in itertools.count():
        live = state.shape[1]
        if joined < n and 2 * live <= window:
            join = slice(joined, min(n, joined + window - live))
            r = _lane_data(config, z[join])[1]
            # the start: the root of the one-center model
            log_r = _center_sum(np.where(r > 0.0, np.log(r), 0.0)) / k
            lim = 700.0 - np.maximum(0.0, log_r)
            arg = np.clip(target[join] / k - log_r, -lim, lim)
            grown = np.empty((6 + k, live + r.shape[1]))
            grown[:, :live] = state
            state, start = grown, grown[:, live:]
            start[0] = b_mean + np.exp(log_r) * np.sinh(arg)
            start[1], start[2], start[3] = -math.inf, math.inf, 0.0
            start[4], start[5], start[6:] = target[join], np.arange(joined, join.stop), r
            caps.append((it + SOLVE_MAX_ITER, join.stop))
            joined = join.stop
        elif not live:
            return out, out_g
        b, lo, hi, width, lt, ids = state[:6]
        total, gam = _lane_log_lhs(b_i, state[6:], b)
        gval = total - lt
        # a non-finite gval gives a non-finite step, which leaves the
        # bracket
        step = b - gval / gam
        stop = np.abs(step - b) <= 1e-16 * (1.0 + np.abs(b))
        if caps[0][0] == it:
            # the oldest batch's lanes, the live ones below its end, are at
            # the cap: this evaluation is their last
            stop |= ids < caps.pop(0)[1]
        up = gval > 0.0
        np.putmask(hi, up, b)
        np.putmask(lo, ~up, b)
        jump = np.flatnonzero(~(stop | ((lo < step) & (step < hi))))
        if jump.size:
            # bisect a closed bracket; step outward by a doubled width
            # while it is open
            jlo, jhi, jb = lo[jump], hi[jump], b[jump]
            closed = np.isfinite(jhi - jlo)
            mid = 0.5 * (jlo + jhi)
            # a closed bracket stays closed and never reads its width again
            jw = width[jump]
            width[jump] = jw = np.where(jw != 0.0, 2.0 * jw, 1.0 + np.abs(jb))
            step[jump] = np.where(closed, mid, jb - np.copysign(jw, gval[jump]))
            # the bracket is two adjacent floats
            stop[jump] = closed & ~((jlo < mid) & (mid < jhi))
        done = np.flatnonzero(stop)
        if done.size:
            lanes = ids[done].astype(np.intp)
            out[lanes], out_g[lanes] = b[done], gval[done]
        b[:] = step
        if done.size:
            state = state.compress(~stop, axis=1)


# Re(dz dzbar) and -Im(dz dzbar) on the real coordinates
_DZ_BLOCK = np.diag([1.0, 1.0, 0.0, 0.0])
_DZ_AREA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ]
)


def _solved_lanes(config: CenterConfiguration, x: np.ndarray) -> tuple:
    """The lanes of the block x the chart takes and their roots b, with the
    per-lane errors: the chart floor, then a pole, then a |y|^2 that is not
    a finite float, then a stalled solve for b.  require_smooth_fiber runs
    once, and b is solved over the lanes by one solve_b call."""
    require_smooth_fiber(config)
    z = x[:, 0] + 1j * x[:, 1]
    with np.errstate(over="ignore"):
        y_abs = np.hypot(x[:, 2], x[:, 3])
        y_sq = y_abs * y_abs
    floor = y_abs < EPS_Y_DEFAULT
    pole = ~floor & (np.min(_lane_data(config, z)[1], axis=0) == 0.0)
    overflow = ~np.isfinite(y_sq)
    errors: list = [
        ChartBoundaryError(f"|y| = {v:.3e} is below the chart floor") if f
        else PoleError("metric evaluated on the plane-position locus zbar + a_i = 0") if p
        else NumericOverflowError("|y|^2 is not a finite float") if o
        else None
        for v, f, p, o in zip(y_abs.tolist(), floor.tolist(), pole.tolist(), overflow.tolist())
    ]
    lanes = np.flatnonzero(~(floor | pole | overflow))
    root, stalled = solve_b(config, z[lanes], y_sq[lanes])
    return lanes[[e is None for e in stalled]], root, tensorcalc.lane_results(errors, stalled)


def _eta(dlt, f, w_re, w_im, y_re, y_im) -> tuple:
    """(gamma, Re eta, Im eta) on the real coordinates, as float lanes or
    jets alike, from the centers' Delta_i, f_i and w_i = zbar + a_i on a
    leading axis and from y:

        gamma = sum_i 1 / Delta_i,  conj(delta) = -sum_i w_i / (Delta_i f_i),
        eta = conj(delta) dz + (2/y) dy,  2/y = 2 ybar / |y|^2.
    """
    coef = -1.0 / (dlt * f)
    p, q = (coef * w_re).sum(0), (coef * w_im).sum(0)  # conj(delta) = p + i q
    y_sq = y_re * y_re + y_im * y_im
    s, t = 2.0 * y_re / y_sq, -2.0 * y_im / y_sq  # 2/y = s + i t
    stack = tensorcalc.stack_components
    return (1.0 / dlt).sum(0), stack([p, -q, s, -t]), stack([q, p, t, s])


def metric_at(config: CenterConfiguration, x):
    """Real metric g = Re h at each chart point (Re z, Im z, Re y, Im y) of
    the block x, as a field (see tensorcalc), with the per-lane errors of
    _solved_lanes: _metric of _eta in floats at the roots b."""
    x = tensorcalc.as_block(x)
    lanes, root, errors = _solved_lanes(config, x)
    z_re, z_im, y_re, y_im = x[lanes].T
    b_i, a_i = ghawking.center_axis(config, 1)
    w_re, w_im = z_re + a_i.real, a_i.imag - z_im
    dlt, f = ghawking.stable_factors(root - b_i, np.hypot(w_re, w_im))
    return _metric(*_eta(dlt, f, w_re, w_im, y_re, y_im)), errors


def eta_jets(config: CenterConfiguration, x: np.ndarray) -> tuple:
    """gamma and the real and imaginary parts of eta on the real
    coordinates at each point of the block x, as a field of jets in
    (Re z, Im z, Re y, Im y) over a leading lane axis, with the per-lane
    errors of _solved_lanes.  The jets hold the good lanes.

    b is solved over the lanes by one solve_b call, and its jet follows
    by implicit differentiation of G(x, b) = sum_i log f_i - log|y|^2 = 0.
    One pass of ghawking.center_factors at the constant height b = root
    gives G as a jet, G_b = gamma as a jet (its gradient is G_bx) and
    G_bb = -sum_i u_i / Delta_i^3 as floats, u_i = b - b_i.  Then

        b    = root - G / gamma,          b_x = -G_x / gamma,
        b_xx = -(G_xx + G_bx b_x^T + b_x G_bx^T + G_bb b_x b_x^T) / gamma,

    the Newton step's value and the exact gradient and Hessian of the
    root.  _eta follows in jet arithmetic from a second pass at that b,
    with the cancellation-free branch of ghawking.center_factors chosen on
    the float value.  The centers sit on a leading axis.
    """
    x = tensorcalc.as_block(x)
    lanes, root, errors = _solved_lanes(config, x)
    b_i, a_i = ghawking.center_axis(config, 1)
    x0, x1, x2, x3 = tensorcalc.Jet.seed(x[lanes])
    w_re = x0 + a_i.real
    w_im = a_i.imag - x1
    r_sq = w_re * w_re + w_im * w_im
    log_y_sq = (x2 * x2 + x3 * x3).log()
    u = root - b_i
    dlt, f = ghawking.center_factors(tensorcalc.Jet.constant(u), r_sq)
    G, G_b = f.log().sum(0) - log_y_sq, dlt.inv().sum(0)
    G_bb = -(u / dlt.val**3).sum(0)
    slope = G_b.val[:, None]
    b_x = -G.grad / slope
    # cross + cross^T, like Jet's products, keeps the Hessian exactly symmetric
    cross = G_b.grad[:, :, None] * b_x[:, None, :]
    outer = b_x[:, :, None] * b_x[:, None, :]
    b_xx = -(G.hess + (cross + np.swapaxes(cross, 1, 2)) + G_bb[:, None, None] * outer)
    b_xx /= slope[..., None]
    b = tensorcalc.Jet(root - G.val / G_b.val, b_x, b_xx)
    dlt, f = ghawking.center_factors(b - b_i, r_sq)
    return _eta(dlt, f, w_re, w_im, x2, x3), errors


def _metric(gam, re, im):
    """g = Re h = gamma Re(dz dzbar) + (Re eta Re eta^T + Im eta Im eta^T) / gamma,
    for arrays and jets alike, over any leading lane axes."""
    gam = gam[..., None, None]
    outer = re[..., :, None] * re[..., None, :] + im[..., :, None] * im[..., None, :]
    return outer / gam + gam * _DZ_BLOCK


def _kahler_form(gam, re, im):
    """omega = -Im h = -gamma Im(dz dzbar) + (Re eta Im eta^T - Im eta Re eta^T) / gamma."""
    gam = gam[..., None, None]
    outer = re[..., :, None] * im[..., None, :] - im[..., :, None] * re[..., None, :]
    return outer / gam + gam * _DZ_AREA


def metric_of(eta: tuple) -> tensorcalc.Jet:
    """The metric jet of the good lanes, assembled from the (gamma, Re eta,
    Im eta) jets of eta_jets."""
    return _metric(*eta)


def kahler_of(eta: tuple) -> tuple:
    """(g, omega, J) of the good lanes, assembled from the (gamma, Re eta,
    Im eta) jets of eta_jets: g as a float array, omega = -Im h as a jet,
    and J the constant STANDARD_J as a jet with zero derivatives.  g and
    omega are assembled separately from the same eta, so omega = J0^T g is
    a check, not an identity of the code."""
    gam, re, im = eta
    J = tensorcalc.Jet.constant(np.broadcast_to(STANDARD_J, gam.val.shape + (4, 4)))
    return _metric(gam.val, re.val, im.val), _kahler_form(gam, re, im), J


def action(signature: QuotientSignature) -> tuple[np.ndarray, np.ndarray]:
    """The generator of the cyclic action, (z, y) -> (rho^m z, rho^(-1) y),
    as the affine map x -> M x + shift of the chart coordinates: M rotates
    both complex coordinates, and the shift is 0."""
    n = signature.n
    ang_z = 2.0 * math.pi * signature.m / n
    ang_y = -2.0 * math.pi / n
    out = np.zeros((4, 4))
    for offset, ang in ((0, ang_z), (2, ang_y)):
        c, s = math.cos(ang), math.sin(ang)
        out[offset, offset] = c
        out[offset, offset + 1] = -s
        out[offset + 1, offset] = s
        out[offset + 1, offset + 1] = c
    return out, np.zeros(4)


def user_coords(vals: Sequence[float]) -> Sequence[float]:
    """User-given chart coordinates, checked: four of them."""
    if len(vals) != 4:
        raise ValueError("hitchin points take re(z),im(z),re(y),im(y)")
    return vals


def base_to_chart(config: CenterConfiguration, x) -> tuple:
    """Complex-chart coordinates (Re z, Im z, Re y, Im y) over each point
    (theta, b, a1, a2) of a block x of circle-fibered chart points, as a
    field (see tensorcalc): z = -conj(a) and |y|^2 = prod_i ((b - b_i) +
    Delta_i), with theta the phase of y.  A lane whose product vanishes
    (a base point on the y = 0 locus) gets ChartBoundaryError, and one
    whose |y|^2 is not a finite float NumericOverflowError."""
    x = tensorcalc.as_block(x)
    z_re, z_im = -x[:, 2], x[:, 3]
    b_i, r = _lane_data(config, z_re + 1j * z_im)
    with np.errstate(all="ignore"):
        log_y_sq = _lane_log_lhs(b_i, r, x[:, 1])[0]
        y_abs, theta = np.exp(0.5 * log_y_sq), x[:, 0]
        overflow = ~np.isfinite(y_abs * y_abs)
        lifted = np.column_stack([z_re, z_im, y_abs * np.cos(theta), y_abs * np.sin(theta)])
    on_locus = log_y_sq == -math.inf
    errors: list = [
        ChartBoundaryError("base point lies on the y = 0 locus") if v
        else NumericOverflowError("|y|^2 of the lift is not a finite float") if o
        else None
        for v, o in zip(on_locus.tolist(), overflow.tolist())
    ]
    return lifted[~(on_locus | overflow)], errors


_DECAY_DIRECTIONS = np.array(
    [
        [0.36, 0.48, 0.80],
        [-0.60, 0.64, 0.48],
        [0.64, -0.60, -0.48],
        [-0.48, -0.36, 0.80],
    ]
)


def ale_curvature_samples(
    config: CenterConfiguration,
) -> tuple[np.ndarray, list[list[float]]]:
    """|Rm|^2 on the locally Euclidean end: the radii, and per radius the
    values along a fixed direction set.  The geodesic distance along a ray
    is sqrt(2k s) + O(1) in the base coordinate s, so radius r is sampled
    at the base points (r^2 / 2k) * direction."""
    if config.mode != "ale":
        raise FitDomainError("curvature decay fit applies to ale configurations")
    scale = max(1.0, config.extent())
    radii = np.geomspace(10.0, 100.0, 6) * math.sqrt(scale)
    base_radii = radii**2 / (2.0 * config.k)
    if np.min(base_radii) < 2.0 * scale:
        raise FitDomainError("smallest radius is inside the configuration region")
    directions = _DECAY_DIRECTIONS / np.linalg.norm(_DECAY_DIRECTIONS, axis=1)[:, None]
    # six radii by four directions, at theta = 0: one block of 24 lanes
    base = (base_radii[:, None, None] * directions).reshape(-1, 3)
    points = tensorcalc.every_lane(
        base_to_chart(config, np.column_stack([np.zeros(len(base)), base]))
    )
    metric = tensorcalc.assembled(lambda x: eta_jets(config, x), metric_of)
    rm = tensorcalc.every_lane(tensorcalc.curvature_at(metric, points)).riem_norm_sq
    return radii, rm.reshape(len(base_radii), len(directions)).tolist()


def ale_curvature_decay(config: CenterConfiguration) -> FitResult:
    """Fit log |Rm|^2, averaged over the sample directions, against log r:
    metric decay O(r^-4) forces |Rm| = O(r^-6), i.e. slope -12."""
    radii, values = ale_curvature_samples(config)
    return fit_loglog(radii, [float(np.mean(vals)) for vals in values])

