"""Multi-center circle-fibered (Gibbons-Hawking) metrics.

On R^3 with coordinates x = (b, a1, a2) = (b, Re a, Im a), the harmonic
potential of a center list {x_i} is

    V = 1/2 sum_i 1/|x - x_i|          (ale, akl)
    V = 1 + 1/2 sum_i 1/|x - x_i|      (alf)

and the metric on the circle bundle over the complement of the centers is

    g = V^{-1} (dtheta + alpha)^2 + V (db^2 + da1^2 + da2^2),

where the connection 1-form alpha satisfies d alpha = *dV (orientation
db ^ da1 ^ da2) and is realized in the one gauge

    alpha = sum_i 1/2 ((b - b_i)/Delta_i - 1) dphi_i,

singular only on the downward ray below each center (its Dirac string),
where evaluation raises.  det g = V^2 exactly.

The compatible integrable complex structure maps the orthonormal frame

    e0 = V^(1/2) d/dtheta,   e1 = V^(-1/2) d/db,
    e2 = V^(-1/2)(d/da1 - alpha_1 d/dtheta),
    e3 = V^(-1/2)(d/da2 - alpha_2 d/dtheta)

by J e0 = e1 and J e3 = e2, which in coordinate components is

    J = [[0,   -V,  alpha_2,   -alpha_1 ],
         [1/V,  0,  alpha_1/V,  alpha_2/V],
         [0,    0,  0,          1       ],
         [0,    0, -1,          0       ]].

The in-plane orientation (e3 -> e2, not e2 -> e3) is forced: with
d alpha = +*dV it is the choice that makes the associated 2-form

    omega = (dtheta + alpha) ^ db - V da1 ^ da2

closed, and the only one with vanishing Nijenhuis tensor.

Fields take blocks of points (see tensorcalc).  Each per-center term
has one formula, the centers on a leading axis (center_axis): Delta_i
and f_i are center_factors (stable_factors in floats, which the complex
chart takes too), factor_faults finds the poles and strings from them,
and alpha (_connection) and g (_metric) take float lanes and jets alike.
metric_at gives the metric's values, V through potential_at, each lane
with its own PoleError or DiracStringError.  The chart's state on a
block is the field potential_jets, V and alpha as second-order jets
(tensorcalc.Jet) over a leading lane axis, which gives curvature,
d(omega) and the Nijenhuis tensor exact derivatives from one evaluation;
each lane is evaluated alone (_point_jets).  metric_of and kahler_of
assemble the metric jet and (g, omega, J) from it, each in one call over
any leading lane axes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from gravinst import tensorcalc
from gravinst.errors import (
    DiracStringError,
    NumericOverflowError,
    PathBlockedError,
    PoleError,
)
from gravinst.fitting import FitResult, fit_loglog
from gravinst.quadrature import adaptive_simpson
from gravinst.singularities import CenterConfiguration, QuotientSignature, row_blocks
from gravinst.tensorcalc import Coords, Jet


def _alf_constant(config: CenterConfiguration) -> float:
    """The constant term of V: 1 for an ALF configuration, 0 otherwise."""
    return 1.0 if config.mode == "alf" else 0.0


def center_axis(config: CenterConfiguration, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """The centers' b_i and a_i on a leading axis, then ndim axes of one.
    numpy reduces over a leading axis several times faster than over a
    short trailing one, and in the order of the centers."""
    axes = (-1,) + (1,) * ndim
    b_i = np.array([c.b for c in config.centers]).reshape(axes)
    return b_i, np.array([c.a for c in config.centers]).reshape(axes)


def center_distance(u: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Delta_i = sqrt(u^2 + r^2) elementwise, the one float distance to a
    center: within one ulp of np.hypot at about a quarter of its cost, and
    exactly |u| where r = 0.  Where u^2 + r^2 leaves (1e-290, 1e290), so
    that a square may have overflowed or lost its bits to underflow (or is
    not finite), np.hypot gives the value."""
    # a square that overflows takes the np.hypot branch
    with np.errstate(over="ignore"):
        s = u * u + r * r
    # min and max propagate a NaN, which fails both tests
    if s.min(initial=1.0) > 1e-290 and s.max(initial=1.0) < 1e290:
        return np.sqrt(s)
    return np.where((s > 1e-290) & (s < 1e290), np.sqrt(s), np.hypot(u, r))


def stable_factors(u: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Delta_i, f_i) in floats, the twin of center_factors: Delta_i =
    center_distance(u, r) and f_i = u + Delta_i, taken as r^2 / (Delta_i - u)
    where u < 0 so that it never cancels.  Both come from one sum t =
    |u| + Delta_i, exactly u + Delta_i or Delta_i - u on its branch.  Every
    float factor of either chart goes through here, under the caller's
    np.errstate (the branch not taken may divide by zero)."""
    delta = center_distance(u, r)
    t = np.abs(u) + delta
    return delta, np.where(u >= 0.0, t, (r * r) / t)


def factor_faults(dlt: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pole, string) per lane, the centers on the leading axis: where some
    1/2 / (Delta_i f_i), alpha's coefficient, overflows, a pole if some
    1/2 / Delta_i^2 does too (within about 1e-154 of a center), else a
    string.  Under the caller's np.errstate."""
    bad = np.isinf(0.5 / (dlt * f))
    pole = np.any(bad & np.isinf(0.5 / (dlt * dlt)), axis=0)
    return pole, ~pole & np.any(bad, axis=0)


def center_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the leading center axis in the centers' order for any lane
    count: numpy adds two lanes or more row by row but one lane pairwise,
    which rounds differently from 8 centers on, so one takes the running sum."""
    if terms[0].size == 1:
        return np.add.accumulate(terms, axis=0)[-1]
    return terms.sum(axis=0)


def potential_at(
    config: CenterConfiguration, b: float | np.ndarray, a: complex | np.ndarray
) -> float | np.ndarray:
    """Harmonic potential V at the base point (b, a).

    b and a are scalars or numpy arrays; V is evaluated elementwise over
    their broadcast shape, the centers summed by center_sum, and comes
    back as a float for scalar b and a.  PoleError where some 1/2 / Delta_i
    overflows: at a center, or within about 3e-309 of one.
    """
    b, a = np.asarray(b), np.asarray(a)
    b_i, a_i = center_axis(config, max(b.ndim, a.ndim))
    with np.errstate(divide="ignore", over="ignore"):
        terms = 0.5 / center_distance(b - b_i, np.abs(a - a_i))
    if np.isinf(terms).any():
        raise PoleError("potential evaluated at a center")
    V = _alf_constant(config) + center_sum(terms)
    return V if V.ndim else float(V)


def _potential_lanes(config: CenterConfiguration, x: np.ndarray) -> tuple:
    """V, alpha_1 and alpha_2 over the good lanes of the block x, with
    the per-lane errors of factor_faults:
    PoleError at a center, then DiracStringError on a string, as the jets
    give them.  V is read through potential_at, on the good lanes only,
    and alpha is _connection of the float factors."""
    b, a = x[:, 1], x[:, 2] + 1j * x[:, 3]
    b_i, a_i = center_axis(config, 1)
    w = a - a_i
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dlt, f = stable_factors(b - b_i, np.abs(w))
        pole, string = factor_faults(dlt, f)
    errors = [
        PoleError("metric evaluated at a center") if p
        else DiracStringError("evaluation on the Dirac string of a center") if s
        else None
        for p, s in zip(pole.tolist(), string.tolist())
    ]
    good = ~(pole | string)
    a1, a2 = _connection(dlt[:, good], f[:, good], w.real[:, good], w.imag[:, good])
    return (potential_at(config, b[good], a[good]), a1, a2), errors


def _metric(V, a1, a2):
    """g = u u^T / V + V diag(0, 1, 1, 1) with u = (1, 0, alpha_1, alpha_2),
    from the values or the jets of V and the connection, over any leading
    lane axes."""
    lanes = np.shape(V.val if isinstance(V, Jet) else V)
    u = tensorcalc.stack_components([np.ones(lanes), np.zeros(lanes), a1, a2])
    V = V[..., None, None]
    return u[..., :, None] * u[..., None, :] / V + V * np.diag([0.0, 1.0, 1.0, 1.0])


def metric_at(config: CenterConfiguration, x):
    """Metric at each chart point (theta, b, a1, a2) of the block x, as a
    field (see tensorcalc); det g = V^2 identically."""
    values, errors = _potential_lanes(config, tensorcalc.as_block(x))
    return _metric(*values), errors


def center_factors(u: Jet, r_sq: Jet) -> tuple[Jet, Jet]:
    """(Delta_i, f_i) per center as jets, from u_i = b - b_i and
    r_i^2: Delta_i = sqrt(u_i^2 + r_i^2) and f_i = Delta_i + u_i, taken as
    r_i^2 / (Delta_i - u_i) where u_i < 0 so that it never cancels.  f_i
    vanishes exactly on the axis below a center."""
    dlt = (u * u + r_sq).sqrt()
    above = u.val >= 0.0
    outer = dlt + u * np.where(above, 1.0, -1.0)  # Delta_i + |u_i|
    return dlt, Jet.where(above, outer, r_sq / outer)


def _connection(dlt, f, w_re, w_im):
    """(alpha_1, alpha_2) from the centers' Delta_i, f_i and w_i = a - a_i
    on a leading axis, as float lanes or jets alike:

        alpha_1 = 1/2 sum_i Im w_i / (Delta_i f_i),
        alpha_2 = -1/2 sum_i Re w_i / (Delta_i f_i),

    the gauge 1/2 ((b - b_i)/Delta_i - 1) dphi_i with no cancellation."""
    coef = 0.5 / (dlt * f)
    return (coef * w_im).sum(0), -(coef * w_re).sum(0)


def potential_jets(config: CenterConfiguration, x) -> tuple:
    """V, alpha_1 and alpha_2 at each point of the block x as a field of
    jets over a leading lane axis (see tensorcalc), with the per-lane
    errors: PoleError at a center and DiracStringError on a string.  Each
    lane is evaluated alone, by _point_jets, and the good lanes' jets are
    stacked."""
    values, errors = [], []
    for p in tensorcalc.as_block(x).tolist():
        try:
            values.append(_point_jets(config, tuple(p)))
            errors.append(None)
        except (PoleError, DiracStringError) as exc:
            errors.append(exc)
    if not values:
        # Jet.stack needs one jet to stack
        return (Jet.constant(np.zeros(0)),) * 3, errors
    return tuple(Jet.stack(parts) for parts in zip(*values)), errors


def _point_jets(config: CenterConfiguration, x: Coords) -> tuple[Jet, Jet, Jet]:
    """V, alpha_1 and alpha_2 at the chart point x as jets, each a sum
    over a per-center axis, alpha by _connection.  PoleError at a center
    and DiracStringError on a string, by factor_faults as metric_at.
    """
    b_i, a_i = center_axis(config, 0)
    _, b, a1, a2 = Jet.seed(x)
    u = b - b_i
    w_re, w_im = a1 - a_i.real, a2 - a_i.imag
    r_sq = w_re * w_re + w_im * w_im
    # a faulty lane's derivatives may divide by zero or overflow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dlt, f = center_factors(u, r_sq)
        pole, string = factor_faults(dlt.val, f.val)
    if pole:
        raise PoleError("potential evaluated at a center")
    if string:
        raise DiracStringError("evaluation on the down Dirac string of a center")
    V = 0.5 * dlt.inv().sum() + _alf_constant(config)
    return (V, *_connection(dlt, f, w_re, w_im))


def _matrix(rows: tuple, lanes: tuple) -> Jet:
    """The 4x4 matrix jet over the lane shape lanes whose rows hold jets
    and constants, each component written once into its place."""
    out = Jet.constant(np.zeros(lanes + (4, 4)))
    for i, row in enumerate(rows):
        for j, c in enumerate(row):
            c = c if isinstance(c, Jet) else Jet.constant(c)
            out.val[..., i, j] = c.val
            out.grad[..., i, j, :], out.hess[..., i, j, :, :] = c.grad, c.hess
    return out


def metric_of(jets: tuple[Jet, Jet, Jet]) -> Jet:
    """The metric jet assembled from the (V, alpha_1, alpha_2) jets of
    potential_jets, by _metric, over any leading lane axes (a block's
    state), in front of its 4x4 value: each lane the same bits as alone."""
    return _metric(*jets)


def kahler_of(jets: tuple[Jet, Jet, Jet]) -> tuple[np.ndarray, Jet, Jet]:
    """(g, omega, J) assembled from the (V, alpha_1, alpha_2) jets of
    potential_jets, over any leading lane axes as metric_of: g as a float
    array from their values, omega and J (module docstring) as jets."""
    V, a1, a2 = jets
    r = 1.0 / V
    omega = (  # (dtheta + alpha) ^ db - V da1 ^ da2
        (0.0, 1.0, 0.0, 0.0),
        (-1.0, 0.0, -a1, -a2),
        (0.0, a1, 0.0, -V),
        (0.0, a2, V, 0.0),
    )
    J = (
        (0.0, -V, a2, -a1),
        (r, 0.0, a1 * r, a2 * r),
        (0.0, 0.0, 0.0, 1.0),
        (0.0, 0.0, -1.0, 0.0),
    )
    lanes = V.val.shape
    return _metric(V.val, a1.val, a2.val), _matrix(omega, lanes), _matrix(J, lanes)


def action(signature: QuotientSignature) -> tuple[np.ndarray, np.ndarray]:
    """The generator of the cyclic action, (theta, b, a) -> (theta + 2 pi / n,
    b, rho^(-m) a), as the affine map x -> M x + shift of (theta, b, a1,
    a2): M rotates the plane by -2 pi m / n, the shift translates theta."""
    n = signature.n
    ang = -2.0 * math.pi * signature.m / n
    c, s = math.cos(ang), math.sin(ang)
    out = np.eye(4)
    out[2, 2] = c
    out[2, 3] = -s
    out[3, 2] = s
    out[3, 3] = c
    return out, np.array([2.0 * math.pi / n, 0.0, 0.0, 0.0])


def user_coords(vals: Sequence[float]) -> Sequence[float]:
    """User-given chart coordinates, checked: theta defaults to 0."""
    if len(vals) == 3:
        vals = [0.0, *vals]
    if len(vals) != 4:
        raise ValueError("gh points take theta,b,a1,a2 (or b,a1,a2)")
    return vals


def string_clearance(config: CenterConfiguration, b: float, a: complex) -> float:
    """Distance from the base point to the nearest Dirac string (the
    downward rays below the centers)."""
    best = math.inf
    for c in config.centers:
        horiz = abs(a - c.a)
        if b <= c.b:
            best = min(best, horiz)
        else:
            best = min(best, math.hypot(horiz, b - c.b))
    return best


def center_clearance(config: CenterConfiguration, b: float, a: complex) -> float:
    return min(math.hypot(b - c.b, abs(a - c.a)) for c in config.centers)


def cycle_period(config: CenterConfiguration, i, j) -> tuple:
    """Integral of the Kahler form over the circle-fibered 2-cycle above
    the segment from center i to center j, in closed form, on lanes of
    center pairs.

    The surface is parametrized by (t, theta); the fiber collapses at the
    endpoints.  omega's theta column is (0, -1, 0, 0) whatever V and alpha
    are, so the integrand tangent . omega . d_theta is -(b_j - b_i) at
    every point and the period is -2 pi (b_j - b_i): the heights are the
    Kahler class.  The 2-cycle exists only if no third center lies on the
    segment, to within 1e-9 of the configuration scale.

    i and j broadcast to one 1-D shape (N,) of distinct center indices,
    one lane per pair; anything else is a ValueError.  Gives (periods,
    errors) as a field does (see tensorcalc): the periods of the clear
    pairs in order, and per lane None or the PathBlockedError of a
    blocked one.  The segments are tested against every center in numpy,
    over row_blocks of the pairs.
    """
    i, j = np.broadcast_arrays(np.asarray(i), np.asarray(j))
    if i.ndim != 1 or not all(np.issubdtype(v.dtype, np.integer) for v in (i, j)):
        raise ValueError("cycle_period takes 1-D lanes of center indices")
    if np.any((i == j) | (np.minimum(i, j) < 0) | (np.maximum(i, j) >= config.k)):
        raise ValueError("period needs two distinct center indices")
    b, a = center_axis(config, 0)
    tol = 1e-9 * max(1.0, config.extent())
    blocked = np.zeros(i.size, dtype=bool)
    for rows in row_blocks(i.size, config.k):
        bi, ai = b[i[rows], None], a[i[rows], None]
        db, da = b[j[rows], None] - bi, a[j[rows], None] - ai
        # every center against each segment: the segment's point nearest
        # to it, in R^3
        ub, ua = b - bi, a - ai
        t = (ub * db + (ua * np.conj(da)).real) / (db * db + np.abs(da) ** 2)
        t = np.minimum(1.0, np.maximum(0.0, t))
        near = np.hypot(ub - t * db, np.abs(ua - t * da)) <= tol
        # the endpoint cone points are not obstructions
        lanes = np.arange(len(t))
        near[lanes, i[rows]] = near[lanes, j[rows]] = False
        blocked[rows] = near.any(axis=1)
    errors = [
        PathBlockedError("segment passes through a third center") if v else None
        for v in blocked.tolist()
    ]
    return -2.0 * math.pi * (b[j] - b[i])[~blocked], errors


def coordinate_ball_volume(config: CenterConfiguration, R: float) -> float:
    """Riemannian volume of the theta-bundle over the coordinate ball
    |x| <= R, i.e. 2 pi int_{B_R} V d^3x (the volume density is exactly V).

    The angular average of each 1/|x - x_i| over the sphere of radius r is
    1/max(r, |x_i|) (mean-value property of harmonic functions), so the
    volume is 8 pi^2 int_0^R r^2 (c + 1/2 sum_i 1/max(r, s_i)) dr with
    s_i = |x_i| and c the ALF constant, and each term integrates exactly:
    int_0^R r^2 / max(r, s) dr is R^3 / (3 s) for s > R and
    R^2 / 2 - s^2 / 6 for s <= R (the two agree at s = R).  A volume that
    is not a finite float is a NumericOverflowError.
    """
    if not R >= 0.0:
        raise ValueError("ball radius must be non-negative")
    R = np.float64(R)
    # an overflowing R^3 leaves the total infinite or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        total = _alf_constant(config) * R**3 / 3.0
        for c in config.centers:
            s = float(np.linalg.norm(c.as_r3()))
            total += 0.5 * (R**3 / (3.0 * s) if s > R else 0.5 * R * R - s * s / 6.0)
    if not math.isfinite(total):
        raise NumericOverflowError(f"the ball volume at radius {R:.3g} is not a finite float")
    return 8.0 * math.pi**2 * total


_RAY_DIRECTIONS = np.array(
    [
        [0.28, 0.67, 0.69],
        [-0.53, 0.71, -0.46],
        [0.81, -0.33, 0.49],
        [-0.62, -0.55, 0.56],
        [0.15, 0.43, -0.89],
        [-0.41, -0.38, -0.83],
    ]
)
_RAY_DIRECTIONS /= np.linalg.norm(_RAY_DIRECTIONS, axis=1)[:, None]


def geodesic_radii(config: CenterConfiguration, radii) -> np.ndarray:
    """Radial geodesic lengths int_0^R sqrt(V) dr for each coordinate
    radius R of the increasing sequence radii, averaged over a fixed set
    of rays from the origin.

    Each ray is cut at the radii after a head piece up to min(1, R_0 / 4),
    and every piece is integrated in u = sqrt(t): 2u sqrt(V(u^2)) absorbs
    the inverse-square-root behavior of sqrt(V) when a center sits at the
    ray origin, and tends to a constant (ale, V ~ k / (2t)) or to 2u (alf),
    which the Kronrod rule integrates exactly.  That rule is open, so it
    never evaluates u = 0, where a center at the ray origin has its pole.
    The pieces of all rays are the lanes of one quadrature, so each depth
    level evaluates V once; each ray's pieces are summed in order.
    """
    radii = np.asarray(radii, dtype=float)
    rays = len(_RAY_DIRECTIONS)
    ends = np.sqrt(np.concatenate([[min(1.0, 0.25 * radii[0])], radii]))
    pieces = len(ends)

    def substituted(u: np.ndarray, lane: np.ndarray) -> np.ndarray:
        t, d = u * u, _RAY_DIRECTIONS[lane // pieces]
        return 2.0 * u * np.sqrt(potential_at(config, t * d[:, 0], t * (d[:, 1] + 1j * d[:, 2])))

    starts = np.concatenate([[0.0], ends[:-1]])
    lengths = adaptive_simpson(substituted, np.tile(starts, rays), np.tile(ends, rays))
    return np.cumsum(lengths.reshape(rays, pieces), axis=1)[:, 1:].mean(axis=0)


def volume_growth_fit(config: CenterConfiguration, mode: str | None = None) -> FitResult:
    """Fit log(volume) against log(geodesic radius) over coordinate radii.

    Euclidean-type growth gives slope 4 (ale), one collapsed circle
    direction gives slope 3 (alf).  mode, if given, must be config.mode
    (ValueError otherwise); the configuration alone decides the metric.
    """
    if mode not in (None, config.mode):
        raise ValueError(f"mode {mode!r} is not the configured mode {config.mode!r}")
    scale = max(1.0, config.extent())
    # chosen far outside the configuration so the offset between
    # coordinate and geodesic radius no longer bends the log-log line
    if config.mode == "alf":
        radii = np.geomspace(100.0, 1100.0, 6) * scale
    else:
        radii = np.geomspace(1000.0, 110000.0, 6) * scale
    vols = [coordinate_ball_volume(config, R) for R in radii]
    return fit_loglog(geodesic_radii(config, radii), vols)
