"""Finite-difference reference derivatives for the tests.

The program takes every derivative from exact jets (tensorcalc.Jet); the
tests compare those jets with this independent reference.  Derivatives
are central differences with one level of Richardson extrapolation, so a
first derivative at step h combines the stencils at h and h/2 and is
accurate to O(h^4).  One stencil table serves every derivative: its
weights nest that kernel once per order, the field is evaluated once at
each distinct point, and mixed partials share one weight row, so they
are exactly symmetric.

Every field of the program takes a block of points (see
gravinst.tensorcalc); at_point evaluates one at a single point, as a
block of one.  fd_derivatives differentiates either such a field or a
plain function of one point, and gives a field.  gh_kahler_forms is the
circle-fibered Kahler form and complex structure as a field, from their
closed forms, the reference for the chart's jets.

The module also keeps, as their references, the float forms of what the
program runs over numpy lanes: the recursive adaptive Gauss-Kronrod
rule, for the breadth-first lane quadrature (gravinst.quadrature), and the
implicit height's log-sum (log_lhs) with its float Newton loop, for
hitchin.solve_b, and the float lift of a base point, for
hitchin.base_to_chart.  Replaced kernels stay as references too: the
einsum chain of the curvature assembly (einsum_curvature), for
tensorcalc's matrix products; the two jet Newton steps for the implicit
height's jet (newton_eta_jets), for hitchin.eta_jets; the int64 Halton
digits (integer_halton), for sampling.halton; and the per-pair segment
loop (float_cycle_period), for ghawking.cycle_period's lanes.  The
recursive adaptive Simpson rule (recursive_simpson) stays as an
integrator independent of the program's rule.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from typing import Callable, Sequence

import numpy as np

from gravinst import ghawking, hitchin, tensorcalc
from gravinst.errors import (
    ChartBoundaryError,
    ConvergenceError,
    GeometryError,
    NumericOverflowError,
    PathBlockedError,
    PoleError,
)
from gravinst.quadrature import (
    ABS_TOL,
    GAUSS_WEIGHTS,
    KRONROD_NODES,
    KRONROD_WEIGHTS,
    MAX_DEPTH,
    REL_TOL,
)
from gravinst.singularities import CenterConfiguration
from gravinst.tensorcalc import Coords, Jet

DEFAULT_REL_STEP = 1e-3

# a plain function of one point, x -> array
PointField = Callable[[Coords], np.ndarray]

# a partial derivative by its axes, one per order; () is the value itself
Axes = tuple[int, ...]

# The 1-D Richardson kernel (4 D(h/2) - D(h)) / 3 with
# D(h) = (f(x+h) - f(x-h)) / 2h, as (offset, weight) in units of the step h.
_KERNEL = ((-1.0, 1.0 / 6.0), (-0.5, -4.0 / 3.0), (0.5, 4.0 / 3.0), (1.0, -1.0 / 6.0))
_FIRST = ((0,), (1,), (2,), (3,))
# d_m d_i for m <= i, in the order of np.triu_indices
_SECOND = tuple((m, i) for m in range(4) for i in range(m, 4))


def at_point(field: Callable, x: Coords):
    """field on the block of the one point x: lane 0's value, or lane 0's
    error raised.  field is a field, giving (value over the good lanes,
    per-lane errors)."""
    value, (error,) = field(np.asarray(x, dtype=float)[None])
    if error is not None:
        raise error
    return value[0]


def shifted_points(b: float, a: complex, h: float) -> np.ndarray:
    """The circle-fibered chart points at theta = 0 over the base point
    (b, a) moved by +h along b, a1 and a2, then by -h along them: a block
    of six for central differences."""
    base = np.array([b, a.real, a.imag]) + np.concatenate([h * np.eye(3), -h * np.eye(3)])
    return np.column_stack([np.zeros(6), base])


def gh_connection(config: CenterConfiguration, x: np.ndarray) -> np.ndarray:
    """(alpha_1, alpha_2) of the circle-fibered chart at each point of the
    block x, read off one ghawking.metric_at call: g_0j / g_00 = alpha_j.
    The first failing lane's error is raised."""
    g = _eval_block(lambda block: ghawking.metric_at(config, block), x)
    return g[:, 0, 2:] / g[:, 0, 0, None]


def gh_kahler_forms(config: CenterConfiguration, x: np.ndarray) -> tuple:
    """omega and J of the circle-fibered chart, stacked on axis 1, at each
    point of the block x, as a field: the closed forms of
    gravinst.ghawking's docstring,

        omega = (dtheta + alpha) ^ db - V da1 ^ da2,
        J = [[0, -V, alpha_2, -alpha_1], [1/V, 0, alpha_1/V, alpha_2/V],
             [0, 0, 0, 1], [0, 0, -1, 0]],

    with V and alpha read off ghawking.metric_at: g_00 = 1/V and
    g_0j = alpha_j / V."""
    g, errors = ghawking.metric_at(config, x)
    V = 1.0 / g[:, 0, 0]
    a1, a2 = g[:, 0, 2] * V, g[:, 0, 3] * V
    o, e = np.zeros_like(V), np.ones_like(V)
    omega = [[o, e, o, o], [-e, o, -a1, -a2], [o, a1, o, -V], [o, a2, V, o]]
    J = [[o, -V, a2, -a1], [e / V, o, a1 / V, a2 / V], [o, o, o, e], [o, o, -e, o]]
    return np.moveaxis(np.array([omega, J]), -1, 0), errors


def default_step(x: Coords, rel_step: float = DEFAULT_REL_STEP) -> np.ndarray:
    """Default per-axis steps: rel_step times the larger of 1 and the
    local coordinate scale.

    The four chart coordinates come in two pairs (two complex coordinates,
    or a fiber/height pair and a plane pair), and fields vary on the scale
    of the pair magnitude, so both axes of a pair share the step
    rel_step * max(1, |(x_even, x_odd)|).
    """
    a = np.abs(x)
    s01 = max(1.0, math.hypot(a[0], a[1]))
    s23 = max(1.0, math.hypot(a[2], a[3]))
    return rel_step * np.array([s01, s01, s23, s23])


def chart_step(
    config: CenterConfiguration, x: Coords, rel_step: float = DEFAULT_REL_STEP
) -> np.ndarray:
    """Steps adapted to the complex chart (Re z, Im z, Re y, Im y).

    The metric varies on the scale of the distance to the nearest
    puncture in z and on the scale of |y| itself near the branch locus,
    so steps are capped by both; far from the singular loci they grow
    with the coordinate magnitudes to keep truncation error scale-free.
    """
    z, y = complex(x[0], x[1]), complex(x[2], x[3])
    zbar = z.conjugate()
    d_punct = min(abs(zbar + c.a) for c in config.centers)
    if d_punct <= 0.0:
        raise PoleError("step requested at a puncture")
    if y == 0:
        raise ChartBoundaryError("step requested on the branch locus y = 0")
    s_z = min(max(1.0, abs(z)), 10.0 * d_punct)
    s_y = abs(y)
    return rel_step * np.array([s_z, s_z, s_y, s_y])


def _normalize_steps(x: Coords, step) -> np.ndarray:
    if step is None:
        return default_step(x)
    steps = np.broadcast_to(np.asarray(step, dtype=float), (4,)).copy()
    if np.any(steps <= 0.0) or not np.all(np.isfinite(steps)):
        raise ValueError("steps must be positive and finite")
    return steps


def _eval_array(field: PointField, x: Coords) -> np.ndarray:
    value = np.asarray(field(x), dtype=float)
    if not np.isfinite(value).all():
        raise NumericOverflowError(f"field produced a non-finite value at {x}")
    return value


@functools.cache
def _stencil_table(partials: tuple[Axes, ...]):
    """The distinct offsets, in units of the per-axis step, of the stencil
    of some partial derivatives, their orders per axis, and their rows:
    the first offset's index and the other offsets' indices and weights.
    The weights nest the kernel once per axis, coinciding offsets merged;
    the value () is the row {x: 1}."""
    points: dict = {}  # offset -> index, in order of first use
    rows = []
    for axes in partials:
        row = {(0.0, 0.0, 0.0, 0.0): 1.0}
        for axis in axes:
            nested: dict = {}
            for off, w in row.items():
                for d, k in _KERNEL:
                    o = off[:axis] + (off[axis] + d,) + off[axis + 1 :]
                    nested[o] = nested.get(o, 0.0) + w * k
            row = nested
        idx = np.array([points.setdefault(o, len(points)) for o in row])
        rows.append((idx[0], idx[1:], np.array(list(row.values()))[1:, None]))
    orders = np.array([[axes.count(a) for a in range(4)] for axes in partials])
    return np.array(list(points)), orders, rows


def _eval_block(field: Callable, points: np.ndarray) -> np.ndarray:
    """A field (see gravinst.tensorcalc) on the block points; the first
    failing lane's error is raised."""
    values, errors = field(points)
    for err in errors:
        if err is not None:
            raise err
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise NumericOverflowError("field produced a non-finite value on the stencil")
    return values


def _stencil(
    field: Callable,
    x: Coords,
    steps: np.ndarray,
    partials: tuple[Axes, ...],
    blocks: bool = False,
) -> np.ndarray:
    """The partial derivatives of a field at x, stacked on a leading axis,
    with validated steps.  The field is evaluated once at each distinct
    stencil point, which adds its offset to x only where it is nonzero:
    one call per point, or, for a field (blocks), one call on the block
    of them."""
    offsets, orders, rows = _stencil_table(partials)
    points = np.where(offsets != 0.0, np.add(x, offsets * steps), x)
    if blocks:
        values = _eval_block(field, points)
    else:
        values = np.stack([_eval_array(field, tuple(p)) for p in points.tolist()])
    flat = values.reshape(len(points), -1)
    # a derivative's weights sum to zero, so it sums the weighted differences
    # from its first point, exactly zero where the field is constant on the
    # row; the value is x's own array, signed zeros and all
    out = np.empty((len(rows), flat.shape[1]))
    for r, (first, rest, w) in enumerate(rows):
        out[r] = (w * (flat[rest] - flat[first])).sum(axis=0) if len(rest) else flat[first]
    out /= np.prod(steps**orders, axis=1)[:, None]
    if not np.isfinite(out).all():
        raise NumericOverflowError("derivative evaluation produced a non-finite value")
    return out.reshape((len(rows),) + values.shape[1:])


def differentiate_field(
    field: PointField,
    x: Coords,
    multi_index: Sequence[int],
    step: float | Sequence[float] | None = None,
) -> np.ndarray:
    """Partial derivative of an array-valued field at a point.

    multi_index gives the derivative order per coordinate (each entry 0..2).
    A zero multi-index returns the field value itself.

    step may be a scalar, a per-axis sequence of four steps, or None for
    the default of default_step(x).
    """
    mi = tuple(int(k) for k in multi_index)
    if len(mi) != 4 or any(k < 0 or k > 2 for k in mi):
        raise ValueError("multi_index must have four entries, each in 0..2")
    axes = tuple(a for a in range(4) for _ in range(mi[a]))
    return _stencil(field, x, _normalize_steps(x, step), (axes,))[0]


def fd_derivatives(field: Callable, step=None, blocks: bool = False) -> Callable:
    """The field as a jet field for tensorcalc.curvature_at: on a block,
    at each lane the Jet of field there with its finite-difference
    gradient and Hessian, from one stencil of 129 distinct points, the
    lane among them; the jets of the good lanes stacked, and each lane's
    GeometryError.  A block with no good lane gives a jet of no 4x4
    lanes, the value curvature_at takes.

    step is None for default_step at the lane, a scalar, four per-axis
    steps, or a function of the lane giving them (e.g. chart_step).
    blocks says that field is a field (a chart's metric_at), evaluated
    once on each lane's stencil; otherwise it is a plain function of one
    point, evaluated at each stencil point.
    """

    def jet(x: Coords) -> Jet:
        steps = _normalize_steps(x, step(x) if callable(step) else step)
        rows = _stencil(field, x, steps, ((),) + _FIRST + _SECOND, blocks)
        n = rows.ndim - 1
        second = np.empty((4, 4) + rows.shape[1:])
        m, i = np.triu_indices(4)
        second[m, i] = second[i, m] = rows[5:]  # d_m d_i and d_i d_m share one row
        return Jet(rows[0], np.moveaxis(rows[1:5], 0, n), np.moveaxis(second, (0, 1), (n, n + 1)))

    def field_of_jets(x):
        values, errors = [], []
        for p in tensorcalc.as_block(x).tolist():
            try:
                values.append(jet(tuple(p)))
                errors.append(None)
            except GeometryError as exc:
                errors.append(exc)
        return (Jet.stack(values) if values else Jet.constant(np.zeros((0, 4, 4)))), errors

    return field_of_jets


def recursive_gauss_kronrod(f: Callable[[float], float], a: float, b: float) -> float:
    """Integrate the float function f over [a, b] to relative accuracy
    REL_TOL by depth-first recursive bisection, with the rule, acceptance
    test, tolerances, depth limit and summation order of
    gravinst.quadrature.adaptive_simpson, one node at a time."""
    if not (b > a):
        if b == a:
            return 0.0
        raise ValueError("integration bounds must satisfy a <= b")
    kronrod, gauss = _kronrod_pair(f, a, b)
    return _kronrod_rec(f, a, b, kronrod, gauss, REL_TOL * max(abs(kronrod), ABS_TOL), MAX_DEPTH)


def _kronrod_pair(f, a, b):
    """(K15, G7) on [a, b], each weighted value added in node order."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    values = [f(c + h * x) for x in KRONROD_NODES.tolist()]
    kronrod = functools.reduce(
        operator.add, [w * v for w, v in zip(KRONROD_WEIGHTS.tolist(), values)]
    )
    gauss = functools.reduce(
        operator.add, [w * v for w, v in zip(GAUSS_WEIGHTS.tolist(), values[1::2])]
    )
    return kronrod * h, gauss * h


def _kronrod_rec(f, a, b, kronrod, gauss, tol, depth):
    if abs(kronrod - gauss) <= tol or (b - a) < 1e-14 * (abs(a) + abs(b) + 1.0):
        return kronrod
    if depth <= 0:
        raise ConvergenceError("adaptive quadrature exceeded maximum recursion depth")
    if not (math.isfinite(kronrod) and math.isfinite(gauss)):
        raise ConvergenceError("quadrature integrand produced a non-finite value")
    m = 0.5 * (a + b)
    return _kronrod_rec(f, a, m, *_kronrod_pair(f, a, m), 0.5 * tol, depth - 1) + _kronrod_rec(
        f, m, b, *_kronrod_pair(f, m, b), 0.5 * tol, depth - 1
    )


def recursive_simpson(f: Callable[[float], float], a: float, b: float) -> float:
    """Integrate the float function f over [a, b] to relative accuracy
    REL_TOL by depth-first recursive bisection with the classic adaptive
    Simpson rule: an integrator independent of gravinst.quadrature's."""
    if not (b > a):
        if b == a:
            return 0.0
        raise ValueError("integration bounds must satisfy a <= b")
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    scale = max(abs(whole), ABS_TOL)
    return _simpson_rec(f, a, b, fa, fm, fb, whole, REL_TOL * scale, MAX_DEPTH)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol or (b - a) < 1e-14 * (abs(a) + abs(b) + 1.0):
        return left + right + err / 15.0
    if depth <= 0:
        raise ConvergenceError("adaptive quadrature exceeded maximum recursion depth")
    if not (math.isfinite(left) and math.isfinite(right)):
        raise ConvergenceError("quadrature integrand produced a non-finite value")
    return _simpson_rec(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _simpson_rec(
        f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def distance(u: float, r: float) -> float:
    """ghawking.center_distance at one pair of floats: sqrt(u^2 + r^2)
    with math's correctly rounded sqrt, and math.hypot where u^2 + r^2
    leaves (1e-290, 1e290)."""
    s = u * u + r * r
    return math.sqrt(s) if 1e-290 < s < 1e290 else math.hypot(u, r)


def stable_factor(u: float, r: float) -> tuple[float, float]:
    """Return (Delta, f) with Delta = distance(u, r) and f = u + Delta,
    avoiding the cancellation that the direct formula suffers for u < 0:
    the lanes' ghawking.stable_factors, so the float loop takes their
    steps."""
    delta = distance(u, r)
    if u >= 0.0:
        return delta, u + delta
    return delta, (r * r) / (delta - u)


def log_lhs(data: list[tuple[float, float]], b: float) -> tuple[float, float]:
    """Return (sum_i log f_i, gamma) at height b for the center data
    (b_i, |zbar + a_i|); the sum is -inf once a factor vanishes."""
    total = 0.0
    gam = 0.0
    for bi, r in data:
        delta, f = stable_factor(b - bi, r)
        if f <= 0.0:
            return -math.inf, math.inf
        total += math.log(f)
        gam += 1.0 / delta
    return total, gam


def float_base_to_chart(config: CenterConfiguration, x: Coords) -> Coords:
    """hitchin.base_to_chart at the one circle-fibered point x = (theta, b,
    a1, a2), in Python floats with math's elementary functions:
    z = -conj(a) and |y|^2 = exp(log_lhs), y with phase theta.
    ChartBoundaryError on the y = 0 locus."""
    theta, b, a1, a2 = x
    zbar = complex(-a1, -a2)
    log_y_sq, _ = log_lhs([(c.b, abs(zbar + c.a)) for c in config.centers], b)
    if log_y_sq == -math.inf:
        raise ChartBoundaryError("base point lies on the y = 0 locus")
    y = math.exp(0.5 * log_y_sq) * cmath.exp(1j * theta)
    return (-a1, a2, y.real, y.imag)


def float_solve_b(config: CenterConfiguration, z: complex, y_abs_sq: float) -> float:
    """hitchin.solve_b's safeguarded Newton loop in Python floats, at one
    input: the same start, bracket, steps, stopping rule and residual
    check, with math's elementary functions (log_lhs), and
    hitchin's SOLVE_TOL and SOLVE_MAX_ITER read at call time."""
    if not (y_abs_sq > 0.0) or not math.isfinite(y_abs_sq):
        raise ValueError("y_abs_sq must be positive and finite")
    zbar = z.conjugate()
    data = [(c.b, abs(zbar + c.a)) for c in config.centers]
    target = math.log(y_abs_sq)
    k = len(data)
    # f_i = r_i exp(asinh((b - b_i) / r_i)); the model has one center at
    # the mean height with the geometric-mean radius (a puncture, r_i = 0,
    # counts as radius 1), and the clamp keeps its root finite
    log_r = sum(math.log(r) for _, r in data if r > 0.0) / k
    lim = 700.0 - max(0.0, log_r)
    arg = max(-lim, min(lim, target / k - log_r))
    b = sum(bi for bi, _ in data) / k + math.exp(log_r) * math.sinh(arg)
    lo, hi = -math.inf, math.inf
    width = 0.0
    for _ in range(hitchin.SOLVE_MAX_ITER):
        total, gam = log_lhs(data, b)
        gval = total - target
        nxt = b - gval / gam if math.isfinite(gval) else math.nan
        if abs(nxt - b) <= 1e-16 * (1.0 + abs(b)):
            break
        if gval > 0.0:
            hi = b
        else:
            lo = b
        if not lo < nxt < hi:
            if math.isfinite(hi - lo):
                nxt = 0.5 * (lo + hi)
                if not lo < nxt < hi:
                    break  # the bracket is two adjacent floats
            else:
                width = 2.0 * width if width else 1.0 + abs(b)
                nxt = b - math.copysign(width, gval)
        b = nxt
    else:
        # the steps ran out: evaluate the last iterate once more
        gval = log_lhs(data, b)[0] - target
    residual = abs(math.expm1(gval)) if abs(gval) < 1.0 else math.inf
    if residual > hitchin.SOLVE_TOL:
        raise ConvergenceError(
            f"implicit height solve stalled at relative residual {residual:.3e}"
        )
    return b


def integer_halton(index: np.ndarray, base: int) -> np.ndarray:
    """sampling.halton's digits by the int64 recurrence it replaced: digit
    by digit, np.divmod of the index, f /= base; r += f * digit."""
    i = np.array(index, dtype=np.int64)
    out = np.zeros(i.shape)
    f = 1.0
    rest = int(i.max())
    while rest:
        f /= base
        i, digit = np.divmod(i, base)
        out += f * digit
        rest //= base
    return out


def float_cycle_period(config: CenterConfiguration, i: int, j: int) -> float:
    """ghawking.cycle_period of the one pair (i, j) by the per-pair float
    loop it replaced: every third center against the segment from center
    i to center j, PathBlockedError within 1e-9 of the configuration
    scale, else the closed form -2 pi (b_j - b_i)."""
    ci, cj = config.centers[i], config.centers[j]
    db, da = cj.b - ci.b, cj.a - ci.a
    tol = 1e-9 * max(1.0, config.extent())
    for idx, c in enumerate(config.centers):
        if idx in (i, j):
            continue
        ub, ua = c.b - ci.b, c.a - ci.a
        t = (ub * db + (ua * da.conjugate()).real) / (db * db + abs(da) ** 2)
        t = min(1.0, max(0.0, t))
        if math.hypot(ub - t * db, abs(ua - t * da)) <= tol:
            raise PathBlockedError("segment passes through a third center")
    return -2.0 * math.pi * (cj.b - ci.b)


def einsum_curvature(jet: Jet) -> tuple:
    """tensorcalc's curvature assembly over the lanes of a metric jet of
    value shape (N, 4, 4), each contraction an np.einsum: the reference
    for the matrix-product assembly.  The same checks in the same order
    (a jet that is not finite, then invert_metric, then a non-finite
    assembly), so both give the same errors per lane."""
    g0 = jet.val
    finite = np.logical_and.reduce(
        [np.isfinite(a).all(axis=tuple(range(1, a.ndim))) for a in (g0, jet.grad, jet.hess)]
    )
    errors: list = [None if f else NumericOverflowError("metric jet is not finite") for f in finite]
    ginv, inv_errors = tensorcalc.invert_metric(g0[finite])
    for lane, err in zip(np.flatnonzero(finite), inv_errors):
        errors[lane] = err
    good = np.array([e is None for e in errors], dtype=bool)
    g = g0[good]
    dg, d2g = jet[good].partials()

    T = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    gamma = 0.5 * np.einsum("nkl,nijl->nkij", ginv, T)
    dginv = -np.einsum("nab,nmbc,ncd->nmad", ginv, dg, ginv)
    dT = d2g + d2g.transpose(0, 1, 3, 2, 4) - d2g.transpose(0, 1, 3, 4, 2)
    dgamma = 0.5 * (
        np.einsum("nmkl,nijl->nmkij", dginv, T) + np.einsum("nkl,nmijl->nmkij", ginv, dT)
    )
    riem = (
        dgamma.transpose(0, 2, 3, 1, 4)
        - dgamma.transpose(0, 2, 3, 4, 1)
        + np.einsum("nljm,nmik->nlijk", gamma, gamma)
        - np.einsum("nlkm,nmij->nlijk", gamma, gamma)
    )
    ricci = np.einsum("nkikj->nij", riem)
    scalar = np.einsum("nij,nij->n", ginv, ricci)
    ricci_norm = np.sqrt(
        np.maximum(0.0, np.einsum("nik,njl,nij,nkl->n", ginv, ginv, ricci, ricci))
    )
    riem_low = np.einsum("nlm,nmijk->nlijk", g, riem)
    up = riem_low
    for _ in range(4):
        up = np.einsum("naijk,nab->nijkb", up, ginv)
    riem_norm_sq = np.sum((up * riem_low).reshape(len(g), 256), axis=1)
    sane = (
        np.isfinite(riem.reshape(len(g), 256)).all(axis=1)
        & np.isfinite(ricci_norm)
        & np.isfinite(riem_norm_sq)
    )
    for lane in np.flatnonzero(good)[~sane]:
        errors[lane] = NumericOverflowError("curvature assembly produced non-finite values")
    bundles = [
        tensorcalc.CurvatureBundle(
            christoffel=gamma[i],
            riemann=riem[i],
            ricci=ricci[i],
            scalar=float(scalar[i]),
            ricci_norm=float(ricci_norm[i]),
            riem_norm_sq=float(riem_norm_sq[i]),
            g=g[i],
        )
        for i in np.flatnonzero(sane)
    ]
    return bundles, errors


def newton_eta_jets(config: CenterConfiguration, x: np.ndarray) -> tuple:
    """hitchin.eta_jets with b's jet from two Newton steps
    b <- b - (sum_i log f_i - log|y|^2) / gamma in jet arithmetic, from
    the solved root: at the root a step leaves the value in place, and by
    the implicit function theorem the first step makes the gradient of b
    exact and the second its Hessian.  The reference for the implicit
    differentiation of the chart."""
    lanes, root, errors = hitchin._solved_lanes(config, tensorcalc.as_block(x))
    b_i = np.array([c.b for c in config.centers])
    a_i = np.array([c.a for c in config.centers])
    x0, x1, x2, x3 = Jet.seed(np.asarray(x, dtype=float)[lanes])
    w_re = x0[..., None] + a_i.real
    w_im = a_i.imag - x1[..., None]
    r_sq = w_re * w_re + w_im * w_im
    y_sq = x2 * x2 + x3 * x3
    log_y_sq = y_sq.log()
    b = Jet.constant(root)
    for _ in range(2):
        dlt, f = ghawking.center_factors(b[..., None] - b_i, r_sq)
        b = b - (f.log().sum(-1) - log_y_sq) / dlt.inv().sum(-1)
    dlt, f = ghawking.center_factors(b[..., None] - b_i, r_sq)
    gam = dlt.inv().sum(-1)
    coef = -(dlt * f).inv()
    p, q = (coef * w_re).sum(-1), (coef * w_im).sum(-1)
    s, t = 2.0 * x2 / y_sq, -2.0 * x3 / y_sq
    re = Jet.stack([p, -q, s, -t], axis=-1)
    im = Jet.stack([q, p, t, s], axis=-1)
    return (gam, re, im), errors
