"""Tensor calculus on four-dimensional coordinate charts.

Everything downstream (curvature scans, Kahler identities, Nijenhuis
integrability) reduces to derivatives of chart-valued fields.  They
have one source: each chart evaluates its fields in :class:`Jet`
arithmetic, which carries exact first and second derivatives along with
the value.  Nothing here differentiates numerically; the
finite-difference stencil that checks the jets lives with the tests.

Fields work on blocks of points, and only on blocks.  A block is an
(N, 4) array of chart points, one lane per row; a field evaluated on it
returns its value over a leading lane axis, paired with one entry per
lane: None, or the GeometryError that lane raises.  The value holds only
the lanes whose entry is None, in order (it is None when no lane is), so
a failing lane never ends its block.  Anything but an (N, 4) array is a
ValueError.  curvature_at is a field of the same shape: it evaluates
the metric's jet field once per block and assembles every lane at once.
lane_results joins a field's values and errors into one result per
lane, and every_lane takes the value of a block whose lanes are all
good.  exterior_derivative and nijenhuis_at take derivative arrays with
any leading lane axes.

Curvature follows the textbook chain: Christoffel symbols from first
derivatives of the metric, the Riemann tensor from derivatives of the
Christoffel symbols,

    R^l_{ijk} = d_j Gamma^l_{ik} - d_k Gamma^l_{ij}
                + Gamma^l_{jm} Gamma^m_{ik} - Gamma^l_{km} Gamma^m_{ij},

Ricci by the trace R^k_{ikj}, and norms by contraction with the inverse
metric.  Every contraction is a matrix product over the lane axis (numpy
@ on stacks of small matrices): the tensors are reshaped so that the
summed index is the inner dimension, e.g. (N, 4, 16) or (N, 16, 4).
|Ric|^2 is (g^-1 Ric g^-1) . Ric, and |Rm|^2 raises the four indices of
the lowered tensor with four products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from gravinst.errors import DegenerateMetricError, GeometryError, NumericOverflowError

CONDITION_LIMIT = 1e12

# the four real coordinates of a chart point
Coords = tuple[float, float, float, float]
# a field: an (N, 4) block of points -> (value over the good lanes, errors)
Field = Callable[[np.ndarray], tuple]


@dataclass(frozen=True)
class CurvatureBundle:
    """Curvature data of a metric at one point.

    christoffel[k, i, j] = Gamma^k_{ij}
    riemann[l, i, j, k]  = R^l_{ijk}  (antisymmetric in j, k)
    ricci[i, j]          = R^k_{ikj}
    scalar               = g^{ij} Ric_{ij}
    ricci_norm           = |Ric|_g
    riem_norm_sq         = |Rm|^2_g
    g                    = the metric at the point
    """

    christoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    ricci_norm: float
    riem_norm_sq: float
    g: np.ndarray


def invert_metric(g: np.ndarray):
    """Inverse of each metric of a block (N, 4, 4).

    Each matrix is first equilibrated by its diagonal so that honest but
    highly anisotropic charts (coordinate blocks of very different
    proper scale) do not trip the degeneracy guard; the condition
    estimate on the equilibrated matrix measures genuine near-collapse.
    A lane whose diagonal is not positive, whose matrix is singular or
    whose condition passes CONDITION_LIMIT gets DegenerateMetricError.
    Gives (inverses, errors) as a field does (see the module docstring).
    """
    lanes = np.asarray(g, dtype=float)
    if lanes.ndim != 3 or lanes.shape[1:] != (4, 4):
        raise ValueError("metrics come in a block of 4x4 matrices")
    diag = np.diagonal(lanes, axis1=1, axis2=2)
    errors: list = [None] * len(lanes)
    ok = np.all((diag > 0.0) & np.isfinite(diag), axis=1)
    for n in np.flatnonzero(~ok):
        errors[n] = DegenerateMetricError("metric diagonal is not positive")
    d = 1.0 / np.sqrt(np.where(ok[:, None], diag, 1.0))
    scale = d[:, :, None] * d[:, None, :]
    a = lanes * scale
    # np.linalg.inv rejects a whole stack for one singular matrix; an
    # exactly singular lane has a zero pivot, so a zero determinant, and
    # the identity stands in for it in the stacked inversion
    singular = ok & (np.linalg.det(a) == 0.0)
    for n in np.flatnonzero(singular):
        errors[n] = DegenerateMetricError("metric is singular")
    ok &= ~singular
    inv_a = np.linalg.inv(np.where(ok[:, None, None], a, np.eye(4)))
    cond = np.max(np.sum(np.abs(a), axis=2), axis=1) * np.max(
        np.sum(np.abs(inv_a), axis=2), axis=1
    )
    for n in np.flatnonzero(ok & ~(cond <= CONDITION_LIMIT)):
        errors[n] = DegenerateMetricError(
            f"metric condition number {cond[n]:.3e} exceeds limit"
        )
    good = np.array([e is None for e in errors], dtype=bool)
    return ((inv_a * scale)[good] if good.any() else None), errors


def _value_axis(axis: int, ndim: int) -> int:
    """axis as a non-negative index among ndim value axes; ValueError when
    it is out of range."""
    if not -ndim <= axis < ndim:
        raise ValueError(f"axis {axis} is out of range for {ndim} value axes")
    return axis % ndim


class Jet:
    """Second-order jet in the four chart coordinates: a value together
    with its exact gradient and Hessian, carried through the arithmetic
    (the hyper-dual numbers of Fike & Alonso, AIAA 2011-886, taken over
    all four coordinates at once).

    val has any shape S; grad has shape S + (4,) and hess S + (4, 4), so
    leading axes broadcast like numpy arrays and one jet can hold, say,
    the lanes of a block and the per-center terms of a sum.  Indexing,
    sums and stacking act on the value axes; an Ellipsis, a new axis or a
    negative axis counts among the value axes only.  Plain numbers and
    arrays act as constants.
    """

    __slots__ = ("val", "grad", "hess")
    # ndarray (op) Jet defers to the Jet's reflected operator
    __array_ufunc__ = None

    def __init__(self, val, grad, hess):
        self.val = np.asarray(val, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    @classmethod
    def seed(cls, x) -> tuple[Jet, Jet, Jet, Jet]:
        """The four coordinates as jets at the point x, or at each point
        of a block x of shape (..., 4)."""
        x = np.asarray(x, dtype=float)
        eye = np.eye(4)
        hess = np.broadcast_to(0.0, x.shape[:-1] + (4, 4))
        return tuple(cls(x[..., i], np.broadcast_to(eye[i], x.shape), hess) for i in range(4))

    @classmethod
    def constant(cls, value) -> Jet:
        value = np.asarray(value, dtype=float)
        return cls(value, np.zeros(value.shape + (4,)), np.zeros(value.shape + (4, 4)))

    @classmethod
    def stack(cls, jets: Sequence, axis: int = 0) -> Jet:
        """Jets of equal shape stacked on a new value axis, by default the
        leading one; plain numbers among them are constants."""
        jets = [j if isinstance(j, Jet) else cls.constant(j) for j in jets]
        axis = _value_axis(axis, jets[0].val.ndim + 1)
        return cls(
            np.stack([j.val for j in jets], axis),
            np.stack([j.grad for j in jets], axis),
            np.stack([j.hess for j in jets], axis),
        )

    @staticmethod
    def where(cond, a: Jet, b: Jet) -> Jet:
        """Elementwise choice by a boolean array over the value shape."""
        cond = np.asarray(cond)
        return Jet(
            np.where(cond, a.val, b.val),
            np.where(cond[..., None], a.grad, b.grad),
            np.where(cond[..., None, None], a.hess, b.hess),
        )

    def __getitem__(self, index) -> Jet:
        """Index the value axes; the derivative axes come along."""
        # whole slices behind the index keep an Ellipsis off the derivative axes
        index = index if isinstance(index, tuple) else (index,)
        whole = slice(None)
        return Jet(self.val[index], self.grad[index + (whole,)], self.hess[index + (whole, whole)])

    def partials(self) -> tuple[np.ndarray, np.ndarray]:
        """The derivatives with their axes in front of the last two value
        axes, the components of a matrix-valued field, and behind any lane
        axes (in front of everything for a value of fewer than two axes):
        first[..., i, :, :] = d_i of the value and second[..., m, i, :, :]
        = d_m d_i, the layout curvature_at uses and exterior_derivative and
        nijenhuis_at take."""
        n = self.val.ndim
        at = max(n - 2, 0)
        return np.moveaxis(self.grad, n, at), np.moveaxis(self.hess, (n, n + 1), (at, at + 1))

    def sum(self, axis: int = 0) -> Jet:
        """Sum over one value axis."""
        axis = _value_axis(axis, self.val.ndim)
        return Jet(self.val.sum(axis), self.grad.sum(axis), self.hess.sum(axis))

    def _chain(self, f, f1, f2) -> Jet:
        """phi(self) from phi, phi' and phi'' at the value."""
        f1 = np.asarray(f1)[..., None]
        f2 = np.asarray(f2)[..., None, None]
        g = self.grad
        # f2 * (g g^T), not (f2 g) g^T, keeps the Hessian exactly symmetric
        return Jet(f, f1 * g, f1[..., None] * self.hess + f2 * (g[..., :, None] * g[..., None, :]))

    def __add__(self, other) -> Jet:
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.grad + other.grad, self.hess + other.hess)
        other = np.asarray(other, dtype=float)
        val = self.val + other
        return Jet(
            val,
            np.broadcast_to(self.grad, val.shape + (4,)),
            np.broadcast_to(self.hess, val.shape + (4, 4)),
        )

    __radd__ = __add__

    def __neg__(self) -> Jet:
        return Jet(-self.val, -self.grad, -self.hess)

    def __sub__(self, other) -> Jet:
        return self + (-other)

    def __rsub__(self, other) -> Jet:
        return (-self) + other

    def __mul__(self, other) -> Jet:
        if not isinstance(other, Jet):
            c = np.asarray(other, dtype=float)
            return Jet(self.val * c, self.grad * c[..., None], self.hess * c[..., None, None])
        a, b = self, other
        av, bv = a.val[..., None], b.val[..., None]
        cross = a.grad[..., :, None] * b.grad[..., None, :]
        return Jet(
            a.val * b.val,
            a.grad * bv + av * b.grad,
            a.hess * bv[..., None] + av[..., None] * b.hess + (cross + np.swapaxes(cross, -1, -2)),
        )

    __rmul__ = __mul__

    def inv(self) -> Jet:
        r = 1.0 / self.val
        return self._chain(r, -r * r, 2.0 * r * r * r)

    def __truediv__(self, other) -> Jet:
        if isinstance(other, Jet):
            return self * other.inv()
        return self * (1.0 / np.asarray(other, dtype=float))

    def __rtruediv__(self, other) -> Jet:
        return self.inv() * other

    def sqrt(self) -> Jet:
        s = np.sqrt(self.val)
        return self._chain(s, 0.5 / s, -0.25 / (s * self.val))

    def log(self) -> Jet:
        r = 1.0 / self.val
        return self._chain(np.log(self.val), r, -r * r)


def as_block(x) -> np.ndarray:
    """x, a block of chart points, as an (N, 4) float array; ValueError for
    anything else."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != 4:
        raise ValueError("a field takes a block of chart points, an (N, 4) array")
    return x


def lane_results(errors: Sequence, values: Sequence) -> list:
    """Per lane, its error, or else the next of values, the results of the
    good lanes in order."""
    good = iter(values)
    return [e if e is not None else next(good) for e in errors]


def every_lane(result: tuple):
    """The value of a field's result (value, errors) when every lane is
    good; else the first failing lane's GeometryError, raised."""
    value, errors = result
    if any(errors):
        raise next(e for e in errors if e is not None)
    return value


def _stack_lanes(values: list):
    """Per-point jets, or tuples of them, stacked on a leading lane axis."""
    if isinstance(values[0], tuple):
        return tuple(_stack_lanes(list(parts)) for parts in zip(*values))
    return Jet.stack(values)


def stack_components(parts: list):
    """Components, float arrays or jets alike, stacked on a new last axis;
    among jets, plain arrays are constants."""
    if any(isinstance(p, Jet) for p in parts):
        return Jet.stack(parts, axis=-1)
    return np.stack(parts, axis=-1)


def each_lane(fn: Callable[[Coords], object]) -> Callable:
    """The block field of a function of one point: on a block, fn at each
    point (a tuple of floats), the good lanes' values (jets or tuples of
    them) stacked on a leading lane axis (None when no lane is good), and
    per lane None or the GeometryError fn raised there."""

    def field(x):
        values, errors = [], []
        for p in as_block(x).tolist():
            try:
                values.append(fn(tuple(p)))
                errors.append(None)
            except GeometryError as exc:
                errors.append(exc)
        return (_stack_lanes(values) if values else None), errors

    return field


def curvature_at(metric: Field, x) -> tuple:
    """Full curvature of a metric at each point of a block x of shape
    (N, 4), as a field: the CurvatureBundle of each good lane in order
    (None when no lane is), and per lane None or its GeometryError.

    metric(x) is the metric's jet field (see the module docstring),
    evaluated once, so the chart's own errors (the chart boundary, a pole,
    a string, a stalled solve) come from that call.  Its value is the
    metric g; its first and second derivatives feed the Christoffel
    symbols and their derivatives, and the Riemann tensor is assembled
    from those over every lane at once, by matrix products.  All
    contractions use the inverse of g.  After the chart's errors a lane gets NumericOverflowError for a
    jet that is not finite, then DegenerateMetricError from
    invert_metric, then NumericOverflowError for a non-finite assembly.
    A jet of the wrong shape or an asymmetric metric is a ValueError for
    the whole block.
    """
    jet, errors = metric(as_block(x))
    if jet is None:
        return None, errors
    bundles, jet_errors = _curvature_lanes(jet)
    return bundles, lane_results(errors, jet_errors)


def _curvature_lanes(jet: Jet) -> tuple:
    """curvature_at over the lanes of a metric jet of value shape (N, 4, 4),
    as a field over the jet's lanes."""
    g0 = jet.val
    if (
        g0.ndim != 3
        or g0.shape[1:] != (4, 4)
        or jet.grad.shape != g0.shape + (4,)
        or jet.hess.shape != g0.shape + (4, 4)
    ):
        raise ValueError("metric jet must have a 4x4 value with its derivatives")
    n = len(g0)
    finite = np.isfinite(np.concatenate(
        [a.reshape(n, -1) for a in (g0, jet.grad, jet.hess)], axis=1
    )).all(axis=1)
    errors: list = [None if f else NumericOverflowError("metric jet is not finite") for f in finite]
    g_fin = g0[finite]
    if np.any(
        np.max(np.abs(g_fin - np.swapaxes(g_fin, 1, 2)), axis=(1, 2), initial=0.0)
        > 1e-12 * np.maximum(1.0, np.max(np.abs(g_fin), axis=(1, 2), initial=0.0))
    ):
        raise ValueError("metric is not symmetric")
    ginv, inv_errors = invert_metric(g_fin)
    for lane, err in zip(np.flatnonzero(finite), inv_errors):
        errors[lane] = err
    good = np.array([e is None for e in errors], dtype=bool)
    if not good.any():
        return None, errors
    g = g0[good]
    dg, d2g = jet[good].partials()

    n = len(g)
    # T[n, i, j, l] = d_i g_{jl} + d_j g_{il} - d_l g_{ij}, and T_l its
    # (n, l, ij) matrix, so that each contraction over l is one product
    T = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    T_l = T.reshape(n, 16, 4).transpose(0, 2, 1)
    gamma = 0.5 * (ginv @ T_l).reshape(n, 4, 4, 4)

    # derivative of the inverse metric: d_m g^{-1} = -g^{-1} (d_m g) g^{-1}
    dginv = -(ginv[:, None] @ dg @ ginv[:, None])
    dT = d2g + d2g.transpose(0, 1, 3, 2, 4) - d2g.transpose(0, 1, 3, 4, 2)
    # dgamma[n, m, k, i, j] = 1/2 (d_m g^{kl} T_{ijl} + g^{kl} d_m T_{ijl})
    dT_l = dT.reshape(n, 4, 16, 4).transpose(0, 1, 3, 2)
    dgamma = 0.5 * (dginv @ T_l[:, None] + ginv[:, None] @ dT_l).reshape(n, 4, 4, 4, 4)

    # P[n, l, a, b, c] = Gamma^l_{am} Gamma^m_{bc}, one (16, 4) @ (4, 16) product
    P = (gamma.reshape(n, 16, 4) @ gamma.reshape(n, 4, 16)).reshape(n, 4, 4, 4, 4)
    riem = (
        dgamma.transpose(0, 2, 3, 1, 4)
        - dgamma.transpose(0, 2, 3, 4, 1)
        + P.transpose(0, 1, 3, 2, 4)
        - P.transpose(0, 1, 3, 4, 2)
    )
    ricci = np.trace(riem, axis1=1, axis2=3)
    scalar = np.sum(ginv * ricci, axis=(1, 2))
    ricci_up = ginv @ ricci @ ginv
    ricci_norm = np.sqrt(np.maximum(0.0, np.sum(ricci_up * ricci, axis=(1, 2))))
    riem_low = (g @ riem.reshape(n, 4, 64)).reshape(n, 4, 4, 4, 4)
    # raise one index per product; after four the index order is back
    up = riem_low
    for _ in range(4):
        up = up.reshape(n, 4, 64).transpose(0, 2, 1) @ ginv
    riem_norm_sq = np.sum(up.reshape(n, -1) * riem_low.reshape(n, -1), axis=1)
    sane = (
        np.isfinite(riem.reshape(n, -1)).all(axis=1)
        & np.isfinite(ricci_norm)
        & np.isfinite(riem_norm_sq)
    )
    for lane in np.flatnonzero(good)[~sane]:
        errors[lane] = NumericOverflowError("curvature assembly produced non-finite values")
    bundles = [
        CurvatureBundle(*lane)
        for lane in zip(
            gamma[sane],
            riem[sane],
            ricci[sane],
            scalar[sane].tolist(),
            ricci_norm[sane].tolist(),
            riem_norm_sq[sane].tolist(),
            g[sane],
        )
    ]
    return (bundles or None), errors


_TRIPLES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]).T


def exterior_derivative(dw: np.ndarray) -> np.ndarray:
    """Components of the 3-form d(omega) from the first derivatives
    dw[..., i, j, k] = d_i omega_{jk} of a 2-form at a point, or at each
    lane of leading axes.

    Returns on a last axis the four independent components
    (d omega)_{ijk} for the index triples (0,1,2), (0,1,3), (0,2,3),
    (1,2,3), where

        (d omega)_{ijk} = d_i omega_{jk} + d_j omega_{ki} + d_k omega_{ij}.
    """
    i, j, k = _TRIPLES
    return dw[..., i, j, k] + dw[..., j, k, i] + dw[..., k, i, j]


def nijenhuis_at(J: np.ndarray, dJ: np.ndarray) -> np.ndarray:
    """Nijenhuis tensor N^k_{ij} of an almost-complex structure from its
    components J[..., k, j] = J^k_j at a point, or at each lane of leading
    axes, and their first derivatives dJ[..., m, k, j] = d_m J^k_j.

    N^k_{ij} = J^m_i d_m J^k_j - J^m_j d_m J^k_i
               - J^k_m d_i J^m_j + J^k_m d_j J^m_i

    and vanishes identically exactly when J is integrable.
    """
    t1 = np.einsum("...mi,...mkj->...kij", J, dJ)
    t3 = np.einsum("...km,...imj->...kij", J, dJ)
    return t1 - np.swapaxes(t1, -1, -2) - t3 + np.swapaxes(t3, -1, -2)
