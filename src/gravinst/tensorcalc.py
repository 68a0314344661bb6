"""Tensor calculus on four-dimensional coordinate charts.

Everything downstream (curvature scans, Kahler identities, Nijenhuis
integrability) reduces to derivatives of chart-valued fields.  Two sources
of derivatives feed the same algebra.  A chart that can evaluate its
metric in :class:`Jet` arithmetic supplies exact first and second
derivatives.  Otherwise, and as the independent reference, derivatives
are central differences with one level of Richardson extrapolation, so a
first derivative at step h combines the stencils at h and h/2 and is
accurate to O(h^4).  One stencil table serves every derivative: its
weights nest that kernel once per order, the field is evaluated once at
each distinct point, and mixed partials share one weight row, so they
are exactly symmetric.

Curvature follows the textbook chain: Christoffel symbols from first
derivatives of the metric, the Riemann tensor from derivatives of the
Christoffel symbols,

    R^l_{ijk} = d_j Gamma^l_{ik} - d_k Gamma^l_{ij}
                + Gamma^l_{jm} Gamma^m_{ik} - Gamma^l_{km} Gamma^m_{ij},

Ricci by the trace R^k_{ikj}, and norms by contraction with the inverse
metric.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from gravinst.errors import DegenerateMetricError, NumericOverflowError

DEFAULT_REL_STEP = 1e-3
CONDITION_LIMIT = 1e12

# a partial derivative by its axes, one per order; () is the value itself
Axes = tuple[int, ...]
# the four real coordinates of a chart point; a field maps them to an array
Coords = tuple[float, float, float, float]
Field = Callable[[Coords], np.ndarray]


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


def default_step(x: Coords, rel_step: float = DEFAULT_REL_STEP) -> np.ndarray:
    """Default per-axis FD steps: rel_step times the larger of 1 and the
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


def _normalize_steps(x: Coords, step) -> np.ndarray:
    if step is None:
        return default_step(x)
    steps = np.broadcast_to(np.asarray(step, dtype=float), (4,)).copy()
    if np.any(steps <= 0.0) or not np.all(np.isfinite(steps)):
        raise ValueError("steps must be positive and finite")
    return steps


def _eval_array(field: Field, x: Coords) -> np.ndarray:
    value = np.asarray(field(x), dtype=float)
    if not np.isfinite(value).all():
        raise NumericOverflowError(f"field produced a non-finite value at {x}")
    return value


# The 1-D Richardson kernel (4 D(h/2) - D(h)) / 3 with
# D(h) = (f(x+h) - f(x-h)) / 2h, as (offset, weight) in units of the step h.
_KERNEL = ((-1.0, 1.0 / 6.0), (-0.5, -4.0 / 3.0), (0.5, 4.0 / 3.0), (1.0, -1.0 / 6.0))
_FIRST = ((0,), (1,), (2,), (3,))


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


def _stencil(field: Field, x: Coords, steps: np.ndarray, partials: tuple[Axes, ...]) -> np.ndarray:
    """The partial derivatives of a field at x, stacked on a leading axis,
    with validated steps.  The field is called once at each distinct
    stencil point, which adds its offset to x only where it is nonzero."""
    offsets, orders, rows = _stencil_table(partials)
    points = np.where(offsets != 0.0, np.add(x, offsets * steps), x)
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
    field: Field,
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


def invert_metric(g: np.ndarray) -> np.ndarray:
    """Inverse of a 4x4 metric.

    The matrix is first equilibrated by its diagonal so that honest but
    highly anisotropic charts (coordinate blocks of very different
    proper scale) do not trip the degeneracy guard; the condition
    estimate on the equilibrated matrix measures genuine near-collapse.
    Raises DegenerateMetricError for a singular matrix or past
    CONDITION_LIMIT.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (4, 4):
        raise ValueError("metric must be a 4x4 matrix")
    diag = np.diag(g)
    if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
        raise DegenerateMetricError("metric diagonal is not positive")
    d = 1.0 / np.sqrt(diag)
    a = g * np.outer(d, d)
    try:
        inv_a = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise DegenerateMetricError("metric is singular") from None
    cond = float(
        np.max(np.sum(np.abs(a), axis=1)) * np.max(np.sum(np.abs(inv_a), axis=1))
    )
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise DegenerateMetricError(f"metric condition number {cond:.3e} exceeds limit")
    return inv_a * np.outer(d, d)


class Jet:
    """Second-order jet in the four chart coordinates: a value together
    with its exact gradient and Hessian, carried through the arithmetic
    (the hyper-dual numbers of Fike & Alonso, AIAA 2011-886, taken over
    all four coordinates at once).

    val has any shape S; grad has shape S + (4,) and hess S + (4, 4), so
    leading axes broadcast like numpy arrays and one jet can hold, say,
    the per-center terms of a sum.  Plain numbers and arrays act as
    constants.
    """

    __slots__ = ("val", "grad", "hess")
    # ndarray (op) Jet defers to the Jet's reflected operator
    __array_ufunc__ = None

    def __init__(self, val, grad, hess):
        self.val = np.asarray(val, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    @classmethod
    def seed(cls, x: Coords) -> tuple[Jet, Jet, Jet, Jet]:
        """The four coordinates as jets at the point x."""
        eye = np.eye(4)
        return tuple(cls(x[i], eye[i], np.zeros((4, 4))) for i in range(4))

    @classmethod
    def constant(cls, value) -> Jet:
        value = np.asarray(value, dtype=float)
        return cls(value, np.zeros(value.shape + (4,)), np.zeros(value.shape + (4, 4)))

    @classmethod
    def stack(cls, jets: Sequence[Jet]) -> Jet:
        """Jets of equal shape stacked on a new leading axis."""
        return cls(
            np.stack([j.val for j in jets]),
            np.stack([j.grad for j in jets]),
            np.stack([j.hess for j in jets]),
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
        return Jet(self.val[index], self.grad[index], self.hess[index])

    def sum(self, axis: int = 0) -> Jet:
        """Sum over a leading value axis."""
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


# the metric's value, gradient and Hessian d_m d_i (m <= i, as np.triu_indices)
_CURVATURE = ((),) + _FIRST + tuple((m, i) for m in range(4) for i in range(m, 4))


# supplies (dg, d2g) with dg[i, j, l] = d_i g_{jl}, d2g[m, i, j, l] = d_m d_i g_{jl}
Derivatives = Callable[[Coords], tuple[np.ndarray, np.ndarray]]


def curvature_at(
    g_field: Field,
    x: Coords,
    step: float | Sequence[float] | None = None,
    derivatives: Derivatives | None = None,
) -> CurvatureBundle:
    """Full curvature of a metric field at a point.

    The metric itself comes from g_field.  Its first and second
    derivatives come from derivatives(x) when that is given (exact jets;
    step is then unused), and otherwise from finite differences on a
    local stencil.  Either way they feed the Christoffel symbols and their
    derivatives, and the Riemann tensor is assembled from those.  All
    contractions use the inverse of the metric at the point.
    """
    if derivatives is None:
        rows = _stencil(g_field, x, _normalize_steps(x, step), _CURVATURE)
        g0, dg, d2g = rows[0], rows[1:5], np.empty((4, 4, 4, 4))
        m, i = np.triu_indices(4)
        d2g[m, i] = d2g[i, m] = rows[5:]  # d_m d_i and d_i d_m share one row
    else:
        g0 = _eval_array(g_field, x)
    if g0.shape != (4, 4):
        raise ValueError("metric field must produce 4x4 matrices")
    if np.max(np.abs(g0 - g0.T)) > 1e-12 * max(1.0, float(np.max(np.abs(g0)))):
        raise ValueError("metric sample is not symmetric")
    ginv = invert_metric(g0)

    if derivatives is not None:
        dg, d2g = (np.asarray(a, dtype=float) for a in derivatives(x))
    if dg.shape != (4, 4, 4) or d2g.shape != (4, 4, 4, 4):
        raise ValueError("metric derivatives must have shapes (4,4,4) and (4,4,4,4)")
    if not (np.all(np.isfinite(dg)) and np.all(np.isfinite(d2g))):
        raise NumericOverflowError(f"metric derivatives are not finite at {x}")

    # T[i, j, l] = d_i g_{jl} + d_j g_{il} - d_l g_{ij}
    T = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    gamma = 0.5 * np.einsum("kl,ijl->kij", ginv, T)

    # derivative of the inverse metric: d_m g^{-1} = -g^{-1} (d_m g) g^{-1}
    dginv = -np.einsum("ab,mbc,cd->mad", ginv, dg, ginv)
    dT = d2g + d2g.transpose(0, 2, 1, 3) - d2g.transpose(0, 2, 3, 1)
    dgamma = 0.5 * (
        np.einsum("mkl,ijl->mkij", dginv, T) + np.einsum("kl,mijl->mkij", ginv, dT)
    )

    riem = (
        dgamma.transpose(1, 2, 0, 3)
        - dgamma.transpose(1, 2, 3, 0)
        + np.einsum("ljm,mik->lijk", gamma, gamma)
        - np.einsum("lkm,mij->lijk", gamma, gamma)
    )
    ricci = np.einsum("kikj->ij", riem)
    scalar = float(np.einsum("ij,ij->", ginv, ricci))
    ricci_norm = float(
        np.sqrt(max(0.0, np.einsum("ik,jl,ij,kl->", ginv, ginv, ricci, ricci)))
    )
    riem_low = np.einsum("lm,mijk->lijk", g0, riem)
    # raise one index per contraction; after four the index order is back
    up = riem_low
    for _ in range(4):
        up = np.tensordot(up, ginv, axes=([0], [0]))
    riem_norm_sq = float(np.sum(up * riem_low))
    if not (
        np.all(np.isfinite(riem)) and np.isfinite(ricci_norm) and np.isfinite(riem_norm_sq)
    ):
        raise NumericOverflowError("curvature assembly produced non-finite values")
    return CurvatureBundle(
        christoffel=gamma,
        riemann=riem,
        ricci=ricci,
        scalar=scalar,
        ricci_norm=ricci_norm,
        riem_norm_sq=riem_norm_sq,
        g=g0,
    )


_TRIPLES = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def exterior_derivative(
    form_field: Field,
    x: Coords,
    step: float | Sequence[float] | None = None,
) -> np.ndarray:
    """Components of the 3-form d(omega) at a point.

    Returns the four independent components (d omega)_{ijk} for the index
    triples (0,1,2), (0,1,3), (0,2,3), (1,2,3), where

        (d omega)_{ijk} = d_i omega_{jk} + d_j omega_{ki} + d_k omega_{ij}.
    """
    dw = _stencil(form_field, x, _normalize_steps(x, step), _FIRST)
    out = np.empty(4)
    for t, (i, j, k) in enumerate(_TRIPLES):
        out[t] = dw[i, j, k] + dw[j, k, i] + dw[k, i, j]
    return out


def nijenhuis_at(
    j_field: Field,
    x: Coords,
    step: float | Sequence[float] | None = None,
) -> np.ndarray:
    """Nijenhuis tensor N^k_{ij} of an almost-complex structure field.

    N^k_{ij} = J^m_i d_m J^k_j - J^m_j d_m J^k_i
               - J^k_m d_i J^m_j + J^k_m d_j J^m_i

    and vanishes identically exactly when J is integrable.
    """
    rows = _stencil(j_field, x, _normalize_steps(x, step), ((),) + _FIRST)
    J0, dJ = rows[0], rows[1:]
    t1 = np.einsum("mi,mkj->kij", J0, dJ)
    t3 = np.einsum("km,imj->kij", J0, dJ)
    return t1 - t1.transpose(0, 2, 1) - t3 + t3.transpose(0, 2, 1)
