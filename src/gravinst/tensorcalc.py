"""Tensor calculus on four-dimensional coordinate charts.

Everything downstream (curvature scans, Kahler identities, Nijenhuis
integrability) reduces to derivatives of chart-valued fields.  They
have one source: each chart evaluates its fields in :class:`Jet`
arithmetic, which carries exact first and second derivatives along with
the value.  curvature_at takes the metric's jet, one evaluation per
point; exterior_derivative and nijenhuis_at take derivatives as arrays.
Nothing here differentiates numerically; the finite-difference stencil
that checks the jets lives with the tests.

Curvature follows the textbook chain: Christoffel symbols from first
derivatives of the metric, the Riemann tensor from derivatives of the
Christoffel symbols,

    R^l_{ijk} = d_j Gamma^l_{ik} - d_k Gamma^l_{ij}
                + Gamma^l_{jm} Gamma^m_{ik} - Gamma^l_{km} Gamma^m_{ij},

Ricci by the trace R^k_{ikj}, and norms by contraction with the inverse
metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from gravinst.errors import DegenerateMetricError, NumericOverflowError

CONDITION_LIMIT = 1e12

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
    def stack(cls, jets: Sequence) -> Jet:
        """Jets of equal shape stacked on a new leading axis; plain
        numbers among them are constants."""
        jets = [j if isinstance(j, Jet) else cls.constant(j) for j in jets]
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

    def partials(self) -> tuple[np.ndarray, np.ndarray]:
        """The derivatives with their axes in front: first[i] = d_i of the
        value and second[m, i] = d_m d_i, in the layout curvature_at uses
        and exterior_derivative and nijenhuis_at take."""
        n = self.val.ndim
        return np.moveaxis(self.grad, n, 0), np.moveaxis(self.hess, (n, n + 1), (0, 1))

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


def curvature_at(metric: Callable[[Coords], Jet], x: Coords) -> CurvatureBundle:
    """Full curvature of a metric at a point.

    metric(x) is the metric's jet at x, evaluated once, so the chart's
    own errors (a pole, a string, the chart boundary) come from that call.
    Its value is the metric g; its first and second derivatives feed the
    Christoffel symbols and their derivatives, and the Riemann tensor is
    assembled from those.  All contractions use the inverse of g.
    """
    jet = metric(x)
    g0 = jet.val
    dg, d2g = jet.partials()
    if g0.shape != (4, 4) or dg.shape != (4, 4, 4) or d2g.shape != (4, 4, 4, 4):
        raise ValueError("metric jet must have a 4x4 value with its derivatives")
    if not (np.isfinite(g0).all() and np.isfinite(dg).all() and np.isfinite(d2g).all()):
        raise NumericOverflowError(f"metric jet is not finite at {x}")
    if np.max(np.abs(g0 - g0.T)) > 1e-12 * max(1.0, float(np.max(np.abs(g0)))):
        raise ValueError("metric is not symmetric")
    ginv = invert_metric(g0)

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


def exterior_derivative(dw: np.ndarray) -> np.ndarray:
    """Components of the 3-form d(omega) from the first derivatives
    dw[i, j, k] = d_i omega_{jk} of a 2-form at a point.

    Returns the four independent components (d omega)_{ijk} for the index
    triples (0,1,2), (0,1,3), (0,2,3), (1,2,3), where

        (d omega)_{ijk} = d_i omega_{jk} + d_j omega_{ki} + d_k omega_{ij}.
    """
    return np.array([dw[i, j, k] + dw[j, k, i] + dw[k, i, j] for i, j, k in _TRIPLES])


def nijenhuis_at(J: np.ndarray, dJ: np.ndarray) -> np.ndarray:
    """Nijenhuis tensor N^k_{ij} of an almost-complex structure from its
    components J[k, j] = J^k_j at a point and their first derivatives
    dJ[m, k, j] = d_m J^k_j.

    N^k_{ij} = J^m_i d_m J^k_j - J^m_j d_m J^k_i
               - J^k_m d_i J^m_j + J^k_m d_j J^m_i

    and vanishes identically exactly when J is integrable.
    """
    t1 = np.einsum("mi,mkj->kij", J, dJ)
    t3 = np.einsum("km,imj->kij", J, dJ)
    return t1 - t1.transpose(0, 2, 1) - t3 + t3.transpose(0, 2, 1)
