"""Deterministic adaptive Simpson quadrature over lanes, for the volume
integrals.

Every interval (lane) is bisected breadth first: one depth level at a
time, the two new nodes of every pending subinterval go through one
integrand call.  A subinterval is accepted by the classic test, with a
tolerance halved per level, so the method accepts exactly the
subintervals a depth-first recursion accepts.  Each lane's accepted
pieces are summed in one fixed order (left half + right half at every
split), so results are reproducible bit-for-bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from gravinst.errors import ConvergenceError

# relative accuracy of every integral, the floor of its scale, and the
# deepest bisection
REL_TOL = 1e-9
ABS_TOL = 1e-13
MAX_DEPTH = 40


def adaptive_simpson(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], a, b
) -> np.ndarray:
    """Integrate f over each interval [a[i], b[i]] to relative accuracy
    REL_TOL; a and b are equal-length 1-D arrays, and the result holds one
    integral per interval (0 for a zero-width one).

    f(t, i) takes an array of nodes t and, for each node, the index i of
    its interval, and returns f at every node.  ValueError if some
    b[i] < a[i]; ConvergenceError when a subinterval is still rejected at
    MAX_DEPTH or its rule is not finite.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("integration bounds must be equal-length 1-D arrays")
    if not np.all(b >= a):
        raise ValueError("integration bounds must satisfy a <= b")
    out = np.zeros(a.shape)
    # the pending subintervals: their lane, ends, end and midpoint values,
    # Simpson rule and tolerance
    ids = np.flatnonzero(b > a)
    if not ids.size:
        return out
    lo, hi = a[ids], b[ids]
    fa, fm, fb = _values(f, (lo, 0.5 * (lo + hi), hi), ids)
    with np.errstate(invalid="ignore", over="ignore"):
        whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
    tol = REL_TOL * np.maximum(np.abs(whole), ABS_TOL)
    # per level: the accepted value of each pending subinterval, and which
    # of them were split instead
    levels = []
    for depth in range(MAX_DEPTH, -1, -1):
        m = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + m), 0.5 * (m + hi)
        flm, frm = _values(f, (lm, rm), ids)
        with np.errstate(invalid="ignore", over="ignore"):
            left = (m - lo) / 6.0 * (fa + 4.0 * flm + fm)
            right = (hi - m) / 6.0 * (fm + 4.0 * frm + fb)
            err = left + right - whole
            split = ~(
                (np.abs(err) <= 15.0 * tol)
                | ((hi - lo) < 1e-14 * (np.abs(lo) + np.abs(hi) + 1.0))
            )
            levels.append((left + right + err / 15.0, split))
        if not split.any():
            break
        if depth <= 0:
            raise ConvergenceError("adaptive quadrature exceeded maximum recursion depth")
        if not (np.isfinite(left[split]).all() and np.isfinite(right[split]).all()):
            raise ConvergenceError("quadrature integrand produced a non-finite value")
        # of s split subintervals, the left half of the q-th becomes
        # pending subinterval q and its right half q + s
        ids, lo, m, hi, fa, flm, fm, frm, fb, left, right, tol = (
            v[split] for v in (ids, lo, m, hi, fa, flm, fm, frm, fb, left, right, tol)
        )
        ids, tol = np.concatenate((ids, ids)), np.concatenate((0.5 * tol, 0.5 * tol))
        lo, hi = np.concatenate((lo, m)), np.concatenate((m, hi))
        fa, fb = np.concatenate((fa, fm)), np.concatenate((fm, fb))
        fm, whole = np.concatenate((flm, frm)), np.concatenate((left, right))
    # a split subinterval's value is the sum of its halves' values
    total = levels[-1][0]
    for accepted, split in reversed(levels[:-1]):
        half = total.size // 2
        accepted[split] = total[:half] + total[half:]
        total = accepted
    out[b > a] = total
    return out


def _values(f, nodes: tuple[np.ndarray, ...], ids: np.ndarray) -> list[np.ndarray]:
    """f at every array of nodes, each holding one node per lane of ids,
    through one call; one value array per node array."""
    values = f(np.concatenate(nodes), np.concatenate((ids,) * len(nodes)))
    return np.split(np.asarray(values, dtype=float), len(nodes))
