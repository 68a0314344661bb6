"""Deterministic adaptive Gauss-Kronrod quadrature over lanes, for the
volume integrals.

Each interval (lane) is bisected breadth first under QUADPACK's embedded
7-point Gauss / 15-point Kronrod pair (qk15): one depth level at a time,
the 15 nodes of every pending subinterval go through one integrand call.
A subinterval is accepted when |K15 - G7| is within a tolerance halved
per level, with the value K15, so the method accepts exactly the
subintervals a depth-first recursion accepts; no node is an endpoint.
Each subinterval's weighted values are summed in node order and each
lane's accepted pieces in one fixed order (left half + right half at
every split), so a lane's result is reproducible bit-for-bit, whatever
lanes run beside it.  The entry point keeps the Simpson rule's name
adaptive_simpson, under which the benchmark's tracer wraps it.
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

# QUADPACK qk15 on [-1, 1], each to the nearest double, from x = 1 in: the
# Kronrod nodes x >= 0 and their weights, and the weights of the Gauss
# rule on every second node
_X = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
      0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0)
_WK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
       0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782)
_WG = (0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694)
# in node order, left to right; GAUSS_WEIGHTS go with KRONROD_NODES[1::2]
KRONROD_NODES = np.array([-x for x in _X[:-1]] + list(_X[::-1]))
KRONROD_WEIGHTS = np.array(_WK[:-1] + _WK[::-1])
GAUSS_WEIGHTS = np.array(_WG[:-1] + _WG[::-1])


def adaptive_simpson(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], a, b
) -> np.ndarray:
    """Integrate f over each interval [a[i], b[i]] to relative accuracy
    REL_TOL; a and b are equal-length 1-D arrays, and the result holds one
    integral per interval (0 for a zero-width one).

    f(t, i) takes an array of nodes t and, for each node, the index i of
    its interval, and returns f at every node.  ValueError if some
    b[i] < a[i]; ConvergenceError when a subinterval is still rejected at
    MAX_DEPTH or its rules are not finite.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("integration bounds must be equal-length 1-D arrays")
    if not np.all(b >= a):
        raise ValueError("integration bounds must satisfy a <= b")
    out = np.zeros(a.shape)
    # the pending subintervals: their lane, ends and (from the first level) tolerance
    ids = np.flatnonzero(b > a)
    if not ids.size:
        return out
    lo, hi = a[ids], b[ids]
    # per level: the accepted value of each pending subinterval, and which
    # of them were split instead
    levels = []
    for depth in range(MAX_DEPTH, -1, -1):
        # K15 and G7 of every pending subinterval from one integrand call,
        # np.add.accumulate summing in node order for any number of them
        halfwidth = 0.5 * (hi - lo)
        nodes = 0.5 * (lo + hi) + halfwidth * KRONROD_NODES[:, None]
        values = np.asarray(f(nodes.ravel(), np.tile(ids, len(nodes))), dtype=float).reshape(nodes.shape)
        with np.errstate(invalid="ignore", over="ignore"):
            kronrod = np.add.accumulate(KRONROD_WEIGHTS[:, None] * values)[-1] * halfwidth
            gauss = np.add.accumulate(GAUSS_WEIGHTS[:, None] * values[1::2])[-1] * halfwidth
            if depth == MAX_DEPTH:
                tol = REL_TOL * np.maximum(np.abs(kronrod), ABS_TOL)
            floor = (hi - lo) < 1e-14 * (np.abs(lo) + np.abs(hi) + 1.0)
            split = ~((np.abs(kronrod - gauss) <= tol) | floor)
        levels.append((kronrod, split))
        if not split.any():
            break
        if depth <= 0:
            raise ConvergenceError("adaptive quadrature exceeded maximum recursion depth")
        if not (np.isfinite(kronrod[split]).all() and np.isfinite(gauss[split]).all()):
            raise ConvergenceError("quadrature integrand produced a non-finite value")
        # of s split subintervals, the left half of the q-th becomes
        # pending subinterval q and its right half q + s
        ids, lo, hi, tol = (v[split] for v in (ids, lo, hi, tol))
        m = 0.5 * (lo + hi)
        ids, tol = np.concatenate((ids, ids)), np.concatenate((0.5 * tol, 0.5 * tol))
        lo, hi = np.concatenate((lo, m)), np.concatenate((m, hi))
    # a split subinterval's value is the sum of its halves' values
    total = levels[-1][0]
    for accepted, split in reversed(levels[:-1]):
        half = total.size // 2
        accepted[split] = total[:half] + total[half:]
        total = accepted
    out[b > a] = total
    return out

