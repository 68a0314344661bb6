"""Deterministic adaptive Simpson quadrature for the period and volume
integrals.  Recursive bisection accumulates subinterval contributions in a
fixed (pairwise) order, so results are reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from typing import Callable

from gravinst.errors import ConvergenceError

# relative accuracy of every integral, the floor of its scale, and the
# deepest bisection
REL_TOL = 1e-9
ABS_TOL = 1e-13
MAX_DEPTH = 40


def adaptive_simpson(f: Callable[[float], float], a: float, b: float) -> float:
    """Integrate f over [a, b] to relative accuracy REL_TOL."""
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
