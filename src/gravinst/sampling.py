"""Deterministic low-discrepancy sampling of chart points.

Verification scans must be reproducible byte for byte, so points come
from Halton sequences (one prime base per coordinate) with the seed
folded into the start index.  Equal seeds give equal streams on every
platform; no stateful RNG is involved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from gravinst import ghawking, hitchin
from gravinst.errors import NumericOverflowError, ScanError
from gravinst.singularities import CenterConfiguration

_BASES = (2, 3, 5, 7)
# candidates drawn per Halton block: a stream's first block holds
# spec.count rows, and each next block twice as many up to this size
_HALTON_BLOCK = 1024


def halton(index: np.ndarray, base: int) -> np.ndarray:
    """Halton radical inverse in the given base of each positive integer
    of the index array.  Digit by digit, f /= base; r += f * digit, so
    every value has the bits of the scalar recurrence.  The digits come
    from float division, exact below index 2^53: there every quotient and
    digit is an exact float, and x / base rounds by under 1 / base, so its
    floor is the integer quotient.  Any other index is a ValueError."""
    i = np.array(index, dtype=np.int64)
    if i.min() <= 0 or i.max() >= 2**53:
        raise ValueError("Halton index must be positive and below 2**53")
    x = i.astype(float)
    out = np.zeros(i.shape)
    f = 1.0
    rest = int(i.max())
    while rest:
        f /= base
        q = np.floor(x / base)
        out += f * (x - q * base)
        x = q
        rest //= base
    return out


def require_count_and_seed(count: int, seed: int) -> None:
    """ValueError unless count and seed are integers and count is positive."""
    for name, value in (("count", count), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer")
    if count < 1:
        raise ValueError("count must be positive")


@dataclass(frozen=True)
class SampleSpec:
    """Annulus sampling request: count base points with |x| in
    [r_min, r_max]*scale, keeping clear of centers, Dirac strings and
    chart poles by the stated margins."""

    count: int = 20
    seed: int = 0
    r_min: float = 2.0
    r_max: float = 6.0
    clearance: float = 0.25
    chart_margin: float = 1e-3

    def __post_init__(self):
        require_count_and_seed(self.count, self.seed)
        for name in ("r_min", "r_max", "clearance", "chart_margin"):
            value = getattr(self, name)
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or not math.isfinite(value)
            ):
                raise ValueError(f"{name} must be a finite real number")
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError("need 0 < r_min < r_max")
        # centers lie within scale of the origin and annulus points within
        # r_max * scale, so no point is farther than (r_max + 1) * scale
        # from a center
        if not self.clearance < self.r_max + 1.0:
            raise ValueError("clearance must be below r_max + 1 to be met at all")


def start_index(seed: int) -> int:
    """The stream index a seed starts at: 1 + seed mod 2^31."""
    return 1 + (int(seed) % (2**31))


def _candidates(
    config: CenterConfiguration, spec: SampleSpec
) -> Iterator[tuple[float, complex, float]]:
    """Stream of (b, a, theta) samples clear of centers and of the Dirac
    strings.  Radii are volume-uniform over the annulus, scaled by the
    configuration extent.

    A stream that accepts none of its first 10000 candidates raises
    ScanError there, whatever spec.count is; one that accepts some draws
    at most 10000 * spec.count, whether accepted here or rejected by the
    caller, and then raises ScanError.  So an unsatisfiable spec ends
    instead of looping.  An annulus whose cubed radii overflow is a
    ScanError too.
    """
    scale = max(1.0, config.extent())
    lo, hi = spec.r_min * scale, spec.r_max * scale
    try:
        lo3, hi3 = lo**3, hi**3
    except OverflowError:
        lo3 = hi3 = math.inf
    if not math.isfinite(hi3):
        raise ScanError(f"the sampling annulus, radii up to {hi:.3g}, is too large")
    clear = spec.clearance * scale
    start = first = start_index(spec.seed)
    end, budget = first + 10000, first + 10000 * spec.count
    block = min(spec.count, _HALTON_BLOCK)
    while first < end:
        idx = np.arange(first, min(first + block, end))
        first += idx.size
        block = min(2 * block, _HALTON_BLOCK)
        for u in np.stack([halton(idx, b) for b in _BASES], axis=1).tolist():
            r = (lo3 + u[0] * (hi3 - lo3)) ** (1.0 / 3.0)
            cos_t = 2.0 * u[1] - 1.0
            sin_t = math.sqrt(max(0.0, 1.0 - cos_t * cos_t))
            phi = 2.0 * math.pi * u[2]
            b = r * cos_t
            a = complex(r * sin_t * math.cos(phi), r * sin_t * math.sin(phi))
            theta = 2.0 * math.pi * u[3]
            if ghawking.center_clearance(config, b, a) < clear:
                continue
            if ghawking.string_clearance(config, b, a) < clear:
                continue
            end = budget
            yield b, a, theta
    raise ScanError(f"sampling rejected too many candidate points ({end - start} drawn)")


def base_points(
    config: CenterConfiguration, spec: SampleSpec
) -> list[tuple[float, complex, float]]:
    """First spec.count accepted (b, a, theta) samples."""
    return list(itertools.islice(_candidates(config, spec), spec.count))


def gh_points(config: CenterConfiguration, spec: SampleSpec) -> np.ndarray:
    """Circle-fibered chart coordinates (theta, b, a1, a2) of the base
    stream, one row per point."""
    return np.array([(t, b, a.real, a.imag) for b, a, t in base_points(config, spec)])


def hitchin_points(config: CenterConfiguration, spec: SampleSpec) -> np.ndarray:
    """Same base stream, lifted to complex-chart coordinates
    (Re z, Im z, Re y, Im y), one row per point.

    Candidates whose chart coordinates fall inside the chart margin (near
    the branch locus y = 0 or a puncture z = -conj(a_i)) are discarded
    and replaced by later stream entries, keeping the accepted rows a
    deterministic function of the SampleSpec.  The stream's budget bounds
    the discards too.  The candidates are lifted in blocks
    (hitchin.base_to_chart) of as many as are still missing, so the draw
    never runs past the last one accepted.  A candidate whose lift
    overflows ends the stream with its NumericOverflowError: the chart
    cannot carry the annulus, and dropping its far points would draw the
    whole budget.
    """
    scale = max(1.0, config.extent())
    candidates = (
        (theta, b, a.real, a.imag)
        for b, a, theta in _candidates(config, spec)
        if all(abs(c.a - a) >= spec.chart_margin * scale for c in config.centers)
    )
    out: list = []
    while len(out) < spec.count:
        block = list(itertools.islice(candidates, spec.count - len(out)))
        # a lane on the y = 0 locus has no lift, and the margin drops it anyway
        lifted, errors = hitchin.base_to_chart(config, block)
        for e in errors:
            if isinstance(e, NumericOverflowError):
                raise e
        out.extend(x for x in lifted.tolist() if abs(complex(x[2], x[3])) >= spec.chart_margin)
    return np.array(out)
