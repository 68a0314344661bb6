"""Center configurations for the cyclic-quotient metrics.

A configuration is a finite list of centers (b_i, a_i) in R x C, tagged
with a quotient signature (d, n, m) and an asymptotic mode.  The symmetric
configurations are unions of d regular n-gons: polygon i has vertices

    a_{i,j} = -conj(c_i) * rho**(-j),   b_{i,j} = b_i,   j = 1..n,

with rho = exp(2*pi*i/n), so the center set is invariant under the cyclic
action a -> rho**(-m) a.  The same data determines the deformed A-type
equation x*y = prod_i (z**n - c_i**n).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from gravinst.errors import InvalidSignatureError, SingularFiberError

_COLLISION_TOL = 1e-9
# the pairwise distances are taken over blocks of rows, about this many
# distances per block, so that memory stays bounded for any center count
_PAIR_BLOCK = 1 << 16
# the most centers a configuration may have: the pairwise collision test
# is O(k^2), and 8000 centers (akl n = 2 at AKL_MAX_LEVEL) take about 0.4 s
MAX_CENTERS = 8000
# the highest akl truncation level: the convergence check's margin below
# its tolerance, about 1/(8 J^4), reaches one ulp of the level's
# potential near J = 5000, and the check then fails on a convergent tail
AKL_MAX_LEVEL = 4000


def row_blocks(n: int, width: int) -> Iterator[slice]:
    """Consecutive slices over n rows, each of about _PAIR_BLOCK / width
    rows (at least one), so that a table of a block's rows against width
    items stays bounded in memory."""
    step = max(1, _PAIR_BLOCK // max(width, 1))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def first_pair(k: int, close: Callable[[slice], np.ndarray]) -> tuple[int, int] | None:
    """The first pair (i, j) of k items, i < j in row-major order, that
    close marks; None when it marks none.  close(rows) gives the boolean
    table of the items in the slice rows against the items from rows.start
    on, and is called over row_blocks, so memory stays bounded for any k."""
    for rows in row_blocks(k, k):
        start = rows.start
        later = np.arange(k - start)[None, :] > np.arange(rows.stop - start)[:, None]
        hits = np.argwhere(later & close(rows))
        if len(hits):
            return start + int(hits[0][0]), start + int(hits[0][1])
    return None


@dataclass(frozen=True)
class QuotientSignature:
    """Signature (d, n, m) of the quotient 1/(d*n^2) * (1, d*n*m - 1).

    n = 1 is admitted as the trivial quotient (plain A_{k-1} data, m = 0).
    """

    d: int
    n: int
    m: int

    def __post_init__(self):
        if self.d < 1:
            raise InvalidSignatureError(f"d must be >= 1, got {self.d}")
        if self.n < 1:
            raise InvalidSignatureError(f"n must be >= 1, got {self.n}")
        if self.n == 1:
            if self.m != 0:
                raise InvalidSignatureError("n = 1 requires m = 0")
        else:
            if not (1 <= self.m < self.n):
                raise InvalidSignatureError(
                    f"m must satisfy 1 <= m < n, got m={self.m}, n={self.n}"
                )
            if math.gcd(self.m, self.n) != 1:
                raise InvalidSignatureError(
                    f"m and n must be coprime, got gcd({self.m},{self.n}) != 1"
                )
        if self.k > MAX_CENTERS:
            raise ValueError(
                f"d*n = {self.k} centers, more than the {MAX_CENTERS} a configuration"
                " may have: the pairwise center tests grow as their square"
            )

    @property
    def k(self) -> int:
        """Total number of centers d*n."""
        return self.d * self.n

    @property
    def rho(self) -> complex:
        return cmath.exp(2j * math.pi / self.n)


@dataclass(frozen=True)
class Center:
    """One center: height b on the real axis, position a in the plane."""

    b: float
    a: complex

    def __post_init__(self):
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "a", complex(self.a))
        if not (math.isfinite(self.b) and cmath.isfinite(self.a)):
            raise ValueError("center coordinates must be finite")

    def as_r3(self) -> np.ndarray:
        """Coordinates (b, Re a, Im a) as a point of R^3."""
        return np.array([self.b, self.a.real, self.a.imag])


@dataclass(frozen=True)
class CenterConfiguration:
    """Centers plus signature plus asymptotic mode.

    mode is one of "ale", "alf", "akl"; akl_j_max records the truncation
    level of an infinite-topology configuration (mode "akl" only).
    Coincident centers are rejected: the corresponding space is singular.
    Symmetry is *not* enforced here -- deliberately broken configurations
    must remain constructible so the invariance checks can fail on them.
    """

    centers: tuple[Center, ...]
    signature: QuotientSignature
    mode: str = "ale"
    akl_j_max: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "centers", tuple(self.centers))
        if self.mode not in ("ale", "alf", "akl"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if (self.mode == "akl") != (self.akl_j_max is not None):
            raise ValueError("akl_j_max must be set exactly for mode 'akl'")
        if len(self.centers) != self.signature.k:
            raise ValueError(
                f"expected {self.signature.k} centers, got {len(self.centers)}"
            )
        pts = self.points_r3()
        scale = max(1.0, float(np.max(np.abs(pts))))
        # a squared distance between two centers is at most 12 scale^2
        if not math.isfinite(12.0 * scale * scale):
            raise ValueError("center coordinates too large: their squared distances overflow")
        # extent() is read per segment and per sample stream; the
        # configuration is frozen, so its value is fixed here
        object.__setattr__(self, "_extent", float(np.max(np.linalg.norm(pts, axis=1))))

        def close(rows: slice) -> np.ndarray:
            # |x_i - x_j|, its squares summed in the order of np.linalg.norm's
            sq = sum((p[rows, None] - p[None, rows.start :]) ** 2 for p in pts.T)
            return np.sqrt(sq) <= _COLLISION_TOL * scale

        pair = first_pair(len(pts), close)
        if pair is not None:
            raise SingularFiberError(
                f"centers {pair[0]} and {pair[1]} coincide; the space is singular"
            )

    @property
    def k(self) -> int:
        return len(self.centers)

    def points_r3(self) -> np.ndarray:
        """(k, 3) array of centers as points (b, Re a, Im a)."""
        return np.array([c.as_r3() for c in self.centers])

    def extent(self) -> float:
        """Largest center distance from the origin of R^3."""
        return self._extent


def _principal_branch(c: complex, n: int) -> complex:
    """Rotate c by a power of rho so its argument lands in [0, 2*pi/n)."""
    if n == 1:
        return c
    sector = 2.0 * math.pi / n
    ang = cmath.phase(c) % (2.0 * math.pi)
    shift = math.floor(ang / sector)
    return c * cmath.exp(-2j * math.pi * shift / n)


def make_polygon_config(
    signature: QuotientSignature,
    radii: Sequence[complex],
    heights: Sequence[float],
    mode: str = "ale",
    akl_j_max: int | None = None,
) -> CenterConfiguration:
    """Build the symmetric configuration of d regular n-gons.

    radii are the deformation roots c_i (nonzero, distinct n-th powers);
    heights are the polygon heights b_i.  Each c_i is first normalized to
    the principal branch (argument in [0, 2*pi/n)), which permutes the
    vertices of its polygon but not the vertex set.
    """
    if len(radii) != signature.d or len(heights) != signature.d:
        raise ValueError("radii and heights must each have length d")
    cs = [complex(c) for c in radii]
    if any(c == 0 for c in cs):
        raise ValueError("deformation roots c_i must be nonzero")
    try:
        powers = np.array([c**signature.n for c in cs])
    except OverflowError as exc:
        raise ValueError("deformation values c_i**n overflow") from exc
    size = np.abs(powers)
    # relative to the pair: radii may span decades
    pair = first_pair(
        len(powers),
        lambda rows: np.abs(powers[rows, None] - powers[None, rows.start :])
        <= 1e-12 * np.maximum(size[rows, None], size[None, rows.start :]),
    )
    if pair is not None:
        raise SingularFiberError("repeated deformation value c_i**n: the fiber is singular")
    cs = [_principal_branch(c, signature.n) for c in cs]
    rho = signature.rho
    centers = []
    for i in range(signature.d):
        for j in range(1, signature.n + 1):
            a = -cs[i].conjugate() * rho ** (-j)
            centers.append(Center(b=float(heights[i]), a=a))
    return CenterConfiguration(
        centers=tuple(centers), signature=signature, mode=mode, akl_j_max=akl_j_max
    )


def make_akl_config(n: int, m: int, j_max: int) -> CenterConfiguration:
    """Truncated infinite-topology configuration: polygons j = 1..j_max
    inscribed in circles of radius j**2 about the vertical axis, at
    height 0.  j_max is at most AKL_MAX_LEVEL, the last level whose
    convergence check can tell a convergent tail in floats."""
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    if j_max > AKL_MAX_LEVEL:
        raise ValueError(
            f"akl truncation level {j_max} is above {AKL_MAX_LEVEL}: past it the"
            " convergence check's margin, about 1/(8 J^4), falls under one ulp"
        )
    signature = QuotientSignature(d=j_max, n=n, m=m)
    radii = [float(j) ** 2 for j in range(1, j_max + 1)]
    return make_polygon_config(
        signature, radii, [0.0] * j_max, mode="akl", akl_j_max=j_max
    )


_CONFIG_KEYS = {"d", "n", "m", "radii", "heights", "mode"}


def config_from_json(data: dict) -> CenterConfiguration:
    """Parse the configuration object {"d","n","m","radii","heights","mode"}.

    radii entries are [re, im] pairs; heights is a list of d reals and
    defaults to zeros; mode is "ale" (default), "alf", or {"akl": J}.  For
    akl mode the polygons are generated from (n, m, J): d, radii and
    heights must be omitted.  Unknown keys are rejected.
    """
    if not isinstance(data, dict):
        raise ValueError("configuration must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
    mode = data.get("mode", "ale")
    if isinstance(mode, dict):
        if set(mode) != {"akl"}:
            raise ValueError('mode object must be {"akl": J}')
        j_max = mode["akl"]
        if type(j_max) is not int or j_max < 1:
            raise ValueError("akl truncation level must be a positive integer")
        for key in ("d", "radii", "heights"):
            if key in data:
                raise ValueError(f"akl mode generates its polygons; remove {key!r}")
        n = _require_int(data, "n")
        m = _require_int(data, "m")
        return make_akl_config(n=n, m=m, j_max=j_max)
    if mode not in ("ale", "alf"):
        raise ValueError(f"mode must be 'ale', 'alf' or {{'akl': J}}, got {mode!r}")
    d = _require_int(data, "d")
    n = _require_int(data, "n")
    m = _require_int(data, "m")
    signature = QuotientSignature(d=d, n=n, m=m)
    if "radii" not in data:
        raise ValueError("missing configuration key 'radii'")
    radii_raw = data["radii"]
    if not isinstance(radii_raw, list) or len(radii_raw) != d:
        raise ValueError("radii must be a list of d [re, im] pairs")
    radii = []
    for entry in radii_raw:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(type(v) in (int, float) for v in entry)
        ):
            raise ValueError("each radius must be a [re, im] pair of numbers")
        radii.append(complex(entry[0], entry[1]))
    heights_raw = data.get("heights", [0.0] * d)
    if not isinstance(heights_raw, list) or len(heights_raw) != d:
        raise ValueError("heights must be a list of d reals")
    if not all(type(v) in (int, float) for v in heights_raw):
        raise ValueError("heights entries must be numbers")
    return make_polygon_config(signature, radii, [float(h) for h in heights_raw], mode=mode)


def _require_int(data: dict, key: str) -> int:
    if key not in data:
        raise ValueError(f"missing configuration key {key!r}")
    value = data[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"configuration key {key!r} must be an integer")
    return value
