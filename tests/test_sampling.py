"""Sample streams: Halton radical inverses, pinned points, the draw budget."""

import math

import numpy as np
import pytest

from gravinst import ghawking, sampling
from gravinst.errors import ScanError
from gravinst.sampling import SampleSpec
from gravinst.singularities import QuotientSignature, config_from_json, make_polygon_config
from fd_reference import float_base_to_chart, integer_halton


def hexagon_config():
    return make_polygon_config(
        QuotientSignature(2, 3, 2), [1.0 + 0j, 1.4 + 0.3j], [0.0, 0.7]
    )


def radical_inverse(index, base):
    """Pure-Python reference: the scalar digit recurrence."""
    f, r = 1.0, 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


@pytest.mark.parametrize("base", [2, 3, 5, 7])
def test_halton_matches_scalar_radical_inverse_bit_for_bit(base):
    rng = np.random.default_rng(base)
    indices = np.concatenate(
        [
            np.arange(1, 2049),
            np.arange(2**31 - 1024, 2**31 + 1024),
            rng.integers(1, 2**31 + 10**6, 2000),
        ]
    )
    values = sampling.halton(indices, base)
    assert values.shape == indices.shape
    for i, v in zip(indices.tolist(), values.tolist()):
        assert v == radical_inverse(i, base)


def test_halton_rejects_non_positive_index():
    with pytest.raises(ValueError):
        sampling.halton(np.array([3, 0, 5]), 2)


@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
def test_halton_float_digits_are_the_integer_recurrence_bit_for_bit(seed):
    # the stream of a seed starts at index 1 + seed % 2^31
    idx = np.arange(1 + seed % 2**31, 1 + seed % 2**31 + 4096)
    for base in (2, 3, 5, 7):
        assert sampling.halton(idx, base).tobytes() == integer_halton(idx, base).tobytes()


def test_halton_float_digits_hold_to_the_end_of_their_exact_range():
    idx = np.arange(2**53 - 4096, 2**53)
    for base in (2, 3, 5, 7):
        assert sampling.halton(idx, base).tobytes() == integer_halton(idx, base).tobytes()
    with pytest.raises(ValueError, match="below 2\\*\\*53"):
        sampling.halton(np.array([5, 2**53]), 3)


def test_hexagon_streams_are_pinned():
    # the first three points at SampleSpec(count=3, seed=42), taken from
    # the per-candidate scalar Halton code the block draw replaced; the
    # complex-chart points from the block lift, within 1e-15 of the float
    # lift of the same base points (the third point's y is 1 ulp off it)
    cfg, spec = hexagon_config(), SampleSpec(count=3, seed=42)
    gh = sampling.gh_points(cfg, spec).tolist()
    assert gh == [
        [1.6669675304762166, 1.8894664518725193, -1.2128634399717522, -8.718280845195284],
        [2.564565431501872, 5.155081592584775, 2.545976600444295, -1.2373582560701983],
        [3.4621633325275267, -7.069928684707151, 2.366692137048613, 4.179709296205072],
    ]
    hit = sampling.hitchin_points(cfg, spec).tolist()
    assert hit == [
        [1.2128634399717522, -8.718280845195284, -110.56881126963592, 1146.161394530822],
        [-2.545976600444295, -1.2373582560701983, -964.3188520316079, 627.7020120055573],
        [-2.366692137048613, 4.179709296205072, -2.6051792810225622, -0.8649791157798524],
    ]
    for got, base in zip(hit, gh):
        want = float_base_to_chart(cfg, base)
        assert tuple(got[:2]) == want[:2]
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-15 * max(map(abs, want))


def counted_draws(monkeypatch, accepted: int) -> tuple[list, list]:
    """Counters of the clearance tests and of the Halton rows drawn, with
    the first accepted candidates clear of everything and every later one
    rejected."""
    tested = [0]
    drawn = [0]
    halton = sampling.halton

    def clearance(config, b, a):
        tested[0] += 1
        return math.inf if tested[0] <= accepted else -1.0

    def counted_halton(index, base):
        drawn[0] += np.size(index)
        return halton(index, base)

    monkeypatch.setattr(ghawking, "center_clearance", clearance)
    monkeypatch.setattr(ghawking, "string_clearance", lambda config, b, a: math.inf)
    monkeypatch.setattr(sampling, "halton", counted_halton)
    return tested, drawn


@pytest.mark.parametrize("count", [1, 3, 1000])
def test_stream_raises_after_exactly_its_draw_budget(monkeypatch, count):
    # every candidate rejected: the stream draws 10000 of them whatever the
    # count, each through one clearance test and one Halton row, then ends
    tested, drawn = counted_draws(monkeypatch, accepted=0)
    with pytest.raises(ScanError, match="[(]10000 drawn"):
        sampling.gh_points(hexagon_config(), SampleSpec(count=count, seed=5))
    assert tested[0] == 10000
    assert drawn[0] == len(sampling._BASES) * 10000


def test_a_stream_that_accepts_a_candidate_may_draw_10000_per_point(monkeypatch):
    # one candidate accepted, then every one rejected: the budget is
    # 10000 * count, and the accepted candidate counts among them
    tested, drawn = counted_draws(monkeypatch, accepted=1)
    with pytest.raises(ScanError, match="[(]30000 drawn"):
        sampling.gh_points(hexagon_config(), SampleSpec(count=3, seed=5))
    assert tested[0] == 30000
    assert drawn[0] == len(sampling._BASES) * 30000


def test_an_annulus_whose_cubed_radius_overflows_is_a_scan_error():
    # the volume-uniform radius takes r_min^3 and r_max^3 of the scaled
    # annulus; (6e150)^3 overflows, and so does (1e300)^3 on a unit scale
    big = config_from_json({"d": 1, "n": 2, "m": 1, "radii": [[1e150, 0.0]]})
    pair = config_from_json({"d": 1, "n": 2, "m": 1, "radii": [[1.0, 0.0]]})
    for cfg, spec in ((big, SampleSpec()), (pair, SampleSpec(r_max=1e300))):
        for points in (sampling.gh_points, sampling.hitchin_points):
            with pytest.raises(ScanError, match="too large"):
                points(cfg, spec)
