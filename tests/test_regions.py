import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blab import (
    BlabError,
    BoundarySet,
    DomainError,
    EmptyRegionError,
    GeometricLaw,
    ModelFunction,
    PowerLaw,
    SamplingError,
    StolzSpec,
    ZeroSequence,
    angular_halfwidth,
    in_stolz,
    region_boundary,
    region_is_empty,
    sample_zeros,
    type_beta,
)
from blab import regions
from blab.regions import MEMBERSHIP_TOL

ALL_GAUGES = [
    ModelFunction.linear(),
    ModelFunction.truncated_power(1.0),
    ModelFunction.truncated_power(2.0),
    ModelFunction.truncated_power(3.0),
    ModelFunction.exp_tangential(0.5),
    ModelFunction.exp_tangential(1.0),
    ModelFunction.exp_tangential(2.0),
]


def vertex_spec(phi, angle, k_const):
    """The region of gauge phi and aperture K whose boundary set is one vertex angle."""
    return StolzSpec(phi, BoundarySet.from_points([angle]), float(k_const))


class TestModelFunction:
    def test_linear_values(self):
        phi = ModelFunction.linear()
        assert phi(0.3) == 0.3
        assert phi.constant == 1.0

    def test_power_piecewise(self):
        phi = ModelFunction.truncated_power(2.0)
        assert phi(1.5) == pytest.approx(2.25)
        assert phi(3.0) == pytest.approx(6.0)  # 2^(gamma-1) * x past the knee
        assert phi(2.0) == pytest.approx(4.0)  # both pieces meet at x = 2

    def test_power_constant(self):
        assert ModelFunction.truncated_power(3.0).constant == pytest.approx(4.0)

    def test_exp_values(self):
        phi = ModelFunction.exp_tangential(1.0)
        assert phi(1.0) == pytest.approx(math.exp(-1.0))
        assert phi.constant == pytest.approx(1.0 / math.e)
        assert phi(0.0) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            ModelFunction.truncated_power(0.5)
        with pytest.raises(DomainError):
            ModelFunction.exp_tangential(0.0)
        with pytest.raises(DomainError):
            ModelFunction("cubic")
        # gamma = inf would give C = inf, so every lemma check is vacuous;
        # rho = inf makes phi a 0/1 step
        with pytest.raises(DomainError, match="finite gamma"):
            ModelFunction.truncated_power(math.inf)
        with pytest.raises(DomainError, match="finite rho"):
            ModelFunction.exp_tangential(math.inf)

    def test_rejects_negative_argument(self):
        with pytest.raises(DomainError):
            ModelFunction.linear()(-0.1)

    @pytest.mark.parametrize("phi", ALL_GAUGES, ids=lambda p: f"{p.kind}{p.param:g}")
    def test_linear_cap_holds(self, phi):
        x = np.concatenate([10.0 ** np.linspace(-8, 1, 400), [0.0]])
        assert np.all(phi(x) <= phi.constant * x * (1.0 + 1e-12))

    @pytest.mark.parametrize("phi", ALL_GAUGES, ids=lambda p: f"{p.kind}{p.param:g}")
    def test_monotone_and_inverse_roundtrip(self, phi):
        # exp gauges underflow to 0.0 near the vertex; test the representable range
        x = 10.0 ** np.linspace(-6, 0.5, 300)
        y = phi(x)
        live = y > 0.0
        assert np.all(np.diff(y[live]) > 0.0)
        back = phi.inverse(y[live])
        assert np.allclose(back, x[live], rtol=1e-9)

    def test_exp_inverse_saturation(self):
        phi = ModelFunction.exp_tangential(1.0)
        assert phi.inverse(1.0) == np.inf
        assert phi.inverse(0.0) == 0.0
        arr = phi.inverse(np.asarray([0.0, 0.5, 2.0]))
        assert arr[0] == 0.0 and np.isinf(arr[2])

    @given(st.floats(min_value=1e-6, max_value=1.9))
    @settings(max_examples=100, deadline=None)
    def test_power_inverse_both_branches(self, x):
        phi = ModelFunction.truncated_power(2.0)
        assert phi.inverse(phi(x)) == pytest.approx(x, rel=1e-10)
        assert phi.inverse(phi(x + 2.0)) == pytest.approx(x + 2.0, rel=1e-10)


# points at angle 0 and at angle 2 pi (a tiny negative imaginary part)
EDGE_ANGLE_POINTS = np.asarray([0.5, 0.9 + 0.0j, 0.5 - 1e-300j, 0.9 * np.exp(2j * np.pi)])


def _cantor_arcs(a, b, ratio, depth):
    arcs = [(a, b)]
    for _ in range(depth):
        arcs = [piece for lo, hi in arcs
                for piece in ((lo, lo + ratio * (hi - lo)), (hi - ratio * (hi - lo), hi))]
    return arcs


def _brute_force_sets():
    """(set, dense sample of its angles) pairs: arcs, a gap across angle 0, a
    wrapping arc, an arc ending at 2 pi, Cantor arcs and isolated points (one
    at angle 0)."""
    plain = BoundarySet(arcs=[(0.3, 0.9)], points=[2.5])
    arcs = [(0.3, 0.9), (6.0, 6.4)]
    cantor = _cantor_arcs(3.5, 5.0, 1.0 / 3.0, 4)
    mixed = BoundarySet(arcs=arcs, points=[2.5, 0.0], cantor=((3.5, 5.0), 1.0 / 3.0, 4))
    dense = np.concatenate([np.linspace(a, b, 4001) for a, b in arcs + cantor] + [[2.5, 0.0]])
    closing = BoundarySet(arcs=[(5.0, 2.0 * np.pi)], points=[1.0])
    return [(plain, np.concatenate([np.linspace(0.3, 0.9, 20001), [2.5]])),
            (mixed, dense),
            (closing, np.concatenate([np.linspace(5.0, 2.0 * np.pi, 20001), [1.0]]))]


TWO_PI = 2.0 * np.pi


def _reference_cantor(base, ratio, depth):
    """Cantor generator arcs, one Python pair per arc (the loop the array expansion replaced)."""
    a, b = float(base[0]), float(base[1])
    pieces = [(a, TWO_PI if b - a >= TWO_PI else (b - a) % TWO_PI)]
    for _ in range(depth):
        nxt = []
        for start, ln in pieces:
            keep = ln * ratio
            nxt.append((start, keep))
            nxt.append((start + ln - keep, keep))
        pieces = nxt
    return [(s, s + ln) for s, ln in pieces]


def _reference_segments(arcs):
    """Sorted disjoint segments within [0, 2pi], merged one arc at a time in a list."""
    segs = []
    for raw in arcs:
        a, b = float(raw[0]), float(raw[1])
        if b - a >= TWO_PI:
            segs.append([0.0, TWO_PI])
            continue
        length = (b - a) % TWO_PI
        if length == 0.0:
            continue
        start = a % TWO_PI
        end = start + length
        if end <= TWO_PI:
            segs.append([start, end])
        else:
            segs.append([start, TWO_PI])
            segs.append([0.0, end - TWO_PI])
    segs.sort()
    merged = []
    for s in segs:
        if merged and s[0] <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], s[1])
        else:
            merged.append(list(s))
    return merged


def _left_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def arclength(E):
    """Normalized arclength of a boundary set, summed over its segments."""
    return _left_sum(b - a for a, b in E.segments) / TWO_PI


class _ReferenceSet:
    """The list-merge construction of a boundary set, kept as an oracle for BoundarySet."""

    def __init__(self, arcs=(), points=(), cantor=None):
        arcs = [(float(a), float(b)) for a, b in arcs]
        if cantor is not None:
            arcs += _reference_cantor(*cantor)
        merged = _reference_segments(arcs)
        self.segments = [(a, b) for a, b in merged if b > a]
        # a piece that rounds to zero length holds a single angle: it is a point
        pts = {float(p) % TWO_PI for p in points}
        pts = {p for p in pts if not any(a <= p <= b for a, b in merged)}
        self.point_angles = np.asarray(sorted(pts | {a for a, b in merged if a == b}))

    def neighborhood_measure(self, x):
        if x >= 2.0:
            return 1.0
        delta = 2.0 * math.asin(x / 2.0)
        grown = [(a - delta, b + delta) for a, b in self.segments]
        grown += [(p - delta, p + delta) for p in self.point_angles]
        return min(1.0, _left_sum(b - a for a, b in _reference_segments(grown)) / TWO_PI)


def _reference_cases():
    """Boundary-set constructor arguments: edge cases, then random arcs and points."""
    cases = [
        {"arcs": [(-0.5, 0.5)]},  # wraps across angle 0
        {"arcs": [(0.0, 1.0), (0.5, 2.0), (2.0, 2.5)]},  # overlapping, then touching
        {"arcs": [(5.0, TWO_PI)], "points": [0.0, TWO_PI, 1.0]},  # ends at 2 pi
        {"arcs": [(1.0, 2.0)], "points": [2.0, 1.0, 1.5, 3.0, 3.0]},  # points on the arc
        {"points": [0.0, TWO_PI, -TWO_PI, 4.0 * np.pi]},
        {"arcs": [(3.0, 3.0 + TWO_PI)], "points": [1.0]},
        {"arcs": [(2.0, 1.0), (7.0, 7.5)]},  # runs the long way round; above 2 pi
        {"arcs": [(-1e-3, -1e-3 + 1e-16)], "points": [2.0]},  # rounds to zero length
        {"cantor": ((0.0, TWO_PI), 1.0 / 3.0, 14)},
        {"cantor": ((5.0, 8.0), 0.5, 14), "points": [5.0, 6.0]},  # touching pieces
        {"cantor": ((-1.0, 2.0), 0.25, 9), "arcs": [(0.0, 0.1)], "points": [1.9]},
        {"cantor": ((0.3, 0.3 + 2.0 * TWO_PI), 0.4, 5)},
        {"cantor": ((1.0, 2.0), 0.3, 0), "points": [2.0]},
    ]
    rng = np.random.default_rng(41)
    for _ in range(30):
        starts = rng.uniform(-TWO_PI, 2.0 * TWO_PI, int(rng.integers(0, 7)))
        spans = rng.choice([0.01, 0.3, 2.0, -0.5, 7.0], starts.size)
        spans = spans * rng.uniform(0.5, 1.5, starts.size)
        arcs = [(float(a), float(a + d)) for a, d in zip(starts, spans)]
        points = rng.uniform(-TWO_PI, 2.0 * TWO_PI, int(rng.integers(0, 5))).tolist()
        if arcs:
            points.append(arcs[0][1])  # a point on an arc end
        cases.append({"arcs": arcs, "points": points or [0.0]})
    return cases


REFERENCE_RADII = np.concatenate([np.ldexp(1.0, -np.arange(0, 21)),
                                  np.random.default_rng(43).uniform(0.0, 2.1, 15)])


@pytest.mark.parametrize("case", _reference_cases())
def test_interval_arrays_match_list_merge_bitwise(case):
    E, ref = BoundarySet(**case), _ReferenceSet(**case)
    assert E.segments == ref.segments
    assert E.point_angles.tobytes() == ref.point_angles.tobytes()
    for x in REFERENCE_RADII:
        assert E.neighborhood_measure(x) == ref.neighborhood_measure(x), x


def _lookup_reference(E, z):
    """BoundarySet.distance's lookup with a float modulo for the angle and an
    index wrap for the next interval, rebuilt from the public segments and points."""
    lo, hi = np.asarray(sorted(E.segments + [(p, p) for p in E.point_angles.tolist()])).T
    arc = hi > lo
    ang = np.mod(np.angle(z), TWO_PI)
    k = np.searchsorted(lo, ang, side="right") - 1
    inside = (k >= 0) & (ang <= hi[k]) & arc[k]
    if arc[-1] and hi[-1] >= TWO_PI:
        inside |= ang == 0.0
    before, after = np.exp(1j * hi)[k], np.exp(1j * lo)[(k + 1) % lo.size]
    chord = np.minimum(np.abs(z - before), np.abs(z - after))
    return np.where(inside, np.abs(np.abs(z) - 1.0), chord)


def _edge_points(E):
    """Signed zeros, angles just below and above 0, the set's ends and random disk points."""
    signed = [complex(x, y) for x in (0.0, -0.0, 0.5, -0.5, 1.0) for y in (0.0, -0.0)]
    tiny = np.concatenate([np.ldexp(1.0, -np.arange(0, 64)), [1e-300, 5e-324]])
    lo, hi = np.asarray(sorted(E.segments + [(p, p) for p in E.point_angles.tolist()])).T
    rng = np.random.default_rng(59)
    return np.concatenate([
        signed, 0.9 * np.exp(-1j * tiny), 0.9 * np.exp(1j * tiny), 1.0 - 1j * tiny, 1.0 + 1j * tiny,
        np.exp(1j * lo), np.exp(1j * hi), 0.7 * np.exp(1j * np.nextafter(lo, -np.inf)),
        np.sqrt(rng.uniform(0, 1, 2000)) * np.exp(2j * np.pi * rng.uniform(0, 1, 2000))])


class TestBoundarySet:
    @pytest.mark.parametrize("depth", [3.7, 2.5, math.inf, math.nan])
    def test_cantor_depth_must_be_an_integer(self, depth):
        with pytest.raises(DomainError, match="cantor depth must be an integer"):
            BoundarySet.cantor((0.0, 1.0), 0.3, depth)
        with pytest.raises(DomainError, match="cantor depth must be an integer"):
            BoundarySet.from_payload({"cantor": {"base": [0.0, 1.0], "ratio": 0.3,
                                                 "depth": depth}})

    def test_integral_float_cantor_depth_is_that_depth(self):
        assert BoundarySet.cantor((0.0, 1.0), 0.3, 3.0).cantor_depth == 3

    def test_distance_hand_values(self):
        E = BoundarySet.from_points([0.0])
        assert E.distance(0.0) == pytest.approx(1.0)
        assert E.distance(1j) == pytest.approx(math.sqrt(2.0))

    def test_distance_inside_arc_is_radial(self):
        E = BoundarySet.from_arcs([(-np.pi / 2, np.pi / 2)])
        assert E.distance(0.5) == pytest.approx(0.5)
        assert E.distance(0.9j) == pytest.approx(0.1)

    def test_distance_matches_brute_force(self):
        rng = np.random.default_rng(17)
        pts = np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
        pts = np.concatenate([pts, EDGE_ANGLE_POINTS])
        for E, dense in _brute_force_sets():
            circle = np.exp(1j * dense)
            brute = np.min(np.abs(pts[:, None] - circle[None, :]), axis=1)
            assert np.allclose(E.distance(pts), brute, atol=1e-4)

    @pytest.mark.parametrize("arcs, points", [
        ([(0.3, 0.9), (2.0, 2.2)], [4.0, 5.5]),  # arcs and isolated points
        ([], [0.0, 1.0, 2.5]),  # isolated points only
        ([(-0.5, 0.5)], [3.0]),  # an arc across angle 0, given from below
        ([(6.0, 6.8), (1.0, 1.5)], []),  # an arc across angle 0, given past 2 pi
    ], ids=["arcs-and-points", "points", "wrap-below", "wrap-past"])
    def test_distance_matches_arc_end_brute_force(self, arcs, points):
        # each arc expanded here into pieces of [0, 2 pi], each point kept as
        # an end: inside a piece the distance is radial, elsewhere it is the
        # chord to the nearest end of any piece or point
        lo, hi = [], []
        for a, b in arcs:
            start = a % TWO_PI
            end = start + (b - a)
            lo.append(start)
            hi.append(min(end, TWO_PI))
            if end > TWO_PI:
                lo.append(0.0)
                hi.append(end - TWO_PI)
        lo, hi, pts = np.asarray(lo), np.asarray(hi), np.asarray(points, dtype=float)
        ends = np.exp(1j * np.concatenate([lo, hi, pts]))
        rng = np.random.default_rng(23)
        z = np.sqrt(rng.uniform(0, 1, 500)) * np.exp(2j * np.pi * rng.uniform(0, 1, 500))
        z = np.concatenate([z, EDGE_ANGLE_POINTS, 0.9 * ends, ends])
        ang = np.mod(np.angle(z), TWO_PI)[:, None]
        inside = ((ang >= lo) & (ang <= hi)).any(axis=1)
        chord = np.abs(z[:, None] - ends).min(axis=1)
        want = np.where(inside, np.abs(np.abs(z) - 1.0), chord)
        E = BoundarySet(arcs=arcs, points=points)
        assert np.max(np.abs(E.distance(z) - want)) <= 1e-12

    @pytest.mark.parametrize("kwargs", [
        {"cantor": ((0.0, TWO_PI), 1.0 / 3.0, 10)},
        {"cantor": ((0.0, TWO_PI), 1.0 / 3.0, 14)},
        {"points": [0.0, 1.0, 2.5, 6.0]},
        {"points": [0.0]},
        {"arcs": [(-0.5, 0.5)], "points": [3.0]},  # wraps across angle 0
        {"arcs": [(6.0, 6.8), (1.0, 1.5)]},  # wraps, given past 2 pi
        {"arcs": [(5.0, TWO_PI)], "points": [2.0]},  # ends at 2 pi
    ], ids=["cantor-10", "cantor-14", "points", "one-point", "wrap-below", "wrap-past",
            "ends-at-2pi"])
    def test_distance_keeps_the_bits_of_the_modulo_lookup(self, kwargs):
        # the angle wraps into [0, 2 pi] by adding 2 pi below 0, and the next
        # interval's start comes from a rolled copy: bitwise what a float
        # modulo and an index wrap give, at signed zeros and angles next to 0
        E = BoundarySet(**kwargs)
        z = _edge_points(E)
        assert E.distance(z).tobytes() == _lookup_reference(E, z).tobytes()

    def test_point_on_set_has_zero_distance(self):
        E = BoundarySet.from_points([0.7])
        assert E.distance(np.exp(0.7j)) < 1e-15

    def test_wraparound_arc(self):
        E = BoundarySet.from_arcs([(-0.5, 0.5)])
        assert E.distance(0.9) == pytest.approx(0.1)
        assert len(E.segments) == 2  # split at angle 0, same set

    def test_measure(self):
        assert arclength(BoundarySet.from_arcs([(0.0, np.pi)])) == pytest.approx(0.5)
        assert arclength(BoundarySet.from_points([0.0, 1.0])) == 0.0
        assert arclength(BoundarySet.from_arcs([(0.0, TWO_PI)])) == pytest.approx(1.0)

    def test_overlapping_arcs_merge(self):
        E = BoundarySet.from_arcs([(0.0, 1.0), (0.5, 2.0)])
        assert len(E.segments) == 1
        assert arclength(E) == pytest.approx(2.0 / (2.0 * np.pi))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            BoundarySet()

    @pytest.mark.parametrize("kwargs", [
        {"points": [np.nan]},
        {"points": [0.0, -np.inf]},
        {"arcs": [(0.0, np.inf)]},
        {"arcs": [(np.nan, 1.0)], "points": [0.0]},
        {"cantor": ((0.0, np.inf), 1.0 / 3.0, 3)},
    ])
    def test_non_finite_angles_rejected(self, kwargs):
        with pytest.raises(DomainError, match="finite"):
            BoundarySet(**kwargs)

    def test_arc_of_zero_length_after_rounding_is_a_point(self):
        # the span is 1e-16, under half an ulp at the arc's start angle
        E = BoundarySet.from_arcs([(-1e-3, -1e-3 + 1e-16)])
        assert E.segments == []
        assert E.point_angles.tolist() == [-1e-3 % TWO_PI]

    def test_point_angles_is_a_copy(self):
        E = BoundarySet.from_points([1.0])
        E.point_angles[0] = 2.0
        assert E.point_angles.tolist() == [1.0]

    def test_payload_roundtrip(self):
        E = BoundarySet(arcs=[(0.1, 0.4)], points=[3.0], cantor=((0.0, 1.0), 0.3, 5))
        back = BoundarySet.from_payload(E.to_payload())
        assert back.to_payload() == E.to_payload()
        assert back.segments == E.segments
        assert np.array_equal(back.point_angles, E.point_angles)

    def test_payload_rejects_unknown_fields(self):
        with pytest.raises(DomainError):
            BoundarySet.from_payload({"points": [0.0], "extra": 1})
        with pytest.raises(DomainError):
            BoundarySet.from_payload({"cantor": {"base": [0, 1], "ratio": 0.3}})

    def test_cantor_expansion_count(self):
        E = BoundarySet.cantor((0.0, 1.0), 1.0 / 3.0, 4)
        assert len(E.segments) == 16
        assert E.cantor_depth == 4
        assert arclength(E) == pytest.approx((2.0 / 3.0) ** 4 / (2.0 * np.pi), rel=1e-12)

    def test_cantor_validation(self):
        with pytest.raises(DomainError):
            BoundarySet.cantor((0.0, 1.0), 0.6, 3)
        with pytest.raises(DomainError):
            BoundarySet.cantor((0.0, 1.0), 0.3, 25)

    @pytest.mark.parametrize("base", [(1.0, 1.0), (1.0, 1.0 - TWO_PI)])
    def test_degenerate_cantor_base_rejected(self, base):
        # a base of no length modulo 2 pi: (b - a) mod 2 pi is 0
        with pytest.raises(DomainError, match="cantor base arc is degenerate"):
            BoundarySet.cantor(base, 1.0 / 3.0, 2)


class TestNeighborhoodMeasure:
    def test_full_circle(self):
        assert BoundarySet.from_arcs([(0.0, TWO_PI)]).neighborhood_measure(0.01) == 1.0

    def test_single_point_sqrt2(self):
        E = BoundarySet.from_points([0.0])
        assert E.neighborhood_measure(math.sqrt(2.0)) == pytest.approx(0.5, rel=1e-12)

    def test_saturates_at_two(self):
        E = BoundarySet.from_points([0.0])
        assert E.neighborhood_measure(2.0) == 1.0
        assert E.neighborhood_measure(5.0) == 1.0

    def test_point_closed_form(self):
        E = BoundarySet.from_points([1.3])
        for x in (0.01, 0.1, 0.5):
            expect = 2.0 * math.asin(x / 2.0) / math.pi  # arc of half-angle 2 asin(x/2)
            assert E.neighborhood_measure(x) == pytest.approx(expect, rel=1e-12)

    def test_positive_radius_required(self):
        with pytest.raises(DomainError):
            BoundarySet.from_points([0.0]).neighborhood_measure(0.0)

    @pytest.mark.parametrize("x", [np.nan, np.inf])
    def test_non_finite_radius_is_refused(self, x):
        # nan would pass `x <= 0` and come out as measure 1.0
        with pytest.raises(DomainError, match="finite"):
            BoundarySet.from_points([0.0]).neighborhood_measure(x)

    def test_monotone_in_radius(self):
        E = BoundarySet(arcs=[(0.0, 0.3)], points=[2.0, 4.0])
        xs = np.linspace(0.01, 1.9, 60)
        vals = [E.neighborhood_measure(float(x)) for x in xs]
        assert np.all(np.diff(vals) >= -1e-15)


class TestTypeBeta:
    def test_finite_point_sets(self):
        assert type_beta(BoundarySet.from_points([0.7])) == pytest.approx(1.0, abs=0.05)
        assert type_beta(BoundarySet.from_points([0.0, 2.0])) == pytest.approx(1.0, abs=0.05)

    def test_positive_measure_arc(self):
        E = BoundarySet.from_arcs([(0.3, 0.3 + np.pi / 4)])
        assert type_beta(E) == pytest.approx(0.0, abs=0.05)

    def test_cantor_third_matches_dimension_complement(self):
        E = BoundarySet.cantor((0.0, 2.0 * np.pi), 1.0 / 3.0, 14)
        assert type_beta(E) == pytest.approx(1.0 - math.log(2.0) / math.log(3.0), abs=0.05)

    def test_depth_guard(self):
        E = BoundarySet.cantor((0.0, 1.0), 1.0 / 3.0, 6)
        with pytest.raises(DomainError, match="depth"):
            type_beta(E)

    def test_grid_validation(self):
        E = BoundarySet.from_points([0.0])
        with pytest.raises(DomainError):
            type_beta(E, [0.5, 0.25])  # too few
        with pytest.raises(DomainError):
            type_beta(E, [0.25, 0.5, 0.125, 0.0625])  # not decreasing

    @pytest.mark.parametrize("at", [0, 2, 3])
    def test_nan_grid_value_is_refused(self, at, capfd):
        # a nan would reach the least-squares fit, which fails in LAPACK
        # with a message on stderr
        grid = [0.5, 0.25, 0.125, 0.0625]
        grid[at] = np.nan
        with pytest.raises(DomainError, match=r"\(0, 1\)"):
            type_beta(BoundarySet.from_points([0.0]), grid)
        assert capfd.readouterr().err == ""


class TestMembership:
    def test_center_with_unit_aperture(self):
        spec = vertex_spec(ModelFunction.linear(), 0.0, 1.0)
        assert in_stolz(0.0, spec) is True

    def test_sideways_point_excluded(self):
        spec = vertex_spec(ModelFunction.linear(), 0.0, 1.0)
        assert in_stolz(0.9j, spec) is False

    def test_power_membership_matches_inequality(self):
        # below the knee the gauge is x^gamma, so membership is |t-lam|^g <= K(1-|lam|)
        rng = np.random.default_rng(41)
        for gamma, K in ((1.0, 2.0), (2.0, 1.0), (3.0, 0.7)):
            spec = vertex_spec(ModelFunction.truncated_power(gamma), 0.0, K)
            lam = np.sqrt(rng.uniform(0, 1, 1000)) * np.exp(2j * np.pi * rng.uniform(0, 1, 1000))
            lam = lam[np.abs(lam - 1.0) <= 2.0]
            got = in_stolz(lam, spec)
            expect = np.abs(1.0 - lam) ** gamma <= K * (1.0 - np.abs(lam))
            disagree = got != expect
            # only hairline cases at the region boundary may flip
            lhs = np.abs(1.0 - lam[disagree]) ** gamma
            rhs = K * (1.0 - np.abs(lam[disagree]))
            assert np.all(np.abs(lhs - rhs) <= 1e-9 * np.maximum(lhs, rhs))

    def test_rejects_circle_points(self):
        spec = vertex_spec(ModelFunction.linear(), 0.0, 1.0)
        with pytest.raises(DomainError):
            in_stolz(1.0 + 0j, spec)

    def test_spec_contains_wrapper(self):
        spec = vertex_spec(ModelFunction.exp_tangential(1.0), 0.0, 1.0)
        assert in_stolz(0.5, spec) is True

    def test_aperture_validation(self):
        with pytest.raises(DomainError):
            vertex_spec(ModelFunction.linear(), 0.0, 0.0)

    @pytest.mark.parametrize("K", [np.inf, np.nan])
    def test_non_finite_aperture_is_refused(self, K):
        # K = inf would make every point of the disk a member, 0.99j included
        with pytest.raises(DomainError, match="positive and finite"):
            vertex_spec(ModelFunction.linear(), 0.0, K)


class TestEmptyRegion:
    def test_slope_one_below_unit_aperture(self):
        assert region_is_empty(ModelFunction.linear(), 0.5) is True
        assert region_is_empty(ModelFunction.truncated_power(1.0), 0.5) is True

    def test_everything_else_nonempty(self):
        assert region_is_empty(ModelFunction.linear(), 1.0) is False
        assert region_is_empty(ModelFunction.truncated_power(2.0), 0.5) is False
        assert region_is_empty(ModelFunction.exp_tangential(1.0), 0.01) is False


class TestAngularHalfwidth:
    def test_scalar_array_parity(self):
        phi = ModelFunction.truncated_power(2.0)
        u = np.asarray([0.1, 0.2, 0.4])
        arr = angular_halfwidth(phi, 1.0, u)
        assert arr.shape == (3,)
        assert arr[1] == pytest.approx(angular_halfwidth(phi, 1.0, 0.2))

    def test_window_edge_is_sharp(self):
        # points just inside the reported window are members, just outside are not
        phi = ModelFunction.truncated_power(2.0)
        spec = vertex_spec(phi, 0.0, 1.0)
        for u in (0.05, 0.2, 0.5):
            half = angular_halfwidth(phi, 1.0, u)
            assert half > 0.0
            inside = (1.0 - u) * np.exp(1j * 0.999 * half)
            outside = (1.0 - u) * np.exp(1j * 1.001 * half)
            assert in_stolz(inside, spec)
            assert not in_stolz(outside, spec)

    def test_degenerate_window_for_slope_one_at_unit_aperture(self):
        half = angular_halfwidth(ModelFunction.linear(), 1.0, 0.25)
        assert half == pytest.approx(0.0, abs=1e-7)

    def test_domain(self):
        with pytest.raises(DomainError):
            angular_halfwidth(ModelFunction.linear(), 1.0, 0.0)


class TestSampling:
    def test_deterministic_and_member(self):
        spec = vertex_spec(ModelFunction.linear(), 0.0, 1.0)
        a = sample_zeros(spec, 20, seed=5)
        b = sample_zeros(spec, 20, seed=5)
        assert np.array_equal(a.zeros, b.zeros)
        assert np.all(in_stolz(a.zeros, spec))
        assert a.alpha == pytest.approx(1.0 - 2.0**-20, rel=1e-9)

    def test_singleton(self):
        spec = vertex_spec(ModelFunction.exp_tangential(1.0), 1.0, 1.0)
        zs = sample_zeros(spec, 1, seed=0)
        assert len(zs) == 1 and in_stolz(zs[0], spec)

    def test_prefix_stability_across_lengths(self):
        spec = vertex_spec(ModelFunction.truncated_power(2.0), 0.0, 1.0)
        short = sample_zeros(spec, 6, seed=99)
        long = sample_zeros(spec, 12, seed=99)
        assert np.array_equal(short.zeros, long.zeros[:6])

    def test_composite_seeds_give_distinct_streams(self):
        spec = vertex_spec(ModelFunction.truncated_power(2.0), 0.0, 1.0)
        a = sample_zeros(spec, 8, seed=(3, 0))
        b = sample_zeros(spec, 8, seed=(3, 1))
        assert not np.array_equal(a.zeros, b.zeros)

    def test_radii_follow_law(self):
        spec = vertex_spec(ModelFunction.exp_tangential(1.0), 0.0, 1.0)
        law = PowerLaw(2.0, 0.5)
        zs = sample_zeros(spec, 15, seed=8, law=law)
        gaps = 1.0 - np.abs(zs.zeros)
        expect = np.asarray([law.gap(i) for i in range(1, 16)])
        assert np.allclose(gaps, expect, rtol=1e-13)

    def test_arc_boundary_anchors_spread(self):
        E = BoundarySet.from_arcs([(0.0, np.pi / 2)])
        spec = StolzSpec(ModelFunction.exp_tangential(1.0), E, 1.0)
        zs = sample_zeros(spec, 40, seed=2)
        angles = np.mod(np.angle(zs.zeros), 2.0 * np.pi)
        assert np.all(in_stolz(zs.zeros, spec))
        assert angles.max() - angles.min() > 0.5  # spread over the arc, not pinned

    def test_empty_region_raises(self):
        spec = vertex_spec(ModelFunction.linear(), 0.0, 0.5)
        with pytest.raises(EmptyRegionError):
            sample_zeros(spec, 3, seed=1)

    def test_too_thin_region_raises(self):
        # exp gauge with tiny aperture rejects the first geometric radius
        spec = vertex_spec(ModelFunction.exp_tangential(1.0), 0.0, 0.1)
        with pytest.raises(SamplingError, match="zero #1"):
            sample_zeros(spec, 3, seed=1, law=GeometricLaw(0.5))

    def test_gap_below_float64_resolution_names_the_index(self):
        # GeometricLaw(0.5) gives gap 2^-54 at index 54, where 1 - gap rounds to 1
        spec = vertex_spec(ModelFunction.exp_tangential(1.0), 0.0, 1.0)
        assert len(sample_zeros(spec, 53, seed=1)) == 53
        with pytest.raises(SamplingError, match="zero #54"):
            sample_zeros(spec, 54, seed=1)

    def test_law_validation(self):
        with pytest.raises(DomainError):
            GeometricLaw(1.0)
        with pytest.raises(DomainError):
            PowerLaw(0.9)
        with pytest.raises(DomainError):
            PowerLaw(2.0, scale=1.5)
        # refused at construction, not at zero #2 of a sample
        with pytest.raises(DomainError, match="finite"):
            PowerLaw(math.inf)


def _reference_draw_anchor(boundary_set, rng):
    arc, lo, hi = boundary_set._arc, boundary_set._lo, boundary_set._hi
    if arc.any():
        lengths = hi[arc] - lo[arc]
        k = int(rng.choice(lengths.size, p=lengths / lengths.sum()))
        return float(rng.uniform(lo[arc][k], hi[arc][k]))
    return float(lo[int(rng.integers(lo.size))])


def _reference_sample_zeros(spec, n, seed, law=GeometricLaw(0.5)):
    """The per-index loop of sample_zeros, one zero and one membership test at a
    time, kept as an oracle for the batched sampler."""
    n = int(n)
    if n < 0:
        raise DomainError("sample size must be nonnegative")
    if region_is_empty(spec.phi, spec.k_const):
        raise EmptyRegionError(
            f"region is empty: slope-one gauge with K = {spec.k_const} < 1"
        )
    base = [int(s) for s in seed] if isinstance(seed, (tuple, list)) else [int(seed)]
    out = np.empty(n, dtype=np.complex128)
    for i in range(1, n + 1):
        u = float(law.gap(i))
        if not 0.0 < u < 1.0:
            raise SamplingError(f"radial law gives gap {u} at index {i}, outside (0, 1)")
        if not 1.0 - u < 1.0:
            raise SamplingError(
                f"cannot place zero #{i}: gap {u:g} is below float64 resolution "
                "at the circle (1 - gap rounds to 1)"
            )
        if spec.phi(u) > spec.k_const * u * (1.0 + MEMBERSHIP_TOL):
            raise SamplingError(
                f"region too thin to place zero #{i}: gap {u:g} inadmissible for "
                f"phi({u:g}) = {spec.phi(u):g} > K u = {spec.k_const * u:g}"
            )
        rng = np.random.default_rng(base + [i])
        placed = False
        half = angular_halfwidth(spec.phi, spec.k_const, u)
        for _ in range(1000):
            anchor = _reference_draw_anchor(spec.boundary, rng)
            psi = float(rng.uniform(-half, half)) if half > 0.0 else 0.0
            cand = (1.0 - u) * np.exp(1j * (anchor + psi))
            if np.abs(cand) >= 1.0:
                raise SamplingError(
                    f"cannot place zero #{i}: a candidate at gap {u:g} rounds onto the unit circle"
                )
            if in_stolz(cand, spec):
                out[i - 1] = cand
                placed = True
                break
        if not placed:
            raise SamplingError(
                f"region too thin to place zero #{i} after 1000 angle draws (gap {u:g})"
            )
    return ZeroSequence(out)


def _outcome(sampler, *args, **kwargs):
    """The zeros' bytes, or the class and message of the error raised."""
    try:
        return sampler(*args, **kwargs).zeros.tobytes()
    except BlabError as exc:
        return type(exc), str(exc)


class _ListLaw:
    """Gaps from a list: zero #i gets gaps[i - 1]."""

    def __init__(self, gaps):
        self.gaps = gaps

    def gap(self, i):
        return self.gaps[i - 1]


SAMPLING_GAUGES = {
    "linear": ModelFunction.linear(),
    "power": ModelFunction.truncated_power(2.0),
    "exp": ModelFunction.exp_tangential(1.0),
}
SAMPLING_SETS = {
    "vertex": BoundarySet.from_points([1.0]),
    "arc": BoundarySet.from_arcs([(0.3, 1.7)]),
    "cantor-10": BoundarySet.cantor((0.0, TWO_PI), 1.0 / 3.0, 10),
    "arcs+points": BoundarySet(arcs=[(0.1, 0.5), (2.0, 2.2)], points=[4.0, 5.0]),
    # no arc: the anchor is a bounded-integer draw, Lemire's rejection on
    # PCG64's buffered 32-bit output
    "points": BoundarySet.from_points([0.5, 2.5, 4.5]),
}
SAMPLING_LAWS = {"geometric": GeometricLaw(0.5), "power": PowerLaw(2.0, 0.5)}


class TestBatchedSampling:
    """sample_zeros against the per-index loop: same zeros bit for bit, same errors."""

    @pytest.mark.parametrize("law", sorted(SAMPLING_LAWS))
    @pytest.mark.parametrize("k_const", [1.0, 2.0])
    @pytest.mark.parametrize("boundary", sorted(SAMPLING_SETS))
    @pytest.mark.parametrize("gauge", sorted(SAMPLING_GAUGES))
    def test_matches_reference_bitwise(self, gauge, boundary, k_const, law):
        spec = StolzSpec(SAMPLING_GAUGES[gauge], SAMPLING_SETS[boundary], k_const)
        for seed in (7, (7, 3)):
            for n in (0, 1, 53):
                args = (spec, n, seed, SAMPLING_LAWS[law])
                assert _outcome(sample_zeros, *args) == _outcome(_reference_sample_zeros, *args)

    @pytest.mark.parametrize("gauge, boundary, k_const, seed", [
        ("exp", "cantor-10", 2.0, 11),
        ("power", "arcs+points", 1.0, (11, 2)),
    ])
    def test_4097_zeros_match_reference(self, gauge, boundary, k_const, seed):
        spec = StolzSpec(SAMPLING_GAUGES[gauge], SAMPLING_SETS[boundary], k_const)
        n = 4097
        new = sample_zeros(spec, n, seed, PowerLaw(2.0, 0.5)).zeros
        ref = _reference_sample_zeros(spec, n, seed, PowerLaw(2.0, 0.5)).zeros
        assert new.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("vertex, n, seed", [(1.0, 54, 1), (0.0, 54, 1), (0.5, 45, (2, 5))])
    def test_unit_linear_aperture_matches_reference(self, vertex, n, seed):
        # linear K = 1 at vertex 1 fails placement at #17; at vertex 0 it
        # stops at #54, whose 1 - gap rounds to 1
        spec = vertex_spec(ModelFunction.linear(), vertex, 1.0)
        assert _outcome(sample_zeros, spec, n, seed) == _outcome(_reference_sample_zeros,
                                                                 spec, n, seed)

    @pytest.mark.parametrize("count", [1, 2, 3, 1024])
    def test_anchor_draws_match_rng_choice(self, count):
        # the sampler searches the arc-length cdf itself, as rng.choice does
        # with p, on every lane at once: same index, same stream
        rng = np.random.default_rng(count)
        width = 2.0 * np.pi / count
        starts = width * np.arange(count)
        E = BoundarySet(arcs=[(a, a + width * f) for a, f in zip(starts, rng.uniform(0.05, 0.9, count))],
                        points=[0.5 * width])
        lanes = regions._Streams([], np.arange(300))
        angles = regions._anchor_sampler(E)(lanes)
        after = lanes.random()
        for seed in range(300):
            ref = np.random.default_rng(seed)
            assert angles[seed] == _reference_draw_anchor(E, ref)
            assert after[seed] == ref.random()

    @pytest.mark.parametrize("count", [2, 3, 7, 2**31 + 1])
    def test_bounded_draws_match_integers(self, count):
        # Lemire's rejection on the buffered 32-bit words: 2**31 + 1 rejects
        # almost half of the words, so redraws and the buffer both show
        lanes = regions._Streams([5], np.arange(1, 201))
        draws = [lanes.integers(count), lanes.random(), lanes.integers(count),
                 lanes.integers(count)]
        for i in range(200):
            ref = np.random.default_rng([5, i + 1])
            expect = [ref.integers(count), ref.random(), ref.integers(count),
                      ref.integers(count)]
            assert [d[i] for d in draws] == expect

    @pytest.mark.parametrize("base", [[0], [7], [2**40 + 3, 5], [2**63], [1, 2, 3, 4, 5]])
    def test_seed_words_and_raw_outputs_match_numpy(self, base):
        # the sampler mirrors SeedSequence and PCG64; a numpy that changed
        # either algorithm fails here, not by moving every sampled set
        idx = np.arange(1, 5001)
        words = np.stack(regions._seed_words(base, idx.astype(np.uint64)))
        lanes = regions._Streams(base, idx)
        raw = np.stack([lanes.next64() for _ in range(3)])
        for i in idx.tolist():
            seq = np.random.SeedSequence(base + [i])
            assert words[:, i - 1].tolist() == seq.generate_state(4, np.uint64).tolist()
            assert raw[:, i - 1].tolist() == np.random.PCG64(seq).random_raw(3).tolist()

    def test_sample_size_must_be_nonnegative(self):
        spec = vertex_spec(ModelFunction.linear(), 0.0, 1.0)
        with pytest.raises(DomainError, match="sample size must be nonnegative"):
            sample_zeros(spec, -1, seed=1)

    def test_sample_size_must_fit_one_seed_word(self):
        # refused before any gap is computed: this law has none to give
        spec = vertex_spec(ModelFunction.linear(), 0.0, 1.0)
        with pytest.raises(DomainError, match=r"sample size must be below 2\*\*32"):
            sample_zeros(spec, 2**32, seed=1, law=_ListLaw([]))

    @settings(max_examples=40, deadline=None)
    @given(arcs=st.lists(st.tuples(st.floats(-7.0, 13.0), st.floats(1e-3, 3.0)),
                         min_size=1, max_size=3),
           points=st.lists(st.floats(-7.0, 13.0), max_size=2),
           gauge=st.sampled_from(sorted(SAMPLING_GAUGES)),
           k_const=st.sampled_from([1.0, 2.0]),
           law=st.sampled_from(sorted(SAMPLING_LAWS)),
           seed=st.one_of(st.integers(0, 2**63),
                          st.tuples(st.integers(0, 2**16), st.integers(0, 2**16))),
           n=st.integers(0, 30))
    def test_random_arcs_and_seeds_match_reference(self, arcs, points, gauge, k_const,
                                                   law, seed, n):
        E = BoundarySet(arcs=[(a, a + d) for a, d in arcs], points=points)
        args = (StolzSpec(SAMPLING_GAUGES[gauge], E, k_const), n, seed, SAMPLING_LAWS[law])
        assert _outcome(sample_zeros, *args) == _outcome(_reference_sample_zeros, *args)

    @pytest.mark.parametrize("spec, n, seed, law, error, message", [
        # 1 - gap rounds to 1 at #54
        (vertex_spec(ModelFunction.exp_tangential(1.0), 0.0, 1.0), 54, 1,
         GeometricLaw(0.5), SamplingError, "cannot place zero #54"),
        # the first gap is inadmissible: phi(1/2) > K/2
        (vertex_spec(ModelFunction.exp_tangential(1.0), 0.0, 0.1), 3, 1,
         GeometricLaw(0.5), SamplingError, "too thin to place zero #1:"),
        # every draw of #17 misses by rounding, below #54's barred gap
        (vertex_spec(ModelFunction.linear(), 1.0, 1.0), 54, 1,
         GeometricLaw(0.5), SamplingError, "zero #17 after 1000 angle draws"),
        # the same placement failure, before a gap outside (0, 1) at #18
        (vertex_spec(ModelFunction.linear(), 1.0, 1.0), 20, 1,
         _ListLaw([2.0**-i for i in range(1, 18)] + [1.5, 0.1, 0.1]), SamplingError,
         "zero #17 after 1000 angle draws"),
        # a barred gap at #5 comes before the placement failure at #17
        (vertex_spec(ModelFunction.linear(), 1.0, 1.0), 20, 1,
         _ListLaw([2.0**-i for i in range(1, 5)] + [0.0] + [2.0**-i for i in range(6, 21)]),
         SamplingError, "gap 0.0 at index 5"),
    ])
    def test_errors_match_reference(self, spec, n, seed, law, error, message):
        with pytest.raises(error, match=message) as new:
            sample_zeros(spec, n, seed, law)
        with pytest.raises(error) as ref:
            _reference_sample_zeros(spec, n, seed, law)
        assert str(new.value) == str(ref.value)

    def test_candidate_on_the_circle_names_its_zero(self):
        # at gap 2^-53 a candidate can round onto the circle, where membership
        # is undefined: the zero fails by index and gap, not with in_stolz's error
        spec = StolzSpec(ModelFunction.exp_tangential(1.0),
                         BoundarySet.from_arcs([(0.3, 1.7)]), 1.0)
        args = (spec, 53, 3, GeometricLaw(0.5))
        message = "cannot place zero #53: a candidate at gap 1.11022e-16 rounds onto the unit circle"
        assert _outcome(sample_zeros, *args) == (SamplingError, message)
        assert _outcome(_reference_sample_zeros, *args) == (SamplingError, message)

    @pytest.mark.parametrize("seed", [-1, None, 1.5, True, "4", (3, -1), (3, 2.0), [None]])
    def test_seed_components_must_be_nonnegative_integers(self, seed):
        spec = vertex_spec(ModelFunction.linear(), 0.0, 1.0)
        with pytest.raises(DomainError, match="seed component must be a nonnegative integer"):
            sample_zeros(spec, 3, seed=seed)

    def test_numpy_integer_seeds_are_integers(self):
        spec = vertex_spec(ModelFunction.exp_tangential(1.0), 0.0, 1.0)
        a = sample_zeros(spec, 10, seed=(np.int64(4), np.uint8(2))).zeros
        assert a.tobytes() == sample_zeros(spec, 10, seed=(4, 2)).zeros.tobytes()


class TestRegionBoundary:
    def test_resolution_two_gives_two_points(self):
        pts = region_boundary(ModelFunction.exp_tangential(1.0), 1.0, 0.0, 2)
        assert pts.shape == (2,)

    def test_central_ray_crosses_at_origin_for_unit_linear(self):
        pts = region_boundary(ModelFunction.linear(), 1.0, 0.0, 3)
        assert np.min(np.abs(pts)) < 1e-9

    @pytest.mark.parametrize(
        "phi,K",
        [
            (ModelFunction.linear(), 1.0),
            (ModelFunction.truncated_power(2.0), 1.0),
            (ModelFunction.exp_tangential(1.0), 2.0),
        ],
        ids=("linear", "power2", "exp1"),
    )
    def test_points_satisfy_defining_equation(self, phi, K):
        pts = region_boundary(phi, K, 0.5, 64)
        t = np.exp(0.5j)
        resid = np.abs(phi(np.abs(t - pts)) - K * (1.0 - np.abs(pts)))
        assert np.max(resid) < 1e-9

    def test_empty_region_raises(self):
        with pytest.raises(EmptyRegionError):
            region_boundary(ModelFunction.linear(), 0.5, 0.0, 8)

    def test_resolution_validation(self):
        with pytest.raises(DomainError):
            region_boundary(ModelFunction.linear(), 1.0, 0.0, 1)

    @pytest.mark.parametrize("K", [np.nan, np.inf])
    def test_non_finite_aperture_is_refused(self, K):
        # either would trace points on the unit circle, with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                region_boundary(ModelFunction.exp_tangential(1.0), K, 0.0, 8)

    @pytest.mark.parametrize("angle", [np.nan, np.inf])
    def test_non_finite_vertex_angle_is_refused(self, angle):
        # a NaN angle traced a polyline of NaN points
        with pytest.raises(DomainError, match="vertex angle must be finite"):
            region_boundary(ModelFunction.linear(), 1.0, angle, 4)
