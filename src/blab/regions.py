"""Disk geometry: model functions, boundary sets on the circle, Stolz-type regions.

A model function phi is nonnegative, continuous, increasing, and linearly
bounded: phi(x) <= C x for the variant's constant C. A region with vertex t
on the circle collects the points lam with phi(|t - lam|) <= K (1 - |lam|);
for a closed boundary set E the chordal distance d(lam, E) replaces |t - lam|,
which is the same as the union of the vertex regions over t in E.

All distances here are chordal (straight-line), never arclength.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyRegionError, SamplingError
from .products import ZeroSequence

TWO_PI = 2.0 * math.pi

# Relative slack for region membership, so that points constructed exactly on
# the region boundary (measure-zero regions exist for slope-one variants at
# K = 1) are not lost to rounding.
MEMBERSHIP_TOL = 1e-12


def _norm_angle(theta):
    return float(theta) % TWO_PI


# ---------------------------------------------------------------------------
# model functions


@dataclass(frozen=True)
class ModelFunction:
    """One of the three admissible gauge variants.

    linear          phi(x) = x,                        C = 1
    power(gamma)    phi(x) = x^gamma on [0, 2],        C = 2^(gamma-1)
                    completed linearly as 2^(gamma-1) x beyond 2
    exp(rho)        phi(x) = exp(-x^-rho),             C = exp(-1/rho) rho^(-1/rho)
    """

    kind: str
    param: float = 0.0

    def __post_init__(self):
        if self.kind == "linear":
            pass
        elif self.kind == "power":
            if not self.param >= 1.0:
                raise DomainError(f"power variant needs gamma >= 1, got {self.param}")
        elif self.kind == "exp":
            if not self.param > 0.0:
                raise DomainError(f"exp variant needs rho > 0, got {self.param}")
        else:
            raise DomainError(f"unknown model function kind {self.kind!r}")

    @classmethod
    def linear(cls):
        return cls("linear")

    @classmethod
    def truncated_power(cls, gamma):
        return cls("power", float(gamma))

    @classmethod
    def exp_tangential(cls, rho):
        return cls("exp", float(rho))

    def __call__(self, x):
        arr = np.asarray(x, dtype=np.float64)
        scalar = arr.ndim == 0
        if np.any(arr < 0.0):
            raise DomainError("model functions are defined for x >= 0 only")
        if self.kind == "linear":
            vals = arr.copy()
        elif self.kind == "power":
            g = self.param
            vals = np.where(arr <= 2.0, arr**g, 2.0 ** (g - 1.0) * arr)
        else:
            # subnormal x: x**-rho overflows to +inf and exp(-inf) = 0, the
            # honest limit value
            with np.errstate(divide="ignore", over="ignore"):
                vals = np.exp(-np.power(arr, -self.param, where=arr > 0,
                                        out=np.full_like(arr, np.inf)))
        return float(np.asarray(vals)[()]) if scalar else vals

    @property
    def constant(self):
        """Smallest C with phi(x) <= C x for all x >= 0."""
        if self.kind == "linear":
            return 1.0
        if self.kind == "power":
            return 2.0 ** (self.param - 1.0)
        rho = self.param
        return math.exp(-1.0 / rho) * rho ** (-1.0 / rho)

    def inverse(self, y):
        """Inverse on the range of phi; +inf where exp variants saturate (y >= 1)."""
        arr = np.asarray(y, dtype=np.float64)
        scalar = arr.ndim == 0
        if np.any(arr < 0.0):
            raise DomainError("inverse needs y >= 0")
        if self.kind == "linear":
            vals = arr.copy()
        elif self.kind == "power":
            g = self.param
            vals = np.where(arr <= 2.0**g, arr ** (1.0 / g), arr / 2.0 ** (g - 1.0))
        else:
            rho = self.param
            with np.errstate(divide="ignore"):
                logs = -np.log(arr, where=arr > 0, out=np.full_like(arr, np.inf))
            vals = np.where(arr >= 1.0, np.inf,
                            np.power(logs, -1.0 / rho, where=logs > 0,
                                     out=np.zeros_like(arr)))
            vals = np.where(arr == 0.0, 0.0, vals)
        return float(np.asarray(vals)[()]) if scalar else vals


# ---------------------------------------------------------------------------
# boundary sets


def _expand_cantor(base, ratio, depth):
    """Depth-d generator: keep the two end subarcs, ratio of the parent, d times."""
    a, b = float(base[0]), float(base[1])
    length = TWO_PI if b - a >= TWO_PI else (b - a) % TWO_PI
    if length == 0.0:
        raise DomainError("cantor base arc is degenerate")
    if not 0.0 < ratio <= 0.5:
        raise DomainError(f"cantor ratio must lie in (0, 1/2], got {ratio}")
    depth = int(depth)
    if not 0 <= depth <= 20:
        raise DomainError(f"cantor depth must lie in [0, 20], got {depth}")
    pieces = [(a, length)]
    for _ in range(depth):
        nxt = []
        for start, ln in pieces:
            keep = ln * ratio
            nxt.append((start, keep))
            nxt.append((start + ln - keep, keep))
        pieces = nxt
    return [(s, s + ln) for s, ln in pieces]


def _is_numbers(value, count=None):
    """True for a payload array of real numbers (exactly `count` of them, when given)."""
    return (isinstance(value, (list, tuple)) and count in (None, len(value))
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value))


def _to_segments(arcs):
    """Normalize raw arcs into sorted disjoint segments within [0, 2pi]."""
    segs = []
    for raw in arcs:
        a, b = float(raw[0]), float(raw[1])
        if b - a >= TWO_PI:
            segs.append([0.0, TWO_PI])
            continue
        length = (b - a) % TWO_PI
        if length == 0.0:
            continue
        start = _norm_angle(a)
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


class BoundarySet:
    """Closed nonempty subset of the unit circle.

    Built from closed arcs, isolated points, and at most one Cantor-style
    generator (base arc, ratio, depth), which expands into 2^depth closed
    arcs. Angles are radians; arcs run counterclockwise from their first
    endpoint.
    """

    def __init__(self, arcs=(), points=(), cantor=None):
        self._raw_arcs = [(float(a), float(b)) for a, b in arcs]
        self._raw_points = [float(p) for p in points]
        self._cantor = None
        expanded = list(self._raw_arcs)
        if cantor is not None:
            base, ratio, depth = cantor
            self._cantor = ((float(base[0]), float(base[1])), float(ratio), int(depth))
            expanded.extend(_expand_cantor(base, float(ratio), int(depth)))
        self._segments = _to_segments(expanded)
        seg = np.asarray(self._segments, dtype=np.float64).reshape(-1, 2)
        pts = np.asarray(sorted({_norm_angle(p) for p in self._raw_points}), dtype=np.float64)
        k = np.searchsorted(seg[:, 0], pts, side="right") - 1
        self._point_angles = pts[(k < 0) | (pts > seg[k, 1])] if seg.size else pts
        if not self._segments and self._point_angles.size == 0:
            raise DomainError("boundary set must be nonempty")
        # sorted disjoint intervals: the arcs, and each isolated point as [p, p]
        ends = np.concatenate([seg, np.repeat(self._point_angles, 2).reshape(-1, 2)])
        ends = ends[np.argsort(ends[:, 0], kind="stable")]
        self._lo, self._hi = ends[:, 0], ends[:, 1]
        self._arc = self._hi > self._lo
        self._unit_lo, self._unit_hi = np.exp(1j * self._lo), np.exp(1j * self._hi)
        # an arc that ends at 2 pi also holds angle 0
        self._wraps = bool(self._arc[-1] and self._hi[-1] >= TWO_PI)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_points(cls, angles):
        return cls(points=list(angles))

    @classmethod
    def from_arcs(cls, arcs):
        return cls(arcs=list(arcs))

    @classmethod
    def cantor(cls, base, ratio, depth):
        return cls(cantor=(tuple(base), ratio, depth))

    @classmethod
    def full_circle(cls):
        return cls(arcs=[(0.0, TWO_PI)])

    # -- payload ------------------------------------------------------------

    def to_payload(self):
        payload = {}
        if self._raw_arcs:
            payload["arcs"] = [[a, b] for a, b in self._raw_arcs]
        if self._raw_points:
            payload["points"] = list(self._raw_points)
        if self._cantor is not None:
            base, ratio, depth = self._cantor
            payload["cantor"] = {"base": [base[0], base[1]], "ratio": ratio, "depth": depth}
        return payload

    @classmethod
    def from_payload(cls, payload):
        if not isinstance(payload, dict):
            raise DomainError("boundary-set payload must be an object")
        unknown = set(payload) - {"arcs", "points", "cantor"}
        if unknown:
            raise DomainError(f"unknown boundary-set fields: {sorted(unknown)}")
        arcs, points = payload.get("arcs", []), payload.get("points", [])
        if not isinstance(arcs, (list, tuple)) or not all(_is_numbers(arc, 2) for arc in arcs):
            raise DomainError("boundary-set arcs must be an array of [lo, hi] number pairs")
        if not _is_numbers(points):
            raise DomainError("boundary-set points must be an array of numbers")
        cantor = None
        if "cantor" in payload:
            spec = payload["cantor"]
            if not isinstance(spec, dict):
                raise DomainError("cantor generator must be an object with base/ratio/depth")
            miss = {"base", "ratio", "depth"} - set(spec)
            extra = set(spec) - {"base", "ratio", "depth"}
            if miss or extra:
                raise DomainError(f"cantor generator needs base/ratio/depth, got {sorted(spec)}")
            if not (_is_numbers(spec["base"], 2) and _is_numbers([spec["ratio"], spec["depth"]])):
                raise DomainError("cantor generator needs a [lo, hi] number pair as base "
                                  "and numbers as ratio and depth")
            cantor = (tuple(spec["base"]), spec["ratio"], spec["depth"])
        return cls(arcs=arcs, points=points, cantor=cantor)

    # -- geometry -----------------------------------------------------------

    @property
    def segments(self):
        return [tuple(s) for s in self._segments]

    @property
    def point_angles(self):
        return self._point_angles

    @property
    def cantor_depth(self):
        return None if self._cantor is None else self._cantor[2]

    def measure(self):
        """Normalized arclength of the set itself."""
        return float(sum(b - a for a, b in self._segments)) / TWO_PI

    def _nearest_ends(self, flat):
        """Sorted-interval lookup for the points flat.

        Returns their angles in [0, 2pi], whether an arc contains each
        angle, and the two interval endpoints nearest in angle, as unit
        points: the end of the last interval starting at or before the
        angle and the start of the next one, wrapping at 0/2pi. Outside the
        arcs the nearest circle point of the set is one of the two, since
        chordal distance grows with angular distance.
        """
        ang = np.mod(np.angle(flat), TWO_PI)
        k = np.searchsorted(self._lo, ang, side="right") - 1
        inside = (k >= 0) & (ang <= self._hi[k]) & self._arc[k]
        if self._wraps:
            inside |= ang == 0.0
        return ang, inside, (self._unit_hi[k], self._unit_lo[(k + 1) % self._lo.size])

    def distance(self, z):
        """Chordal distance from z (scalar or array) to the set."""
        arr = np.asarray(z, dtype=np.complex128)
        flat = arr.reshape(-1)
        _, inside, (before, after) = self._nearest_ends(flat)
        out = np.minimum(np.abs(flat - before), np.abs(flat - after))
        out = np.where(inside, np.abs(np.abs(flat) - 1.0), out).reshape(arr.shape)
        return float(out[()]) if arr.ndim == 0 else out

    def nearest_point(self, z):
        """A circle point of the set realizing the chordal distance to z."""
        zc = complex(z)
        ang, inside, ends = self._nearest_ends(np.asarray([zc]))
        if inside[0]:
            return complex(np.exp(1j * ang[0]))
        return min((complex(e[0]) for e in ends), key=lambda p: abs(zc - p))

    def neighborhood_measure(self, x):
        """Normalized arclength of the open chordal x-neighborhood on the circle."""
        x = float(x)
        if x <= 0.0:
            raise DomainError("neighborhood radius must be positive")
        if x >= 2.0:
            return 1.0
        delta = 2.0 * math.asin(x / 2.0)
        intervals = [(a - delta, b + delta) for a, b in self._segments]
        intervals += [(p - delta, p + delta) for p in self._point_angles]
        segs = _to_segments(intervals)
        total = sum(b - a for a, b in segs)
        return min(1.0, total / TWO_PI)


def default_beta_grid():
    return np.ldexp(1.0, -np.arange(4, 15))


def type_beta(boundary_set, x_grid=None):
    """Least-squares slope of log |E_x| against log x over the grid.

    Estimates the growth exponent of the neighborhood measure: 1 for finite
    point sets, 0 for sets of positive measure, strictly between for
    Cantor-style sets. A generator of depth d resolves structure only down to
    scales around ratio^d, so the grid must not probe deeper: the dyadic
    depth of the smallest x must stay at or below d.
    """
    grid = default_beta_grid() if x_grid is None else np.asarray(x_grid, dtype=np.float64)
    if grid.size < 4:
        raise DomainError("beta estimation needs at least 4 grid values")
    if np.any(grid <= 0.0) or np.any(grid >= 1.0):
        raise DomainError("beta grid values must lie in (0, 1)")
    if np.any(np.diff(grid) >= 0.0):
        raise DomainError("beta grid must be strictly decreasing")
    depth = boundary_set.cantor_depth
    if depth is not None:
        needed = int(math.ceil(-math.log2(float(grid.min()))))
        if depth < needed:
            raise DomainError(
                f"generator depth {depth} cannot resolve x = {grid.min():g}; "
                f"need depth >= {needed} or a coarser grid"
            )
    meas = np.asarray([boundary_set.neighborhood_measure(float(x)) for x in grid])
    slope = np.polyfit(np.log(grid), np.log(meas), 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# Stolz-type regions


@dataclass(frozen=True)
class StolzSpec:
    """Region specification: gauge phi, boundary set E, aperture constant K."""

    phi: ModelFunction
    boundary: BoundarySet
    k_const: float

    def __post_init__(self):
        if not self.k_const > 0.0:
            raise DomainError(f"aperture constant must be positive, got {self.k_const}")

    @classmethod
    def at_vertex(cls, phi, angle, k_const):
        return cls(phi, BoundarySet.from_points([angle]), float(k_const))


def in_stolz(lam, spec, tol=MEMBERSHIP_TOL):
    """Membership test phi(d(lam, E)) <= K (1 - |lam|), with relative slack tol."""
    arr = np.asarray(lam, dtype=np.complex128)
    scalar = arr.ndim == 0
    r = np.abs(arr)
    if np.any(r >= 1.0):
        raise DomainError("membership is defined strictly inside the unit disk")
    lhs = spec.phi(spec.boundary.distance(arr))
    rhs = spec.k_const * (1.0 - r)
    ok = lhs <= rhs + tol * np.maximum(lhs, rhs)
    return bool(np.asarray(ok)[()]) if scalar else ok


def region_is_empty(phi, k_const):
    """True iff no interior point satisfies the vertex-region inequality.

    Only the slope-one variants (linear, power with gamma = 1) can die: they
    force phi(u)/u = 1 while the reverse triangle inequality already gives
    |t - lam| >= 1 - |lam|, so K < 1 leaves nothing.
    """
    slope_one = phi.kind == "linear" or (phi.kind == "power" and phi.param == 1.0)
    return bool(slope_one and k_const < 1.0)


def angular_halfwidth(phi, k_const, u):
    """Largest |psi| with (1-u) e^{i psi} inside the vertex region at angle 0.

    Zero when only the radial point itself qualifies; requires that the
    radius is admissible at all (phi(u) <= K u). Scalar or array u.
    """
    arr = np.asarray(u, dtype=np.float64)
    scalar = arr.ndim == 0
    if np.any((arr <= 0.0) | (arr >= 1.0)):
        raise DomainError("radial gap must lie in (0, 1)")
    x_max = np.minimum(phi.inverse(k_const * arr), 2.0)
    c = (1.0 + (1.0 - arr) ** 2 - x_max * x_max) / (2.0 * (1.0 - arr))
    vals = np.arccos(np.clip(c, -1.0, 1.0))
    return float(np.asarray(vals)[()]) if scalar else vals


# ---------------------------------------------------------------------------
# zero sampling


@dataclass(frozen=True)
class GeometricLaw:
    """Radial gaps 1 - |z_n| = ratio^n."""

    ratio: float

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise DomainError(f"geometric ratio must lie in (0, 1), got {self.ratio}")

    def gap(self, n):
        return self.ratio**n


@dataclass(frozen=True)
class PowerLaw:
    """Radial gaps 1 - |z_n| = scale * n^(-exponent); exponent > 1 keeps the sum finite."""

    exponent: float
    scale: float = 0.5

    def __post_init__(self):
        if not self.exponent > 1.0:
            raise DomainError(f"power-law exponent must exceed 1, got {self.exponent}")
        if not 0.0 < self.scale < 1.0:
            raise DomainError(f"power-law scale must lie in (0, 1), got {self.scale}")

    def gap(self, n):
        return self.scale * float(n) ** (-self.exponent)


def _draw_anchor(boundary_set, rng):
    """Uniform anchor angle on E: by arclength over arcs, else over the points."""
    segs = boundary_set.segments
    if segs:
        lengths = np.asarray([b - a for a, b in segs])
        k = int(rng.choice(len(segs), p=lengths / lengths.sum()))
        a, b = segs[k]
        return float(rng.uniform(a, b))
    pts = boundary_set.point_angles
    return float(pts[int(rng.integers(pts.size))])


def sample_zeros(spec, n, seed, law=GeometricLaw(0.5)):
    """Deterministic zero sequence inside the region given by `spec`.

    Radii follow the law exactly (gap of zero #i is law.gap(i), i from 1), so
    the Blaschke sum is a property of the law alone. Angles are drawn near a
    uniformly chosen anchor of E, restricted to the admissible window at that
    radius, and re-checked by membership with up to 1000 retries. Each index
    has its own RNG stream, so prefixes agree across different n.
    """
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
            anchor = _draw_anchor(spec.boundary, rng)
            psi = float(rng.uniform(-half, half)) if half > 0.0 else 0.0
            cand = (1.0 - u) * np.exp(1j * (anchor + psi))
            if in_stolz(cand, spec):
                out[i - 1] = cand
                placed = True
                break
        if not placed:
            raise SamplingError(
                f"region too thin to place zero #{i} after 1000 angle draws (gap {u:g})"
            )
    return ZeroSequence(out)


# ---------------------------------------------------------------------------
# region boundary tracing


def region_boundary(phi, k_const, vertex_angle, resolution):
    """Polyline of the vertex-region boundary, traced along rays from the vertex.

    Each ray leaves t = e^{i vertex} into the disk; along it the margin
    h(s) = K (1 - |lam(s)|) - phi(s) starts at zero, and the returned point is
    the outermost sign change located by bisection. Every returned point
    satisfies the defining equation to about 1e-9.
    """
    resolution = int(resolution)
    if resolution < 2:
        raise DomainError("resolution must be at least 2")
    if region_is_empty(phi, k_const):
        raise EmptyRegionError(f"region is empty: slope-one gauge with K = {k_const} < 1")
    t = np.exp(1j * float(vertex_angle))
    betas = (np.arange(resolution) + 0.5) / resolution * math.pi - math.pi / 2.0
    # rays as rows, so that margin() takes a scan (rays x samples) or one point per ray
    dirs = (-t * np.exp(1j * betas))[:, None]
    s_max = 2.0 * np.cos(betas)[:, None]

    def margin(s):
        lam = t + s * dirs
        return k_const * (1.0 - np.abs(lam)) - phi(s)

    scan = np.linspace(0.0, 1.0, 1025) * s_max
    feas = margin(scan) >= -1e-15
    # outermost feasible scan point per ray (the first if none is) and the next
    # one, or s_max, which is the last scan point
    last = scan.shape[1] - 1 - np.argmax(feas[:, ::-1], axis=1)
    idx = np.where(feas.any(axis=1), last, 0)[:, None]
    lo = np.take_along_axis(scan, idx, axis=1)
    hi = np.take_along_axis(scan, np.minimum(idx + 1, scan.shape[1] - 1), axis=1)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        good = margin(mid) >= -1e-15
        lo = np.where(good, mid, lo)
        hi = np.where(good, hi, mid)
        if np.max(hi - lo) < 1e-12:
            break
    return (t + lo * dirs)[:, 0]
