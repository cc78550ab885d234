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
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyRegionError, SamplingError
from .products import ZeroSequence, _require, _result, _whole

TWO_PI = 2.0 * math.pi

# Relative slack for region membership, so that points constructed exactly on
# the region boundary (measure-zero regions exist for slope-one variants at
# K = 1) are not lost to rounding.
MEMBERSHIP_TOL = 1e-12


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
            if not 1.0 <= self.param < math.inf:
                raise DomainError(f"power variant needs finite gamma >= 1, got {self.param}")
        elif self.kind == "exp":
            if not 0.0 < self.param < math.inf:
                raise DomainError(f"exp variant needs finite rho > 0, got {self.param}")
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
        _require(arr >= 0.0, "model functions are defined for x >= 0 only")
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
        return _result(vals, arr)

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
        _require(arr >= 0.0, "inverse needs y >= 0")
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
        return _result(vals, arr)


# ---------------------------------------------------------------------------
# boundary sets


def _expand_cantor(base, ratio, depth):
    """Depth-d generator: keep the two end subarcs, ratio of the parent, d times."""
    a, b = base
    length = TWO_PI if b - a >= TWO_PI else (b - a) % TWO_PI
    if length == 0.0:
        raise DomainError("cantor base arc is degenerate")
    if not 0.0 < ratio <= 0.5:
        raise DomainError(f"cantor ratio must lie in (0, 1/2], got {ratio}")
    if not 0 <= depth <= 20:
        raise DomainError(f"cantor depth must lie in [0, 20], got {depth}")
    # every arc of a level has the same length, so a level is its start angles
    starts = np.array([a])
    for _ in range(depth):
        keep = length * ratio
        starts = np.stack([starts, starts + length - keep], axis=1).ravel()
        length = keep
    return starts, starts + length


def _is_numbers(value, count=None):
    """True for a payload array of real numbers (exactly `count` of them, when given)."""
    return (isinstance(value, (list, tuple)) and count in (None, len(value))
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value))


def _pieces(a, b):
    """Arcs from a to b (counterclockwise) as pieces within [0, 2pi], split at 0: a full
    turn or more is [0, 2pi], and an arc of zero length modulo 2pi is dropped."""
    full = b - a >= TWO_PI
    length = np.mod(b - a, TWO_PI, where=~full, out=np.full_like(a, TWO_PI))
    keep = length != 0.0
    start = np.where(full, 0.0, np.mod(a, TWO_PI))[keep]
    end = start + length[keep]
    over = end > TWO_PI
    return (np.concatenate([start, np.zeros(np.count_nonzero(over))]),
            np.concatenate([np.minimum(end, TWO_PI), end[over] - TWO_PI]))


def _union(lo, hi):
    """Sorted disjoint intervals covering one or more closed intervals [lo, hi];
    touching intervals merge."""
    order = np.lexsort((hi, lo))
    lo, reach = lo[order], np.maximum.accumulate(hi[order])
    first = np.append(True, lo[1:] > reach[:-1])
    # a piece ends at the reach of its last interval, the one before the next first
    return lo[first], reach[np.roll(first, -1)]


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
        a, b = np.asarray(self._raw_arcs, dtype=np.float64).reshape(-1, 2).T
        pts = np.asarray(self._raw_points, dtype=np.float64)
        given = [a, b, pts]
        if cantor is not None:
            base, ratio, depth = cantor
            depth = _whole(depth, "cantor depth")
            self._cantor = ((float(base[0]), float(base[1])), float(ratio), depth)
            given.append(self._cantor[0])
        if not np.isfinite(np.concatenate(given)).all():
            raise DomainError("boundary-set angles must be finite")
        if self._cantor is not None:
            starts, ends = _expand_cantor(*self._cantor)
            a, b = np.concatenate([a, starts]), np.concatenate([b, ends])
        # sorted disjoint intervals: the arcs, and each isolated point as [p, p]
        lo, hi = _pieces(a, b)
        pts = np.mod(pts, TWO_PI)
        if not lo.size + pts.size:
            raise DomainError("boundary set must be nonempty")
        self._lo, self._hi = _union(np.concatenate([lo, pts]), np.concatenate([hi, pts]))
        self._arc = self._hi > self._lo
        self._unit_hi, self._unit_next = np.exp(1j * self._hi), np.roll(np.exp(1j * self._lo), -1)
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
        return list(zip(self._lo[self._arc].tolist(), self._hi[self._arc].tolist()))

    @property
    def point_angles(self):
        return self._lo[~self._arc]

    @property
    def cantor_depth(self):
        return None if self._cantor is None else self._cantor[2]

    def distance(self, z):
        """Chordal distance from z (scalar or array) to the set.

        A sorted-interval lookup finds, for each angle in [0, 2pi], whether
        an arc contains it, and the two interval endpoints nearest to it: the
        end of the last interval starting at or before the angle and the
        start of the next one, wrapping at 0/2pi. Inside an arc the distance
        is radial; outside, the nearest circle point of the set is one of the
        two ends, since chordal distance grows with angular distance.
        """
        arr = np.asarray(z, dtype=np.complex128)
        flat = arr.reshape(-1)
        ang = np.angle(flat)
        np.add(ang, TWO_PI, out=ang, where=ang < 0.0)
        k = np.searchsorted(self._lo, ang, side="right") - 1
        inside = (k >= 0) & (ang <= self._hi[k]) & self._arc[k]
        if self._wraps:
            inside |= ang == 0.0
        before, after = self._unit_hi[k], self._unit_next[k]
        out = np.minimum(np.abs(flat - before), np.abs(flat - after))
        out = np.where(inside, np.abs(np.abs(flat) - 1.0), out)
        return _result(out.reshape(arr.shape), arr)

    def neighborhood_measure(self, x):
        """Normalized arclength of the open chordal x-neighborhood on the circle."""
        x = float(x)
        if not 0.0 < x < math.inf:
            raise DomainError("neighborhood radius must be positive and finite")
        if x >= 2.0:
            return 1.0
        delta = 2.0 * math.asin(x / 2.0)
        lo, hi = _union(*_pieces(self._lo - delta, self._hi + delta))
        # summed left to right: np.sum rounds pairwise and Python 3.12's sum() is
        # compensated, and either would move the last bit of a reported measure
        return min(1.0, float(np.cumsum(hi - lo)[-1]) / TWO_PI)


# type_beta's default grid: the dyadic scales x = 2^-4, ..., 2^-14
_BETA_GRID = np.ldexp(1.0, -np.arange(4, 15))


def type_beta(boundary_set, x_grid=None):
    """Least-squares slope of log |E_x| against log x over the grid.

    Estimates the growth exponent of the neighborhood measure: 1 for finite
    point sets, 0 for sets of positive measure, strictly between for
    Cantor-style sets. A generator of depth d resolves structure only down to
    scales around ratio^d, so the grid must not probe deeper: the dyadic
    depth of the smallest x must stay at or below d.
    """
    return _type_beta(boundary_set, x_grid)[0]


def _type_beta(boundary_set, x_grid=None):
    """type_beta's slope and the neighborhood measures it is fitted to."""
    grid = _BETA_GRID if x_grid is None else np.asarray(x_grid, dtype=np.float64)
    if grid.size < 4:
        raise DomainError("beta estimation needs at least 4 grid values")
    _require((0.0 < grid) & (grid < 1.0), "beta grid values must lie in (0, 1)")
    _require(np.diff(grid) < 0.0, "beta grid must be strictly decreasing")
    depth = boundary_set.cantor_depth
    if depth is not None:
        needed = int(math.ceil(-math.log2(float(grid.min()))))
        if depth < needed:
            raise DomainError(
                f"generator depth {depth} cannot resolve x = {grid.min():g}; "
                f"need depth >= {needed} or a coarser grid"
            )
    meas = np.asarray([boundary_set.neighborhood_measure(float(x)) for x in grid])
    return float(np.polyfit(np.log(grid), np.log(meas), 1)[0]), meas


# ---------------------------------------------------------------------------
# Stolz-type regions


@dataclass(frozen=True)
class StolzSpec:
    """Region specification: gauge phi, boundary set E, aperture constant K."""

    phi: ModelFunction
    boundary: BoundarySet
    k_const: float

    def __post_init__(self):
        # K = inf would admit every point of the disk
        if not 0.0 < self.k_const < math.inf:
            raise DomainError(f"aperture constant must be positive and finite, got {self.k_const}")


def in_stolz(lam, spec):
    """Membership test phi(d(lam, E)) <= K (1 - |lam|), with relative slack MEMBERSHIP_TOL."""
    arr = np.asarray(lam, dtype=np.complex128)
    r = np.abs(arr)
    _require(r < 1.0, "membership is defined strictly inside the unit disk")
    lhs = spec.phi(spec.boundary.distance(arr))
    rhs = spec.k_const * (1.0 - r)
    return _result(lhs <= rhs + MEMBERSHIP_TOL * np.maximum(lhs, rhs), arr)


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
    _require((0.0 < arr) & (arr < 1.0), "radial gap must lie in (0, 1)")
    x_max = np.minimum(phi.inverse(k_const * arr), 2.0)
    c = (1.0 + (1.0 - arr) ** 2 - x_max * x_max) / (2.0 * (1.0 - arr))
    return _result(np.arccos(np.clip(c, -1.0, 1.0)), arr)


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
        if not 1.0 < self.exponent < math.inf:
            raise DomainError(
                f"power-law exponent must be finite and exceed 1, got {self.exponent}")
        if not 0.0 < self.scale < 1.0:
            raise DomainError(f"power-law scale must lie in (0, 1), got {self.scale}")

    def gap(self, n):
        return self.scale * float(n) ** (-self.exponent)


# numpy's default_rng(seed) is Generator(PCG64(SeedSequence(seed))) (NEP 19;
# PCG64 is O'Neill's 128-bit LCG with the XSL-RR output, 2014), mirrored here
# in Python ints or uint64 arrays, which wrap silently.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645  # PCG64's multiplier


def _hasher(const, mult):
    """SeedSequence's hash: xor with the running constant, step it, multiply."""
    def hash_(v):
        nonlocal const
        v, const = v ^ const, const * mult & _MASK32
        v = v * const & _MASK32
        return v ^ v >> 16
    return hash_


def _seed_words(base, idx):
    """SeedSequence(base + [i]).generate_state(4, np.uint64) for every i in the
    uint64 array idx (each below 2**32), as four uint64 arrays."""
    # a component splits into little-endian words, 0 into one word
    entropy = [s >> 32 * j & _MASK32 for s in base
               for j in range(max(1, -(-s.bit_length() // 32)))] + [idx]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in (entropy + [0] * 4)[:4]]

    def mix(dst, word):
        v = (_MIX_L * pool[dst] - _MIX_R * hashmix(word)) & _MASK32
        pool[dst] = v ^ v >> 16

    for src in range(4):  # every pool word into every other
        for dst in (d for d in range(4) if d != src):
            mix(dst, pool[src])
    for word in entropy[4:]:  # then each further entropy word into all four
        for dst in range(4):
            mix(dst, word)
    words = list(map(_hasher(_INIT_B, _MULT_B), pool + pool))
    return [words[2 * j] | words[2 * j + 1] << 32 for j in range(4)]


class _Streams:
    """numpy's default_rng(base + [i]) for every index i, one lane per stream: PCG64's
    state, increment and buffered 32-bit half. A draw advances only its lanes."""

    def __init__(self, base, idx):
        s_hi, s_lo, i_hi, i_lo = _seed_words(base, np.asarray(idx, dtype=np.uint64))
        inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
        # pcg64_set_seed: from state 0, one step reaches inc; add the seed, step
        lo = inc_lo + s_lo
        self.lanes = np.stack([inc_hi + s_hi + (lo < s_lo), lo, inc_hi, inc_lo, 0 * lo])
        self.has = np.zeros(lo.size, dtype=bool)
        self.next64()

    def keep(self, mask):
        self.lanes, self.has = self.lanes[:, mask], self.has[mask]

    def next64(self, sel=slice(None)):
        """PCG64.random_raw() on the selected lanes (all by default): the state
        steps to state * multiplier + increment mod 2**128, products taken in
        32-bit halves, and the XSL-RR output of the new state is returned."""
        hi, lo, inc_hi, inc_lo = self.lanes[:4, sel]
        a0, a1, m0, m1 = lo & _MASK32, lo >> 32, _PCG_LO & _MASK32, _PCG_LO >> 32
        p01, p10 = a0 * m1, a1 * m0
        mid = (a0 * m0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
        carry = a1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)  # lo * _PCG_LO >> 64
        new = lo * _PCG_LO + inc_lo
        hi = carry + hi * _PCG_LO + lo * _PCG_HI + inc_hi + (new < inc_lo)
        self.lanes[0, sel], self.lanes[1, sel] = hi, new
        x, rot = hi ^ new, hi >> 58
        return x >> rot | x << (64 - rot & 63)

    def random(self, sel=slice(None)):
        """Generator.random() on the selected lanes."""
        return (self.next64(sel) >> 11) * 2.0**-53

    def integers(self, count):
        """Generator.integers(count), 2 <= count < 2**32: Lemire's rejection on 32-bit
        words, the buffered upper half of the last 64-bit word or a new one's lower."""
        m = np.zeros(self.has.size, dtype=np.uint64)
        redo = np.ones(self.has.size, dtype=bool)
        while redo.any():
            fresh = redo & ~self.has
            word, low = self.next64(fresh), self.lanes[4].copy()
            low[fresh], self.lanes[4, fresh] = word & _MASK32, word >> 32
            self.has ^= redo
            m[redo] = low[redo] * count
            redo &= (m & _MASK32) < 2**32 % count
        return (m >> 32).astype(np.intp)


def _anchor_sampler(boundary_set):
    """A function of the streams that draws one uniform anchor angle on E per
    lane: by arclength over arcs, else over the points. The arc weights are
    computed once, here."""
    arc, lo, hi = boundary_set._arc, boundary_set._lo, boundary_set._hi
    if arc.any():
        lo, hi = lo[arc], hi[arc]
        # rng.choice(p.size, p=p) with p = (hi - lo) / (hi - lo).sum() searches
        # this cdf, then rng.uniform(lo[k], hi[k]) is lo[k] + (hi[k] - lo[k]) * d
        cdf = ((hi - lo) / (hi - lo).sum()).cumsum()
        cdf /= cdf[-1]

        def draw(rng):
            k = cdf.searchsorted(rng.random(), side="right")
            return lo[k] + (hi[k] - lo[k]) * rng.random()

        return draw
    if lo.size == 1:  # rng.integers(1) is 0 and draws nothing
        return lambda rng: np.full(rng.has.size, lo[0])
    return lambda rng: lo[rng.integers(lo.size)]


def _seed_int(s):
    """One seed component as an int; it must be a nonnegative integer."""
    if isinstance(s, bool) or not isinstance(s, numbers.Integral) or s < 0:
        raise DomainError(f"seed component must be a nonnegative integer, got {s!r}")
    return int(s)


def _first_barred_gap(spec, u):
    """(stop, error) for the first zero whose gap u[stop] rules out every draw:
    outside (0, 1), below float64 resolution at the circle, or inadmissible
    (phi(u) > K u). (len(u), None) when no gap does."""
    bad = ~((0.0 < u) & (u < 1.0)) | ~(1.0 - u < 1.0)
    stop = int(np.argmax(bad)) if bad.any() else u.size
    phi_u = spec.phi(u[:stop])
    thin = phi_u > spec.k_const * u[:stop] * (1.0 + MEMBERSHIP_TOL)
    if thin.any():
        stop = int(np.argmax(thin))
    if stop == u.size:
        return stop, None
    i, gap = stop + 1, float(u[stop])
    if not 0.0 < gap < 1.0:
        return stop, SamplingError(f"radial law gives gap {gap} at index {i}, outside (0, 1)")
    if not 1.0 - gap < 1.0:
        return stop, SamplingError(
            f"cannot place zero #{i}: gap {gap:g} is below float64 resolution "
            "at the circle (1 - gap rounds to 1)"
        )
    return stop, SamplingError(
        f"region too thin to place zero #{i}: gap {gap:g} inadmissible for "
        f"phi({gap:g}) = {phi_u[stop]:g} > K u = {spec.k_const * gap:g}"
    )


_SAMPLE_DRAWS = 1000  # angle draws per zero before its placement fails


def sample_zeros(spec, n, seed, law=GeometricLaw(0.5)):
    """Deterministic zero sequence inside the region given by `spec`.

    Radii follow the law exactly (gap of zero #i is law.gap(i), i from 1), so
    the Blaschke sum is a property of the law alone. Angles are drawn near a
    uniformly chosen anchor of E, restricted to the admissible window at that
    radius, and re-checked by membership with up to 1000 draws per zero.
    Zero #i draws from its own stream, numpy's default_rng(seed + [i]) bit for
    bit, so prefixes agree across different n; every stream is a lane of one
    set of arrays, seeded and advanced together, and no Generator is built.

    The draws go in rounds: in each, every zero not yet placed takes its next
    anchor and angle from its own stream, and one membership test covers the
    round's candidates. A zero therefore draws exactly what it would draw
    alone. An error names the smallest index that fails, as if the zeros were
    placed one after another.
    """
    n = _whole(n, "sample size n")
    if n < 0:
        raise DomainError("sample size must be nonnegative")
    if n >= 2**32:
        raise DomainError(f"sample size must be below 2**32 (one seed word per index), got {n}")
    if region_is_empty(spec.phi, spec.k_const):
        raise EmptyRegionError(
            f"region is empty: slope-one gauge with K = {spec.k_const} < 1"
        )
    base = [_seed_int(s) for s in (seed if isinstance(seed, (tuple, list)) else [seed])]
    u = np.array([float(law.gap(i)) for i in range(1, n + 1)], dtype=np.float64)
    stop, barred = _first_barred_gap(spec, u)
    half = angular_halfwidth(spec.phi, spec.k_const, u[:stop])
    draw = _anchor_sampler(spec.boundary)
    out = np.empty(n, dtype=np.complex128)
    left = np.arange(stop)
    rng = _Streams(base, left + 1)
    failed = {}
    for _ in range(_SAMPLE_DRAWS):
        if not left.size:
            break
        anchor = draw(rng)
        wide = half[left] > 0.0  # rng.uniform(-h, h) where h > 0; h = 0 draws nothing
        h, psi = half[left][wide], np.zeros(left.size)
        psi[wide] = -h + (h + h) * rng.random(wide)
        cand = (1.0 - u[left]) * np.exp(1j * (anchor + psi))
        # near gap 2^-53, |cand| can round to 1, a point membership refuses
        rim = np.abs(cand) >= 1.0
        failed.update((i, SamplingError(
            f"cannot place zero #{i + 1}: a candidate at gap {u[i]:g} rounds onto the "
            "unit circle")) for i in left[rim].tolist())
        ok = np.zeros(left.size, dtype=bool)
        ok[~rim] = in_stolz(cand[~rim], spec)
        out[left[ok]] = cand[ok]
        left = left[~(ok | rim)]
        rng.keep(~(ok | rim))
    failed.update((i, SamplingError(
        f"region too thin to place zero #{i + 1} after {_SAMPLE_DRAWS} angle "
        f"draws (gap {u[i]:g})")) for i in left.tolist())
    if failed:
        raise failed[min(failed)]
    if barred is not None:
        raise barred
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
    resolution = _whole(resolution, "resolution")
    k_const, vertex_angle = float(k_const), float(vertex_angle)
    if resolution < 2:
        raise DomainError("resolution must be at least 2")
    if not 0.0 < k_const < math.inf:
        raise DomainError("aperture constant must be positive and finite")
    if not math.isfinite(vertex_angle):
        raise DomainError("vertex angle must be finite")
    if region_is_empty(phi, k_const):
        raise EmptyRegionError(f"region is empty: slope-one gauge with K = {k_const} < 1")
    t = np.exp(1j * vertex_angle)
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
