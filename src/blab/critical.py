"""Critical points of finite Blaschke products and weighted sums over them.

A degree-n product has exactly n-1 critical points in the open disk, counted
with multiplicity. A zero repeated m times pins a critical point of
multiplicity m-1 at itself exactly; the remaining u-1 "free" critical points
(u = number of distinct zeros) are the interior zeros of the logarithmic
derivative B'/B, a rational function whose numerator W also carries the
reflected exterior critical points.

B(1/conj(z)) = 1/conj(B(z)) makes W's roots come in reflected pairs c and
1/conj(c), so the solver iterates only the u-1 interior unknowns by
simultaneous (Aberth) iteration: each estimate's reflection stands in for
its exterior partner in the repulsion sum, an estimate that leaves the disk
is folded back by reflection, and each estimate freezes once its step is
negligible. The estimates start at hyperbolic midpoints of angularly
neighbouring zeros, inside the hyperbolic hull where Walsh's theorem puts
the critical points. W's monomial coefficients are never formed: for zeros
clustered near the circle those expand catastrophically, while the Newton
ratio W/W' is available to machine accuracy through factor-wise pole sums.
A final Newton polish on B'/B itself brings each simple root to the
evaluation noise floor.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RootFindingError
from .products import (ZeroSequence, _as_product, _inside_disk, _pole_fractions, _require,
                       _split_blocks)

_INTERIOR_EDGE = 1e-12  # |root| < 1 - this counts as interior
_RESIDUAL_MAX = 1e-8
_FLOOR_FACTOR = 4.0  # a residual this close to the float64 floor is a float64 limit
_MAX_SWEEPS = 500  # simultaneous-iteration sweeps before the solver gives up
_STEP_TOL = 1e-12  # an estimate freezes at a step under this times 1 + |w|
_POLISH_STEPS = 60  # Newton steps of the final polish


# ---------------------------------------------------------------------------
# stable log-derivative building blocks


def _group_exact(zs):
    """Distinct zeros, in order of first appearance, with multiplicities;
    repetition means identical values."""
    seen = Counter(complex(v) for v in zs)
    return (np.asarray(list(seen), dtype=np.complex128),
            np.asarray(list(seen.values()), dtype=np.float64))


def _pole_sums(unique, mult):
    """(z, partners) -> (H, H', S, R) at the points z, in one pass.

    H = B'/B, its derivative H' and the pole sum S run over the distinct zeros,
    the repulsion R = sum_p 1/(z - p) over the Aberth partners p (none: R = 0).
    With a_j* = 1/conj(a_j), each term of H stays a product,
    m_j (|a_j|^2 - 1) / ((1 - conj(a_j) z)(a_j - z))
        = c_j / ((a_j - z)(a_j* - z)),   c_j = m_j (|a_j|^2 - 1) / conj(a_j),
    so it keeps full relative accuracy even for zeros near the circle, and
    its derivative is the term times 1/(a_j - z) + 1/(a_j* - z). S sums those
    last two fractions over the distinct zeros: it is minus the logarithmic
    derivative of W's denominator prod (1 - conj(a_j) z)(a_j - z). The
    fractions are the factor pass's 1/d and r (`_pole_fractions`). R drops its
    terms that are not finite: a partner at z (the self term's 1/0, under
    `errstate`) and one at infinity (the reflection of an estimate at 0). The
    pass runs on `_split_blocks`, its blocks counted against the zeros or the
    partners, whichever are more, in buffers that each thread allocates once
    per pass. c_j and the poles depend on the zeros alone, so a solve forms
    them once (`critical_points`) for its sweeps, polish and residual message.
    """
    coef = (mult * (np.abs(unique) ** 2 - 1.0) / np.conj(unique))[:, None]
    poles = np.empty((2, unique.size, 1), dtype=np.complex128)
    poles[:, :, 0] = 1.0 / np.conj(unique), unique  # a*, a

    def at(z, partners=()):
        pts = np.asarray(z, dtype=np.complex128)
        nodes = np.asarray(partners, dtype=np.complex128)
        out = np.empty((4, pts.size), dtype=np.complex128)

        def run(blocks, cols):
            terms = np.empty(3 * unique.size * cols, dtype=np.complex128)
            rterms = np.empty(cols * nodes.size, dtype=np.complex128)
            bad = np.empty(rterms.size, dtype=bool)
            sums = np.empty(4 * cols, dtype=np.complex128)
            for blk in blocks:
                q = pts[None, blk]
                # zeros x points slabs, summed over the zeros at the end: the
                # terms of H (g), of H' (g times the fraction pair) and of S (the pair)
                slabs = terms[:3 * unique.size * q.size].reshape(3, unique.size, q.size)
                g, r, inv = slabs
                _pole_fractions(poles, q, out=slabs[1:])
                np.multiply(coef, inv, out=g)
                g *= r
                inv += r
                np.multiply(g, inv, out=r)
                out[:3, blk] = slabs.sum(axis=1, out=sums[:3 * q.size].reshape(3, q.size))
                # a points x partners slab, summed over the partners: the terms of R
                rep = rterms[:q.size * nodes.size].reshape(q.size, nodes.size)
                drop = bad[:rep.size].reshape(rep.shape)
                with np.errstate(all="ignore"):
                    np.divide(1.0, np.subtract(q.T, nodes, out=rep), out=rep)
                np.logical_not(np.isfinite(rep, out=drop), out=drop)
                rep[drop] = 0.0
                out[3, blk] = rep.sum(axis=1, out=sums[3 * q.size:4 * q.size])

        _split_blocks(max(unique.size, nodes.size), pts.size, run)
        return out
    return at


# ---------------------------------------------------------------------------
# solver


def _hyperbolic_midpoints(a, b):
    """Midpoints of the hyperbolic segments [a, b] in the unit disk.

    The disk automorphism z -> (z - a)/(1 - conj(a) z) sends a to 0 and b to
    c; the midpoint of [0, c] is t c/|c| with t = tanh(artanh|c|/2), and the
    inverse map brings it back.
    """
    with np.errstate(all="ignore"):
        c = (b - a) / (1.0 - np.conj(a) * b)
    s = np.minimum(np.abs(c), 1.0 - 1e-16)  # rounding can push |c| onto the circle
    t = s / (1.0 + np.sqrt(1.0 - s * s))
    d = t * np.exp(1j * np.angle(c))
    return (d + a) / (1.0 + np.conj(a) * d)


def _geometric_seeds(unique):
    """u-1 starting estimates between angular neighbours of the distinct zeros.

    The zeros are ordered by argument (ties by modulus, so radially stacked
    zeros pair up in order), the widest angular gap is dropped, and each
    remaining pair of neighbours contributes its hyperbolic midpoint.
    """
    ang = np.angle(unique)
    order = np.lexsort((np.abs(unique), ang))
    gaps = np.diff(np.append(ang[order], ang[order[0]] + 2.0 * np.pi))
    ring = np.roll(order, -(int(np.argmax(gaps)) + 1))
    return _hyperbolic_midpoints(unique[ring[:-1]], unique[ring[1:]])


def _aberth_free_points(unique, pole_sums):
    """The u-1 free critical points, by reflected-pair simultaneous iteration.

    B(1/conj(z)) = 1/conj(B(z)) makes the 2u-2 roots of W come in pairs
    w, 1/conj(w), so only the u-1 interior estimates are iterated; each
    estimate's reflection stands in for W's exterior root and enters the
    Aberth repulsion as an implicit partner (an estimate at 0 has its partner
    at infinity, which adds nothing). An estimate that leaves the disk is
    folded back by reflection, and one whose step falls below
    _STEP_TOL * (1 + |w|) is frozen while it keeps repelling the others.
    Seeds come from the zeros' geometry (`_geometric_seeds`): by Walsh's
    theorem the critical points lie in the hyperbolic hull of the zeros.
    Each sweep is one pass of `pole_sums` (`_pole_sums` of the zeros), which
    forms the repulsion with H, H' and S.

    Returns the estimates and the number still moving (0 when converged).
    """
    w = _geometric_seeds(unique)
    live = np.ones(w.size, dtype=bool)
    for _ in range(_MAX_SWEEPS):
        idx = np.flatnonzero(live)
        z = w[idx]
        with np.errstate(all="ignore"):
            # W'/W = H'/H - S; the repulsion runs over the other estimates
            # and every reflection (the self term is not finite and drops)
            partners = np.concatenate([w, 1.0 / np.conj(w)])
            h, hp, total, repulsion = pole_sums(z, partners)
            step = 1.0 / (hp / h - total - repulsion)
        stalled = ~np.isfinite(step)
        step[stalled] = 0.0  # exactly on a root, or a transient stall: hold position
        nxt = z - step
        out = np.abs(nxt) > 1.0
        nxt[out] = 1.0 / np.conj(nxt[out])  # fold back inside by reflection
        w[idx] = nxt
        live[idx] = stalled | (np.abs(step) >= _STEP_TOL * (1.0 + np.abs(nxt)))
        if not live.any():
            break
    return w, int(live.sum())


def _newton_on_h(pole_sums, points):
    """Polish free critical points on H = B'/B, which evaluates stably."""
    pts = np.array(points, dtype=np.complex128)
    for _ in range(_POLISH_STEPS):
        h, hp, _, _ = pole_sums(pts)
        with np.errstate(all="ignore"):
            step = h / hp
        step[~np.isfinite(step)] = 0.0
        nxt = pts - step
        # a refined point must stay inside the closed disk; freeze any escapee
        escaped = np.abs(nxt) >= 1.0
        nxt[escaped] = pts[escaped]
        pts = nxt
        if np.all(np.abs(step) < 1e-15 * (1.0 + np.abs(pts))):
            break
    return pts


@dataclass(frozen=True)
class CriticalSet:
    """Interior critical points (multiplicity by repetition) with residuals |B'|."""

    points: np.ndarray
    residuals: np.ndarray
    degree: int

    @property
    def count(self):
        return int(self.points.size)

    def __iter__(self):
        return (complex(v) for v in self.points)


def _sorted_critical(points):
    pts = np.asarray(points, dtype=np.complex128)
    order = np.lexsort((np.angle(pts), -np.abs(pts)))
    return pts[order]


def critical_points(product):
    """All n-1 interior critical points of a degree-n product.

    Repeated zeros contribute themselves exactly; the free points come from
    simultaneous iteration plus a Newton polish. The count is certified
    against n-1, and every residual |B'| must stay below 1e-8 when
    re-evaluated through the factor expansion (independent of the
    root-finding representation). Either failure raises one
    RootFindingError, with the sorted points found as `partial`: its message
    names the count against n-1 or else the worst residual against the
    float64 floor, then the estimates still moving if the iteration stalled.
    """
    product = _as_product(product)
    n = product.degree
    unique, mult = _group_exact(product.zeros.zeros)
    pole_sums = _pole_sums(unique, mult)
    free, live = np.asarray([], dtype=np.complex128), 0
    if len(unique) > 1:
        raw, live = _aberth_free_points(unique, pole_sums)
        free = _newton_on_h(pole_sums, raw[np.abs(raw) < 1.0 - _INTERIOR_EDGE])
        free = free[np.abs(free) < 1.0 - _INTERIOR_EDGE]
    points = _sorted_critical(np.concatenate([np.repeat(unique, (mult - 1).astype(int)), free]))
    if points.size != n - 1:
        failure = f"found {points.size} interior critical points, expected {n - 1}"
    else:
        residuals = np.abs(product.derivative(points))
        if not (points.size and np.max(residuals) >= _RESIDUAL_MAX):
            return CriticalSet(points, residuals, n)
        failure = _residual_failure(product, pole_sums, points, residuals)
    if live:
        failure += (f"; simultaneous iteration did not converge within {_MAX_SWEEPS} sweeps: "
                    f"{live} of {len(unique) - 1} estimates still moving")
    raise RootFindingError(failure, partial=points)


def _residual_failure(product, pole_sums, points, residuals):
    """Name the worst point and compare its residual with the float64 floor.

    Rounding c to the nearest float moves it by up to spacing(|c|), which
    changes B' by about spacing(|c|) * |B''(c)|; at a critical point
    B'' = B * H'. A residual within a small factor of that floor is the
    limit of float64, not a failure of the solver.
    """
    k = int(np.argmax(residuals))
    c = complex(points[k])
    with np.errstate(all="ignore"):
        _, hp, _, _ = pole_sums([c])
        floor = float(np.spacing(abs(c)) * abs(product.evaluate(c) * hp[0]))
    msg = (
        f"worst residual |B'| = {residuals[k]:g} exceeds {_RESIDUAL_MAX:g} "
        f"at point {k} of {points.size}, c = {c!r}, 1-|c| = {1.0 - abs(c):.3g}; "
        f"float64 floor spacing(|c|)*|B''(c)| = {floor:.3g}"
    )
    if residuals[k] <= _FLOOR_FACTOR * floor:
        msg += f" (residual within {_FLOOR_FACTOR:g}x of it: a float64 limit)"
    return msg


# ---------------------------------------------------------------------------
# weighted sums


@dataclass(frozen=True)
class SumSeries:
    """Terms of a positive series, each finite and nonnegative, with cached partial sums."""

    terms: np.ndarray
    partial_sums: np.ndarray = field(init=False)

    def __post_init__(self):
        terms = np.asarray(self.terms, dtype=np.float64)
        _require(np.isfinite(terms) & (terms >= 0.0), "series terms must be finite and nonnegative")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "partial_sums", np.cumsum(terms))

    @property
    def total(self):
        return float(self.partial_sums[-1]) if self.terms.size else 0.0

    def rows(self):
        """(index, term, partial_sum) triples, 1-based."""
        return [
            (k + 1, float(self.terms[k]), float(self.partial_sums[k]))
            for k in range(self.terms.size)
        ]


def _points_and_gaps(points):
    """The points of a CriticalSet, a ZeroSequence or an array, and their gaps 1 - |z|."""
    if isinstance(points, ZeroSequence):
        return points.zeros, points.gaps
    if isinstance(points, CriticalSet):
        pts, radii = points.points, np.abs(points.points)
    else:
        pts, radii = _inside_disk(points, "point")  # 0 too: a critical point may lie there
    return pts, 1.0 - radii


def critical_sum(cs, boundary_set, rho, beta, eps):
    """Series sum (1 - |z'|) d(z', E)^max(rho - beta + eps, 0) over critical points."""
    pts, gaps = _points_and_gaps(cs)
    rho, beta, eps = float(rho), float(beta), float(eps)
    if not (0.0 < rho < np.inf and 0.0 < eps < np.inf and np.isfinite(beta)):
        raise DomainError("rho and eps must be positive and finite, and beta finite")
    expo = max(rho - beta + eps, 0.0)
    return SumSeries(gaps * np.power(boundary_set.distance(pts), expo))


def log_weighted_sum(cs, eps):
    """Series sum (1 - |z'|) / log(1/(1 - |z'|))^(1 + eps), log floored at 1.

    The floor kicks in exactly when 1 - |z'| >= 1/e, where log 1/(1-|z'|)
    would dip below 1; only the boundary-clustered tail carries asymptotic
    meaning, so the convention is harmless and keeps every term positive.
    """
    _, gaps = _points_and_gaps(cs)
    eps = float(eps)
    if not 0.0 < eps < np.inf:
        raise DomainError("eps must be positive and finite")
    logs = np.maximum(np.log(1.0 / gaps), 1.0)
    return SumSeries(gaps / logs ** (1.0 + eps))


def protas_sum(zeros, r):
    """Sum (1 - |z_n|)^r over a zero sequence, 0 < r <= 1 (r = 1: plain gap sum)."""
    _, gaps = _points_and_gaps(zeros)
    r = float(r)
    if not 0.0 < r <= 1.0:
        raise DomainError("power must lie in (0, 1]")
    return float(np.sum(gaps ** r))
