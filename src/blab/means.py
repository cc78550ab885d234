"""Hardy and Bergman integral means of B' at desk scale.

Membership of B' in H^p or A^p is a statement about infinite products and
suprema over r; here it is operationalized as growth of means across finite
truncations.

On the circle of radius r, |B'|^p peaks next to each zero a over an arc of
width about 1 - r|a|, so a uniform trapezoid rule needs about degree/(1 - r)
nodes. The angular rule is instead the trapezoid rule in s = Phi(theta), a
conformal change of variable that widens the strip of analyticity (Hale &
Trefethen 2008; Trefethen & Weideman 2014):

    Phi(theta) = (1 - lam) theta + lam mean_k psi_t(theta - arg a_k),
    psi_t(x) = x + 2 atan2(t sin x, 1 - t cos x),  t = r |a_k|,  lam = 1/2,

whose derivative is 1 - lam plus the mean of the zeros' Poisson kernels
P_t(x) = (1 - t^2)/(1 - 2t cos x + t^2). The nodes are
theta_j = Phi^-1(Phi(0) + 2 pi j/N) and the weights 1/Phi'(theta_j): half the
nodes follow the zeros, half stay uniform. The map is needed only where the
uniform rule fails: its error from the nearest pole falls like
exp(-N (1 - r|a|)), so a circle whose start count
N = max(64, 16 degree) has N min_k (1 - r|a_k|) >= 40 takes lam = 0, the
uniform rule, and every other circle lam = 1/2. The bound only picks the rule;
doubling validates both alike. Bergman integrals use
Gauss-Legendre on the geometric radial panels [1 - 2^-j, 1 - 2^-(j+1)], down
past the smallest gap 1 - |a|, with the mapped angular rule on every radius.

Quadrature is validated by node doubling on every call, from fixed start
counts under a node cap: no function takes a node count. The s-grid at 2N
holds the one at N, so a Hardy pass evaluates B' only at its new nodes; a
Bergman pass has new radii throughout. A doubling disagreement above 1e-4
relative signals an under-resolved rule, not a subtle accuracy loss, and is a
resolution failure; the quality target is 1e-6. Doubling cannot see rounding
in B' itself, which grows like eps/(1 - r|a|) next to a zero, so circles that
near a zero are refused before any evaluation.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BlabError, DomainError, ResolutionError
from .products import _as_product

_DOUBLING_GATE = 1e-4
_DOUBLING_TARGET = 1e-6
# Node budget of the doubling: no pass evaluates more nodes than this.
_NODE_CAP = 1 << 21
# Share lam of the angular nodes that follow the zeros' Poisson kernels on
# a circle that needs the map.
_MAP_WEIGHT = 0.5
# A circle needs it where the start count N leaves the nearest pole
# unresolved: N min_k (1 - r|a_k|) < _RESOLVED, a trapezoid error over e^-40.
_RESOLVED = 40.0
# Zero-node pairs per block of the map, so that its block temporaries stay
# within a 2 MB L2 cache: on a Xeon with 2 MB L2 per core, Bergman p = 2 on
# 20 random zeros ran 1.2x faster than with blocks of 1 << 15.
_MAP_BLOCK = 1 << 14
# Newton inversion of Phi stops at |Phi(theta) - s| <= _MAP_TOL, at a step
# under a few ulps of theta, or after _MAP_STEPS steps.
_MAP_TOL = 1e-13
_MAP_STEPS = 100
# B' next to a zero a carries a rounding error of about eps/(1 - r|a|)
# relative, so circles nearer a zero than this miss the doubling target.
_FLOAT_FLOOR = np.finfo(float).eps / _DOUBLING_TARGET
_TWO_PI = 2.0 * np.pi


def _start_nodes(product):
    """The angular start count, max(64, 16 per degree)."""
    return max(64, 16 * product.degree)


class _PoissonMap:
    """Phi and Phi' at (theta, r) pairs, summed over the zeros in blocks.

    Phi is taken as theta + 2 lam mean_k atan2(t sin x, 1 - t cos x), x = theta
    - arg a_k: the form above shifted by the constant lam mean_k arg a_k. In
    e^{ix/2} = c + ih, 1 - t cos x = (1 - t) + 2t h^2 and
    1 - 2t cos x + t^2 = (1 - t)^2 + 4t h^2, with 1 - t = (1 - r) + r(1 - |a|),
    so both keep their digits next to a zero. lam is a property of the
    circle: 1/2 where the start count leaves the nearest pole
    unresolved, else 0, where Phi is the identity and no zero is summed.
    """

    def __init__(self, product):
        moduli = product.zeros.moduli[:, None]
        self._rho, self._gap = moduli, 1.0 - moduli
        self._turn = np.exp(-0.5j * np.angle(product.zeros.zeros))[:, None]
        self._nearest = float(self._gap.min())
        self._start = _start_nodes(product)

    def __call__(self, theta, r, delta):
        """Phi(theta) and Phi'(theta) on flat arrays theta, r and delta = 1 - r."""
        phi, dphi = theta.copy(), np.ones_like(theta)
        mapped = np.flatnonzero(self._start * (delta + r * self._nearest) < _RESOLVED)
        half = np.exp(0.5j * theta[mapped])
        cols = max(1, _MAP_BLOCK // self._rho.size)
        for lo in range(0, mapped.size, cols):
            at = mapped[lo:lo + cols]
            w = half[lo:lo + cols] * self._turn
            t = self._rho * r[at]
            omt = delta[at] + r[at] * self._gap
            u = t * w.imag
            v = u * w.imag
            mean = np.arctan2(u * w.real, 0.5 * omt + v).mean(axis=0)
            phi[at] = theta[at] + 2.0 * _MAP_WEIGHT * mean
            mean = (omt * (1.0 + t) / (omt * omt + 4.0 * v)).mean(axis=0)
            dphi[at] = 1.0 - _MAP_WEIGHT + _MAP_WEIGHT * mean
        return phi, dphi


def _invert(pmap, target, lo, hi, guess, r, delta):
    """theta in (lo, hi) with Phi(theta) = target, and Phi' there: safeguarded Newton.

    The bracket shrinks on the sign of the residual. A Newton step that does
    not land strictly inside it, or that follows a step which failed to
    halve the residual, is replaced by the bracket's midpoint. Where lam = 0
    the guesses of _AngularRule are the targets to rounding, so those nodes
    stop at the first evaluation. All arrays are flat; lo and hi are not
    modified.
    """
    lo, hi = lo.copy(), hi.copy()
    theta = np.where((guess > lo) & (guess < hi), guess, 0.5 * (lo + hi))
    dphi = np.empty_like(theta)
    last = np.full(theta.size, np.inf)
    todo = np.arange(theta.size)
    for _ in range(_MAP_STEPS):
        th = theta[todo]
        phi, d = pmap(th, r[todo], delta[todo])
        dphi[todo] = d
        res = phi - target[todo]
        keep = np.abs(res) > np.maximum(_MAP_TOL, 4.0 * np.finfo(float).eps * th * d)
        todo, th, res, d = todo[keep], th[keep], res[keep], d[keep]
        if not todo.size:
            break
        below = res < 0.0
        lo[todo] = np.where(below, th, lo[todo])
        hi[todo] = np.where(below, hi[todo], th)
        step = th - res / d
        a, b = lo[todo], hi[todo]
        newton = (step > a) & (step < b) & (np.abs(res) <= 0.5 * last[todo])
        theta[todo] = np.where(newton, step, 0.5 * (a + b))
        last[todo] = np.abs(res)
    return theta, dphi


class _AngularRule:
    """Mapped trapezoid nodes on circles of radii r, refined by doubling.

    Row i holds theta_j = Phi^-1(Phi(0) + 2 pi j/N) in [0, 2 pi) at radius
    r_i, and Phi' there. The nodes for N are built from those for the odd
    part of N (bracketed by [0, 2 pi]) by doubling; each doubling places one
    node between every neighbour pair, bracketed by the pair and started from
    the cubic Hermite interpolant of Phi^-1.
    """

    def __init__(self, pmap, r, delta, count):
        self._map = pmap
        self.r, self.delta = r[:, None], delta[:, None]
        phi0, dphi0 = pmap(np.zeros_like(r), r, delta)
        self._start = phi0[:, None]
        odd = count // (count & -count)
        frac = _TWO_PI * np.arange(1, odd) / odd
        shape = (r.size, odd - 1)
        theta, dphi = self._solve(self._start + frac, np.zeros(shape),
                                  np.full(shape, _TWO_PI), np.broadcast_to(frac, shape))
        self.theta = np.concatenate([np.zeros((r.size, 1)), theta], axis=1)
        self.dphi = np.concatenate([dphi0[:, None], dphi], axis=1)
        while self.theta.shape[1] < count:
            self.refine()

    def _solve(self, target, lo, hi, guess):
        shape = target.shape
        theta, dphi = _invert(self._map, target.ravel(), lo.ravel(), hi.ravel(),
                              guess.ravel(), np.broadcast_to(self.r, shape).ravel(),
                              np.broadcast_to(self.delta, shape).ravel())
        return theta.reshape(shape), dphi.reshape(shape)

    def refine(self):
        """Double the node count; return the new nodes and Phi' there."""
        rows, n = self.theta.shape
        up = np.concatenate([self.theta[:, 1:], np.full((rows, 1), _TWO_PI)], axis=1)
        dup = np.concatenate([self.dphi[:, 1:], self.dphi[:, :1]], axis=1)
        h = _TWO_PI / n
        guess = 0.5 * (self.theta + up) + 0.125 * h * (1.0 / self.dphi - 1.0 / dup)
        theta, dphi = self._solve(self._start + h * (np.arange(n) + 0.5), self.theta, up, guess)
        self.theta = np.stack([self.theta, theta], axis=2).reshape(rows, 2 * n)
        self.dphi = np.stack([self.dphi, dphi], axis=2).reshape(rows, 2 * n)
        return theta, dphi


def _require_evaluable(product, r, where):
    """ResolutionError unless 1 - r|a| stays above the float64 floor for every zero."""
    near = (1.0 - r) + r * (1.0 - product.zeros.moduli)
    k = int(np.argmin(near))
    if near[k] < _FLOAT_FLOOR:
        raise ResolutionError(
            f"1 - r|a| = {near[k]:.3g} for zero #{k}{where} is under the float64 floor "
            f"{_FLOAT_FLOOR:.3g}: B' cannot be evaluated there to {_DOUBLING_TARGET:g} relative"
        )


def _weighted_powers(product, ps, r, theta, dphi):
    """Row sums of |B'(r e^{i theta})|^p / Phi'(theta) over nodes theta at radii r, one per p."""
    size = np.abs(product.derivative(r * np.exp(1j * theta)))
    return [np.sum(size ** p / dphi, axis=1) for p in ps]


def _doubled(value, size, what, where=""):
    """value(k) validated by doubling, at the finest pass run.

    Pass k = 0, 1, ... doubles every node count of pass k - 1, and size(k)
    gives its node counts, one per dimension. A start whose validating pass
    exceeds the node cap is a resolution failure before any evaluation;
    otherwise passes run until two agree to 1e-6 relative or the next would
    exceed the cap. A last disagreement above 1e-4 is a resolution failure,
    naming the `what` that moved and the node counts of the last pass.
    """
    def nodes(k):
        return " x ".join(str(c) for c in size(k))

    def over(k):
        return math.prod(size(k)) > _NODE_CAP

    if over(1):
        raise ResolutionError(
            f"node doubling of the {what}{where} would start at {nodes(0)} nodes "
            f"and validate at {nodes(1)}, beyond the node cap {_NODE_CAP}"
        )
    coarse, k = value(0), 1
    while True:
        fine = value(k)
        rel = abs(fine - coarse) / max(abs(fine), np.finfo(float).tiny)
        if rel <= _DOUBLING_TARGET or over(k + 1):
            break
        coarse, k = fine, k + 1
    if rel > _DOUBLING_GATE:
        raise ResolutionError(
            f"node doubling moved the {what} by {rel:.3g} relative{where} on a pass of "
            f"{nodes(k)} nodes"
        )
    return fine


def hardy_mean(product, p, r):
    """(1/2pi integral |B'(r e^{i theta})|^p dtheta)^(1/p), doubling-validated.

    p is a positive finite exponent or a sequence of them; a sequence gives
    the list of means. r = 0 collapses to |B'(0)|. The angular rule is the Poisson-mapped
    trapezoid rule of the module docstring; each doubling evaluates B' only
    at the new nodes, once for every exponent. The node count is automatic:
    it starts at max(64, 16 per degree) and doubles until the validation
    step moves the mean by under 1e-6 relative (|B'|^p has cusps at critical
    points for p < 1, which slow the rule from spectral to algebraic) or the
    next pass would exceed the node cap; a start whose doubled pass would
    exceed the cap, or a circle within the float64 floor of a zero
    (1 - r|a| under eps/1e-6), is a resolution failure before any
    evaluation. The returned value is the doubled-node one; disagreement
    above 1e-4 is a resolution failure that names the radius and the node
    count. Each exponent runs its own doubling over the shared passes, so its
    mean and its failure are those of a call with that exponent alone, and a
    sequence raises the failure of the first exponent that fails.
    """
    product = _as_product(product)
    exponents = [float(q) for q in np.ravel(p)]
    r = float(r)
    # a call per exponent checks its exponent before the circle and fails
    # after the exponents before it have run
    valid = next((i for i, q in enumerate(exponents) if not 0.0 < q < math.inf), len(exponents))
    means = _circle_means(product, exponents[:valid], r) if valid else []
    if valid < len(exponents):
        raise DomainError("exponent p must be positive and finite")
    return means if np.ndim(p) else means[0]


def _circle_means(product, ps, r):
    """hardy_mean for positive exponents ps, in order, from one set of passes."""
    if not 0.0 <= r < 1.0:
        raise DomainError("radius must lie in [0, 1)")
    if r == 0.0:
        return [float(abs(product.derivative(0.0)))] * len(ps)
    nodes = _start_nodes(product)
    _require_evaluable(product, r, f" at r = {r}")
    radius = np.array([r])
    grid, totals = None, []  # totals[k][i]: ps[i]'s sum over the nodes of passes 0..k

    def mean(i, k):
        nonlocal grid
        if k == len(totals):  # pass k refines pass k - 1
            if grid is None:
                grid = _AngularRule(_PoissonMap(product), radius, 1.0 - radius, nodes)
                theta, dphi = grid.theta, grid.dphi
            else:
                theta, dphi = grid.refine()
            prev = totals[-1] if totals else [0.0] * len(ps)
            # added left to right: Python 3.12's sum() is compensated and would move bits
            totals.append([t + float(s[0]) for t, s in
                           zip(prev, _weighted_powers(product, ps, r, theta, dphi))])
        return (totals[k][i] / (nodes << k)) ** (1.0 / ps[i])

    return [_doubled(lambda k: mean(i, k), lambda k: (nodes << k,), "mean",
                     f" for degree {product.degree} at r = {r}") for i in range(len(ps))]


def _radial_panels(product):
    """Panel ends in delta = 1 - r: 1, 1/2, ..., 2^-J, 0, with 2^-J under the smallest gap."""
    gap = float(np.min(1.0 - product.zeros.moduli))
    ends = [1.0]
    while ends[-1] >= gap:
        ends.append(0.5 * ends[-1])
    return np.asarray(ends + [0.0])


def bergman_integral(product, p):
    """integral over the disk of |B'|^p dA (plain Lebesgue area), doubling-validated.

    Gauss-Legendre in radius against the weight r on the geometric panels of
    the module docstring, and the mapped trapezoid rule in angle on every
    radius. The node counts are automatic and double on every pass, as in
    `hardy_mean`: the radial count starts at max(64, 2 per degree) in total,
    and each panel gets ceil(count / panels) nodes, so a pass may hold a few
    more; the angular count starts at max(64, 16 per degree). A failure
    names the counts actually used (radial x angular). A zero whose gap
    1 - |a| is under the float64 floor of `hardy_mean` is a resolution
    failure before any evaluation. For a degree-1 product at p = 2 the value
    is the area of the image disk, pi exactly.
    """
    product = _as_product(product)
    p = float(p)
    if not 0.0 < p < math.inf:
        raise DomainError("exponent p must be positive and finite")
    _require_evaluable(product, 1.0, " as r -> 1")
    ends = _radial_panels(product)
    panels = ends.size - 1
    pmap = _PoissonMap(product)

    radial, angular = max(64, 2 * product.degree), _start_nodes(product)

    def size(k):
        return panels * -(-(radial << k) // panels), angular << k

    def tensor(k):
        nr, na = size(k)
        x, w = np.polynomial.legendre.leggauss(nr // panels)
        half = 0.5 * (ends[:-1] - ends[1:])[:, None]
        delta = (ends[1:, None] + half * (1.0 + x)).ravel()
        r = 1.0 - delta
        grid = _AngularRule(pmap, r, delta, na)
        sums = _weighted_powers(product, [p], grid.r, grid.theta, grid.dphi)[0]
        return float(np.sum((half * w).ravel() * r * sums) * _TWO_PI / na)

    return _doubled(tensor, size, "integral", f" for degree {product.degree}")


@dataclass(frozen=True)
class MeansTable:
    """Rows (truncation N, exponent p, radius r, value) plus per-N suprema over r."""

    rows: list

    def __post_init__(self):
        for n, p, r, v in self.rows:
            if v < 0.0:
                raise DomainError(f"negative mean in row (N={n}, p={p}, r={r})")

    def sup_over_r(self):
        """{(N, p): max value over the radius grid}."""
        out = {}
        for n, p, r, v in self.rows:
            key = (n, p)
            out[key] = max(out.get(key, 0.0), v)
        return out

    def value(self, n, p, r):
        for rn, rp, rr, v in self.rows:
            if rn == n and rp == p and rr == r:
                return v
        raise KeyError((n, p, r))


def hp_trend(family, p, truncations, r_grid):
    """Hardy means of B' across truncations of a zero family.

    family maps a truncation N to its first N zeros and is sampled once per
    N. p is an exponent or a sequence of them. One row per (N, p, r), in the
    order p, then N, then r; growth of the per-N supremum over r across N is
    the trend read against the membership threshold. Each circle takes one
    hardy_mean call for every exponent, so a row is bitwise what a run with
    its exponent alone gives, and a failure is the one such runs, exponent
    after exponent, would raise first.
    """
    ps = [float(q) for q in np.ravel(p)]
    radii = [float(r) for r in r_grid]
    products = {}

    def circles():
        for n in truncations:
            n = int(n)
            if n not in products:
                product = _as_product(family(n))
                if product.degree != n:
                    raise DomainError(f"family returned {product.degree} zeros for N = {n}")
                products[n] = product
            for r in radii:
                yield n, products[n], r

    means = []
    for i, (n, product, r) in enumerate(circles()):
        try:
            means.append((n, r, hardy_mean(product, ps, r)))
        except BlabError:
            # some exponent fails here; one that comes before it may fail on a
            # later circle, so replay exponent by exponent to raise that first
            for q in ps:
                for _, later, radius in itertools.islice(circles(), i, None):
                    hardy_mean(later, q, radius)
            raise
    return MeansTable([(n, q, r, vals[j]) for j, q in enumerate(ps) for n, r, vals in means])


def radial_geometric_family(ratio=0.5):
    """N -> zeros 1 - ratio^n, n = 1..N (radial approach inside a Stolz angle)."""
    ratio = float(ratio)
    if not 0.0 < ratio < 1.0:
        raise DomainError("ratio must lie in (0, 1)")

    def family(n):
        return 1.0 - ratio ** np.arange(1, int(n) + 1, dtype=np.float64) + 0.0j

    return family
