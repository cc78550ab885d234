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
exp(-N (1 - r|a|)), so a circle whose Hardy start count
N = max(64, 16 degree) has N min_k (1 - r|a_k|) >= 40 takes lam = 0, the
uniform rule, and every other circle lam = 1/2. The bound only picks the rule;
doubling validates both alike. Bergman integrals use
Gauss-Legendre on the geometric radial panels [1 - 2^-j, 1 - 2^-(j+1)], down
past the smallest gap 1 - |a|, with the mapped angular rule on every radius.

Quadrature is validated by node doubling on every call, from fixed start
counts under a node cap: no function takes a node count. `_PoissonMap`
computes Phi, Phi' and Phi'' and hides the map's formula; `_Rule` places the
nodes by safeguarded Halley inversion of Phi, doubles them from quintic
Hermite starts, and sums |B'|^p / Phi' per exponent. One rule serves Hardy
circles and Bergman radii: a circle is the rule on one radius of weight 1.
The s-grid at 2N holds the one at N, so an angular doubling evaluates B'
only at its new nodes; a Bergman radial doubling has new radii throughout.
A doubling disagreement above 1e-4 relative signals an under-resolved rule,
not a subtle accuracy loss, and is a resolution failure; the quality target
is 1e-6. Doubling cannot see rounding in B' itself, which grows like
eps/(1 - r|a|) next to a zero, so circles that near a zero are refused
before any evaluation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlabError, DomainError, ResolutionError
from .products import _as_product, _blocks, _require, _whole

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
# Halley inversion of Phi stops at |Phi(theta) - s| <= _MAP_TOL or at a step
# under a few ulps of theta; a node not there after _MAP_STEPS evaluations fails.
_MAP_TOL = 1e-13
_MAP_STEPS = 100
# B' next to a zero a carries a rounding error of about eps/(1 - r|a|)
# relative, so circles nearer a zero than this miss the doubling target. A
# Hardy mean's 1/p root multiplies the rounding of the mean of |B'|^p, about
# eps relative, by 1/p, so exponents under this floor miss it too.
_EPS = np.finfo(float).eps
_FLOAT_FLOOR = _EPS / _DOUBLING_TARGET
_TWO_PI = 2.0 * np.pi


def _start_nodes(product):
    """Hardy's angular start count, max(64, 16 per degree), which also picks each circle's map."""
    return max(64, 16 * product.degree)


class _PoissonMap:
    """Phi, Phi' and Phi'' at (theta, r) pairs, summed over the zeros on `_blocks`.

    Phi is taken as theta + 2 lam mean_k atan2(t sin x, 1 - t cos x), x = theta
    - arg a_k: the form above shifted by the constant lam mean_k arg a_k. In
    e^{ix/2} = c + ih, 1 - t cos x = (1 - t) + 2t h^2 and
    D = 1 - 2t cos x + t^2 = (1 - t)^2 + 4t h^2, with 1 - t = (1 - r) + r(1 - |a|),
    so both keep their digits next to a zero. Phi'' = -4 lam mean_k P_k y_k / D_k
    with y = t h c, the atan2's first argument. The terms of t alone are
    (zeros x 1) columns on a block whose nodes share one radius. lam is a
    property of the circle: 1/2 where the start count leaves the nearest pole
    unresolved, else 0, where Phi is the identity and no zero is summed.
    """

    def __init__(self, product):
        self._rho, self._gap = product.zeros.moduli[:, None], product.zeros.gaps[:, None]
        self._turn = np.exp(-0.5j * np.angle(product.zeros.zeros))[:, None]
        self._nearest = float(self._gap.min())
        self._start = _start_nodes(product)

    def __call__(self, theta, r, delta):
        """Phi, Phi' and Phi'' at flat arrays theta, r and delta = 1 - r."""
        phi, dphi, d2phi = theta.copy(), np.ones_like(theta), np.zeros_like(theta)
        mapped = np.flatnonzero(self._start * (delta + r * self._nearest) < _RESOLVED)
        th, r, delta = theta[mapped], r[mapped], delta[mapped]
        half = np.exp(0.5j * th)
        sums = np.empty((3, th.size))  # of atan2, P and P y / D over the zeros
        degree = self._rho.size
        for at in _blocks(degree, th.size):
            rad, dlt = r[at], delta[at]
            if (rad == rad[:1]).all() and (dlt == dlt[:1]).all():
                rad, dlt = rad[:1], dlt[:1]
            w = half[at] * self._turn
            t = self._rho * rad
            omt = dlt + rad * self._gap  # 1 - t
            y = t * w.imag
            v = y * w.imag  # t h^2
            y *= w.real  # t h c
            den = v + 0.5 * omt
            sums[0, at] = np.arctan2(y, den, out=den).sum(axis=0)
            v *= 4.0
            v += omt * omt  # D
            sums[1, at] = np.divide(omt * (1.0 + t), v, out=den).sum(axis=0)
            den *= y
            den /= v
            sums[2, at] = den.sum(axis=0)
        sums /= degree  # sum / degree: mean's bits without its Python wrapper
        phi[mapped] = th + 2.0 * _MAP_WEIGHT * sums[0]
        dphi[mapped] = 1.0 - _MAP_WEIGHT + _MAP_WEIGHT * sums[1]
        d2phi[mapped] = -4.0 * _MAP_WEIGHT * sums[2]
        return phi, dphi, d2phi


def _require_evaluable(product, r, where):
    """ResolutionError unless 1 - r|a| stays above the float64 floor for every zero."""
    near = (1.0 - r) + r * product.zeros.gaps
    k = int(np.argmin(near))
    if near[k] < _FLOAT_FLOOR:
        raise ResolutionError(
            f"1 - r|a| = {near[k]:.3g} for zero #{k}{where} is under the float64 floor "
            f"{_FLOAT_FLOOR:.3g}: B' cannot be evaluated there to {_DOUBLING_TARGET:g} relative"
        )


def _moved(coarse, fine):
    return abs(fine - coarse) / max(abs(fine), np.finfo(float).tiny)


def _out_of_range(value, p, where):
    """The ResolutionError of a pass whose weighted |B'|^p sum is 0 or not finite, else None."""
    if not 0.0 < value < math.inf:
        return ResolutionError(f"the weighted sum of |B'|^p at p = {p} is {value:g}{where}: "
                               f"|B'|^p leaves the float64 range")
    return None


class _Rule:
    """The mapped angular rule on radii r = 1 - delta, summed against radial weights.

    Row i of `theta` holds theta_j = Phi^-1(Phi(0) + 2 pi j/N) in [0, 2 pi) at
    radius r_i, and `dphi` Phi' there. The nodes for the odd part of N are
    bracketed by [0, 2 pi]; each doubling places one node between every
    neighbour pair, bracketed by the pair and started from the quintic
    Hermite interpolant of Phi^-1, which takes Phi' and Phi'' at the pair.
    Per exponent p, `value` is
    factor sum_i w_i (1/N) sum_j |B'(r_i e^{i theta_j})|^p / Phi'(theta_j) at
    N = `count` nodes, and `coarse` the same at its even-node sub-rule; a
    doubling evaluates B' at the new nodes only. A Hardy circle is one radius
    of weight 1 and factor 1, a Bergman rule the Gauss-Legendre radii of its
    panels with factor 2 pi.
    """

    def __init__(self, product, ps, r, delta, weights, factor, count):
        self._product, self._ps, self._weights, self._factor = product, ps, weights, factor
        self._map = _PoissonMap(product)
        self._r, self._delta = r[:, None], delta[:, None]
        phi0, dphi0, d2phi0 = self._map(np.zeros_like(r), r, delta)
        self._phi0 = phi0[:, None]
        self.radial, self.count = r.size, count // 2
        odd = self.count // (self.count & -self.count)
        frac = _TWO_PI * np.arange(1, odd) / odd
        shape = (r.size, odd - 1)
        placed = self._place(self._phi0 + frac, np.zeros(shape), np.full(shape, _TWO_PI),
                             np.broadcast_to(frac, shape))
        self.theta, self.dphi, self._d2phi = (
            np.concatenate([first[:, None], rest], axis=1)
            for first, rest in zip((np.zeros_like(r), dphi0, d2phi0), placed))
        while self.theta.shape[1] < self.count:
            self._double()
        self._total = self._sum(self.theta, self.dphi)
        self.refine()

    def _place(self, target, lo, hi, guess):
        """theta in (lo, hi) with Phi(theta) = target, Phi' and Phi'' there: safeguarded Halley.

        The bracket shrinks on the sign of the residual. A Halley step that
        does not land strictly inside it, or that follows a step which failed
        to halve the residual, is replaced by the bracket's midpoint. Where
        lam = 0 the guesses are the targets to rounding, so those nodes stop
        at the first evaluation. A node still off target after _MAP_STEPS
        evaluations is a resolution failure. lo and hi are not modified.
        """
        shape = target.shape
        target, lo, hi, guess = target.ravel(), lo.flatten(), hi.flatten(), guess.ravel()
        r, delta = (np.broadcast_to(a, shape).ravel() for a in (self._r, self._delta))
        theta = np.where((guess > lo) & (guess < hi), guess, 0.5 * (lo + hi))
        dphi, d2phi = np.empty_like(theta), np.empty_like(theta)
        last = np.full(theta.size, np.inf)
        todo = np.arange(theta.size)
        for _ in range(_MAP_STEPS):
            th = theta[todo]
            phi, d, d2 = self._map(th, r[todo], delta[todo])
            dphi[todo], d2phi[todo] = d, d2
            res = phi - target[todo]
            size = np.abs(res)
            keep = size > np.maximum(_MAP_TOL, 4.0 * _EPS * th * d)
            todo, th, res, size, d, d2 = (x[keep] for x in (todo, th, res, size, d, d2))
            if not todo.size:
                break
            below = res < 0.0
            a, b = np.where(below, th, lo[todo]), np.where(below, hi[todo], th)
            lo[todo], hi[todo] = a, b
            step = th - 2.0 * res * d / (2.0 * d * d - res * d2)
            halley = (step > a) & (step < b) & (size <= 0.5 * last[todo])
            theta[todo] = np.where(halley, step, 0.5 * (a + b))
            last[todo] = size
        else:
            raise ResolutionError(f"inverting the Poisson map left {todo.size} nodes unconverged "
                                  f"after {_MAP_STEPS} steps, the outermost at r = {r[todo].max()}")
        return theta.reshape(shape), dphi.reshape(shape), d2phi.reshape(shape)

    def _double(self):
        """Double the nodes; return the new nodes and Phi' there."""
        rows, n = self.theta.shape
        up = np.concatenate([self.theta[:, 1:], np.full((rows, 1), _TWO_PI)], axis=1)
        dup, d2up = (np.roll(d, -1, axis=1) for d in (self.dphi, self._d2phi))
        h = _TWO_PI / n
        guess = (0.5 * (self.theta + up) + 5.0 / 32.0 * h * (1.0 / self.dphi - 1.0 / dup)
                 - h * h / 64.0 * (self._d2phi / self.dphi ** 3 + d2up / dup ** 3))
        new = self._place(self._phi0 + h * (np.arange(n) + 0.5), self.theta, up, guess)
        self.theta, self.dphi, self._d2phi = (
            np.stack([old, add], axis=2).reshape(rows, 2 * n)
            for old, add in zip((self.theta, self.dphi, self._d2phi), new))
        return new[:2]

    def _sum(self, theta, dphi):
        size = np.abs(self._product.derivative(self._r * np.exp(1j * theta)))
        with np.errstate(over="ignore"):  # an infinite sum fails the caller's range check
            return [float(np.sum(self._weights * np.sum(size ** p / dphi, axis=1))) * self._factor
                    for p in self._ps]

    def refine(self):
        """Double the angular count."""
        self.coarse = [t / self.count for t in self._total]
        # added left to right: Python 3.12's sum() is compensated and would move bits
        self._total = [t + s for t, s in zip(self._total, self._sum(*self._double()))]
        self.count *= 2
        self.value = [t / self.count for t in self._total]


def hardy_mean(product, p, r):
    """(1/2pi integral |B'(r e^{i theta})|^p dtheta)^(1/p), doubling-validated.

    p is a finite exponent of at least eps/1e-6 (about 2.2e-10, under which the
    1/p root lifts rounding over 1e-6) or a sequence of them; a sequence gives
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
    count, and so is a pass whose |B'|^p sum underflows to 0 or overflows,
    naming p. Each exponent runs its own doubling over the shared passes, so its
    mean and its failure are those of a call with it alone; a sequence raises
    the failure of the first failing exponent once the exponents before it resolve.
    """
    outcomes = _circle_means(_as_product(product), [float(q) for q in np.ravel(p)], float(r))
    if outcomes and isinstance(outcomes[-1], BlabError):
        outcomes[-1]._resolved = len(outcomes) - 1  # the exponents before it, for hp_trend
        raise outcomes[-1]
    return outcomes if np.ndim(p) else outcomes[0]


def _circle_means(product, ps, r):
    """Each exponent's outcome on the circle of radius r, in order, from one set of passes.

    An outcome is the exponent's mean, or the BlabError that hardy_mean with
    that exponent alone raises; the list ends at the first failing exponent.
    An exponent outside [eps/1e-6, inf) fails before the circle is checked,
    as a call with it alone does, and the exponents after it do not run. The
    circle's own refusals (radius domain, float64 floor, start over the node
    cap) raise at once. Each exponent runs its own doubling over the shared
    passes, so its outcome is bitwise the one it has alone; each pass stops
    at the first failing exponent, and the passes once the ones before it resolve.
    """
    valid = next((i for i, q in enumerate(ps) if not _FLOAT_FLOOR <= q < math.inf), len(ps))
    outcomes = [None] * valid
    if valid < len(ps):
        outcomes.append(DomainError(f"exponent p must be positive and finite, and at least the "
                                    f"float64 floor {_FLOAT_FLOOR:.3g} of the 1/p root, "
                                    f"got {ps[valid]}"))
    if not valid:
        return outcomes
    if not 0.0 <= r < 1.0:
        raise DomainError("radius must lie in [0, 1)")
    if r == 0.0:
        return [float(abs(product.derivative(0.0)))] * valid + outcomes[valid:]
    nodes, where = _start_nodes(product), f" for degree {product.degree} at r = {r}"
    _require_evaluable(product, r, f" at r = {r}")
    if nodes << 1 > _NODE_CAP:
        raise ResolutionError(
            f"node doubling of the mean{where} would start at {nodes} nodes "
            f"and validate at {nodes << 1}, beyond the node cap {_NODE_CAP}"
        )
    radius = np.array([r])
    rule = _Rule(product, ps[:valid], radius, 1.0 - radius, np.ones(1), 1.0, nodes << 1)
    while True:
        last = rule.count << 1 > _NODE_CAP  # the next pass would exceed the cap
        on = f"{where} on a pass of {rule.count} nodes"
        for i, q in enumerate(ps[:len(outcomes)]):  # up to the first failure so far
            if outcomes[i] is None:
                outcomes[i] = _out_of_range(rule.value[i], q, on)
            if outcomes[i] is None:
                fine = rule.value[i] ** (1.0 / q)
                rel = _moved(rule.coarse[i] ** (1.0 / q), fine)
                if last and rel > _DOUBLING_GATE:
                    outcomes[i] = ResolutionError(f"node doubling moved the mean by {rel:.3g} "
                                                  f"relative{on}")
                elif last or rel <= _DOUBLING_TARGET:
                    outcomes[i] = fine
            if isinstance(outcomes[i], BlabError):
                break
        if None not in outcomes[:i + 1]:
            return outcomes[:i + 1]
        rule.refine()


def bergman_integral(product, p):
    """integral over the disk of |B'|^p dA (plain Lebesgue area), doubling-validated.

    Gauss-Legendre in radius against the weight r on the geometric panels of
    the module docstring, and the mapped trapezoid rule in angle on every
    radius. The rule starts at an even 2 ceil(max(32, degree // 2) / panels)
    radial nodes per panel and at the least even multiple of the degree that
    is at least 16 angular ones. A dimension doubles while its check, the
    even-node angular sub-rule or half the radial nodes at the same angular
    count, is over 1e-6 relative off, until the next rule would exceed the
    node cap. A start over the cap, a zero whose gap 1 - |a| is under the
    float64 floor of `hardy_mean`, or a last check over 1e-4 off is a
    resolution failure naming the dimension that moved and the radial x
    angular counts, and so is a pass whose |B'|^p sum underflows to 0 or
    overflows, naming p and the counts. For a degree-1 product at p = 2 the
    value is the area of the image disk, pi exactly.
    """
    product = _as_product(product)
    p = float(p)
    if not 0.0 < p < math.inf:
        raise DomainError("exponent p must be positive and finite")
    _require_evaluable(product, 1.0, " as r -> 1")
    # panel ends in delta = 1 - r: 1, 1/2, ..., 2^-J, 0, with 2^-J under the smallest gap
    gap, ends = float(np.min(product.zeros.gaps)), [1.0]
    while ends[-1] >= gap:
        ends.append(0.5 * ends[-1])
    ends = np.asarray(ends + [0.0])
    panels = ends.size - 1
    # angular counts that are multiples of the degree converge faster: on five
    # zeros, 40 nodes agree with their 20-node sub-rule to 2e-8, 64 with 32 to 6e-6
    n = product.degree
    per_panel, count = 2 * -(-max(32, n // 2) // panels), 2 * n * -(-8 // n)
    if panels * per_panel * count > _NODE_CAP:
        raise ResolutionError(
            f"node doubling of the integral for degree {n} would start at "
            f"{panels * per_panel} x {count} nodes, beyond the node cap {_NODE_CAP}"
        )

    def rule(per_panel, count):  # Gauss-Legendre radii, per_panel to a panel
        x, w = np.polynomial.legendre.leggauss(per_panel)
        width = 0.5 * (ends[:-1] - ends[1:])[:, None]
        delta = (ends[1:, None] + width * (1.0 + x)).ravel()
        weights = (width * w).ravel() * (1.0 - delta)
        return _Rule(product, [p], 1.0 - delta, delta, weights, _TWO_PI, count)

    fine, half = (rule(m, count) for m in (per_panel, per_panel // 2))
    while True:
        for one in (fine, half):
            failed = _out_of_range(one.value[0], p, f" for degree {n} on a pass of "
                                   f"{one.radial} x {one.count} nodes")
            if failed:
                raise failed
        moved = {"angle": _moved(fine.coarse[0], fine.value[0]),
                 "radius": _moved(half.value[0], fine.value[0])}
        radial, angular = (moved[dim] > _DOUBLING_TARGET for dim in ("radius", "angle"))
        if not (radial or angular) or fine.radial * fine.count << (radial + angular) > _NODE_CAP:
            break
        if radial:
            half, fine = fine, rule(2 * fine.radial // panels, fine.count)
        if angular:
            fine.refine()
            half.refine()
    dim = max(moved, key=moved.get)
    if moved[dim] > _DOUBLING_GATE:
        raise ResolutionError(
            f"node doubling moved the integral by {moved[dim]:.3g} relative in {dim} for degree "
            f"{n} on a pass of {fine.radial} x {fine.count} nodes"
        )
    return fine.value[0]


@dataclass(frozen=True)
class MeansTable:
    """Rows (truncation N, exponent p, radius r, value) plus per-N suprema over r."""

    rows: list

    def __post_init__(self):
        for n, p, r, v in self.rows:
            _require(v >= 0.0, f"negative mean in row (N={n}, p={p}, r={r})")

    def sup_over_r(self):
        """{(N, p): max value over the radius grid}."""
        out = {}
        for n, p, r, v in self.rows:
            key = (n, p)
            out[key] = max(out.get(key, 0.0), v)
        return out


def hp_trend(family, p, truncations, r_grid):
    """Hardy means of B' across truncations of a zero family.

    family maps a truncation N to its first N zeros and is sampled once per
    N. p is an exponent or a sequence of them. One row per (N, p, r), in the
    order p, then N, then r; growth of the per-N supremum over r across N is
    the trend read against the membership threshold. Each circle is one
    hardy_mean call for the exponents before the first failure so far, so a
    row is bitwise what a run with its exponent alone gives, and a failure
    is the one such runs, exponent after exponent, would raise first.
    """
    ps = [float(q) for q in np.ravel(p)]
    truncations = [_whole(n, "truncation N") for n in truncations]
    radii = [float(r) for r in r_grid]
    products, means, live, failure = {}, [], len(ps), None
    for n in truncations:
        if n not in products:
            product = _as_product(family(n))
            if product.degree != n:
                raise DomainError(f"family returned {product.degree} zeros for N = {n}")
            products[n] = product
        for r in radii:
            try:
                means.append((n, r, hardy_mean(products[n], ps[:live], r)))
            except BlabError as err:
                # it precedes later exponents' failures, not an earlier one's on a later circle
                failure, live = err, getattr(err, "_resolved", 0)  # 0: the circle refused
                if not live:
                    raise
    if failure is not None:
        raise failure
    return MeansTable([(n, q, r, vals[j]) for j, q in enumerate(ps) for n, r, vals in means])


def radial_geometric_family(ratio=0.5):
    """N -> zeros 1 - ratio^n, n = 1..N (radial approach inside a Stolz angle)."""
    ratio = float(ratio)
    if not 0.0 < ratio < 1.0:
        raise DomainError("ratio must lie in (0, 1)")

    def family(n):
        n = _whole(n, "truncation N")
        return 1.0 - ratio ** np.arange(1, n + 1, dtype=np.float64) + 0.0j

    return family
