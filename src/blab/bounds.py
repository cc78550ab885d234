"""Sampling checks for the derivative bound and the inequalities feeding it.

Every check here states an inequality that is mathematically exact; what the
functions add is bookkeeping (violation counts, worst observed ratios,
witnesses) and honest tolerances separating closed-form arithmetic (relative
slack _CLOSED_RTOL = 1e-12 in schwarz_pick_check and lemma_check, absolute
_ABS_TOL = 1e-14 near zero in three_point_check and chord_check) from anything
fed by quadrature or root finding (_THEOREM_RTOL = 1e-9 in theorem_check).
The tolerances are module constants, not parameters. A reported violation
therefore means a genuine defect in the surrounding code, never an expected
numerical artifact.

Sampling is chunked with one RNG stream per chunk index, so reports are
reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EmptyRegionError, SamplingError
from .products import _as_product, _block_width, _factor_blocks, _require, _result, _whole
from .regions import MEMBERSHIP_TOL, _seed_int, angular_halfwidth, in_stolz, region_is_empty

_DRAWS = 4096  # draws per RNG stream of the lemma sampler
_UNIT_TOL = 1e-9  # |t| = 1 validated to this
_DESCENT_MIN, _DESCENT_MAX = 64, 4096  # points per derivative call of a descent, doubling
_ABS_TOL = 1e-14  # absolute slack of the pointwise inequalities
_CLOSED_RTOL = 1e-12  # relative slack of the closed-form bounds
_THEOREM_RTOL = 1e-9  # relative slack of the derivative bound
_WITNESSES = 10  # worst witnesses a lemma report keeps


def _as_complex(z):
    return np.asarray(z, dtype=np.complex128)


def _check_unit(t):
    t = _as_complex(t)
    _require(np.abs(np.abs(t) - 1.0) <= _UNIT_TOL, "t must lie on the unit circle")
    return t


# ---------------------------------------------------------------------------
# pointwise inequalities


def three_point_check(phi, x, y, u):
    """phi((x+y+u)/3) <= phi(x) + phi(y) + phi(u), up to absolute slack.

    True for any nondecreasing phi: the average is at most max(x, y, u).
    """
    x, y, u = (np.asarray(v, dtype=np.float64) for v in (x, y, u))
    _require((x >= 0.0) & (y >= 0.0) & (u >= 0.0),
             "three_point_check needs nonnegative arguments")
    return _result(phi((x + y + u) / 3.0) <= phi(x) + phi(y) + phi(u) + _ABS_TOL, x, y, u)


def chord_check(z, lam, t):
    """|t - z| <= 2 |t - z |lam|| for |z| < 1, |lam| < 1, |t| = 1, up to absolute slack."""
    z, lam = _as_complex(z), _as_complex(lam)
    t = _check_unit(t)
    _require((np.abs(z) < 1.0) & (np.abs(lam) < 1.0),
             "z and lam must lie strictly inside the disk")
    return _result(np.abs(t - z) <= 2.0 * np.abs(t - z * np.abs(lam)) + _ABS_TOL, z, lam, t)


def lemma_lhs(z, t, lam, phi):
    """phi(|t - z |lam|| / 3) / |1 - conj(lam) z|.

    The quantity bounded by 2 C_phi + K whenever lam sits in the vertex
    region at t with aperture K.
    """
    z, lam = _as_complex(z), _as_complex(lam)
    t = _check_unit(t)
    _require(np.abs(z) <= 1.0 + 1e-15, "z must lie in the closed unit disk")
    _require(np.abs(lam) < 1.0, "lam must lie strictly inside the disk")
    vals = phi(np.abs(t - z * np.abs(lam)) / 3.0) / np.abs(1.0 - np.conj(lam) * z)
    return _result(vals, z, t, lam)


def lemma_bound(phi, k_const):
    """The constant 2 C_phi + K."""
    return 2.0 * phi.constant + float(k_const)


def schwarz_pick_bound(product, z):
    """(1 - |B(z)|^2) / (1 - |z|^2) for |z| < 1.

    Evaluated through the telescoping 1 - |prod b_n|^2 =
    sum_n (prod_{m<n} |b_m|^2)(1 - |b_n|^2), whose terms are positive, so the
    quotient keeps full relative accuracy even where 1 - |z|^2 underflows the
    naive difference (the check runs at near-equality as |z| -> 1).
    """
    product = _as_product(product)
    z = _as_complex(z)
    _require(np.abs(z) < 1.0, "the hyperbolic-derivative bound needs |z| < 1")
    sq = product.zeros.moduli[:, None] ** 2

    def telescoped(d, r):
        inv = np.abs(r) ** 2 / sq  # 1 / |1 - conj(a) z|^2
        terms = (1.0 - sq) * inv
        # each term carries prod_{m<n} |b_m|^2 = prod_{m<n} |d_m|^2 inv_m
        terms[1:] *= np.cumprod(np.abs(d[:-1]) ** 2 * inv[:-1], axis=0)
        return terms.sum(axis=0)

    acc = _factor_blocks(product.zeros.zeros, z.ravel(), telescoped)
    return _result(acc.reshape(z.shape), z)


def schwarz_pick_check(product, z):
    """|B'(z)| <= (1 - |B(z)|^2)/(1 - |z|^2), with relative slack."""
    product = _as_product(product)
    z = _as_complex(z)
    lhs = np.abs(product.derivative(z))
    return _result(lhs <= schwarz_pick_bound(product, z) * (1.0 + _CLOSED_RTOL), z)


# ---------------------------------------------------------------------------
# sampled lemma verification


def _witness(ratio, z, t, lam):
    return {"ratio": float(ratio), "z": complex(z), "t": complex(t),
            "lambda": complex(lam)}


@dataclass(frozen=True)
class BoundReport:
    """Aggregate of a sampled inequality check."""

    samples: int
    violations: int
    worst_ratio: float
    worst_witness: dict | None
    worst_k: list = field(default_factory=list)

    def to_payload(self):
        """JSON-ready dict; complex values flattened to [re, im]."""

        def flat(w):
            if w is None:
                return None
            out = {}
            for key, val in w.items():
                out[key] = [val.real, val.imag] if isinstance(val, complex) else val
            return out

        return {
            "samples": self.samples,
            "violations": self.violations,
            "worst_ratio": self.worst_ratio,
            "worst_witness": flat(self.worst_witness),
        }


def _require_vertex(spec):
    angles = spec.boundary.point_angles
    if len(spec.boundary.segments) or angles.size != 1:
        raise DomainError("lemma sampling needs a single-vertex boundary set")
    return complex(np.exp(1j * angles[0]))


def lemma_check(spec, n_samples, seed):
    """Sample (z, lam) with lam in the vertex region; verify the 2C+K bound.

    lam radii come from rejection on the admissibility condition
    phi(u) <= K u, angles uniform in the exact angular window at each
    admissible radius; z is uniform on the disk. Report counts violations of
    lemma_lhs <= (2C+K)(1 + _CLOSED_RTOL) and keeps the _WITNESSES = 10 worst
    witnesses.
    """
    n_samples = _whole(n_samples, "n_samples")
    if n_samples < 1:
        raise DomainError("n_samples must be at least 1")
    phi, k = spec.phi, spec.k_const
    t = _require_vertex(spec)
    t_angle = float(np.angle(t))
    if region_is_empty(phi, k):
        raise EmptyRegionError(
            f"no interior point satisfies {phi.kind} membership with K = {k}"
        )
    seed = _seed_int(seed)
    bound = lemma_bound(phi, k)
    accepted = 0
    drawn = 0
    violations = 0
    best = []  # (ratio, z, t, lam) candidates, pruned to _WITNESSES
    max_draws = max(512 * n_samples, 1 << 22)
    chunk_index = 0
    while accepted < n_samples:
        if drawn > max_draws:
            raise SamplingError(
                f"admissible radii too rare: {accepted} of {drawn} draws accepted"
            )
        rng = np.random.default_rng([seed, chunk_index])
        chunk_index += 1
        u = rng.uniform(0.0, 1.0, _DRAWS)
        psi_frac = rng.uniform(-1.0, 1.0, _DRAWS)
        zr = np.sqrt(rng.uniform(0.0, 1.0, _DRAWS))
        zth = rng.uniform(0.0, 2.0 * np.pi, _DRAWS)
        drawn += _DRAWS
        adm = (u > 0.0) & (phi(u) <= k * u * (1.0 + MEMBERSHIP_TOL))
        if not adm.any():
            continue
        u, psi_frac, zr, zth = u[adm], psi_frac[adm], zr[adm], zth[adm]
        take = min(u.size, n_samples - accepted)
        u, psi_frac, zr, zth = u[:take], psi_frac[:take], zr[:take], zth[:take]
        psi = psi_frac * angular_halfwidth(phi, k, u)
        lam = (1.0 - u) * np.exp(1j * (t_angle + psi))
        z = zr * np.exp(1j * zth)
        lhs = lemma_lhs(z, t, lam, phi)
        ratio = lhs / bound
        violations += int(np.count_nonzero(lhs > bound * (1.0 + _CLOSED_RTOL)))
        top = np.argsort(ratio)[-_WITNESSES:]
        best.extend(_witness(ratio[i], z[i], t, lam[i]) for i in top)
        best.sort(key=lambda w: -w["ratio"])
        best = best[:_WITNESSES]
        accepted += take
    return BoundReport(
        samples=accepted,
        violations=violations,
        worst_ratio=best[0]["ratio"] if best else 0.0,
        worst_witness=best[0] if best else None,
        worst_k=best,
    )


# ---------------------------------------------------------------------------
# the derivative bound


class _LazyDerivative:
    """|B'| at the points z, evaluated only where asked, with the bits of one full pass.

    `vals` holds |B'| where `done`, else 0: a point's |B'| has the same bits
    in every call (see _factor_blocks). `ceiling` bounds each computed |B'|:
    the Schwarz-Pick bound at first, which `tighten` lowers to the factor-sum
    bound where asked.
    """

    def __init__(self, product, z):
        self._product, self._z = product, z
        self._cols = _block_width(product.degree)
        self.vals = np.zeros(z.size)
        self.done = np.zeros(z.size, dtype=bool)
        # |B'(z)| <= (1 - |B(z)|^2)/(1 - |z|^2) <= 1/(1 - |z|^2). The computed
        # 1 - |z|^2 is off by under 2 eps, so minus 4 eps (exact) it is under
        # the true one where positive. The factor pass has each b_k and
        # h_k = b_k'/b_k to 9u/g_k + 8u relative (u = eps/2, g_k = 1 - |a_k|, as
        # 1/conj(a_k) and 1 - |a_k|^2 lose digits next to the circle), and the
        # product and sum add (n + 1)u; as |B h_k| <= |b_k'| <= 1/(1 - |z|^2), the
        # computed |B'| is under (1 + 8 eps (n^2 + sum_k 1/g_k))/(1 - |z|^2) to
        # first order. The 2^-20 covers the rest. A zero under 2^-256 in modulus
        # can take the pass into subnormals (B H may come out nan), where none of
        # this holds: no point is skipped then.
        eps = np.finfo(float).eps
        moduli = product.zeros.moduli
        slack = 2.0 ** -20 + 8.0 * eps * (moduli.size ** 2 + np.sum(1.0 / product.zeros.gaps))
        room = 1.0 - (z.real ** 2 + z.imag ** 2) - 4.0 * eps
        with np.errstate(divide="ignore"):
            self.ceiling = np.where((room > 0.0) & (moduli.min() >= 2.0 ** -256),
                                    (1.0 + slack) / room, np.inf)
        # The same terms give |B'| <= sum_k |B h_k| <= S = sum_k s_k, with
        # s_k = |b_k'| = (1 - |a_k|^2)/|1 - conj(a_k) z|^2, so the computed |B'|
        # is under (1 + slack) S. Each computed s_k is off by under 12u/g_k + 4u,
        # as 1 - |a_k|^2 and 1 - conj(a_k) z lose digits next to the circle
        # (|1 - conj(a_k) z| >= g_k), and the sum of positive terms adds (n - 1)u:
        # so S is under (1 + slack) times the computed one. Points of infinite
        # ceiling keep it.
        self._tight = ~np.isfinite(self.ceiling)
        self._conj = np.conj(product.zeros.zeros)[:, None]
        self._gap2 = (1.0 - moduli ** 2)[:, None]
        self._scale = (1.0 + slack) ** 2

    def tighten(self, idx):
        """Lower the ceiling at the points idx to (1 + slack)^2 S where that is lower."""
        idx = idx[~self._tight[idx]]
        self._tight[idx] = True
        for lo in range(0, idx.size, self._cols):
            blk = idx[lo:lo + self._cols]
            w = self._conj * self._z[None, blk]
            s = (self._gap2 / ((1.0 - w.real) ** 2 + w.imag ** 2)).sum(axis=0)
            self.ceiling[blk] = np.minimum(self.ceiling[blk], self._scale * s)

    def evaluate(self, idx):
        idx = idx[~self.done[idx]]
        if idx.size:
            self.vals[idx] = np.abs(self._product.derivative(self._z[idx]))
            self.done[idx] = True

    def descend(self, idx, key, score):
        """Make the largest score(i) over the points idx exact, where key(c, i)
        bounds score(i) given a ceiling c on |B'| there and grows with c:
        take the points in decreasing order of key at the Schwarz-Pick ceiling,
        a block at a time, tighten the block's ceilings and evaluate those
        whose key still reaches the largest score found, until no key left
        reaches it (ties included, so the first point of largest score is
        among those evaluated). With nothing evaluated yet, the points of top
        tightened key among those of top key give a first largest score, and
        only the points whose key reaches it are sorted."""
        done = self.done[idx]
        best = float(np.max(score(idx[done]))) if done.any() else -np.inf
        idx = idx[~done]
        neg = -key(self.ceiling[idx], idx)
        if best == -np.inf and idx.size > _DESCENT_MAX:
            top = np.argpartition(neg, _DESCENT_MAX)[:_DESCENT_MAX]
            self.tighten(idx[top])
            tight = -key(self.ceiling[idx[top]], idx[top])
            top = top[np.argpartition(tight, _DESCENT_MIN)[:_DESCENT_MIN]]
            self.evaluate(idx[top])
            best = max(best, float(np.max(score(idx[top]))))
            rest = neg <= -best
            rest[top] = False
            idx, neg = idx[rest], neg[rest]
        order = np.argsort(neg)
        idx, neg = idx[order], neg[order]  # ascends
        pos, width = 0, _DESCENT_MIN
        while pos < (end := np.searchsorted(neg, -best, side="right")):  # first key < best
            blk = idx[pos:min(end, pos + width)]
            pos, width = pos + blk.size, min(2 * width, _DESCENT_MAX)
            self.tighten(blk)
            blk = blk[key(self.ceiling[blk], blk) >= best]
            if blk.size:
                self.evaluate(blk)
                best = max(best, float(np.max(score(blk))))


def _theorem_rhs(product, z, spec, check_zeros):
    """z and the right side of the derivative bound there, after theorem_bound's checks."""
    if check_zeros:
        member = in_stolz(product.zeros.zeros, spec)
        if not np.all(member):
            k = int(np.flatnonzero(~member)[0])
            raise DomainError(
                f"zero #{k} = {complex(product.zeros.zeros[k])} lies outside the region"
            )
    z = _as_complex(z)
    _require(np.abs(z) < 1.0, "the derivative bound is checked strictly inside the disk")
    gauge = spec.phi(spec.boundary.distance(z) / 6.0)
    const = 2.0 * lemma_bound(spec.phi, spec.k_const) ** 2 * product.zeros.alpha
    with np.errstate(divide="ignore", over="ignore"):
        rhs = np.where(gauge > 0.0, const / np.asarray(gauge) ** 2, np.inf)
    return z, rhs


def theorem_bound(product, z, spec, check_zeros=True):
    """(|B'(z)|, 2 (2C+K)^2 sum(1-|z_n|) / phi(d(z,E)/6)^2) for |z| < 1.

    Every zero must lie in the region for the bound to apply; membership is
    verified unless the caller vouches with check_zeros=False. Where phi
    vanishes (z on E, exp-tangential gauges) the right side is +inf and the
    inequality holds vacuously.
    """
    product = _as_product(product)
    z, rhs = _theorem_rhs(product, z, spec, check_zeros)
    lhs = np.abs(product.derivative(z))
    return _result(lhs, z), _result(rhs, z)


def _ratio(lhs, rhs):
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(rhs), 0.0, lhs / rhs)


def theorem_check(product, z, spec, check_zeros=True):
    """Violation count and worst ratio of the derivative bound over points z.

    The report is the one of evaluating |B'| at every point, to the bit
    (witness: the first point of largest ratio), but |B'| is evaluated only
    where a ceiling on it exceeds rhs (1 + _THEOREM_RTOL), since nowhere else
    can the bound fail, and then in decreasing order of ceiling / rhs until
    no ceiling left reaches the worst ratio found. The ceiling is the
    Schwarz-Pick bound, lowered to the factor sum sum_k |b_k'| only at the
    points the former lets through. A point where rhs is infinite has ratio 0
    and is never needed.
    """
    _require(np.size(z) > 0, "empty point array")
    product = _as_product(product)
    z, rhs = _theorem_rhs(product, z, spec, check_zeros)
    z, rhs = np.ravel(z), np.ravel(rhs)
    lazy = _LazyDerivative(product, z)
    live = np.flatnonzero(lazy.ceiling > rhs * (1.0 + _THEOREM_RTOL))
    lazy.tighten(live)
    lazy.evaluate(live[lazy.ceiling[live] > rhs[live] * (1.0 + _THEOREM_RTOL)])
    fin = np.flatnonzero(np.isfinite(rhs))
    lazy.descend(fin, lambda c, i: _ratio(c, rhs[i]), lambda i: _ratio(lazy.vals[i], rhs[i]))
    lhs = lazy.vals
    ratio = _ratio(lhs, rhs)
    worst = int(np.argmax(ratio))
    lazy.evaluate(np.array([worst]))  # unevaluated only when every ratio is 0
    witness = {"ratio": float(ratio[worst]), "z": complex(z[worst]),
               "lhs": float(lhs[worst]), "rhs": float(rhs[worst])}
    return BoundReport(
        samples=int(lhs.size),
        violations=int(np.count_nonzero(lhs > rhs * (1.0 + _THEOREM_RTOL))),
        worst_ratio=float(ratio[worst]),
        worst_witness=witness,
    )


# ---------------------------------------------------------------------------
# envelope fitting for the growth class


@dataclass(frozen=True)
class EnvelopeFit:
    """|f(z)| <= c1 exp(c2 / d(z,E)^rho), tight on the fitting grid."""

    c1: float
    c2: float
    rho: float
    grid_size: int

    def envelope(self, d):
        """Envelope value at boundary distance d > 0."""
        d = np.asarray(d, dtype=np.float64)
        _require(d > 0.0, "envelope needs positive boundary distance")
        # +inf is the honest value hard against E (d**rho may underflow to 0)
        with np.errstate(over="ignore", divide="ignore"):
            return _result(self.c1 * np.exp(self.c2 / d ** self.rho), d)


def envelope_fit(product, boundary_set, rho, grid):
    """Fit the smallest grid-supported (c1, c2) envelope for |B'|.

    c1 caps |B'| on the grid points far from E (d >= 1/2); c2 is the largest
    d^rho log+(|B'|/c1) over the whole grid, so the envelope inequality holds
    on every grid point off E by construction. A grid point on E (d = 0) is
    vacuous, as the envelope holds only for d > 0: it adds 0 to c2 and is
    never far. The distances to E are computed once, here. Both are the exact
    grid maxima, to the bit, yet |B'| is evaluated only where it can set
    them: at the far points in decreasing order of a ceiling on |B'|, until
    no ceiling left reaches the largest |B'| found, then at the others in
    decreasing order of that ceiling's d^rho log+(ceiling/c1), until none
    left reaches the largest term found. No skipped point can exceed either.
    The ceiling is the Schwarz-Pick bound, lowered to the factor sum
    sum_k |b_k'| only at the points the former lets through.
    """
    product = _as_product(product)
    rho = float(rho)
    if not 0.0 < rho < np.inf:
        raise DomainError("rho must be positive and finite")
    grid = _as_complex(grid).ravel()
    if grid.size == 0:
        raise DomainError("empty fitting grid")
    _require(np.abs(grid) <= 1.0 + 1e-15, "grid must lie in the closed unit disk")
    d = boundary_set.distance(grid)
    far = d >= 0.5
    if not far.any():
        raise DomainError("grid has no points with d(z, E) >= 1/2 to anchor c1")
    lazy = _LazyDerivative(product, grid)
    vals, pw = lazy.vals, d ** rho

    def gain(v, pw):  # d^rho log+(|B'|/c1)
        with np.errstate(divide="ignore"):
            return pw * np.maximum(np.log(v / c1, where=v > 0, out=np.full_like(v, -np.inf)), 0.0)

    def bound(c, i):  # gain at a ceiling c > 0; nan (0 * inf) bounds nothing
        with np.errstate(invalid="ignore"):
            g = pw[i] * np.log(np.maximum(c / c1, 1.0))
        return np.where(np.isnan(g), np.inf, g)

    far, near = np.flatnonzero(far), np.flatnonzero(~far & (d > 0.0))
    lazy.descend(far, lambda c, i: c, lambda i: vals[i])
    c1 = float(np.max(vals[far]))
    near = near[lazy.ceiling[near] > c1]  # c2 >= 0 already, from the far points
    lazy.descend(near, bound, lambda i: gain(vals[i], pw[i]))
    # a skipped point's term is 0, which max(c2, 0) covers
    done = np.flatnonzero(lazy.done)
    c2 = float(np.max(gain(vals[done], pw[done])))
    return EnvelopeFit(c1=c1, c2=max(c2, 0.0), rho=rho, grid_size=int(grid.size))


def envelope_grid(boundary_set, depth=14, rays=12, ring=64):
    """Deterministic fitting grid biased toward the boundary set.

    Anchor angles are the set's points, arc endpoints and arc midpoints; each
    anchor sprouts dyadic angular offsets 2^-m (m < rays) on both sides plus
    the anchor itself, sampled at radii 1 - 2^-j (j = 1..depth). A uniform
    ring at radius 1/4 guarantees far points for the c1 anchor. Refining
    `depth` and `rays` extends the grid toward E without moving old points.
    From depth 52 up the radii come within a few ulps of the circle, and
    points over E may come out at distance 0: envelope_fit, which computes
    the distances, treats those as vacuous.
    """
    depth, rays, ring = _whole(depth, "depth"), _whole(rays, "rays"), _whole(ring, "ring")
    for count, name in ((depth, "depth"), (rays, "rays"), (ring, "ring")):
        _require(count >= 0, f"{name} must be nonnegative, got {count}")
    anchors = list(np.atleast_1d(boundary_set.point_angles))
    for a, b in boundary_set.segments:
        anchors.extend((a, b, (a + b) / 2.0))
    offs = [0.0]
    for m in range(rays):
        offs.extend((2.0 ** -m, -(2.0 ** -m)))
    angles = (np.asarray(anchors)[:, None] + np.asarray(offs)).ravel()
    radii = 1.0 - 0.5 ** np.arange(1, depth + 1)
    pts = (radii[:, None] * np.exp(1j * angles[None, :])).ravel()
    ring_pts = 0.25 * np.exp(2j * np.pi * np.arange(ring) / ring)
    return np.concatenate([pts, ring_pts])
