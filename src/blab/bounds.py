"""Sampling checks for the derivative bound and the inequalities feeding it.

Every check here states an inequality that is mathematically exact; what the
functions add is bookkeeping (violation counts, worst observed ratios,
witnesses) and honest tolerances separating closed-form arithmetic (relative
slack 1e-12, absolute 1e-14 near zero) from anything fed by quadrature or
root finding (1e-9). A reported violation therefore means a genuine defect
in the surrounding code, never an expected numerical artifact.

Sampling is chunked with one RNG stream per chunk index, so reports are
reproducible and independent of how chunks would be distributed across
workers.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EmptyRegionError, SamplingError
from .products import _BLOCK, _as_product, _factor_blocks
from .regions import MEMBERSHIP_TOL, _seed_int, angular_halfwidth, in_stolz, region_is_empty

_DRAWS = 4096  # draws per RNG stream of the lemma sampler
_UNIT_TOL = 1e-9  # |t| = 1 validated to this
_FIT_BLOCK = 4096  # grid points per derivative call of envelope_fit's pruned pass


def _as_complex(z):
    return np.asarray(z, dtype=np.complex128)


def _check_unit(t):
    t = _as_complex(t)
    if np.any(np.abs(np.abs(t) - 1.0) > _UNIT_TOL):
        raise DomainError("t must lie on the unit circle")
    return t


def _scalarize(vals, scalar):
    return float(np.asarray(vals)[()]) if scalar else vals


# ---------------------------------------------------------------------------
# pointwise inequalities


def three_point_check(phi, x, y, u, tol=1e-14):
    """phi((x+y+u)/3) <= phi(x) + phi(y) + phi(u), up to absolute slack.

    True for any nondecreasing phi: the average is at most max(x, y, u).
    """
    x, y, u = (np.asarray(v, dtype=np.float64) for v in (x, y, u))
    scalar = x.ndim == 0 and y.ndim == 0 and u.ndim == 0
    if np.any(x < 0.0) or np.any(y < 0.0) or np.any(u < 0.0):
        raise DomainError("three_point_check needs nonnegative arguments")
    ok = phi((x + y + u) / 3.0) <= phi(x) + phi(y) + phi(u) + tol
    return bool(np.asarray(ok)[()]) if scalar else ok


def chord_check(z, lam, t, tol=1e-14):
    """|t - z| <= 2 |t - z |lam|| for |z| < 1, |lam| < 1, |t| = 1."""
    z, lam = _as_complex(z), _as_complex(lam)
    t = _check_unit(t)
    scalar = z.ndim == 0 and lam.ndim == 0 and t.ndim == 0
    if np.any(np.abs(z) >= 1.0) or np.any(np.abs(lam) >= 1.0):
        raise DomainError("z and lam must lie strictly inside the disk")
    ok = np.abs(t - z) <= 2.0 * np.abs(t - z * np.abs(lam)) + tol
    return bool(np.asarray(ok)[()]) if scalar else ok


def lemma_lhs(z, t, lam, phi):
    """phi(|t - z |lam|| / 3) / |1 - conj(lam) z|.

    The quantity bounded by 2 C_phi + K whenever lam sits in the vertex
    region at t with aperture K.
    """
    z, lam = _as_complex(z), _as_complex(lam)
    t = _check_unit(t)
    scalar = z.ndim == 0 and t.ndim == 0 and lam.ndim == 0
    if np.any(np.abs(z) > 1.0 + 1e-15):
        raise DomainError("z must lie in the closed unit disk")
    if np.any(np.abs(lam) >= 1.0):
        raise DomainError("lam must lie strictly inside the disk")
    vals = phi(np.abs(t - z * np.abs(lam)) / 3.0) / np.abs(1.0 - np.conj(lam) * z)
    return _scalarize(vals, scalar)


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
    scalar = z.ndim == 0
    if np.any(np.abs(z) >= 1.0):
        raise DomainError("the hyperbolic-derivative bound needs |z| < 1")
    flat = z.ravel()
    acc = np.empty(flat.shape, dtype=np.float64)
    sq = product.zeros.moduli[:, None] ** 2
    for sl, d, r in _factor_blocks(product.zeros.zeros, flat):
        inv = np.abs(r) ** 2 / sq  # 1 / |1 - conj(a) z|^2
        terms = (1.0 - sq) * inv
        # each term carries prod_{m<n} |b_m|^2 = prod_{m<n} |d_m|^2 inv_m
        terms[1:] *= np.cumprod(np.abs(d[:-1]) ** 2 * inv[:-1], axis=0)
        acc[sl] = terms.sum(axis=0)
    vals = acc.reshape(z.shape)
    return _scalarize(vals, scalar)


def schwarz_pick_check(product, z, rtol=1e-12):
    """|B'(z)| <= (1 - |B(z)|^2)/(1 - |z|^2), with relative slack."""
    product = _as_product(product)
    z = _as_complex(z)
    scalar = z.ndim == 0
    lhs = np.abs(product.derivative(z))
    rhs = schwarz_pick_bound(product, z)
    ok = lhs <= rhs * (1.0 + rtol)
    return bool(np.asarray(ok)[()]) if scalar else ok


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


def lemma_check(spec, n_samples, seed, rtol=1e-12, keep=10):
    """Sample (z, lam) with lam in the vertex region; verify the 2C+K bound.

    lam radii come from rejection on the admissibility condition
    phi(u) <= K u, angles uniform in the exact angular window at each
    admissible radius; z is uniform on the disk. Report counts violations of
    lemma_lhs <= (2C+K)(1+rtol) and keeps the worst `keep` witnesses.
    """
    n_samples = int(n_samples)
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
    best = []  # (ratio, z, t, lam) candidates, pruned to `keep`
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
        violations += int(np.count_nonzero(lhs > bound * (1.0 + rtol)))
        top = np.argsort(ratio)[-keep:]
        best.extend(_witness(ratio[i], z[i], t, lam[i]) for i in top)
        best.sort(key=lambda w: -w["ratio"])
        best = best[:keep]
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


def theorem_bound(product, z, spec, check_zeros=True):
    """(|B'(z)|, 2 (2C+K)^2 sum(1-|z_n|) / phi(d(z,E)/6)^2) for |z| < 1.

    Every zero must lie in the region for the bound to apply; membership is
    verified unless the caller vouches with check_zeros=False. Where phi
    vanishes (z on E, exp-tangential gauges) the right side is +inf and the
    inequality holds vacuously.
    """
    product = _as_product(product)
    if check_zeros:
        member = in_stolz(product.zeros.zeros, spec)
        if not np.all(member):
            k = int(np.flatnonzero(~member)[0])
            raise DomainError(
                f"zero #{k} = {complex(product.zeros.zeros[k])} lies outside the region"
            )
    z = _as_complex(z)
    scalar = z.ndim == 0
    if np.any(np.abs(z) >= 1.0):
        raise DomainError("the derivative bound is checked strictly inside the disk")
    lhs = np.abs(product.derivative(z))
    gauge = spec.phi(spec.boundary.distance(z) / 6.0)
    const = 2.0 * lemma_bound(spec.phi, spec.k_const) ** 2 * product.zeros.alpha
    with np.errstate(divide="ignore", over="ignore"):
        rhs = np.where(gauge > 0.0, const / np.asarray(gauge) ** 2, np.inf)
    return _scalarize(lhs, scalar), _scalarize(rhs, scalar)


def theorem_check(product, z, spec, rtol=1e-9, check_zeros=True):
    """Violation count and worst ratio of the derivative bound over points z."""
    lhs, rhs = theorem_bound(product, z, spec, check_zeros=check_zeros)
    lhs = np.atleast_1d(np.asarray(lhs))
    rhs = np.atleast_1d(np.asarray(rhs))
    zv = np.atleast_1d(_as_complex(z))
    with np.errstate(invalid="ignore"):
        ratio = np.where(np.isinf(rhs), 0.0, lhs / rhs)
    bad = lhs > rhs * (1.0 + rtol)
    worst = int(np.argmax(ratio))
    witness = {
        "ratio": float(ratio[worst]),
        "z": complex(zv[worst]),
        "lhs": float(lhs[worst]),
        "rhs": float(rhs[worst]),
    }
    return BoundReport(
        samples=int(lhs.size),
        violations=int(np.count_nonzero(bad)),
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
        scalar = d.ndim == 0
        if np.any(d <= 0.0):
            raise DomainError("envelope needs positive boundary distance")
        # +inf is the honest value hard against E (d**rho may underflow to 0)
        with np.errstate(over="ignore", divide="ignore"):
            vals = self.c1 * np.exp(self.c2 / d ** self.rho)
        return _scalarize(vals, scalar)


def envelope_fit(product, boundary_set, rho, grid):
    """Fit the smallest grid-supported (c1, c2) envelope for |B'|.

    c1 caps |B'| on the grid points far from E (d >= 1/2); c2 is the largest
    d^rho log+(|B'|/c1) over the whole grid, so the envelope inequality holds
    on every grid point by construction. Both are the exact grid maxima, to
    the bit, yet |B'| is evaluated only at the far points and then at the
    others in decreasing order of their Schwarz-Pick bound on d^rho log+(|B'|/c1),
    until no bound left exceeds the largest term found: no skipped term can.
    """
    product = _as_product(product)
    rho = float(rho)
    if rho <= 0.0:
        raise DomainError("rho must be positive")
    grid = _as_complex(grid).ravel()
    if grid.size == 0:
        raise DomainError("empty fitting grid")
    if np.any(np.abs(grid) > 1.0 + 1e-15):
        raise DomainError("grid must lie in the closed unit disk")
    d = boundary_set.distance(grid)
    if np.any(d <= 0.0):
        raise DomainError("grid touches the boundary set")
    far = d >= 0.5
    if not far.any():
        raise DomainError("grid has no points with d(z, E) >= 1/2 to anchor c1")
    vals = np.zeros(grid.size)  # |B'| where evaluated; a skipped point's 0 adds 0 to c2
    cols = max(1, _BLOCK // product.degree)
    # a point alone in a factor block may take other bits (see _factor_blocks);
    # a full pass leaves only the last point so, where grid.size % cols == 1
    lone = int(grid.size % cols == 1)
    if lone:
        vals[-1] = np.abs(product.derivative(grid[-1:]))[0]

    def evaluate(idx):
        if idx.size % cols == 1:  # no point alone in the last block
            idx = np.append(idx, idx[-1])
        vals[idx] = np.abs(product.derivative(grid[idx]))

    def gain(v, pw):  # d^rho log+(|B'|/c1)
        with np.errstate(divide="ignore"):
            return pw * np.maximum(np.log(v / c1, where=v > 0, out=np.full_like(v, -np.inf)), 0.0)

    evaluate(np.flatnonzero(far[:grid.size - lone]))
    c1 = float(np.max(vals[far]))
    pw = d ** rho
    near = np.flatnonzero(~far[:grid.size - lone])
    # Schwarz-Pick: |B'(z)| <= (1 - |B(z)|^2)/(1 - |z|^2) <= 1/(1 - |z|^2). The
    # computed 1 - |z|^2 is off by under 2 eps, so minus 4 eps (exact) it is
    # under the true one where positive. The factor pass has each b_k and
    # h_k = b_k'/b_k to 9u/g_k + 8u relative (u = eps/2, g_k = 1 - |a_k|, as
    # 1/conj(a_k) and 1 - |a_k|^2 lose digits next to the circle), and the
    # product and sum add (n + 1)u; as |B h_k| <= |b_k'| <= 1/(1 - |z|^2), the
    # computed |B'| is under (1 + 8 eps (n^2 + sum_k 1/g_k))/(1 - |z|^2) to first
    # order. The 2^-20 covers the rest, so no computed term exceeds its bound.
    eps = np.finfo(float).eps
    slack = 2.0 ** -20 + 8.0 * eps * (product.degree ** 2
                                      + np.sum(1.0 / (1.0 - product.zeros.moduli)))
    w = grid[near]
    room = 1.0 - (w.real ** 2 + w.imag ** 2) - 4.0 * eps
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = gain((1.0 + slack) / room, pw[near])
    bound = np.where((room > 0.0) & ~np.isnan(bound), bound, np.inf)  # nan: 0 * inf, c1 = 0
    order = np.argsort(-bound)
    near, key = near[order], -bound[order]  # key ascends: bounds in decreasing order
    c2, pos = 0.0, 0  # c2 of the far points: |B'| <= c1 there
    while pos < (end := np.searchsorted(key, -c2)):  # end: the first bound <= c2
        idx = near[pos:min(end, pos + _FIT_BLOCK)]
        evaluate(idx)
        c2 = max(c2, float(np.max(gain(vals[idx], pw[idx]))))
        pos += idx.size
    c2 = float(np.max(gain(vals, pw)))
    return EnvelopeFit(c1=c1, c2=max(c2, 0.0), rho=rho, grid_size=int(grid.size))


def envelope_grid(boundary_set, depth=14, rays=12, ring=64):
    """Deterministic fitting grid biased toward the boundary set.

    Anchor angles are the set's points, arc endpoints and arc midpoints; each
    anchor sprouts dyadic angular offsets 2^-m (m < rays) on both sides plus
    the anchor itself, sampled at radii 1 - 2^-j (j = 1..depth). A uniform
    ring at radius 1/4 guarantees far points for the c1 anchor. Refining
    `depth` and `rays` extends the grid toward E without moving old points.
    """
    anchors = list(np.atleast_1d(boundary_set.point_angles))
    for a, b in boundary_set.segments:
        anchors.extend((a, b, (a + b) / 2.0))
    if not anchors:
        raise DomainError("boundary set has no anchors")
    offs = [0.0]
    for m in range(int(rays)):
        offs.extend((2.0 ** -m, -(2.0 ** -m)))
    angles = np.asarray([a + o for a in anchors for o in offs])
    radii = 1.0 - 0.5 ** np.arange(1, int(depth) + 1)
    pts = (radii[:, None] * np.exp(1j * angles[None, :])).ravel()
    ring_pts = 0.25 * np.exp(2j * np.pi * np.arange(int(ring)) / int(ring))
    grid = np.concatenate([pts, ring_pts])
    d = boundary_set.distance(grid)
    return grid[d > 0.0]
