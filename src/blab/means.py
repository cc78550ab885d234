"""Hardy and Bergman integral means of B' at desk scale.

Membership of B' in H^p or A^p is a statement about infinite products and
suprema over r; here it is operationalized as growth of means across finite
truncations. Quadrature is validated by node doubling on every call: the
periodic trapezoid rule converges spectrally for the smooth integrands at
hand, so a doubling disagreement above 1e-4 relative signals an
under-resolved circle (too few nodes for the degree and radius), not a
subtle accuracy loss. The quality target is 1e-6.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError
from .products import _as_product

_DOUBLING_GATE = 1e-4
_DOUBLING_TARGET = 1e-6
# Node budget of automatic doubling: another doubling runs only while 4x the
# node count of the current coarse pass is within the cap. That keeps every
# Hardy pass within it (explicit node counts aside), but a Bergman pass,
# which doubles both the radial and the angular count, can reach 4x the cap.
_NODE_CAP = 1 << 21


def _circle_mean_p(product, p, r, nodes):
    theta = np.linspace(0.0, 2.0 * np.pi, int(nodes), endpoint=False)
    vals = np.abs(product.derivative(r * np.exp(1j * theta)))
    return float(np.mean(vals ** p))


def _doubled(rule, counts, auto, what, where=""):
    """rule(*counts) validated by doubling every node count, at the finest pass run.

    With auto set, the counts keep doubling until two passes agree to 1e-6
    relative or 4x the coarse pass's node count (the product of `counts`)
    exceeds the node cap; otherwise one doubling decides. A last disagreement
    above 1e-4 is a resolution failure, naming the `what` that moved.
    """
    coarse = rule(*counts)
    while True:
        fine = rule(*(2 * c for c in counts))
        rel = abs(fine - coarse) / max(abs(fine), np.finfo(float).tiny)
        if not auto or rel <= _DOUBLING_TARGET or 4 * math.prod(counts) > _NODE_CAP:
            break
        counts = [2 * c for c in counts]
        coarse = fine
    if rel > _DOUBLING_GATE:
        raise ResolutionError(
            f"node doubling moved the {what} by {rel:.3g} relative{where}; increase nodes"
        )
    return fine


def default_hardy_nodes(degree, r):
    """Smallest sane node count: 64, 16 per degree, and degree/(1-r) near the rim."""
    base = max(64, 16 * int(degree))
    if r > 0.0:
        base = max(base, int(np.ceil(degree / (1.0 - r))))
    return base


def hardy_mean(product, p, r, nodes=None):
    """(1/2pi integral |B'(r e^{i theta})|^p dtheta)^(1/p), doubling-validated.

    r = 0 collapses to |B'(0)|. With nodes unset, the count starts at the
    degree-and-radius default and doubles until the validation step moves the
    mean by under 1e-6 relative (|B'|^p has cusps at critical points for
    p < 1, which slow the trapezoid rule from spectral to algebraic); a
    default whose doubled pass would exceed the node cap is a resolution
    failure before any evaluation. Explicit node counts are honored as
    given. The returned value is the doubled-node one; disagreement above
    1e-4 is a resolution failure.
    """
    product = _as_product(product)
    p, r = float(p), float(r)
    if p <= 0.0:
        raise DomainError("exponent p must be positive")
    if not 0.0 <= r < 1.0:
        raise DomainError("radius must lie in [0, 1)")
    if r == 0.0:
        return float(abs(product.derivative(0.0)))
    auto = nodes is None
    if auto:
        nodes = default_hardy_nodes(product.degree, r)
        if 2 * nodes > _NODE_CAP:
            raise ResolutionError(
                f"degree {product.degree} at r = {r} needs {nodes} nodes in the first "
                f"pass and twice that to validate, beyond the node cap {_NODE_CAP}"
            )
    nodes = int(nodes)
    if nodes < max(64, 16 * product.degree):
        raise DomainError(
            f"nodes = {nodes} under-resolves degree {product.degree}; "
            f"need at least {max(64, 16 * product.degree)}"
        )
    return _doubled(lambda n: _circle_mean_p(product, p, r, n) ** (1.0 / p),
                    [nodes], auto, "mean", f" at r = {r}")


def bergman_integral(product, p, radial_nodes=None, angular_nodes=None):
    """integral over the disk of |B'|^p dA (plain Lebesgue area), doubling-validated.

    Gauss-Legendre in radius against the weight r, periodic trapezoid in
    angle. For a degree-1 product at p = 2 the value is the area of the image
    disk, pi exactly.
    """
    product = _as_product(product)
    p = float(p)
    if p <= 0.0:
        raise DomainError("exponent p must be positive")
    auto = radial_nodes is None and angular_nodes is None

    def tensor(nr, na):
        x, w = np.polynomial.legendre.leggauss(nr)
        rr = 0.5 * (x + 1.0)
        ww = 0.5 * w
        theta = np.linspace(0.0, 2.0 * np.pi, na, endpoint=False)
        pts = rr[:, None] * np.exp(1j * theta)[None, :]
        vals = np.abs(product.derivative(pts.ravel())).reshape(pts.shape) ** p
        ang = vals.mean(axis=1) * 2.0 * np.pi
        return float(np.sum(ww * rr * ang))

    if radial_nodes is None:
        radial_nodes = max(64, 2 * product.degree)
    if angular_nodes is None:
        angular_nodes = max(64, 16 * product.degree)
    nr, na = int(radial_nodes), int(angular_nodes)
    if min(nr, na) < 64:
        raise DomainError("node counts must be at least 64")
    return _doubled(tensor, [nr, na], auto, "integral")


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


def hp_trend(family, p, truncations, r_grid, nodes=None):
    """Hardy means of B' across truncations of a zero family.

    family maps a truncation N to its first N zeros. One row per (N, r);
    growth of the per-N supremum over r across N is the trend read against
    the membership threshold.
    """
    p = float(p)
    rows = []
    for n in truncations:
        n = int(n)
        product = _as_product(family(n))
        if product.degree != n:
            raise DomainError(f"family returned {product.degree} zeros for N = {n}")
        for r in r_grid:
            rows.append((n, p, float(r), hardy_mean(product, p, float(r), nodes=nodes)))
    return MeansTable(rows)


def radial_geometric_family(ratio=0.5):
    """N -> zeros 1 - ratio^n, n = 1..N (radial approach inside a Stolz angle)."""
    ratio = float(ratio)
    if not 0.0 < ratio < 1.0:
        raise DomainError("ratio must lie in (0, 1)")

    def family(n):
        return 1.0 - ratio ** np.arange(1, int(n) + 1, dtype=np.float64) + 0.0j

    return family
