"""Finite Blaschke products: factors, evaluation, analytic and numerical derivatives.

Each zero a must satisfy 0 < |a| < 1. A factor carries the unimodular
normalization conj(a)/|a|, so the full product is positive at the origin.
Infinite products are handled through finite truncations; `truncation_tail`
certifies the cut-off error.

Every per-product quantity comes from one blocked pass over the factors
(`_factor_blocks`): with d = a - z and r = 1/(1/conj(a) - z) the factor is
d r / |a|, and the logarithmic derivative is
H = B'/B = sum ((|a|^2 - 1)/conj(a)) r / d, so B' = B H. Only at points
where B H is not finite (z equal to a zero, or next to a zero of tiny
modulus) does the derivative fall back to the leave-one-out product.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError, InvalidZeroError

# Evaluation points may poke past the circle by rounding only.
_EDGE_TOL = 1e-12

# Matrix entries (zeros x points) per block of the factor pass: the block
# temporaries stay within a 2 MB L2 cache.
_BLOCK = 1 << 14


# The argument convention of every scalar-or-array function in the package:
# a check states the condition that must hold (so that nan fails it), and a
# result is a Python scalar when every argument is 0-d, else an array.
def _require(ok, message):
    if not np.all(ok):
        raise DomainError(message)


def _whole(count, name):
    """count as an int; a fraction is refused, not dropped."""
    _require(float(count).is_integer(), f"{name} must be an integer, got {count}")
    return int(count)


def _result(values, *args):
    if all(np.ndim(a) == 0 for a in args):
        return np.asarray(values)[()].item()
    return values


def _require_closed_disk(arr):
    _require(np.abs(arr) <= 1.0 + _EDGE_TOL, "evaluation point lies outside the closed unit disk")


def _block_width(size):
    """Points per block against `size` zeros or nodes: _BLOCK entries, at least two points."""
    return max(2, _BLOCK // size)


def _factor_blocks(zeros, z, kernel):
    """kernel(d, r) on each block of the flat points z, joined along the last axis.

    d = a - z and r = 1/(1/conj(a) - z) have zeros along axis 0 and the
    block's points along axis 1; kernel reduces along axis 0. A block holds
    _block_width(degree) points, so the temporaries stay small, and never a
    point alone: a lone last point joins the block before it, and a single
    point runs as two copies of itself, of which the first is kept. numpy
    reduces a block of two or more points in zero order, whatever the other
    points, so every result at a point has the same bits in every call.
    """
    refl = 1.0 / np.conj(zeros)[:, None]
    cols = _block_width(zeros.size)
    pts = np.repeat(z, 2) if z.size == 1 else z
    ends, out = [*range(cols, pts.size - 1, cols), pts.size], None
    for lo, hi in zip([0, *ends], ends):
        q = pts[None, lo:hi]
        # d and r stay bound until the next block's are made: freed at once, the
        # heap top goes back to the system at every block and faults back in
        d, r = zeros[:, None] - q, 1.0 / (refl - q)
        part = kernel(d, r)
        out = np.empty(part.shape[:-1] + pts.shape, part.dtype) if out is None else out
        out[..., lo:hi] = part
    return out[..., :z.size]


def _validate_zero_array(arr):
    if arr.size == 0:
        return
    radii = np.abs(arr)
    # written as a negation so that a nan modulus fails it too
    bad = np.flatnonzero(~((radii > 0.0) & (radii < 1.0)))
    if bad.size:
        k = int(bad[0])
        raise InvalidZeroError(
            f"zero #{k} = {arr[k]} violates 0 < |z| < 1 (|z| = {radii[k]})"
        )


def blaschke_factor(z, zero):
    """Single normalized factor conj(a)/|a| * (a - z) / (1 - conj(a) z).

    Modulus is at most 1 on the closed disk and exactly 1 on the circle.
    At z = 0 the factor equals |a| > 0.
    """
    a = complex(zero)
    ra = abs(a)
    if not 0.0 < ra < 1.0:
        raise InvalidZeroError(f"zero {a} violates 0 < |z| < 1 (|z| = {ra})")
    arr = np.asarray(z, dtype=np.complex128)
    _require_closed_disk(arr)
    vals = (a.conjugate() / ra) * (a - arr) / (1.0 - a.conjugate() * arr)
    return _result(vals, arr)


def factor_derivative(z, zero):
    """Derivative of a single factor: conj(a)/|a| * (|a|^2 - 1) / (1 - conj(a) z)^2."""
    a = complex(zero)
    ra = abs(a)
    if not 0.0 < ra < 1.0:
        raise InvalidZeroError(f"zero {a} violates 0 < |z| < 1 (|z| = {ra})")
    arr = np.asarray(z, dtype=np.complex128)
    _require_closed_disk(arr)
    vals = (a.conjugate() / ra) * (ra * ra - 1.0) / (1.0 - a.conjugate() * arr) ** 2
    return _result(vals, arr)


class ZeroSequence:
    """Ordered finite list of zeros in the punctured open disk.

    The gaps 1 - |z_n| and their sum alpha are cached at construction. The
    arrays are frozen, so instances are safe to share across threads.
    An empty sequence is allowed (it represents a product tail that has been
    cut to nothing); building a BlaschkeProduct from it is not.
    """

    def __init__(self, zeros):
        arr = np.atleast_1d(np.asarray(zeros, dtype=np.complex128)).reshape(-1).copy()
        _validate_zero_array(arr)
        arr.flags.writeable = False
        self._zeros = arr
        self._moduli = np.abs(arr)
        self._moduli.flags.writeable = False
        self._gaps = 1.0 - self._moduli
        self._gaps.flags.writeable = False
        self._alpha = float(np.sum(self._gaps))

    @property
    def zeros(self):
        return self._zeros

    @property
    def moduli(self):
        return self._moduli

    @property
    def gaps(self):
        return self._gaps

    @property
    def alpha(self):
        return self._alpha

    def __len__(self):
        return int(self._zeros.size)

    def __iter__(self):
        return (complex(v) for v in self._zeros)

    def __getitem__(self, k):
        picked = self._zeros[k]
        if np.ndim(picked) == 0:
            return complex(picked)
        return ZeroSequence(picked)

    def __repr__(self):
        return f"ZeroSequence(n={len(self)}, alpha={self._alpha:.6g})"


def blaschke_sum(zeros):
    """Sum of gaps 1 - |z_n|; finite iff the product converges."""
    seq = zeros if isinstance(zeros, ZeroSequence) else ZeroSequence(zeros)
    return seq.alpha


def truncation_tail(tail, z):
    """Certified bound sum 2 (1 - |z_n|) / (1 - |z|) on the discarded tail.

    Bounds |1 - prod_tail b_n(z)| for |z| < 1. Unbounded as |z| -> 1, so the
    circle itself is rejected.
    """
    seq = tail if isinstance(tail, ZeroSequence) else ZeroSequence(tail)
    arr = np.asarray(z, dtype=np.complex128)
    _require(np.abs(arr) < 1.0, "point must lie strictly inside the unit disk")
    return _result(2.0 * seq.alpha / (1.0 - np.abs(arr)), arr)


class BlaschkeProduct:
    """Finite product of normalized Blaschke factors.

    |B(z)| <= 1 on the closed disk with equality on the circle, and every
    factor separately has modulus <= 1 there, so plain left-to-right
    multiplication cannot overflow and needs no rescaling. B(0) equals the
    product of the zero moduli and is strictly positive.
    """

    def __init__(self, zeros):
        seq = zeros if isinstance(zeros, ZeroSequence) else ZeroSequence(zeros)
        if len(seq) == 0:
            raise InvalidZeroError("degree-0 products are rejected; supply at least one zero")
        self._seq = seq

    @property
    def zeros(self):
        return self._seq

    @property
    def degree(self):
        return len(self._seq)

    def __call__(self, z):
        return self.evaluate(z)

    def evaluate(self, z):
        """Value of the product at z (scalar or array), |z| <= 1."""
        arr = np.asarray(z, dtype=np.complex128)
        _require_closed_disk(arr)
        inv = 1.0 / self._seq.moduli[:, None]
        out = _factor_blocks(self._seq.zeros, arr.reshape(-1),
                             lambda d, r: np.prod(d * r * inv, axis=0))
        return _result(out.reshape(arr.shape), arr)

    def derivative(self, z):
        """Analytic derivative B' = B H, with H = B'/B summed over the factors.

        Where B H is not finite (z on a zero of the product, or next to a
        zero of tiny modulus, where B underflows and H overflows), the
        leave-one-out sum over n of b_n'(z) prod_{m!=n} b_m(z) is used on
        those points only: at a simple zero a_k it is
        b_k'(a_k) prod_{j!=k} b_j(a_k), and at a repeated one exactly 0.
        """
        arr = np.asarray(z, dtype=np.complex128)
        _require_closed_disk(arr)
        flat = arr.reshape(-1)
        zeros = self._seq.zeros
        inv = 1.0 / self._seq.moduli[:, None]
        coef = (self._seq.moduli[:, None] ** 2 - 1.0) / np.conj(zeros)[:, None]

        def leave_one_out(d, r):
            fac, one = d * r * inv, np.ones_like(d[:1])  # b_n, and b_n' = coef_n r_n^2 / |a_n|
            before = np.cumprod(np.concatenate([one, fac[:-1]]), axis=0)
            after = np.cumprod(np.concatenate([one, fac[:0:-1]]), axis=0)[::-1]
            return (coef * r * r * inv * before * after).sum(axis=0)

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = _factor_blocks(zeros, flat, lambda d, r: np.prod(d * r * inv, axis=0)
                                 * (coef * r / d).sum(axis=0))
            bad = np.flatnonzero(~np.isfinite(out))
            if bad.size:
                out[bad] = _factor_blocks(zeros, flat[bad], leave_one_out)
        return _result(out.reshape(arr.shape), arr)

    def derivative_fd(self, z, h=1e-5):
        """Centered finite-difference derivative over two orthogonal directions.

        Cross-check only; needs |z| + h < 1 so all four stencil points stay
        inside the closed disk.
        """
        arr = np.atleast_1d(np.asarray(z, dtype=np.complex128))  # 0-d z: numpy's division too
        h = float(h)
        _require(h > 0.0, "finite-difference step must be positive")
        _require(np.abs(arr) + h < 1.0, "stencil reaches the unit circle; need |z| + h < 1")
        real = (self.evaluate(arr + h) - self.evaluate(arr - h)) / (2.0 * h)
        imag = (self.evaluate(arr + 1j * h) - self.evaluate(arr - 1j * h)) / (2j * h)
        return _result((real + imag) / 2.0, z)

    def __repr__(self):
        return f"BlaschkeProduct(degree={self.degree}, alpha={self._seq.alpha:.6g})"


def _as_product(product):
    """`product` itself if it is a BlaschkeProduct, else the product of those zeros."""
    return product if isinstance(product, BlaschkeProduct) else BlaschkeProduct(product)
