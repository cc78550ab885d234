"""Finite Blaschke products: factors, evaluation, analytic and numerical derivatives.

This module owns where a zero or a point may lie, for the whole package. A
zero a satisfies 0 < |a| < 1 by numpy's modulus: one rule (`_valid_moduli`, or
`_validate_zero_array` over an array) for ZeroSequence, the factor functions
and the zero sampler. A point is checked strictly inside (|z| < 1,
`_inside_disk`), in the closed disk (|z| <= 1 + _EDGE_TOL, `_in_closed_disk`)
or on the circle (||t| - 1| <= _UNIT_TOL, `_on_circle`), and a refusal names
the argument. A factor carries the unimodular normalization conj(a)/|a|, so
the full product is positive at the origin. Infinite products are handled
through finite truncations; `truncation_tail` certifies the cut-off error.

Every per-product quantity comes from one blocked pass over the factors
(`_factor_blocks`): with d = a - z and r = 1/(1/conj(a) - z) the factor is
d r / |a|, and the logarithmic derivative is
H = B'/B = sum ((|a|^2 - 1)/conj(a)) r / d, so B' = B H. Only at points
where B H is not finite (z equal to a zero, or next to a zero of tiny
modulus) does the derivative fall back to the leave-one-out product.
The Poisson map of `means` and the ceiling of `bounds` sum over zeros x
points on the same blocks (`_blocks`). The critical-point passes, whose
Aberth sweeps form the pole sums and the repulsion together, share their
blocks with a worker thread (`_split_blocks`) and form the fractions 1/d and
r of the factor pass (`_pole_fractions`) in buffers that each thread reuses.
"""
from __future__ import annotations

import os
import threading

import numpy as np

from .errors import DomainError, InvalidZeroError

# Evaluation points may poke past the circle by rounding only.
_EDGE_TOL = 1e-12
_UNIT_TOL = 1e-9  # |t| = 1 validated to this

# Matrix entries (zeros x points) per block of the factor pass: the block
# temporaries stay within a 2 MB L2 cache.
_BLOCK = 1 << 14

# A pass shares its blocks with one worker thread when two CPUs are
# usable and the second half of its blocks holds at least _SPLIT_ENTRIES
# entries (`_split_blocks`), so that a short last block alone is not handed
# off. Timed on whole solves: at n = 300 every threshold from 0 to 2^14 ran
# 1.3x faster than serial, while at n = 100 a threshold of 0 ran 1.2x slower
# and 2^13 or more ran as fast as serial.
_SPLIT_ENTRIES = 1 << 13
_pools = {}  # process id -> its worker pool, started on first use


# The argument convention of every scalar-or-array function in the package:
# a check states the condition that must hold (so that nan fails it), and a
# result is a Python scalar when every argument is 0-d, else an array.
def _require(ok, message):
    if not np.all(ok):
        raise DomainError(message)


def _whole(count, name):
    """count as an int; a fraction or a boolean is refused, not dropped."""
    _require(not isinstance(count, (bool, np.bool_)) and float(count).is_integer(),
             f"{name} must be an integer, got {count}")
    return int(count)


def _result(values, *args):
    if all(np.ndim(a) == 0 for a in args):
        return np.asarray(values)[()].item()
    return values


def _disk_check(z, name, ok, where):
    """z as a complex array and its moduli, after a DomainError naming z unless ok(|z|) holds."""
    arr = np.asarray(z, dtype=np.complex128)
    radii = np.abs(arr)
    _require(ok(radii), f"{name} must lie {where}")
    return arr, radii


def _inside_disk(z, name):
    return _disk_check(z, name, lambda r: r < 1.0, "strictly inside the unit disk")


def _in_closed_disk(z, name):
    return _disk_check(z, name, lambda r: r <= 1.0 + _EDGE_TOL, "in the closed unit disk")[0]


def _on_circle(t, name):
    return _disk_check(t, name, lambda r: np.abs(r - 1.0) <= _UNIT_TOL, "on the unit circle")[0]


def _block_width(size):
    """Points per block against `size` zeros or nodes: _BLOCK entries, at least two points."""
    return max(2, _BLOCK // size)


def _blocks(size, count):
    """Index blocks of `count` points against `size` zeros or nodes: the one block rule.

    Slices of _block_width(size) points; a lone last point joins the block before it,
    and a single point runs as [0, 0], two copies of itself. No block holds a point
    alone, so numpy sums each in zero order and a sum over the zeros at a point has the
    same bits in every call. No points give one empty block, which fixes a kernel's shape.
    """
    if count == 1:
        return [np.zeros(2, dtype=np.intp)]
    cols = _block_width(size)
    ends = [*range(cols, count - 1, cols), count]
    return [slice(lo, hi) for lo, hi in zip([0, *ends], ends)]


def _usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _pool():
    """This process's worker pool: `import blab` starts no thread, and a forked
    child, which has none of its parent's threads, starts its own."""
    pool = _pools.get(os.getpid())
    if pool is None:
        from concurrent.futures import ThreadPoolExecutor  # loaded at the first split only
        pool = _pools.setdefault(os.getpid(), ThreadPoolExecutor(1))
    return pool


def _split_blocks(size, count, run):
    """run(blocks, cols) on the `_blocks` of `count` points against `size` zeros or partners.

    No block holds more than cols points, so that run allocates its block
    buffers once and fills them with numpy's out=. With two usable CPUs and
    at least _SPLIT_ENTRIES entries in the second half of the blocks, the
    caller and the worker both run, taking blocks in turn from one shared
    iterator (`_Claims`), so a worker that starts late or is held up by other
    load takes fewer. The worker runs under the caller's numpy error state,
    handed over explicitly (numpy 1.x keeps it per thread, numpy 2.x per
    context), and an error on either side is raised here once both are done.
    run writes each block's columns alone, and a block sums in the same order
    on either thread, so the bits do not depend on the split.
    """
    blocks, cols = _blocks(size, count), min(count, _block_width(size)) + 1
    half = len(blocks) // 2
    if not half or size * (count - blocks[half].start) < _SPLIT_ENTRIES or _usable_cpus() < 2:
        run(blocks, cols)
        return
    claims = _Claims(blocks)
    theirs = _pool().submit(_run_under, np.geterr(), np.geterrcall(), run, claims, cols)
    try:
        run(claims, cols)
    finally:
        if not theirs.cancel():  # a worker that has not started has nothing left to take
            theirs.result()


def _run_under(state, call, run, blocks, cols):
    with np.errstate(call=call, **state):
        run(blocks, cols)


class _Claims:
    """An iterator over blocks that threads share: each block goes to one thread."""

    def __init__(self, blocks):
        self._blocks, self._lock = iter(blocks), threading.Lock()

    def __iter__(self):
        return self

    def __next__(self):
        with self._lock:
            return next(self._blocks)


def _pole_fractions(poles, q, out=None):
    """1/(p - q) for poles p along the leading axes and the points q of a block.

    The factor pass's fraction: r at the reflected zeros 1/conj(a), and 1/d
    at the zeros themselves. out, when given, holds the differences first.
    """
    return np.divide(1.0, np.subtract(poles, q, out=out), out=out)


def _factor_blocks(zeros, z, kernel):
    """kernel(d, r) on each of the `_blocks` of the flat points z, joined along the last axis.

    d = a - z and r = 1/(1/conj(a) - z) have zeros along axis 0 and the
    block's points along axis 1; kernel reduces along axis 0.
    """
    refl, out = 1.0 / np.conj(zeros)[:, None], None
    for blk in _blocks(zeros.size, z.size):
        q = z[None, blk]
        # d and r stay bound until the next block's are made: freed at once, the
        # heap top goes back to the system at every block and faults back in
        d, r = zeros[:, None] - q, _pole_fractions(refl, q)
        part = kernel(d, r)
        out = np.empty(part.shape[:-1] + z.shape, part.dtype) if out is None else out
        out[..., blk] = part
    return out


def _valid_moduli(radii):
    """The zero rule 0 < |a| < 1 as a mask over moduli; a nan modulus fails it."""
    return (radii > 0.0) & (radii < 1.0)


def _validate_zero_array(arr):
    """The moduli np.abs(arr) of the zeros arr, after an InvalidZeroError naming the first bad one."""
    radii = np.abs(arr)
    bad = np.flatnonzero(~_valid_moduli(radii))
    if bad.size:
        k = int(bad[0])
        raise InvalidZeroError(f"zero #{k} = {arr[k]} violates 0 < |z| < 1 (|z| = {radii[k]})")
    return radii


def _factor_zero(zero):
    """A factor's zero as a complex and its modulus, after the zero rule."""
    a = complex(zero)
    ra = float(np.abs(a))
    if not _valid_moduli(ra):
        raise InvalidZeroError(f"zero {a} violates 0 < |z| < 1 (|z| = {ra})")
    return a, ra


def blaschke_factor(z, zero):
    """Single normalized factor conj(a)/|a| * (a - z) / (1 - conj(a) z).

    Modulus is at most 1 on the closed disk and exactly 1 on the circle.
    At z = 0 the factor equals |a| > 0.
    """
    a, ra = _factor_zero(zero)
    arr = _in_closed_disk(z, "z")
    vals = (a.conjugate() / ra) * (a - arr) / (1.0 - a.conjugate() * arr)
    return _result(vals, arr)


def factor_derivative(z, zero):
    """Derivative of a single factor: conj(a)/|a| * (|a|^2 - 1) / (1 - conj(a) z)^2."""
    a, ra = _factor_zero(zero)
    arr = _in_closed_disk(z, "z")
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
        self._moduli = _validate_zero_array(arr)
        arr.flags.writeable = False
        self._zeros = arr
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
    arr, radii = _inside_disk(z, "z")
    return _result(2.0 * seq.alpha / (1.0 - radii), arr)


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
        arr = _in_closed_disk(z, "z")
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
        arr = _in_closed_disk(z, "z")
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
